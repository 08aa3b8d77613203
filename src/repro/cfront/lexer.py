"""A C tokenizer.

Covers the token set of C89 plus the C99 additions the parser understands
(``//`` comments, ``inline``, ``restrict``, ``_Bool``).  The lexer is shared
by three clients: the preprocessor (which works on raw token lines), the
parser, and the metal pattern compiler (which extends the identifier space
with hole variables).

Scanning is one compiled master pattern (``_master_pattern``) run with
``finditer``: an alternation of named groups for spacing (blanks,
``\\``-newline splices, ``//`` and ``/* */`` comments), newline,
identifier, float and integer constants, string, char, punctuators
(longest first, so the first alternative that matches is the maximal
munch) and a catch-all that becomes a :class:`LexError`.  The match's
``lastgroup`` picks the token kind.  Every position matches some group,
so the matches tile the text.  Line numbers count the newlines consumed
so far; a column is the match offset minus the offset where the current
line starts.  Only spacing and literals (via an escaped newline) can
span lines, so only they move that line start.

Identifiers and numbers are ASCII, as in C89.  Any other non-ASCII
character outside a comment or literal raises ``unexpected character``,
which the driver records as a ``unit`` degradation.
"""

import enum
import re
from dataclasses import dataclass, field

from repro.cfront.source import LexError, Location


class TokenKind(enum.Enum):
    """Lexical categories."""

    IDENT = "ident"
    KEYWORD = "keyword"
    INT_CONST = "int"
    FLOAT_CONST = "float"
    CHAR_CONST = "char"
    STRING = "string"
    PUNCT = "punct"
    NEWLINE = "newline"  # only emitted in preprocessor mode
    HASH = "hash"  # '#' at the start of a directive (preprocessor mode)
    EOF = "eof"


KEYWORDS = frozenset(
    """
    auto break case char const continue default do double else enum extern
    float for goto if inline int long register restrict return short signed
    sizeof static struct switch typedef union unsigned void volatile while
    _Bool
    """.split()
)

# Punctuators ordered longest-first so maximal munch is a simple scan.
PUNCTUATORS = (
    "...",
    "<<=",
    ">>=",
    "->",
    "++",
    "--",
    "<<",
    ">>",
    "<=",
    ">=",
    "==",
    "!=",
    "&&",
    "||",
    "+=",
    "-=",
    "*=",
    "/=",
    "%=",
    "&=",
    "^=",
    "|=",
    "##",
    "[",
    "]",
    "(",
    ")",
    "{",
    "}",
    ".",
    "&",
    "*",
    "+",
    "-",
    "~",
    "!",
    "/",
    "%",
    "<",
    ">",
    "^",
    "|",
    "?",
    ":",
    ";",
    "=",
    ",",
    "#",
    "$",  # used by metal callout syntax ${...} and $end_of_path$
    "@",
)

_SIMPLE_ESCAPES = {
    "n": "\n",
    "t": "\t",
    "r": "\r",
    "0": "\0",
    "\\": "\\",
    "'": "'",
    '"': '"',
    "a": "\a",
    "b": "\b",
    "f": "\f",
    "v": "\v",
}


@dataclass
class Token:
    """A single lexical token.

    ``value`` is the exact source spelling; semantic values (e.g. the integer
    a constant denotes) are computed lazily by the parser.
    """

    kind: TokenKind
    value: str
    location: Location = field(default_factory=Location)
    # True when whitespace preceded the token; the preprocessor needs this to
    # stringize correctly and to tell function-like macro invocations apart.
    preceded_by_space: bool = False

    def __repr__(self):
        return "Token(%s, %r)" % (self.kind.name, self.value)

    def is_punct(self, *values):
        return self.kind is TokenKind.PUNCT and self.value in values

    def is_keyword(self, *values):
        return self.kind is TokenKind.KEYWORD and self.value in values

    def is_ident(self, *values):
        if self.kind is not TokenKind.IDENT:
            return False
        return not values or self.value in values


def _master_pattern(emit_newlines):
    """The one alternation every lexeme comes from (module docstring).

    Outside preprocessor mode a newline is just more spacing."""
    blank = r"[ \t\r\f\v]" if emit_newlines else r"[ \t\r\f\v\n]"
    return re.compile(
        r"(?P<space>(?:%s|\\\n|//[^\n]*|/\*.*?\*/)+)"
        r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
        r"|(?P<float>(?:[0-9]+\.[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?[fFlL]*"
        r"|[0-9]+[eE][+-]?[0-9]+[fFlL]*)"
        r"|(?P<int>0[xX][0-9a-fA-F]*[uUlL]*|[0-9]+[uUlL]*)"
        r"|(?P<newline>\n)"
        r"|(?P<string>\"(?:[^\"\\\n]|\\.)*\")"
        r"|(?P<char>'(?:[^'\\\n]|\\.)*')"
        r"|(?P<open_comment>/\*)"
        r"|(?P<punct>%s)"
        r"|(?P<error>.)" % (blank, "|".join(map(re.escape, PUNCTUATORS))),
        re.DOTALL,
    )


_PATTERNS = {mode: _master_pattern(mode) for mode in (False, True)}

_KINDS = {
    "float": TokenKind.FLOAT_CONST,
    "int": TokenKind.INT_CONST,
    "string": TokenKind.STRING,
    "char": TokenKind.CHAR_CONST,
}

# The lexeme that opened an unterminated comment or literal -> message.
_UNTERMINATED = {
    "/*": "unterminated block comment",
    '"': "unterminated string literal",
    "'": "unterminated character constant",
}


class Lexer:
    """Converts C source text into a list of :class:`Token`.

    In preprocessor mode (``emit_newlines=True``) the lexer also emits
    NEWLINE tokens and marks a ``#`` that begins a directive line as HASH, so
    the preprocessor can recover line structure.
    """

    def __init__(self, text, filename="<string>", emit_newlines=False):
        self.text = text
        self.filename = filename
        self.emit_newlines = emit_newlines

    def tokens(self):
        """Tokenize the whole input, ending with a single EOF token."""
        text, filename = self.text, self.filename
        emit_newlines = self.emit_newlines
        out = []
        line, line_start = 1, 0
        saw_space = False
        at_line_start = True
        pos = 0
        while True:
            for match in _PATTERNS[emit_newlines].finditer(text, pos):
                group = match.lastgroup
                value = match.group()
                start = match.start()
                if group == "space":
                    saw_space = True
                    if "\n" in value:
                        line += value.count("\n")
                        line_start = start + value.rindex("\n") + 1
                    continue
                location = Location(filename, line, start - line_start + 1)
                if group == "ident":
                    kind = TokenKind.KEYWORD if value in KEYWORDS else TokenKind.IDENT
                elif group == "punct":
                    if value[0] == "#" and at_line_start and emit_newlines:
                        out.append(Token(TokenKind.HASH, "#", location, saw_space))
                        saw_space = at_line_start = False
                        if value != "#":
                            # HASH took one '#' of a '##': rescan the rest.
                            pos = start + 1
                            break
                        continue
                    kind = TokenKind.PUNCT
                elif group == "newline":
                    out.append(Token(TokenKind.NEWLINE, value, location, saw_space))
                    line += 1
                    line_start = start + 1
                    saw_space = False
                    at_line_start = True
                    continue
                elif group in _KINDS:
                    kind = _KINDS[group]
                    if "\n" in value:  # escaped newline inside a literal
                        line += value.count("\n")
                        line_start = start + value.rindex("\n") + 1
                else:
                    raise LexError(
                        _UNTERMINATED.get(value, "unexpected character %r" % value),
                        location,
                    )
                out.append(Token(kind, value, location, saw_space))
                saw_space = at_line_start = False
            else:
                break
        end = Location(filename, line, len(text) - line_start + 1)
        out.append(Token(TokenKind.EOF, "", end, saw_space))
        return out


def tokenize(text, filename="<string>"):
    """Tokenize ``text`` (without preprocessing); returns tokens incl. EOF."""
    return Lexer(text, filename).tokens()


def parse_string_literal(spelling):
    """Decode the spelling of a C string literal into its value."""
    assert spelling.startswith('"') and spelling.endswith('"')
    return _decode_escapes(spelling[1:-1])


def parse_char_constant(spelling):
    """Decode a character constant spelling into its integer value."""
    assert spelling.startswith("'") and spelling.endswith("'")
    body = _decode_escapes(spelling[1:-1])
    if not body:
        raise ValueError("empty character constant")
    return ord(body[0])


def _decode_escapes(body):
    out = []
    index = 0
    while index < len(body):
        char = body[index]
        if char != "\\":
            out.append(char)
            index += 1
            continue
        index += 1
        escape = body[index] if index < len(body) else ""
        if escape == "x":
            index += 1
            start = index
            while index < len(body) and body[index] in "0123456789abcdefABCDEF":
                index += 1
            out.append(chr(int(body[start:index] or "0", 16)))
        elif escape.isdigit():
            start = index
            while index < len(body) and body[index].isdigit() and index - start < 3:
                index += 1
            out.append(chr(int(body[start:index], 8)))
        else:
            out.append(_SIMPLE_ESCAPES.get(escape, escape))
            index += 1
    return "".join(out)


def parse_int_constant(spelling):
    """Decode an integer constant spelling (handles 0x, octal, suffixes)."""
    text = spelling.rstrip("uUlL")
    if text.lower().startswith("0x"):
        return int(text, 16)
    if text.startswith("0") and len(text) > 1:
        return int(text, 8)
    return int(text)
