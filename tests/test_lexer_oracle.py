"""Differential tests: the regex lexer against the character-stepping oracle.

``lexer_oracle.Lexer`` is the scanner ``repro.cfront.lexer`` used before
it became one master regular expression.  Both must yield the same
``(kind, value, location, preceded_by_space)`` list, or the same
``LexError`` text, in both ``emit_newlines`` modes.  The one allowed
difference is the ASCII rule: the oracle takes any ``str.isalpha`` /
``str.isdigit`` character into identifiers and numbers, the regex lexer
raises ``unexpected character`` on the first non-ASCII character outside
a comment or literal.

The AST-cache key hashes the preprocessed token stream, so the tree
checks below also compare :func:`repro.driver.cache.cache_key` for every
unit preprocessed through each lexer: a cache filled by the oracle must
still hit.
"""

import glob
import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lexer_oracle import Lexer as OracleLexer
from repro.cfront import preproc
from repro.cfront.lexer import PUNCTUATORS, Lexer
from repro.cfront.source import LexError
from repro.codegen.project_gen import generate_project
from repro.driver.cache import cache_key

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# CI raises the budget (``XGCC_LEXER_ORACLE_EXAMPLES=5000``).
EXAMPLES = int(os.environ.get("XGCC_LEXER_ORACLE_EXAMPLES", "300"))

# Fragments weighted toward the places a regex and a scanner can
# disagree: splices (also inside literals and after ``//``), unterminated
# comments and literals, runs of dots, number spellings, ``#`` at and
# after the start of a line, and line endings.
EDGE_FRAGMENTS = [
    "\\\n", "\\", "\\\r\n", "\n", "\r\n", "\r", " ", "\t", "\f", "\v",
    "// note \\\n", "// tail", "//", "/* c */", "/*\n*/", "/*", "*/", "/",
    '"s"', '"a\\\nb"', '"\\"', '"\\', '"', '"\\n"', "'c'", "'\\''", "''",
    "'", "'\\\n'", ".", "..", "...", "....",
    "1e5", "1.e3", ".5", "1e+", "1e-2", "2.5e-3f", ".5E+1", "0x1fUL", "07", "08", "1.5f",
    "3ul", "1.0fl", "0x", "0X.5", "1.", "1e", "0e5", "5.L", "9u2",
    "#", "##", "###", "\n#", "\n ##", "#define X 1", "$", "@", "`",
    "int", "while", "x", "_a1", "abc", "\x00",
    "é", "²", " ", "٣",
]
ALPHABET = "ab_09xXeE.+-#$@\\/*\"' \t\n\r;{}()<>=!&|^%~?:,[]é²"

fragments = st.one_of(
    st.sampled_from(EDGE_FRAGMENTS),
    st.sampled_from(PUNCTUATORS),
    st.text(alphabet=ALPHABET, max_size=4),
)
c_ish_text = st.lists(fragments, max_size=40).map("".join)


def lex(lexer_class, text, emit_newlines):
    try:
        tokens = lexer_class(text, "gen.c", emit_newlines).tokens()
    except LexError as error:
        return str(error)
    return [(t.kind, t.value, t.location, t.preceded_by_space) for t in tokens]


def offset_of(text, location):
    lines = text.split("\n")
    return sum(len(line) + 1 for line in lines[: location.line - 1]) + location.column - 1


def assert_same_tokens(text, emit_newlines):
    new = lex(Lexer, text, emit_newlines)
    old = lex(OracleLexer, text, emit_newlines)
    if new == old:
        return
    # The ASCII rule is the only licensed difference: the regex lexer
    # stopped on a non-ASCII character outside any comment or literal.
    with pytest.raises(LexError) as caught:
        Lexer(text, "gen.c", emit_newlines).tokens()
    error = caught.value
    char = text[offset_of(text, error.location)]
    assert not char.isascii(), (text, new, old)
    assert error.message == "unexpected character %r" % char, (text, new)


class TestDifferential:
    @pytest.mark.parametrize("emit_newlines", [False, True])
    @settings(max_examples=EXAMPLES, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(text=c_ish_text)
    def test_generated_text(self, text, emit_newlines):
        assert_same_tokens(text, emit_newlines)

    @pytest.mark.parametrize("emit_newlines", [False, True])
    @pytest.mark.parametrize(
        "text",
        [
            "1e5 1.e3 .5 1e+ 0x1fUL 07 1.5f 3ul 1.0fl",
            "a.b ..c ... ....5 1..2",
            "#define A(x) x ## x\n  # if 1\nb # c\n##x\n###\n",
            'x = "a\\\nb"; // c \\\nd\ny',
            "a\r\nb\\\r\nc",
            "$end_of_path$ @x ${y}",
            "/* a\n b */ # x\n# y",
            '"open', "'c", "/* open", "a\\", "`", "xéy", "²",
        ],
    )
    def test_named_edge_cases(self, text, emit_newlines):
        assert_same_tokens(text, emit_newlines)

    def test_non_ascii_raises_unexpected_character(self):
        for text in ("café", "x = 1²;", " ", "a\n٣"):
            with pytest.raises(LexError, match="unexpected character"):
                Lexer(text).tokens()
        # Inside comments and literals anything goes.
        tokens = Lexer('/* é */ "é" // ²\n\'é\'').tokens()
        assert [t.value for t in tokens[:-1]] == ['"é"', "'é'"]


def repo_sources():
    paths = glob.glob(os.path.join(ROOT, "tests", "data", "*.c"))
    paths += glob.glob(os.path.join(ROOT, "examples", "**", "*.[ch]"), recursive=True)
    sources = []
    for path in sorted(paths):
        with open(path) as handle:
            sources.append((path, handle.read()))
    return sources


def cache_keys(sources, file_reader=None):
    """The AST-cache key of every ``.c`` unit, preprocessed as pass 1
    does (its own directory and ``include/`` beside it on the path)."""
    keys = []
    for name, text in sources:
        if not name.endswith(".c"):
            continue
        base = os.path.dirname(name)
        include_paths = [base, os.path.join(base, "include")]
        pp = preproc.Preprocessor(include_paths, file_reader=file_reader)
        tokens = pp.preprocess_text(text, name)
        keys.append(cache_key(name, tokens, include_paths))
    return keys


def assert_same_trees(sources, monkeypatch, file_reader=None):
    assert sources
    for name, text in sources:
        for emit_newlines in (False, True):
            assert lex(Lexer, text, emit_newlines) == lex(
                OracleLexer, text, emit_newlines
            ), name
    keys = cache_keys(sources, file_reader)
    monkeypatch.setattr(preproc, "Lexer", OracleLexer)
    assert cache_keys(sources, file_reader) == keys


class TestTrees:
    def test_repo_sources(self, monkeypatch):
        assert_same_trees(repo_sources(), monkeypatch)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_generated_trees(self, seed, monkeypatch):
        gen = generate_project(seed=seed, n_modules=12, functions_per_module=30)
        assert_same_trees(sorted(gen.files.items()), monkeypatch,
                          gen.file_reader)
