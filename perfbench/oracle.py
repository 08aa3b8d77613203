"""Correctness oracle that does not trust xgcc.

Two checks:

- Ground truth: the ranked report text is parsed line by line and
  scored per checker family against the generator's injected bugs
  (``GeneratedProject.bugs``).  On every tree no report may land outside
  a function with an injected bug of its family, and the kinds listed in
  ``expected.json`` as ``always_found`` must all be found.  For the
  seeds recorded there, the found/missed/false-positive counts must
  match exactly.
- Byte identity: parallel, warm and daemon output must equal the text of
  a serial cold run over the same tree (done by the workloads with
  :func:`same_text`).
"""

import json
import os
import re

#: family -> (checker name in report lines, injected bug kinds)
FAMILIES = {
    "lock": ("lock_checker", ("missing-unlock", "double-lock")),
    "free": ("free_checker", ("use-after-free", "double-free",
                              "interproc-uaf")),
    "null": ("null_checker", ("unchecked-alloc",)),
}

_REPORT_LINE = re.compile(
    r"^(?P<file>[^:\s]+):(?P<line>\d+):(?P<col>\d+): (?P<checker>\w+): "
    r"(?P<message>.*) in (?P<function>\w+)(?: property began at \S+)?$"
)
#: The generator renames functions by textual replacement, which can
#: apply a module prefix twice ("m25_m25_double_lock_17"); both spellings
#: name the same generated function.
_REPEATED_PREFIX = re.compile(r"^(m\d+_)\1+")

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "expected.json")


def load_expected():
    with open(EXPECTED_PATH) as handle:
        return json.load(handle)


def canonical(function):
    return _REPEATED_PREFIX.sub(r"\1", function)


def parse_reports(text):
    """``([(checker, canonical function)], [unparsed lines])``."""
    reports, unparsed = [], []
    for line in text.splitlines():
        match = _REPORT_LINE.match(line)
        if match is None:
            unparsed.append(line)
        else:
            reports.append((match.group("checker"),
                            canonical(match.group("function"))))
    return reports, unparsed


def score(bugs, text):
    """Per-family ``{injected, found, missed, false_positives}`` plus
    per-kind ``{kind: [found, injected]}`` and the unparsed lines."""
    reports, unparsed = parse_reports(text)
    families = {}
    kinds = {}
    for family, (checker, family_kinds) in FAMILIES.items():
        family_bugs = [bug for bug in bugs if bug.kind in family_kinds]
        owners = {}
        for bug in family_bugs:
            name = canonical(bug.function)
            owners.setdefault(name, []).append(bug)
            owners.setdefault(name + "_discard", []).append(bug)
        found = set()
        false_positives = 0
        for report_checker, function in reports:
            if report_checker != checker:
                continue
            if function in owners:
                found.update(id(bug) for bug in owners[function])
            else:
                false_positives += 1
        for bug in family_bugs:
            entry = kinds.setdefault(bug.kind, [0, 0])
            entry[1] += 1
            if id(bug) in found:
                entry[0] += 1
        hits = sum(1 for bug in family_bugs if id(bug) in found)
        families[family] = {
            "injected": len(family_bugs),
            "found": hits,
            "missed": len(family_bugs) - hits,
            "false_positives": false_positives,
        }
    return families, kinds, unparsed


def check_ground_truth(bugs, text, expected, seed=None, size=None):
    """Problems (strings) with ``text`` against the ground truth; empty
    when it passes.  ``seed``/``size`` select pinned exact counts when
    ``expected`` records them (only for unedited trees)."""
    families, kinds, unparsed = score(bugs, text)
    problems = []
    if unparsed:
        problems.append("unparsed report line: %r" % unparsed[0])
    for family, counts in families.items():
        if counts["false_positives"]:
            problems.append("%s: %d report(s) outside injected bugs"
                            % (family, counts["false_positives"]))
    for kind in expected["always_found"]:
        found, injected = kinds.get(kind, (0, 0))
        if found != injected:
            problems.append("%s: found %d of %d" % (kind, found, injected))
    pinned = expected["pinned"].get(size, {}).get(str(seed))
    if pinned is not None and pinned != families:
        problems.append("counts %s differ from pinned %s"
                        % (families, pinned))
    return problems


def same_text(reference, text, label):
    """A problem list: empty when ``text`` is byte-identical."""
    if text == reference:
        return []
    ref_lines, lines = reference.splitlines(), text.splitlines()
    for index, (want, got) in enumerate(zip(ref_lines, lines)):
        if want != got:
            return ["%s differs from the serial cold reference at line %d"
                    % (label, index + 1)]
    return ["%s has %d lines, the serial cold reference %d"
            % (label, len(lines), len(ref_lines))]


def corrupt(text):
    """The teeth check's corrupted reference: one digit changed in the
    first report's line number."""
    match = re.search(r":(\d+):", text)
    if match is None:
        return text + "corrupted\n"
    digit = match.group(1)[-1]
    swapped = "1" if digit != "1" else "2"
    return text[: match.end(1) - 1] + swapped + text[match.end(1):]
