"""Dispatch tables in front of the tree-walking matcher vs the bare
matcher.

There is one pattern matcher, the interpreter in
``repro.metal.patterns``; "compiled" means the per-state dispatch tables
of ``repro.metal.compile`` (docs/MATCHER.md) choosing which rules it
tries, "interp" means it tries every transition of the state.

Dumped to ``BENCH_matcher.json``: end-to-end analysis wall time (parse
excluded, table construction included -- the cost a user pays per
``run``) under ``--matcher=interp`` and ``--matcher=compiled`` on

- ``fig3_scenarios``: the Figure 3 lock scenarios, replicated 40x --
  instance-light, so the ratio is modest and honest;
- ``fig3_lock_burst``: the Figure 3 checker on a function holding 24
  locks across 300 straight-line statements -- the per-(instance, point)
  dispatch loop the tables were built to kill.  The CI matcher lane's
  >=1.5x perf-regression tripwire;
- ``torture_instances``: the free checker with 32 live freed pointers
  over 500 statements -- the >=2x acceptance series;
- ``torture_files``: every seed checker over every tests/data torture
  file (ratios reported, outputs asserted byte-identical);
- ``multifile``: the Section 6 multi-module project audit.

Every series also asserts both modes report byte-identically: this file
is a differential harness that happens to keep score.
"""

import json
import os
import time

from repro.cfront.parser import parse
from repro.checkers import ALL_CHECKERS, free_checker, lock_checker
from repro.codegen.project_gen import default_checkers, generate_project
from repro.engine.analysis import Analysis, AnalysisOptions
from repro.ranking.severity import stratify

SUMMARY_PATH = "BENCH_matcher.json"
_summary = {}

DATA = os.path.join(os.path.dirname(__file__), os.pardir, "tests", "data")
TORTURE = ["torture_kernelish", "torture_stmts", "torture_exprs",
           "torture_decls"]


def _dump_summary():
    with open(SUMMARY_PATH, "w") as handle:
        json.dump(_summary, handle, indent=2, sort_keys=True)
        handle.write("\n")


def ranked(result):
    return "\n".join(r.format_trace() for r in stratify(result.reports))


def _one_run(code, extension_factory, mode, filename):
    unit = parse(code, filename)
    extension = extension_factory()
    start = time.perf_counter()
    result = Analysis(
        [unit], options=AnalysisOptions(matcher=mode)
    ).run(extension)
    return time.perf_counter() - start, ranked(result)


def compare_modes(name, code, extension_factory, reps=4,
                  filename="bench.c"):
    """Best-of-``reps`` per mode, modes interleaved within each rep so
    host-load drift hits both sides equally."""
    interp_s = compiled_s = None
    interp_text = compiled_text = None
    for _ in range(reps):
        elapsed, interp_text = _one_run(
            code, extension_factory, "interp", filename
        )
        interp_s = elapsed if interp_s is None else min(interp_s, elapsed)
        elapsed, compiled_text = _one_run(
            code, extension_factory, "compiled", filename
        )
        compiled_s = (
            elapsed if compiled_s is None else min(compiled_s, elapsed)
        )
    assert interp_text == compiled_text, name
    row = {
        "interp_s": round(interp_s, 4),
        "compiled_s": round(compiled_s, 4),
        "speedup": round(interp_s / compiled_s, 2),
        "byte_identical": True,
    }
    _summary[name] = row
    _dump_summary()
    print("  %-18s interp %.4fs  compiled %.4fs  %.2fx"
          % (name, interp_s, compiled_s, row["speedup"]))
    return row


FIG3_SCENARIOS = """
int scenario_unheld(int *l) { unlock(l); return 0; }
int scenario_double(int *l) { lock(l); lock(l); unlock(l); return 0; }
int scenario_leak(int *l, int e) {
    lock(l);
    if (e)
        return -1;
    unlock(l);
    return 0;
}
int scenario_trylock_ok(int *l) {
    if (trylock(l)) {
        unlock(l);
        return 1;
    }
    return 0;
}
int scenario_trylock_leak(int *l) {
    if (trylock(l))
        return 1;
    return 0;
}
int scenario_clean(int *l) { lock(l); unlock(l); return 0; }
"""


def lock_burst_code(n_locks=24, n_stmts=300):
    lines = ["    lock(l%d);" % i for i in range(n_locks)]
    lines += ["    acc = acc + step;"] * n_stmts
    lines += ["    unlock(l%d);" % i for i in range(n_locks)]
    params = ", ".join("int *l%d" % i for i in range(n_locks))
    return ("int burst(%s, int acc, int step) {\n" % params
            + "\n".join(lines) + "\n    return acc;\n}\n")


def free_torture_code(n_pointers=32, n_stmts=500):
    lines = ["    kfree(p%d);" % i for i in range(n_pointers)]
    lines += ["    acc = acc + step;"] * n_stmts
    params = ", ".join("int *p%d" % i for i in range(n_pointers))
    return ("int churn(%s, int acc, int step) {\n" % params
            + "\n".join(lines) + "\n    return acc;\n}\n")


def test_fig3_scenarios():
    print("\nmatcher modes, Fig. 3 scenarios x40:")
    code = "\n".join(
        FIG3_SCENARIOS.replace("scenario_", "s%d_" % i) for i in range(40)
    )
    compare_modes("fig3_scenarios", code, lock_checker, reps=6)


def test_fig3_lock_burst_tripwire():
    """The CI matcher lane's perf-regression tripwire: the Figure 3
    checker with 24 concurrently-held locks must stay >=1.5x."""
    print("\nmatcher modes, Fig. 3 lock burst:")
    row = compare_modes("fig3_lock_burst", lock_burst_code(), lock_checker)
    assert row["speedup"] >= 1.5, row


def test_torture_instances_acceptance():
    """The acceptance series: >=2x end-to-end with dispatch tables on
    an instance-heavy torture workload."""
    print("\nmatcher modes, instance torture:")
    row = compare_modes(
        "torture_instances", free_torture_code(), free_checker
    )
    assert row["speedup"] >= 2.0, row


def test_torture_files():
    print("\nmatcher modes, torture files (all seed checkers):")
    rows = {}
    for fname in TORTURE:
        with open(os.path.join(DATA, fname + ".c")) as handle:
            code = handle.read()

        def run(mode):
            start = time.perf_counter()
            texts = []
            for name in sorted(ALL_CHECKERS):
                unit = parse(code, fname + ".c")
                result = Analysis(
                    [unit], options=AnalysisOptions(matcher=mode)
                ).run(ALL_CHECKERS[name]())
                texts.append(ranked(result))
            return time.perf_counter() - start, texts

        interp_s = compiled_s = None
        interp_texts = compiled_texts = None
        for _ in range(2):
            elapsed, interp_texts = run("interp")
            interp_s = (
                elapsed if interp_s is None else min(interp_s, elapsed)
            )
            elapsed, compiled_texts = run("compiled")
            compiled_s = (
                elapsed if compiled_s is None else min(compiled_s, elapsed)
            )
        assert interp_texts == compiled_texts, fname
        rows[fname] = {
            "interp_s": round(interp_s, 4),
            "compiled_s": round(compiled_s, 4),
            "speedup": round(interp_s / compiled_s, 2),
            "byte_identical": True,
        }
        print("  %-20s interp %.4fs  compiled %.4fs  %.2fx"
              % (fname, interp_s, compiled_s, rows[fname]["speedup"]))
    _summary["torture_files"] = rows
    _dump_summary()


def test_multifile():
    print("\nmatcher modes, multi-module audit:")

    def one_audit(mode):
        generated = generate_project(
            seed=11, n_modules=8, functions_per_module=12, bug_rate=0.35
        )
        project = generated.make_project()
        start = time.perf_counter()
        result = project.run(
            default_checkers(), options=AnalysisOptions(matcher=mode)
        )
        return time.perf_counter() - start, ranked(result)

    rows = {}
    for _ in range(5):
        for mode in ("interp", "compiled"):
            elapsed, text = one_audit(mode)
            row = rows.setdefault(mode, {"seconds": elapsed, "ranked": text})
            row["seconds"] = min(row["seconds"], elapsed)
    for mode in rows:
        rows[mode]["seconds"] = round(rows[mode]["seconds"], 4)
    assert rows["interp"]["ranked"] == rows["compiled"]["ranked"]
    speedup = rows["interp"]["seconds"] / rows["compiled"]["seconds"]
    _summary["multifile"] = {
        "interp_s": rows["interp"]["seconds"],
        "compiled_s": rows["compiled"]["seconds"],
        "speedup": round(speedup, 2),
        "byte_identical": True,
    }
    _dump_summary()
    print("  multifile 8x12     interp %.4fs  compiled %.4fs  %.2fx"
          % (rows["interp"]["seconds"], rows["compiled"]["seconds"],
             speedup))
