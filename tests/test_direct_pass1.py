"""Direct-mode pass 1 (docs/DRIVER.md, "Direct-mode pass 1").

A dep entry records every ``file_reader`` call the preprocessor made for
a unit; a warm run that finds every recorded response unchanged reuses
the recorded AST key without preprocessing.  Every test here checks the
direct path against a from-scratch preprocess: the AST keys must be the
ones the preprocessed tokens give, and the reports those of an uncached
run.  The per-function facts stored with each AST must equal freshly
computed ones.
"""

import os
import pickle
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cfg.callgraph import function_callees
from repro.cfg.fingerprint import FACTS_VERSION, function_token_hash
from repro.cfront.preproc import Preprocessor
from repro.cfront.source import PreprocessorError
from repro.checkers import free_checker
from repro.codegen.project_gen import generate_project
from repro.driver import cache as astcache
from repro.driver.parallel import Pass1Task, pass1_worker
from repro.driver.project import Project

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CFG_H = """\
#ifndef CFG_H
#define CFG_H
#define LIMIT 4
struct dev { int flags; int count; };
#endif
"""

A_C = """\
#include "cfg.h"
#include <absent_system.h>
int use_a(struct dev *d, int *p) {
    kfree(p);
    if (d->flags > LIMIT)
        kfree(p);
    return 0;
}
"""

B_C = """\
#include "cfg.h"
int use_b(int *p) {
    kfree(p);
    return *p;
}
"""

C_C = """\
int helper(int *p) { return *p; }
int use_c(int *p) {
    kfree(p);
    return helper(p);
}
"""


def checkers():
    return [free_checker(("kfree",))]


class Tree:
    """A small on-disk tree: two include directories, three units."""

    def __init__(self, root):
        self.root = str(root)
        self.inc1 = os.path.join(self.root, "inc1")
        self.inc2 = os.path.join(self.root, "inc2")
        self.cache = os.path.join(self.root, "cache")
        os.makedirs(self.inc1)
        os.makedirs(self.inc2)
        self.write("inc2/cfg.h", CFG_H)
        self.paths = [self.write(name, text) for name, text in
                      (("a.c", A_C), ("b.c", B_C), ("c.c", C_C))]
        self.include_paths = [self.inc1, self.inc2]
        self.defines = {}

    def path(self, name):
        return os.path.join(self.root, name)

    def write(self, name, text):
        with open(self.path(name), "w") as handle:
            handle.write(text)
        return self.path(name)

    def append(self, name, text):
        with open(self.path(name), "a") as handle:
            handle.write(text)

    def project(self, cache=True, **kwargs):
        return Project(
            include_paths=self.include_paths, defines=self.defines,
            cache_dir=self.cache if cache else None, **kwargs
        )

    def compile(self, cache=True, jobs=1, **kwargs):
        project = self.project(cache=cache, **kwargs)
        project.compile_files(self.paths, jobs=jobs)
        return project


def reference_keys(paths, include_paths, defines=None, reader=None):
    """The AST keys of a from-scratch preprocess (no cache involved)."""
    keys = []
    for path in paths:
        if reader is not None:
            text = reader(path)
        else:
            with open(path) as handle:
                text = handle.read()
        tokens = Preprocessor(include_paths, defines, reader).preprocess_text(
            text, path)
        keys.append(astcache.cache_key(path, tokens, include_paths, defines))
    return keys


def direct_keys(paths, include_paths, cache, defines=None, reader=None):
    """``[(ast_key, direct status)]`` pass 1 returns for each path."""
    out = []
    for index, path in enumerate(paths):
        result = pass1_worker(Pass1Task(
            index, path, include_paths, defines or {}, cache, None, reader,
        ))
        out.append((result.key, result.direct))
    return out


def report_keys(project):
    result = project.run(checkers())
    return [
        (r.checker, r.message, r.location.filename, r.location.line,
         r.location.column, r.function)
        for r in result.reports
    ]


def counters(project):
    return dict(project.stats.counters)


def assert_matches_scratch(tree, project, reader=None):
    """Keys and reports of a cached project equal a from-scratch run."""
    expected = reference_keys(tree.paths, tree.include_paths, tree.defines,
                              reader)
    got = direct_keys(tree.paths, tree.include_paths, tree.cache,
                      tree.defines, reader)
    assert [key for key, __ in got] == expected
    assert all(status == "hit" for __, status in got)
    cold = tree.project(cache=False, file_reader=reader)
    cold.compile_files(tree.paths)
    assert report_keys(project) == report_keys(cold)


def dep_entries(cache):
    found = []
    for dirpath, __, names in sorted(os.walk(cache)):
        for name in sorted(names):
            path = os.path.join(dirpath, name)
            if name.endswith(".ast"):
                with open(path, "rb") as handle:
                    if handle.read(len(astcache.DEP_MAGIC)) == \
                            astcache.DEP_MAGIC:
                        found.append(path)
    return found


def ast_frames(cache):
    deps = set(dep_entries(cache))
    return [
        os.path.join(dirpath, name)
        for dirpath, __, names in sorted(os.walk(cache))
        for name in sorted(names)
        if name.endswith(".ast") and os.path.join(dirpath, name) not in deps
    ]


@pytest.fixture
def tree(tmp_path):
    tree = Tree(tmp_path)
    cold = tree.compile()
    assert counters(cold) == {
        "parses": 3, "cache_misses": 3, "direct_misses": 3,
    }
    return tree


class TestWarmPath:
    def test_unchanged_tree_is_all_direct_hits(self, tree):
        warm = tree.compile()
        assert counters(warm) == {"cache_hits": 3, "direct_hits": 3}
        assert_matches_scratch(tree, warm)

    def test_dep_entries_are_pinned_with_the_asts(self, tree):
        warm = tree.compile()
        assert len(dep_entries(tree.cache)) == 3
        assert len(warm.ast_keys_used) == 6
        stored = {
            os.path.basename(path)[:-4]
            for path in dep_entries(tree.cache) + ast_frames(tree.cache)
        }
        assert set(warm.ast_keys_used) == stored

    def test_unit_deps_are_successful_reads(self, tree):
        warm = tree.compile()
        deps = {c.filename: c.deps for c in warm.compiled}
        cfg = os.path.join(tree.inc2, "cfg.h")
        assert deps[tree.path("a.c")] == frozenset([cfg])
        assert deps[tree.path("b.c")] == frozenset([cfg])
        assert deps[tree.path("c.c")] == frozenset()


class TestInvalidation:
    def test_header_content_edit_misses(self, tree):
        tree.write("inc2/cfg.h", CFG_H.replace("int count;",
                                               "int count; int pad;"))
        warm = tree.compile()
        assert counters(warm) == {
            "cache_hits": 1, "direct_hits": 1, "direct_misses": 2,
            "parses": 2, "cache_misses": 2,
        }
        assert_matches_scratch(tree, warm)

    def test_comment_only_header_edit_misses_deps_but_hits_asts(self, tree):
        tree.append("inc2/cfg.h", "/* a comment */\n")
        warm = tree.compile()
        assert counters(warm) == {
            "cache_hits": 3, "direct_hits": 1, "direct_misses": 2,
        }
        assert "parses" not in counters(warm)
        assert_matches_scratch(tree, warm)
        again = tree.compile()
        assert counters(again) == {"cache_hits": 3, "direct_hits": 3}

    def test_shadowing_header_earlier_on_path_misses(self, tree):
        tree.write("inc1/cfg.h", CFG_H.replace("int count;",
                                               "int count; int shadow;"))
        warm = tree.compile()
        assert counters(warm)["direct_misses"] == 2
        assert counters(warm)["parses"] == 2
        assert_matches_scratch(tree, warm)

    def test_new_system_header_misses(self, tree):
        tree.write("inc1/absent_system.h", "int from_system;\n")
        warm = tree.compile()
        assert counters(warm)["direct_misses"] == 1
        assert_matches_scratch(tree, warm)

    def test_deleted_header_raises_the_cold_error(self, tree):
        os.remove(os.path.join(tree.inc2, "cfg.h"))
        with pytest.raises(PreprocessorError) as cold:
            tree.compile(cache=False)
        with pytest.raises(PreprocessorError) as warm:
            tree.compile()
        assert str(warm.value) == str(cold.value)

    def test_define_change_misses(self, tree):
        tree.defines = {"LIMIT_EXTRA": "1"}
        warm = tree.compile()
        assert counters(warm)["direct_misses"] == 3
        assert_matches_scratch(tree, warm)
        assert counters(tree.compile())["direct_hits"] == 3

    def test_include_path_change_misses(self, tree):
        tree.include_paths = [tree.inc2]
        warm = tree.compile()
        assert counters(warm)["direct_misses"] == 3
        assert_matches_scratch(tree, warm)
        assert counters(tree.compile())["direct_hits"] == 3

    def test_source_edit_misses_only_that_unit(self, tree):
        tree.append("c.c", "int more(void) { return 1; }\n")
        warm = tree.compile()
        assert counters(warm)["direct_hits"] == 2
        assert counters(warm)["direct_misses"] == 1
        assert_matches_scratch(tree, warm)


class TestInMemoryReader:
    def test_keyerror_misses_are_recorded(self, tmp_path):
        files = {"a.c": A_C, "b.c": B_C, "c.c": C_C,
                 "inc2/cfg.h": CFG_H}

        def reader(path):
            return files[path]

        tree = Tree(tmp_path)
        tree.paths = ["a.c", "b.c", "c.c"]
        tree.include_paths = ["inc1", "inc2"]
        cold = tree.compile(file_reader=reader)
        assert counters(cold)["direct_misses"] == 3
        warm = tree.compile(file_reader=reader)
        assert counters(warm) == {"cache_hits": 3, "direct_hits": 3}
        assert_matches_scratch(tree, warm, reader)

        # A header appearing earlier on the path: a recorded KeyError
        # miss now reads, so the entry no longer holds.
        files["inc1/cfg.h"] = CFG_H.replace("LIMIT 4", "LIMIT 2")
        shadowed = tree.compile(file_reader=reader)
        assert counters(shadowed)["direct_misses"] == 2
        assert_matches_scratch(tree, shadowed, reader)


class TestCorruptDepEntry:
    @pytest.mark.parametrize("mode", ["truncate", "garbage"])
    def test_corrupt_entry_evicted_counted_and_repreprocessed(self, tree,
                                                               mode):
        astcache.corrupt_entry(dep_entries(tree.cache)[0], mode)
        warm = tree.compile()
        assert counters(warm) == {
            "cache_hits": 3, "direct_hits": 2, "direct_misses": 1,
            "direct_evictions": 1, "degraded_cache": 1,
        }
        (entry,) = warm.stats.degradations
        assert entry["kind"] == "cache"
        assert "corrupt dep entry" in entry["detail"]
        assert_matches_scratch(tree, warm)
        assert counters(tree.compile()) == {"cache_hits": 3,
                                            "direct_hits": 3}

    def test_ast_frame_in_place_of_a_dep_entry_is_rejected(self, tree):
        dep, frame = dep_entries(tree.cache)[0], ast_frames(tree.cache)[0]
        with open(frame, "rb") as src, open(dep, "wb") as dst:
            dst.write(src.read())
        warm = tree.compile()
        assert counters(warm)["direct_evictions"] == 1
        assert_matches_scratch(tree, warm)


class TestParallel:
    def test_jobs2_matches_serial(self, tree):
        serial = tree.compile()
        parallel = tree.compile(jobs=2)
        assert counters(parallel)["direct_hits"] == 3
        assert counters(parallel)["cache_hits"] == 3
        assert [c.filename for c in parallel.compiled] == \
            [c.filename for c in serial.compiled]
        assert [c.deps for c in parallel.compiled] == \
            [c.deps for c in serial.compiled]
        assert report_keys(parallel) == report_keys(serial)


class TestRemoteStore:
    def test_dep_entries_fetched_in_one_round_trip(self, tree, tmp_path):
        from repro.driver.store_server import StoreServer

        root = tmp_path / "store-root"
        root.mkdir()
        server = StoreServer(str(root))
        server.start()
        try:
            cold = tree.project(cache=False, store_url=server.url)
            cold.compile_files(tree.paths)
            dep_keys = set(cold.ast_keys_used) - set(
                reference_keys(tree.paths, tree.include_paths))
            assert len(dep_keys) == 3

            warm = tree.project(cache=False, store_url=server.url)
            remote = warm.store_backend.remote
            batches = []
            real = remote.get_many

            def counting(tier, keys):
                keys = list(keys)
                batches.append(set(keys))
                return real(tier, keys)

            remote.get_many = counting
            warm.compile_files(tree.paths)
            assert counters(warm)["direct_hits"] == 3
            assert [batch for batch in batches if batch & dep_keys] == \
                [dep_keys]
            assert report_keys(warm) == report_keys(cold)
        finally:
            server.stop()


def fresh_facts(decl):
    return function_token_hash(decl), function_callees(decl)


def rewrite_frames(cache, mutate):
    """Rewrite every AST frame's payload object through ``mutate``."""
    for path in ast_frames(cache):
        with open(path, "rb") as handle:
            obj = astcache.unpack_frame(astcache.FRAME_MAGIC, handle.read())
        mutate(obj)
        with open(path, "wb") as handle:
            handle.write(astcache.pack_frame(astcache.FRAME_MAGIC, obj))


class TestFacts:
    def test_stored_facts_are_tagged(self, tree):
        for path in ast_frames(tree.cache):
            with open(path, "rb") as handle:
                obj = astcache.unpack_frame(astcache.FRAME_MAGIC,
                                            handle.read())
            assert obj["facts_version"] == FACTS_VERSION

    @pytest.mark.parametrize("tag", ["stale", None])
    def test_stale_or_absent_tag_recomputes(self, tree, tag):
        cold = tree.compile(cache=False)
        cold_tables = cold.fingerprint_tables()

        def mutate(obj):
            if tag is None:
                del obj["facts_version"]
            else:
                obj["facts_version"] = tag
            for decl in obj["unit"].functions():
                if tag is None:
                    del decl.facts
                else:
                    decl.facts = ("bogus", ("bogus",))

        rewrite_frames(tree.cache, mutate)
        warm = tree.compile()
        assert counters(warm)["cache_hits"] == 3
        for compiled in warm.compiled:
            for decl in compiled.unit.functions():
                assert decl.facts == fresh_facts(decl)
        assert warm.fingerprint_tables() == cold_tables
        assert report_keys(warm) == report_keys(cold)


def _c_files(directory):
    return sorted(os.path.join(directory, name)
                  for name in os.listdir(directory) if name.endswith(".c"))


TOY = os.path.join(REPO, "examples", "toy_kernel")

REPO_SOURCES = {
    "tests/data": (_c_files(os.path.join(REPO, "tests", "data")), []),
    "examples": ([os.path.join(REPO, "examples", "fig2.c")] + _c_files(TOY),
                 [os.path.join(TOY, "include")]),
}


class TestFactsMatchFresh:
    """Stored local hashes and callee sets equal freshly computed ones,
    for units parsed this run and for units loaded from the cache."""

    def check(self, paths, include_paths, cache):
        for _run in ("parsed", "loaded"):
            project = Project(include_paths=include_paths, cache_dir=cache,
                              keep_going=True)
            project.compile_files(paths)
            assert project.compiled
            for compiled in project.compiled:
                for decl in compiled.unit.functions():
                    assert decl.facts == fresh_facts(decl), decl.name
        assert project.stats.count("direct_hits") == len(project.compiled)

    @pytest.mark.parametrize("label", sorted(REPO_SOURCES))
    def test_repo_sources(self, tmp_path, label):
        paths, include_paths = REPO_SOURCES[label]
        self.check(paths, include_paths, str(tmp_path / "cache"))

    @pytest.mark.parametrize("seed", [1, 2])
    def test_generated_projects(self, tmp_path, seed):
        gen = generate_project(seed=seed)
        for name, text in gen.files.items():
            (tmp_path / name).write_text(text)
        paths = sorted(str(tmp_path / name) for name in gen.files
                       if name.endswith(".c"))
        self.check(paths, [str(tmp_path)], str(tmp_path / "cache"))


# -- differential: direct keys == token keys over random edit sequences --------

HEADERS = ("h0.h", "h1.h")

UNITS = {
    "u0.c": '#include "h0.h"\n#include "h1.h"\nint f0(void) { return V; }\n',
    "u1.c": '#include "h1.h"\nint f1(int *p) { kfree(p); return *p; }\n',
    "u2.c": '#include <h0.h>\nint f2(void) { return 2; }\n',
}

_op = st.one_of(
    st.tuples(st.just("write"), st.sampled_from(HEADERS),
              st.sampled_from(("inc1", "inc2")), st.integers(0, 3)),
    st.tuples(st.just("delete"), st.sampled_from(HEADERS),
              st.sampled_from(("inc1", "inc2")), st.just(0)),
    st.tuples(st.just("touch"), st.sampled_from(sorted(UNITS)),
              st.just(""), st.integers(0, 1)),
)


def _header_text(name, variant):
    """Variants 0/1 differ in tokens; 2/3 are 0/1 plus a comment."""
    guard = name.replace(".", "_").upper()
    comment = "/* revision %d */\n" % variant if variant >= 2 else ""
    return (
        "%s#ifndef %s\n#define %s\n#ifndef V\n#define V %d\n#endif\n"
        "int g_%s;\n#endif\n"
        % (comment, guard, guard, variant % 2, guard.lower())
    )


def _outcome(fn):
    try:
        return "ok", fn()
    except (PreprocessorError, OSError) as err:
        return "error", "%s: %s" % (type(err).__name__, err)


@given(st.lists(_op, min_size=1, max_size=8))
@settings(max_examples=25, deadline=None)
def test_direct_key_equals_token_key(ops):
    with tempfile.TemporaryDirectory() as root:
        inc = [os.path.join(root, "inc1"), os.path.join(root, "inc2")]
        for directory in inc:
            os.makedirs(directory)
        with open(os.path.join(inc[1], "h0.h"), "w") as handle:
            handle.write(_header_text("h0.h", 0))
        with open(os.path.join(inc[1], "h1.h"), "w") as handle:
            handle.write(_header_text("h1.h", 0))
        paths = []
        for name, text in sorted(UNITS.items()):
            paths.append(os.path.join(root, name))
            with open(paths[-1], "w") as handle:
                handle.write(text)
        cache = os.path.join(root, "cache")
        for step in [None] + list(ops):
            if step is not None:
                kind, name, where, variant = step
                target = os.path.join(root, where, name)
                if kind == "write":
                    with open(target, "w") as handle:
                        handle.write(_header_text(name, variant))
                elif kind == "delete":
                    if os.path.exists(target):
                        os.remove(target)
                else:
                    with open(target, "a") as handle:
                        handle.write("/* touched */\n" if variant else
                                     "int t_%d;\n" % len(ops))
            for path in paths:
                expected = _outcome(
                    lambda: reference_keys([path], inc)[0])
                got = _outcome(
                    lambda: direct_keys([path], inc, cache)[0][0])
                assert got == expected
                # A second probe of an unchanged tree is a direct hit.
                if expected[0] == "ok":
                    assert direct_keys([path], inc, cache)[0] == \
                        (expected[1], "hit")


def test_dep_entry_round_trip():
    deps = [("inc1/x.h", None), ("inc2/x.h", "ab" * 32)]
    data = astcache.pack_deps("k" * 64, deps)
    assert astcache.unpack_deps(data) == ("k" * 64, deps)
    with pytest.raises(astcache.CacheCorruption):
        astcache.unpack(data)
    with pytest.raises(astcache.CacheCorruption):
        astcache.unpack_deps(astcache.pack_frame(
            astcache.DEP_MAGIC, {"format": -1}))
    with pytest.raises(astcache.CacheCorruption):
        astcache.unpack_deps(pickle.dumps({"not": "a frame"}))
