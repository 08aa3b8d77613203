"""The two-pass analysis driver (§6).

"1. The first preprocessing pass compiles each file in isolation, emitting
ASTs to a temporary file.  These emitted files include all type
declarations, variable declarations, and code within the source file and
are typically four or five times larger than the text representation.

2. The second analysis pass reads these temporary files, reassembles
their ASTs, and constructs the CFG and call graph."

Pass 1 output is a pickle of the translation unit per file (our "emitted
AST" format); the size ratio claim is measured by
``benchmarks/bench_ast_emission.py``.

Both passes scale out (docs/DRIVER.md):

- :meth:`Project.compile_files` fans pass 1 over worker processes
  (``jobs=N``) and, when ``cache_dir`` is set, serves unchanged files
  from a persistent content-addressed AST cache
  (:mod:`repro.driver.cache`) instead of re-parsing them.
- :meth:`Project.run` with ``jobs=N`` partitions the call graph into
  connected components and analyzes them in worker processes, merging
  the logs back into the exact serial report order
  (:mod:`repro.driver.parallel`).
"""

import os

from repro.cfront.parser import Parser
from repro.cfront.preproc import Preprocessor
from repro.cfg.callgraph import CallGraph
from repro.cfg.fingerprint import fingerprint_tables
from repro.driver import cache as astcache
from repro.driver import store as storemod
from repro.driver.stats import DriverStats
from repro.engine.analysis import Analysis, AnalysisOptions
from repro.cfront import astnodes as ast


class CompiledUnit:
    """Pass-1 output for one source file.

    ``deps`` holds the absolute paths of every file the preprocessor
    read to build the unit (its include dependencies), as pass 1
    recorded them; empty for units compiled outside
    :meth:`Project.compile_files`.
    """

    def __init__(self, filename, unit, source_bytes, emitted_bytes,
                 from_cache=False, deps=frozenset()):
        self.filename = filename
        self.unit = unit
        self.source_bytes = source_bytes
        self.emitted_bytes = emitted_bytes
        self.from_cache = from_cache
        self.deps = deps

    @property
    def expansion_ratio(self):
        if not self.source_bytes:
            return 0.0
        return self.emitted_bytes / self.source_bytes


class Project:
    """A source base under analysis."""

    def __init__(self, include_paths=(), defines=None, emit_dir=None,
                 file_reader=None, cache_dir=None, stats=None,
                 keep_going=False, store_url=None, store_backend=None):
        self.include_paths = list(include_paths)
        self.defines = dict(defines or {})
        self.emit_dir = emit_dir
        #: Persistent content-addressed AST cache directory (incremental
        #: pass 1); None disables caching.
        self.cache_dir = cache_dir
        #: Remote artifact-store URL (``--store-url`` / ``XGCC_STORE``);
        #: combined with ``cache_dir`` it forms a tiered store whose
        #: local overlay keeps warm reads off the network.
        self.store_url = store_url
        self._store_backend = store_backend
        #: CodeChecker-style per-TU recovery: when set, a file whose
        #: pass 1 fails outright (after worker retries) is skipped and
        #: recorded as a "unit" degradation instead of aborting the run.
        self.keep_going = keep_going
        #: Optional override for reading #include targets (e.g. in-memory
        #: trees from the project generator); defaults to the filesystem.
        self.file_reader = file_reader
        #: Driver observability (timers / cache counters / worker tallies).
        self.stats = stats or DriverStats()
        self.units = []
        self.compiled = []
        self.static_vars = {}
        self._callgraph = None
        self._fingerprints = None
        #: Tier-1 cache keys this project probed (hits and stores) --
        #: recorded into the incremental manifest so cache GC knows which
        #: .ast frames a fresh manifest still depends on.
        self.ast_keys_used = []

    @property
    def store_backend(self):
        """The artifact-store backend behind this project's caches
        (built lazily: local, remote, or tiered per ``cache_dir`` /
        ``store_url``); None when caching is disabled entirely."""
        if self._store_backend is None:
            self._store_backend = storemod.open_store(
                cache_dir=self.cache_dir, store_url=self.store_url,
                stats=self.stats,
            )
        return self._store_backend

    # -- pass 1 -----------------------------------------------------------------

    def compile_text(self, text, filename="<string>"):
        """Pass 1 for in-memory source text."""
        with self.stats.phase("preprocess"):
            pp = Preprocessor(self.include_paths, self.defines, self.file_reader)
            tokens = pp.preprocess_text(text, filename)
        with self.stats.phase("parse"):
            parser = Parser(None, filename, tokens=tokens)
            unit = parser.parse_translation_unit()
            unit.filename = filename
        self.stats.add("parses")
        source_bytes = len(text.encode())
        with self.stats.phase("emit"):
            emitted = astcache.pack_unit(unit, source_bytes)
            if self.emit_dir is not None:
                os.makedirs(self.emit_dir, exist_ok=True)
                out = os.path.join(
                    self.emit_dir, os.path.basename(filename) + ".ast"
                )
                with open(out, "wb") as handle:
                    handle.write(emitted)
        compiled = CompiledUnit(filename, unit, source_bytes, len(emitted))
        self.compiled.append(compiled)
        self._register(unit, filename)
        return compiled

    def compile_file(self, path):
        """Pass 1 for one on-disk file (cache-aware when cache_dir is set)."""
        return self.compile_files([path])[0]

    def compile_files(self, paths, jobs=1, worker_timeout=None):
        """Pass 1 over a batch of files, in deterministic input order.

        ``jobs > 1`` fans preprocess/parse/emit out over a process pool;
        results are registered in ``paths`` order regardless of worker
        completion order, so serial and parallel runs build identical
        projects.  With ``cache_dir`` set, unchanged files are cache hits
        (``load_emitted`` work) rather than re-parses; corrupt entries
        are evicted and re-parsed.  A worker that dies (or outlives
        ``worker_timeout`` seconds) is retried once, then its file is
        compiled in-process.
        """
        from repro.driver.parallel import compile_files_into
        return compile_files_into(
            self, paths, jobs=jobs, worker_timeout=worker_timeout
        )

    def adopt_unit(self, compiled):
        """Register an already-compiled unit (warm daemon reuse).

        The analysis daemon keeps :class:`CompiledUnit` objects for
        unchanged files pinned in memory across edit bursts; adopting
        one costs two list appends — no preprocess, no parse, no cache
        probe.  Registration order is the caller's responsibility (the
        daemon walks files in sorted order, matching a cold run).
        """
        self.compiled.append(compiled)
        self._register(compiled.unit, compiled.filename)
        self.stats.add("units_adopted")
        return compiled

    def load_emitted(self, path):
        """Pass 2 entry: reassemble a pass-1 AST file.

        Appends a :class:`CompiledUnit` (emitted size from disk, original
        source size from the payload) so ``expansion_ratio`` and
        ``total_source_bytes`` reporting stay correct for cache-hit loads.
        """
        with open(path, "rb") as handle:
            data = handle.read()
        unit, source_bytes = astcache.unpack(data)
        compiled = CompiledUnit(
            unit.filename, unit, source_bytes, len(data), from_cache=True
        )
        self.compiled.append(compiled)
        self._register(unit, unit.filename)
        return compiled

    def _register(self, unit, filename):
        self.units.append(unit)
        self._callgraph = None
        self._fingerprints = None
        for decl in unit.decls:
            if isinstance(decl, ast.VarDecl) and decl.storage == "static":
                self.static_vars[decl.name] = filename

    # -- pass 2 ------------------------------------------------------------------

    @property
    def callgraph(self):
        if self._callgraph is None:
            with self.stats.phase("callgraph"):
                self._callgraph = CallGraph.from_units(self.units)
        return self._callgraph

    def fingerprint_tables(self):
        """``(local_hashes, fingerprints)`` of :attr:`callgraph`
        (:func:`repro.cfg.fingerprint.fingerprint_tables`), computed once
        per call graph: the incremental session and the refine pass of
        one run share a single pass over every function body."""
        if self._fingerprints is None:
            self._fingerprints = fingerprint_tables(self.callgraph)
        return self._fingerprints

    def analysis(self, options=None):
        """Build the analysis engine over the reassembled source base."""
        return Analysis(
            callgraph=self.callgraph,
            options=options or AnalysisOptions(),
            static_vars=self.static_vars,
            phase_timer=self.stats.phase,
        )

    def run(self, extensions, options=None, jobs=1, extension_factory=None,
            worker_timeout=None, roots=None, incremental=None):
        """Apply extensions to the whole project.

        ``jobs > 1`` schedules independent call-graph components onto
        worker processes (same reports, same order as serial).  Workers
        rebuild the extension list from ``extension_factory`` -- a
        picklable zero-argument callable -- or by pickling ``extensions``
        directly; when neither works the run falls back to serial.  A
        worker that dies (or outlives ``worker_timeout`` seconds) is
        retried once, then its component is analyzed in-process.

        ``roots`` restricts pass 2 to a subset of the call-graph roots.
        ``incremental`` takes an :class:`repro.driver.session.
        IncrementalSession`: the session fingerprints the call graph,
        re-analyzes only the dirty cone, and replays persisted artifacts
        for everything else -- same reports, same order as a cold run.
        """
        if incremental is not None:
            return incremental.run(
                self, extensions, options=options, jobs=jobs,
                extension_factory=extension_factory,
                worker_timeout=worker_timeout,
            )
        if jobs and jobs > 1:
            from repro.driver.parallel import run_parallel
            return run_parallel(
                self, extensions, options=options, jobs=jobs,
                extension_factory=extension_factory,
                worker_timeout=worker_timeout, roots=roots,
            )
        return self.analysis(options).run(extensions, roots=roots)

    # -- reporting helpers ----------------------------------------------------------

    def total_source_bytes(self):
        return sum(c.source_bytes for c in self.compiled)

    def total_emitted_bytes(self):
        return sum(c.emitted_bytes for c in self.compiled)

    def total_functions(self):
        return sum(len(c.unit.functions()) for c in self.compiled)
