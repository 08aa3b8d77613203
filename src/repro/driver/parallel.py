"""Parallel scheduling for both driver passes (§6 at scale).

Pass 1 is embarrassingly parallel: each file is preprocessed, parsed, and
emitted in isolation, so :func:`compile_files_into` fans the per-file work
out over a ``ProcessPoolExecutor`` and registers results in input order --
serial and parallel runs build byte-identical projects.

Pass 2 parallelism rides on a structural fact: the DFS never follows a
call edge out of a weakly-connected call-graph component, so components
can be analyzed in separate worker processes with the full engine
(summaries, false-path pruning, composition all intact).  The parent
merges worker logs back into the *serial* report order using the per-root
spans the engine records (:attr:`repro.engine.analysis.Analysis.root_spans`),
so parallel runs produce the same reports in the same order.

Both passes degrade instead of dying (docs/DRIVER.md, "Degradation
semantics"):

- A worker that crashes, is killed, or exceeds ``worker_timeout`` is
  retried once in a fresh pool; if that also fails, its work order runs
  in-process.  Every recovery is counted and recorded in the driver
  stats' degradation list.
- A corrupt cache entry (checksum mismatch, version skew, unreadable
  pickle) is evicted and its file re-parsed rather than poisoning the
  run.
- Extensions hold Python callables (checker actions are lambdas), which
  do not pickle; workers therefore rebuild them from an
  ``extension_factory`` -- any picklable zero-argument callable -- or
  from a pickle of the extension list when that happens to work.  When
  neither does, the run falls back to serial, and the reason (the actual
  pickling error, not a silent swallow) lands in the stats.
"""

import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout

from repro import faults
from repro.driver import cache as astcache
from repro.driver import store as storemod


def _read_source(path):
    with open(path) as handle:
        return handle.read()


# -- fault-tolerant pool scheduling -------------------------------------------


def _pickle_error(obj):
    """The exception pickling ``obj`` raises, or None when it ships."""
    try:
        pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as err:
        return err
    return None


def _shutdown_pool(pool, kill=False):
    """Shut a pool down; ``kill`` terminates workers first (the only way
    to reclaim a worker stuck in a hung task)."""
    if kill:
        for proc in list(getattr(pool, "_processes", {}).values()):
            try:
                proc.terminate()
            except OSError:
                pass
    pool.shutdown(wait=not kill, cancel_futures=True)


def run_tasks_with_recovery(tasks, worker, jobs, stats, label,
                            timeout=None, keep_going=False):
    """Run work orders over a process pool with crash/hang recovery.

    Scheduling is one batch wave plus containment: the batch runs
    everything at ``jobs`` width; a task whose worker died (or timed out
    after ``timeout`` seconds) is retried once in its own fresh
    single-worker pool, so a deterministic crasher cannot take anything
    else down with it; a task that fails both times runs in-process.
    One worker crash can still break the whole batch pool
    (``BrokenProcessPool`` hits every in-flight future), so neighbouring
    tasks may ride through the retry path as collateral -- they recover
    in their isolated pools, and each failure's actual exception is
    recorded in the stats degradation list.

    Returns ``{task.index: result}``.  An in-process failure propagates,
    unless ``keep_going`` is set, in which case the task's result is
    None and a "unit" degradation is recorded.
    """
    results = {}
    notes = {}
    batch_failures = {}
    timed_out = False
    pool = ProcessPoolExecutor(max_workers=min(jobs, len(tasks)))
    try:
        futures = [(task, pool.submit(worker, task)) for task in tasks]
        for task, future in futures:
            try:
                results[task.index] = future.result(timeout=timeout)
            except Exception as err:
                timed_out = timed_out or isinstance(err, FutureTimeout)
                batch_failures[task.index] = err
    finally:
        _shutdown_pool(pool, kill=timed_out)

    pending = []
    for task in tasks:
        err = batch_failures.get(task.index)
        if err is None:
            continue
        stats.add("%s_worker_failures" % label)
        stats.add("%s_worker_retries" % label)
        notes[task.index] = "%s task %s worker failed: %r" % (
            label, task.index, err,
        )
        retry_pool = ProcessPoolExecutor(max_workers=1)
        retry_timed_out = False
        try:
            results[task.index] = retry_pool.submit(worker, task).result(
                timeout=timeout
            )
            notes[task.index] += "; recovered on retry"
        except Exception as retry_err:
            retry_timed_out = isinstance(retry_err, FutureTimeout)
            stats.add("%s_worker_failures" % label)
            notes[task.index] += "; retry failed: %r" % retry_err
            pending.append(task)
        finally:
            _shutdown_pool(retry_pool, kill=retry_timed_out)

    for task in pending:
        stats.add("%s_inprocess_fallbacks" % label)
        try:
            results[task.index] = worker(task)
            notes[task.index] += "; recovered in-process"
        except Exception as err:
            if not keep_going:
                stats.record_degradation("worker", notes.pop(task.index))
                raise
            notes[task.index] += "; in-process run failed: %r" % err
            stats.add("%s_tasks_skipped" % label)
            stats.record_degradation(
                "unit", "%s task %s skipped: %r" % (label, task.index, err)
            )
            results[task.index] = None
    for index in sorted(notes):
        stats.record_degradation("worker", notes[index])
    return results


# -- pass 1 -------------------------------------------------------------------


class Pass1Task:
    """One file's pass-1 work order, shipped to a worker.

    ``store_url`` (a string) travels to pooled workers, which build (and
    memoize) their own backend connection; ``store`` carries a live
    backend object only for in-process execution -- it must stay None
    when the task crosses a process boundary (sockets do not pickle).
    """

    __slots__ = ("index", "path", "include_paths", "defines", "cache_dir",
                 "emit_dir", "file_reader", "store_url", "store", "digests",
                 "text", "dep_data")

    def __init__(self, index, path, include_paths, defines, cache_dir,
                 emit_dir, file_reader, store_url=None, store=None,
                 digests=None):
        self.index = index
        self.path = path
        self.include_paths = include_paths
        self.defines = defines
        self.cache_dir = cache_dir
        self.emit_dir = emit_dir
        self.file_reader = file_reader
        self.store_url = store_url
        self.store = store
        #: ``{path: digest}`` shared by the in-process tasks of one
        #: ``compile_files`` call, so a header many units include is
        #: read and hashed once per call (never across calls: the daemon
        #: re-validates every burst).  Pooled tasks get a fresh one each.
        self.digests = digests
        #: Source text and dep-entry bytes (``b""`` when absent) read
        #: ahead by the parent on a batching backend; None otherwise.
        self.text = None
        self.dep_data = None

    def __getstate__(self):
        state = {slot: getattr(self, slot) for slot in self.__slots__}
        state["store"] = None  # live backends never cross processes
        state["digests"] = None
        return state

    def __setstate__(self, state):
        for slot, value in state.items():
            setattr(self, slot, value)


class Pass1Result:
    """What comes back: a cache hit (local payload path and/or the frame
    bytes fetched from a remote store) or a freshly parsed unit (shipped
    back through the pool's own pickling)."""

    __slots__ = ("index", "filename", "status", "key", "cache_path", "unit",
                 "source_bytes", "emitted_bytes", "timings", "pid", "data",
                 "dep_key", "direct", "direct_error", "deps")

    def __init__(self, index, filename, status, key, cache_path, unit,
                 source_bytes, emitted_bytes, timings, pid, data=None):
        self.index = index
        self.filename = filename
        self.status = status  # "hit" | "parsed"
        self.key = key
        self.cache_path = cache_path
        self.unit = unit
        self.source_bytes = source_bytes
        self.emitted_bytes = emitted_bytes
        self.timings = timings
        self.pid = pid
        self.data = data
        #: Direct mode: the unit's dep-entry key, whether the entry
        #: served the AST key ("hit") or the unit was preprocessed
        #: ("miss"; None without a cache), why a corrupt entry was
        #: evicted, and the reader calls behind the unit.
        self.dep_key = None
        self.direct = None
        self.direct_error = None
        self.deps = ()


#: Per-process backend memo: a pooled worker keeps one live store
#: connection per (cache_dir, store_url) across all its tasks.
_WORKER_STORES = {}


def _worker_store(cache_dir, store_url):
    memo_key = (cache_dir, store_url)
    backend = _WORKER_STORES.get(memo_key)
    if backend is None:
        backend = storemod.open_store(
            cache_dir=cache_dir, store_url=store_url
        )
        _WORKER_STORES[memo_key] = backend
    return backend


def _fetch_hit(store, key):
    """``(data, path, emitted_bytes)`` of a cached AST, or None."""
    data, hit_path = store.fetch(key)
    if data is None and hit_path is None:
        return None
    if hit_path is not None:
        try:
            return data, hit_path, os.path.getsize(hit_path)
        except OSError:
            return data, hit_path, len(data or b"")
    return data, None, len(data)


def _direct_probe(task, store, dkey, result):
    """Direct mode: the validated dep entry's ``(ast_key, deps)``, or
    None.  A corrupt entry is evicted and its error noted on
    ``result``."""
    data = task.dep_data
    if data is None:
        try:
            data = store.fetch_deps(dkey)
        except storemod.StoreError:
            data = None
    if not data:
        return None
    try:
        ast_key, deps = astcache.unpack_deps(data)
    except astcache.CacheCorruption as err:
        result.direct_error = str(err)
        store.evict(dkey)
        return None
    recorder = astcache.DependencyRecorder(task.file_reader)
    digests = task.digests if task.digests is not None else {}
    if not astcache.deps_hold(deps, recorder, digests):
        return None
    return ast_key, deps


def pass1_worker(task):
    """Dep probe -> preprocess -> cache probe -> parse -> emit for one
    file.

    Runs in a worker process (or inline for ``jobs=1``).  With a cache,
    direct mode comes first: a dep entry whose recorded reads all still
    hold names the AST key without preprocessing.  Otherwise the cache
    probe happens *after* preprocessing because the key hashes the
    preprocessed token stream (header edits must invalidate
    dependents); a hit still skips the expensive part, the parse.
    """
    from repro.cfront.preproc import Preprocessor

    faults.at_worker_entry("pass1.worker", key=task.path)
    timings = {}
    result = Pass1Result(
        index=task.index, filename=task.path, status=None, key=None,
        cache_path=None, unit=None, source_bytes=None, emitted_bytes=None,
        timings=timings, pid=os.getpid(),
    )
    read = task.file_reader or _read_source
    start = time.perf_counter()
    text = task.text if task.text is not None else read(task.path)

    store = None
    if task.cache_dir or getattr(task, "store_url", None):
        backend = getattr(task, "store", None) or _worker_store(
            task.cache_dir, getattr(task, "store_url", None)
        )
        store = astcache.AstCache(backend=backend)
        result.dep_key = astcache.dep_key(
            task.path, text, task.include_paths, task.defines
        )
        direct = _direct_probe(task, store, result.dep_key, result)
        if direct is not None:
            hit = _fetch_hit(store, direct[0])
            if hit is not None:
                result.status, result.direct = "hit", "hit"
                result.key, result.deps = direct
                result.data, result.cache_path, result.emitted_bytes = hit
                return result
        result.direct = "miss"

    recorder = astcache.DependencyRecorder(task.file_reader)
    pp = Preprocessor(task.include_paths, task.defines, recorder)
    tokens = pp.preprocess_text(text, task.path)
    timings["preprocess"] = time.perf_counter() - start
    result.deps = recorder.calls

    if store is not None:
        result.key = astcache.cache_key(
            task.path, tokens, task.include_paths, task.defines
        )
        hit = _fetch_hit(store, result.key)
        if hit is not None:
            store.store_deps(result.dep_key, result.key, recorder.calls)
            result.status = "hit"
            result.data, result.cache_path, result.emitted_bytes = hit
            return result

    from repro.cfg.fingerprint import attach_facts
    from repro.cfront.parser import Parser

    faults.check("pass1.parse", key=task.path)
    start = time.perf_counter()
    parser = Parser(None, task.path, tokens=tokens)
    unit = parser.parse_translation_unit()
    unit.filename = task.path
    timings["parse"] = time.perf_counter() - start

    start = time.perf_counter()
    if store is not None:
        # Facts ride in the stored frame; loads reuse them.
        attach_facts(unit)
    source_bytes = len(text.encode())
    payload = astcache.pack_unit(unit, source_bytes)
    if store is not None:
        store.store(result.key, payload)
        store.store_deps(result.dep_key, result.key, recorder.calls)
    if task.emit_dir:
        os.makedirs(task.emit_dir, exist_ok=True)
        out = os.path.join(
            task.emit_dir, os.path.basename(task.path) + ".ast"
        )
        with open(out, "wb") as handle:
            handle.write(payload)
    timings["emit"] = time.perf_counter() - start

    result.status, result.unit = "parsed", unit
    result.source_bytes, result.emitted_bytes = source_bytes, len(payload)
    return result


def _prefetch_deps(tasks, backend):
    """Read every source and fetch every dep entry in one backend batch
    (no per-file round trip on a remote store).  A source that cannot be
    read is left for its worker, which raises the real error."""
    keyed = {}
    for task in tasks:
        read = task.file_reader or _read_source
        try:
            task.text = read(task.path)
        except (OSError, KeyError, ValueError):
            continue
        keyed[astcache.dep_key(
            task.path, task.text, task.include_paths, task.defines
        )] = task
    try:
        found = backend.get_many("ast", sorted(keyed)) if keyed else {}
    except storemod.StoreError:
        found = {}
    for key, task in keyed.items():
        task.dep_data = found.get(key, b"")


def compile_files_into(project, paths, jobs=1, worker_timeout=None):
    """Run pass 1 for ``paths`` into ``project``; returns CompiledUnits."""
    paths = list(paths)
    digests = {}
    tasks = [
        Pass1Task(
            index, path, project.include_paths, project.defines,
            project.cache_dir, project.emit_dir, project.file_reader,
            store_url=getattr(project, "store_url", None), digests=digests,
        )
        for index, path in enumerate(paths)
    ]
    stats = project.stats
    backend = getattr(project, "store_backend", None)
    if backend is not None and getattr(backend, "prefers_batch", False):
        _prefetch_deps(tasks, backend)
    keep_going = getattr(project, "keep_going", False)
    use_pool = bool(jobs and jobs > 1 and len(tasks) > 1)
    if use_pool:
        err = _pickle_error(tasks[0])
        if err is not None:
            stats.add("pass1_serial_fallback")
            stats.record_degradation(
                "pickle",
                "pass-1 tasks do not pickle (%r); running serially" % err,
            )
            use_pool = False
    if not use_pool:
        # In-process execution shares the project's live backend (one
        # socket, one overlay) instead of rebuilding one per task.
        if backend is not None:
            for task in tasks:
                task.store = backend
    start = time.perf_counter()
    if use_pool:
        results = run_tasks_with_recovery(
            tasks, pass1_worker, jobs, stats, "pass1",
            timeout=worker_timeout, keep_going=keep_going,
        )
    else:
        results = {}
        for task in tasks:
            try:
                results[task.index] = pass1_worker(task)
            except Exception as err:
                if not keep_going:
                    raise
                stats.add("pass1_tasks_skipped")
                stats.record_degradation(
                    "unit",
                    "%s failed pass 1 (%r); unit skipped" % (task.path, err),
                )
                results[task.index] = None
    stats.add_time("pass1_wall", time.perf_counter() - start)

    if backend is not None and getattr(backend, "prefers_batch", False):
        # Pooled workers touched their own connections per task; fold
        # the hit keys (and the dep entries that named them) into one
        # batched remote touch so store GC sees warm use without a
        # round trip per file.
        hit_keys = sorted(
            key for result in results.values()
            if result is not None and result.status == "hit"
            for key in (result.key, result.dep_key) if key
        )
        if hit_keys:
            try:
                backend.touch_many("ast", hit_keys)
            except storemod.StoreError:
                pass

    compiled = []
    for task in tasks:
        result = results.get(task.index)
        if result is None:
            continue
        compiled.append(_absorb(project, task, result))
    return compiled


def _absorb(project, task, result):
    """Register one worker result with the parent project (input order).

    Cache hits are verified here (checksum + parser version); a corrupt
    entry is evicted, recorded as a degradation, and its file re-parsed
    in-process -- a poisoned cache can slow a run down but never crash it
    or alter its reports.
    """
    from repro.driver.project import CompiledUnit

    stats = project.stats
    stats.count_worker_task(result.pid)
    stats.merge_timings(result.timings)
    deps = frozenset(
        os.path.abspath(path) for path, digest in result.deps if digest
    )
    if result.direct_error is not None:
        stats.add("direct_evictions")
        stats.record_degradation(
            "cache",
            "%s: corrupt dep entry (%s); evicted and re-preprocessed"
            % (result.filename, result.direct_error),
        )
    if result.status == "hit":
        try:
            if result.cache_path is not None:
                with open(result.cache_path, "rb") as handle:
                    data = handle.read()
            elif result.data is not None:
                data = result.data
            else:
                raise astcache.CacheCorruption("hit carried no payload")
            unit, source_bytes = astcache.unpack(data)
        except (OSError, astcache.CacheCorruption) as err:
            stats.add("cache_evictions")
            stats.record_degradation(
                "cache",
                "%s: corrupt cache entry (%s); evicted and re-parsed"
                % (result.filename, err),
            )
            backend = getattr(project, "store_backend", None)
            if backend is not None:
                astcache.AstCache(backend=backend).evict(result.key)
            elif task.cache_dir:
                astcache.AstCache(task.cache_dir).evict(result.key)
            # The entry is gone, so this re-run parses (and re-stores a
            # good entry): recursion depth is bounded at one.  The
            # re-run happens in-process, so hand it the live backend.
            prior = task.store
            task.store = backend or prior
            try:
                return _absorb(project, task, pass1_worker(task))
            finally:
                task.store = prior
        stats.add("cache_hits")
        if result.cache_path is not None:
            astcache.touch_entry(result.cache_path)
        compiled = CompiledUnit(
            result.filename, unit, source_bytes, len(data), from_cache=True,
            deps=deps,
        )
    else:
        stats.add("parses")
        if project.cache_dir:
            stats.add("cache_misses")
        compiled = CompiledUnit(
            result.filename, result.unit, result.source_bytes,
            result.emitted_bytes, deps=deps,
        )
    if result.direct is not None:
        stats.add("direct_hits" if result.direct == "hit" else "direct_misses")
    project.compiled.append(compiled)
    project._register(compiled.unit, compiled.filename)
    for key in (result.key, result.dep_key):
        if key:
            project.ast_keys_used.append(key)
    return compiled


# -- pass 2 -------------------------------------------------------------------


class ExtensionSpec:
    """A worker-rebuildable description of the extension list."""

    __slots__ = ("factory", "pickled")

    def __init__(self, factory=None, pickled=None):
        self.factory = factory
        self.pickled = pickled

    @classmethod
    def capture(cls, extensions, factory=None, stats=None):
        """Build a spec, or return None when nothing ships to workers
        (recording the actual pickling failure in ``stats``)."""
        if factory is not None:
            err = _pickle_error(factory)
            if err is None:
                return cls(factory=factory)
            if stats is not None:
                stats.record_degradation(
                    "pickle",
                    "extension_factory does not pickle (%r); "
                    "running pass 2 serially" % err,
                )
            return None
        try:
            data = pickle.dumps(list(extensions), protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as err:
            if stats is not None:
                stats.record_degradation(
                    "pickle",
                    "extensions do not pickle (%r) and no factory was "
                    "given; running pass 2 serially" % err,
                )
            return None
        return cls(pickled=data)

    def build(self):
        if self.factory is not None:
            extensions = self.factory()
            if not isinstance(extensions, (list, tuple)):
                extensions = [extensions]
            return list(extensions)
        return pickle.loads(self.pickled)


class Pass2Task:
    """One call-graph component's analysis work order.

    ``roots`` is None for a full run, or the sorted subset of this
    component's roots the incremental scheduler wants re-analyzed.
    """

    __slots__ = ("index", "decls", "static_vars", "options", "spec", "roots")

    def __init__(self, index, decls, static_vars, options, spec, roots=None):
        self.index = index
        self.decls = decls
        self.static_vars = static_vars
        self.options = options
        self.spec = spec
        self.roots = roots


class Pass2Result:
    """A worker's mergeable analysis outcome."""

    __slots__ = ("index", "reports", "spans", "examples", "counterexamples",
                 "stats", "timers", "truncated", "degraded", "artifacts",
                 "coupled", "pid")

    def __init__(self, index, reports, spans, examples, counterexamples,
                 stats, timers, truncated, degraded, artifacts, coupled, pid):
        self.index = index
        self.reports = reports
        self.spans = spans
        self.examples = examples
        self.counterexamples = counterexamples
        self.stats = stats
        self.timers = timers
        self.truncated = truncated
        self.degraded = degraded
        self.artifacts = artifacts
        self.coupled = coupled
        self.pid = pid


def pass2_worker(task):
    """Run the full Analysis DFS over one call-graph component."""
    from repro.cfg.callgraph import CallGraph
    from repro.driver.stats import DriverStats
    from repro.engine.analysis import Analysis

    faults.at_worker_entry("pass2.worker", key=task.index)
    faults.check("pass2.analysis", key=task.index)
    graph = CallGraph()
    for decl in task.decls:
        graph.add_function(decl)
    graph.link()
    stats = DriverStats()
    analysis = Analysis(
        callgraph=graph,
        options=task.options,
        static_vars=task.static_vars,
        phase_timer=stats.phase,
    )
    result = analysis.run(task.spec.build(), roots=task.roots)
    return Pass2Result(
        index=task.index,
        reports=list(result.log.reports),
        spans=list(analysis.root_spans),
        examples=result.log.examples,
        counterexamples=result.log.counterexamples,
        stats=result.stats,
        timers=stats.timers,
        truncated=result.truncated,
        degraded=list(result.degraded),
        artifacts=list(result.root_artifacts),
        coupled=result.coupled,
        pid=os.getpid(),
    )


def run_parallel(project, extensions, options=None, jobs=1,
                 extension_factory=None, worker_timeout=None, roots=None):
    """Pass-2 parallel scheduling over call-graph components.

    Deterministic by construction: the parent walks extensions in order
    and the *global* sorted root list (exactly the serial iteration
    order), appending each root's report span from whichever worker
    analyzed its component.  Falls back to a serial run when there is
    nothing to parallelize or the extensions cannot be shipped; a
    crashed, killed, or hung worker is retried once and then its
    component is analyzed in-process (see run_tasks_with_recovery).

    ``roots`` restricts the run to a subset of roots (incremental
    dirty-cone scheduling): components containing none of them are not
    scheduled at all.
    """
    from repro.engine.analysis import AnalysisOptions

    if not isinstance(extensions, (list, tuple)):
        extensions = [extensions]
    stats = project.stats
    graph = project.callgraph
    components = graph.components()
    if roots is not None:
        wanted = set(roots)
        components = [
            component for component in components
            if wanted.intersection(component)
        ]
    spec = ExtensionSpec.capture(extensions, extension_factory, stats=stats)
    if spec is None:
        stats.add("pass2_serial_fallback")
    if spec is None or jobs <= 1 or len(components) <= 1 or not extensions:
        return project.analysis(options).run(extensions, roots=roots)

    options = options or AnalysisOptions()
    static_vars = dict(project.static_vars)
    tasks = [
        Pass2Task(
            index,
            [graph.functions[name] for name in component],
            static_vars,
            options,
            spec,
            roots=None if roots is None
            else sorted(wanted.intersection(component)),
        )
        for index, component in enumerate(components)
    ]
    stats.add("pass2_components", len(tasks))
    start = time.perf_counter()
    results_map = run_tasks_with_recovery(
        tasks, pass2_worker, jobs, stats, "pass2", timeout=worker_timeout
    )
    stats.add_time("pass2_wall", time.perf_counter() - start)
    results = [results_map[index] for index in sorted(results_map)]

    return merge_results(project, extensions, results)


def merge_results(project, extensions, results):
    """Deterministically merge worker outcomes into one AnalysisResult."""
    from repro.engine.analysis import AnalysisResult
    from repro.engine.errors import ErrorLog

    stats = project.stats
    span_owner = {}
    for result in results:
        stats.count_worker_task(result.pid)
        stats.merge_timings(result.timers)
        for ext_index, root, begin, end in result.spans:
            span_owner[(ext_index, root)] = (result, begin, end)

    log = ErrorLog()
    roots = project.callgraph.roots()
    for ext_index in range(len(extensions)):
        for root in roots:
            owned = span_owner.get((ext_index, root))
            if owned is None:
                continue
            result, begin, end = owned
            for report in result.reports[begin:end]:
                log.add(report)
    for result in results:
        for rule_id, sites in result.examples.items():
            log.examples.setdefault(rule_id, set()).update(sites)
        for rule_id, sites in result.counterexamples.items():
            log.counterexamples.setdefault(rule_id, set()).update(sites)

    merged_stats = {}
    for result in results:
        for name, value in result.stats.items():
            merged_stats[name] = merged_stats.get(name, 0) + value
    merged_stats["errors"] = len(log)
    truncated = any(result.truncated for result in results)
    degraded = []
    for result in results:
        degraded.extend(result.degraded)
    # Per-root artifacts are independent by construction (root-scoped
    # dedup), so concatenating worker captures in serial (extension,
    # root) order reproduces exactly what a serial capture run records.
    artifacts = sorted(
        (artifact for result in results for artifact in result.artifacts),
        key=lambda artifact: (artifact.ext_index, artifact.root),
    )
    coupled = any(result.coupled for result in results)
    # Block/suffix summary tables are per-worker (keyed on worker-local
    # block objects) and are not reassembled across processes; use a
    # serial run when Figure-5-style summary dumps are needed.
    return AnalysisResult(log, {}, merged_stats, truncated, degraded=degraded,
                          root_artifacts=artifacts, coupled=coupled)
