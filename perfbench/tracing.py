"""Span tracing installed from outside the program.

The benchmark never edits ``src/``: :func:`install` wraps the public
functions of each xgcc layer (listed in :data:`LAYER_SPANS`) in place,
records one span per call (name, start, duration, parent) in memory,
and :meth:`Installation.uninstall` puts the originals back.  Counters
that ratios need (tokens, blocks, store hits, ...) are read at the same
boundaries, from arguments and return values.

Spans are recorded only in the process that installed the tracer and
only on its installing thread; forked pool workers run the wrapped
functions untraced (their busy time reaches the ledger through the
driver's merged phase timers, see ``parallel.worker_busy_s``).
"""

import functools
import importlib
import os
import sys
import threading
import time


class Tracer:
    """In-memory span and counter recorder for one process."""

    def __init__(self):
        self.pid = os.getpid()
        self.thread = threading.get_ident()
        self.enabled = True
        #: Finished spans: [name, start_s, dur_s, parent_index].
        self.spans = []
        self.counts = {}
        self._stack = []
        #: Duration of the span that just closed (for ``after`` hooks).
        self.last_duration = 0.0
        #: perf_counter() -> epoch offset, so spans from several
        #: processes land on one timeline.
        self.epoch_offset = time.time() - time.perf_counter()

    def active(self):
        return (self.enabled and os.getpid() == self.pid
                and threading.get_ident() == self.thread)

    def count(self, name, amount=1):
        self.counts[name] = self.counts.get(name, 0) + amount

    def begin(self, name):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(index)
        return index

    def end(self, index):
        span = self.spans[index]
        span[2] = time.perf_counter() - span[1]
        self._stack.pop()

    def export(self):
        """JSON-ready spans (epoch seconds) and counters."""
        return {
            "pid": self.pid,
            "spans": [
                [name, start + self.epoch_offset, dur, parent]
                for name, start, dur, parent in self.spans
            ],
            "counts": dict(self.counts),
        }


def self_times(spans):
    """``{name: seconds}``: each span's duration minus the time its
    direct children cover (spans of one thread nest strictly)."""
    child_time = [0.0] * len(spans)
    for name, start, dur, parent in spans:
        if parent is not None:
            child_time[parent] += dur
    totals = {}
    for index, (name, start, dur, parent) in enumerate(spans):
        totals[name] = totals.get(name, 0.0) + dur - child_time[index]
    return totals


def chrome_events(spans, pid, iteration):
    """Chrome trace-event ``X`` records (microseconds) for one process."""
    return [
        {
            "name": name,
            "cat": name.split(".")[0],
            "ph": "X",
            "ts": round(start * 1e6, 3),
            "dur": round(dur * 1e6, 3),
            "pid": pid,
            "tid": 1,
            "args": {"iteration": iteration},
        }
        for name, start, dur, parent in spans
    ]


# -- counter hooks ------------------------------------------------------------
#
# ``before(tracer, args, kwargs)`` returns state handed to
# ``after(tracer, args, kwargs, result, state)``; both run only while the
# tracer is active.


def _tokens(tracer, args, kwargs, result, state):
    tracer.count("cfront.units_preprocessed")
    tracer.count("cfront.tokens", len(result))


def _count_header_read(path):
    return not str(path).endswith(".c")


def _header_read_fn(tracer, args, kwargs, result, state):
    if _count_header_read(args[0]):
        tracer.count("cfront.header_reads")


def _header_read_method(tracer, args, kwargs, result, state):
    if _count_header_read(args[1]):
        tracer.count("cfront.header_reads")


def _emitted(tracer, args, kwargs, result, state):
    tracer.count("cache.emitted_bytes", len(result))


def _ast_probe(tracer, args, kwargs, result, state):
    data, hit_path = result
    tracer.count("cache.ast_probes")
    if data is not None or hit_path is not None:
        tracer.count("cache.ast_hits")


def _cfg_built(tracer, args, kwargs, result, state):
    tracer.count("cfg.functions")
    tracer.count("cfg.blocks", len(result.blocks))


_ENGINE_COUNTERS = {
    "points_visited": "engine.points_visited",
    "blocks_traversed": "engine.blocks_traversed",
    "paths_completed": "engine.paths_completed",
    "cache_hits": "engine.block_cache_hits",
    "matcher_table_hits": "metal.table_hits",
    "matcher_miss_memo_hits": "metal.miss_memo_hits",
}


def _engine_result(tracer, args, kwargs, result, state):
    tracer.count("engine.runs")
    for key, name in _ENGINE_COUNTERS.items():
        tracer.count(name, result.stats.get(key, 0))


def _stats_of(args, kwargs, position):
    """The DriverStats a call carries (``project.stats`` for the
    project-taking layer entry points)."""
    target = kwargs.get("project") or (
        args[position] if len(args) > position else None
    )
    return getattr(target, "stats", None)


def _snapshot_project_stats(args, kwargs, position):
    stats = _stats_of(args, kwargs, position)
    if stats is None:
        return None
    return stats, dict(stats.counters), dict(stats.timers)


def _delta(state, kind, names):
    stats, counters, timers = state
    now, then = (
        (stats.counters, counters) if kind == "counters"
        else (stats.timers, timers)
    )
    return sum(now.get(name, 0) - then.get(name, 0) for name in names)


def _jobs(args, kwargs, position):
    jobs = kwargs.get("jobs", args[position] if len(args) > position else 1)
    return jobs or 1


def _pass1_before(tracer, args, kwargs):
    return _snapshot_project_stats(args, kwargs, 0)


def _pass1_after(tracer, args, kwargs, result, state):
    if state is not None and _jobs(args, kwargs, 2) > 1:
        tracer.count("parallel.worker_busy_s", _delta(
            state, "timers", ("preprocess", "parse", "emit")
        ))
        tracer.count("parallel.jobs_wall_s", tracer.last_duration)


def _pass2_before(tracer, args, kwargs):
    return (_snapshot_project_stats(args, kwargs, 0),
            tracer.counts.get("engine.runs", 0))


def _pass2_after(tracer, args, kwargs, result, state):
    snapshot, engine_runs = state
    if tracer.counts.get("engine.runs", 0) != engine_runs:
        return  # fell back to an in-process run, already counted
    if snapshot is not None:
        tracer.count("parallel.worker_busy_s", _delta(
            snapshot, "timers", ("cfg", "traverse")
        ))
        tracer.count("parallel.jobs_wall_s", tracer.last_duration)
    # Worker counters come back merged into the result.
    _engine_result(tracer, args, kwargs, result, state)


def _session_before(tracer, args, kwargs):
    # IncrementalSession.run(self, project, ...)
    return _snapshot_project_stats(args, kwargs, 1)


def _session_after(tracer, args, kwargs, result, state):
    tracer.count("session.roots_analyzed",
                 result.stats.get("incremental_analyzed_pairs", 0))
    tracer.count("session.roots_replayed",
                 result.stats.get("incremental_replayed_pairs", 0))
    if state is not None:
        tracer.count("session.dirty_cone", _delta(
            state, "counters", ("incremental_dirty_cone",)
        ))


def _refine_before(tracer, args, kwargs):
    stats = kwargs.get("stats")
    return stats, dict(stats.counters) if stats is not None else None


def _refine_after(tracer, args, kwargs, result, state):
    tracer.count("refine.reports", len(args[0]))
    stats, counters = state
    if stats is not None:
        for key in ("refine_cache_hits", "refine_unknown"):
            tracer.count("refine." + key[len("refine_"):],
                         stats.counters.get(key, 0) - counters.get(key, 0))


def _rendered(tracer, args, kwargs, result, state):
    tracer.count("reports.count", len(args[0]))


def _daemon_after(tracer, args, kwargs, result, state):
    tracer.count("daemon.files_reparsed", result.get("files_reparsed", 0))


#: (module, attribute path, span name, before hook, after hook).  Every
#: function is public API of its layer except the two default file
#: readers, wrapped only to count header reads.
LAYER_SPANS = (
    ("repro.cfront.preproc", "Preprocessor.preprocess_text",
     "cfront.preprocess", None, _tokens),
    ("repro.cfront.preproc", "_read_file", None, None, _header_read_fn),
    ("repro.driver.daemon", "_RecordingReader.__call__", None, None,
     _header_read_method),
    ("repro.cfront.parser", "Parser.parse_translation_unit",
     "cfront.parse", None, None),
    ("repro.driver.cache", "pack_unit", "cache.emit", None, _emitted),
    ("repro.driver.cache", "pack_artifact", "cache.emit", None, _emitted),
    ("repro.driver.cache", "unpack", "cache.load", None, None),
    ("repro.driver.cache", "unpack_artifact", "cache.load", None, None),
    ("repro.driver.cache", "AstCache.fetch", "cache.probe", None,
     _ast_probe),
    ("repro.cfg.callgraph", "CallGraph.from_units", "cfg.callgraph",
     None, None),
    ("repro.cfg.builder", "build_cfg", "cfg.build", None, _cfg_built),
    ("repro.cfg.fingerprint", "fingerprint_tables", "cfg.fingerprint",
     None, None),
    ("repro.cfg.fingerprint", "compute_fingerprints", "cfg.fingerprint",
     None, None),
    ("repro.cfg.fingerprint", "dirty_cone", "cfg.fingerprint", None, None),
    ("repro.engine.analysis", "Analysis.run", "engine.traverse", None,
     _engine_result),
    ("repro.driver.session", "IncrementalSession.run", "session.run",
     _session_before, _session_after),
    ("repro.refine.engine", "refine_reports", "refine", _refine_before,
     _refine_after),
    ("repro.ranking.rank", "rank_reports", "ranking", None, None),
    ("repro.driver.dump", "render_reports", "reports.render", None,
     _rendered),
    ("repro.reports.history", "RunHistory.record_run", "reports.record",
     None, None),
    ("repro.reports.history", "RunHistory.prune", "reports.prune", None,
     None),
    ("repro.driver.watch", "TreeWatcher.poll", "daemon.poll", None, None),
    ("repro.driver.daemon", "XgccDaemon.analyze", "daemon.analyze", None,
     _daemon_after),
    ("repro.driver.parallel", "compile_files_into", "parallel.pass1",
     _pass1_before, _pass1_after),
    ("repro.driver.parallel", "run_parallel", "parallel.pass2",
     _pass2_before, _pass2_after),
)


def _wrap(tracer, fn, name, before, after):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active():
            return fn(*args, **kwargs)
        state = before(tracer, args, kwargs) if before is not None else None
        if name is None:
            result = fn(*args, **kwargs)
        else:
            index = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(index)
            tracer.last_duration = tracer.spans[index][2]
        if after is not None:
            after(tracer, args, kwargs, result, state)
        return result

    return wrapper


class TimedStore:
    """A store backend proxy timing and counting reads and writes.

    The daemon workload passes it to ``IncrementalSession(backend=...)``;
    traced CLI runs get it from the patched ``open_store``.  Anything
    not listed below passes straight through to the wrapped backend.
    """

    READS = ("get_many", "head_many", "manifest_get", "manifest_head",
             "manifest_version", "entry_mtime", "list_tier", "manifest_list")
    WRITES = ("put_many", "manifest_cas", "manifest_put", "touch_many",
              "delete_many", "manifest_delete")

    def __init__(self, inner, tracer):
        self._inner = inner
        self._tracer = tracer

    def __getattr__(self, name):
        value = getattr(self._inner, name)
        if name in self.READS:
            return self._timed(value, "store.get", name)
        if name in self.WRITES:
            return self._timed(value, "store.put", name)
        return value

    def _timed(self, method, span, name):
        tracer = self._tracer

        def call(*args, **kwargs):
            if not tracer.active():
                return method(*args, **kwargs)
            index = tracer.begin(span)
            try:
                result = method(*args, **kwargs)
            finally:
                tracer.end(index)
            if span == "store.get":
                tracer.count("store.gets")
                if name == "get_many":
                    tracer.count("store.keys_requested",
                                 len(_argument(args, kwargs, 1, "keys")))
                    tracer.count("store.keys_found", len(result))
                    tracer.count("store.bytes_read",
                                 sum(len(v) for v in result.values()))
                elif name == "manifest_get" and result[0] is not None:
                    tracer.count("store.bytes_read", len(result[0]))
            else:
                tracer.count("store.puts")
                if name == "put_many":
                    items = _argument(args, kwargs, 1, "items")
                    tracer.count("store.bytes_written",
                                 sum(len(v) for v in items.values()))
                elif name in ("manifest_cas", "manifest_put"):
                    tracer.count("store.bytes_written",
                                 len(_argument(args, kwargs, 1, "text")))
            return result

        return call


def _argument(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def _timed_open_store(tracer, open_store):
    @functools.wraps(open_store)
    def wrapper(*args, **kwargs):
        backend = open_store(*args, **kwargs)
        if backend is None or not tracer.active():
            return backend
        return TimedStore(backend, tracer)

    return wrapper


class Installation:
    """The patches one :func:`install` made, for :meth:`uninstall`."""

    def __init__(self):
        self.patches = []  # (owner, attribute, original raw value)

    def patch(self, owner, attribute, value):
        self.patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, value)

    def uninstall(self):
        for owner, attribute, original in reversed(self.patches):
            setattr(owner, attribute, original)
        self.patches = []


def install(tracer, specs=LAYER_SPANS):
    """Wrap every function in ``specs``.  Module-level functions are
    also re-bound in every loaded ``repro`` module that imported them
    by name, so ``from x import f`` call sites are traced too."""
    installation = Installation()
    rebinds = {}
    for module_name, path, name, before, after in specs:
        owner = importlib.import_module(module_name)
        *classes, attribute = path.split(".")
        for cls in classes:
            owner = getattr(owner, cls)
        raw = owner.__dict__[attribute]
        if isinstance(raw, classmethod):
            wrapped = classmethod(_wrap(tracer, raw.__func__, name, before,
                                        after))
        else:
            wrapped = _wrap(tracer, raw, name, before, after)
        installation.patch(owner, attribute, wrapped)
        if not classes:
            rebinds[id(raw)] = (raw, wrapped)
    store = importlib.import_module("repro.driver.store")
    raw = store.open_store
    wrapped = _timed_open_store(tracer, raw)
    installation.patch(store, "open_store", wrapped)
    rebinds[id(raw)] = (raw, wrapped)
    for module_name, module in list(sys.modules.items()):
        if not module_name.startswith("repro") or module is None:
            continue
        for attribute, value in list(vars(module).items()):
            hit = rebinds.get(id(value))
            if hit is not None and hit[0] is value:
                installation.patch(module, attribute, hit[1])
    return installation


def import_layers(specs=LAYER_SPANS):
    """Import every traced module (before :func:`install`, so its
    by-name rebinding sees all of them)."""
    for module_name, *rest in specs:
        importlib.import_module(module_name)
    importlib.import_module("repro.driver.cli")
