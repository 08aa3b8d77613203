"""Incremental analysis sessions: re-analyze only the dirty cone.

A session ties one project + extension set + option configuration to a
persistent tier-2 summary store (:class:`repro.driver.cache.SummaryCache`)
and schedules pass 2 around *function fingerprints*
(:mod:`repro.cfg.fingerprint`):

1. Fingerprint every function.  The fingerprint is a Merkle hash over
   the function's emitted body tokens, its definition location, and its
   direct callees' fingerprints -- so a root's fingerprint covers its
   entire transitive callee cone.
2. Diff against the manifest the previous run left behind.  A root whose
   fingerprint is unchanged produced, by construction, the same
   analysis outcome; everything else is the *dirty cone* (edited
   functions plus their transitive callers).
3. Re-analyze only the dirty roots (serial or parallel -- the component
   scheduler skips untouched components entirely), capturing one
   independent :class:`repro.engine.summaries.RootArtifact` per
   (extension, root).
4. Replay cached artifacts for the clean roots and freshly captured
   ones for the dirty roots, in serial (extension, root) order, through
   a fresh log -- reproducing a cold run's ranked report byte for byte.

Coupled (global) extensions -- the paper's §7.1 cross-root checkers,
which communicate through AST annotations and user globals -- are
scheduled through *annotation deltas* instead of falling back: each
artifact records the net cross-root state its (extension, root) pair
wrote plus a coarse read set (:mod:`repro.engine.deltas`).  On a warm
run the session replays clean roots' deltas at their serial positions
(so dirty roots observe the environment a cold serial run would have
built) and demotes any clean root whose read set intersects a changed
delta into the dirty cone -- the soundness condition that replaced the
blanket coupled fallback.  Annotation reads always target nodes inside
functions the reader traverses, so their intersection test is
call-graph reachability: a clean root re-enters the cone when a changed
annotation write lives in a function it can reach.  User-global reads
are recorded per (extension, variable), with a wildcard for iteration.
After the run, freshly produced deltas are diffed against the previous
run's; a replayed root whose inputs turn out stale is demoted and the
run repeated (bounded, loudly counted) -- unknown previous deltas count
as changed, so missing history degrades to re-analysis, never to a
stale replay.

Safety valves (all recorded in the driver stats, never silent):

- ``restrict_partial_hits`` makes caching change reports; the session
  refuses and runs non-incrementally.
- Coupled runs force serial scheduling (parallel workers build
  per-component annotation environments, which are not the serial
  ones); a parallel fast-path run that unexpectedly turns out coupled
  is re-run serially with delta capture, counted as
  ``annotation_delta_serial_reruns``.
- Truncated runs (global step budget) skip roots order-dependently;
  non-incremental fallback.
- Degraded roots (per-root budget blown, recovered error) and roots
  whose cross-root state does not pickle (``delta.opaque``) are never
  persisted, so they are re-analyzed on every run until they pass.
- A corrupt summary frame is evicted and its root re-analyzed (same
  self-heal contract as the tier-1 AST cache).
"""

import copy
import hashlib

from repro.driver import cache as astcache
from repro.driver import store as storemod
from repro.engine import deltas as deltamod
from repro.engine.analysis import AnalysisOptions, AnalysisResult
from repro.engine.errors import ErrorLog
from repro.engine.summaries import SUMMARY_VERSION

#: AnalysisOptions fields excluded from the session signature:
#: capture_root_artifacts is the session's own machinery, not a semantic
#: switch of the run being cached; the matcher backend produces
#: byte-identical results in both modes (docs/MATCHER.md), so compiled
#: and interpreted runs share incremental caches.
_NON_SEMANTIC_OPTIONS = frozenset(["capture_root_artifacts", "matcher"])


def session_signature(checker_names=(), metal_texts=(), options=None,
                      extra=""):
    """A stable identity for one analysis configuration.

    Everything that changes what a run reports must land here: the
    built-in checker names (in order), the full text of every metal
    extension, every semantic analysis option, and the parser / summary
    format versions.  Two runs share cached summaries only when their
    signatures match.
    """
    digest = hashlib.sha256()
    digest.update(astcache.PARSER_VERSION.encode())
    digest.update(b"\x00")
    digest.update(SUMMARY_VERSION.encode())
    digest.update(b"\x00")
    for name in checker_names:
        digest.update(str(name).encode())
        digest.update(b"\x1d")
    digest.update(b"\x00")
    for text in metal_texts:
        digest.update(str(text).encode())
        digest.update(b"\x1d")
    digest.update(b"\x00")
    for name, value in sorted(vars(options or AnalysisOptions()).items()):
        if name in _NON_SEMANTIC_OPTIONS:
            continue
        digest.update(("%s=%r" % (name, value)).encode())
        digest.update(b"\x1d")
    digest.update(b"\x00")
    digest.update(str(extra).encode())
    return digest.hexdigest()


def summary_key(signature, ext_index, ext_name, root, fingerprint):
    """The tier-2 store key for one (extension, root) artifact."""
    digest = hashlib.sha256()
    for part in (signature, str(ext_index), str(ext_name), str(root),
                 str(fingerprint)):
        digest.update(part.encode())
        digest.update(b"\x00")
    return digest.hexdigest()


class IncrementalSession:
    """Summary-persistent incremental scheduling for one configuration.

    Construct with the project's cache directory and a
    :func:`session_signature`; pass as ``Project.run(...,
    incremental=session)``.  Reusable across runs (the manifest and
    frames live on disk, not in the object).
    """

    #: In-memory frame-pin cap (pinned sessions only).  Content-addressed
    #: keys accrete as fingerprints churn; beyond the cap the oldest pins
    #: fall out (the disk store still has them).
    PIN_CAP = 8192

    def __init__(self, cache_dir, signature, stats=None,
                 pin_warm_state=False, store_url=None, backend=None):
        if backend is None:
            backend = storemod.open_store(
                cache_dir=cache_dir, store_url=store_url
            )
        #: The artifact-store backend (local, remote, or tiered); shared
        #: with the project's AST cache when the daemon builds both.
        self.backend = backend
        self.store = astcache.SummaryCache(backend=backend)
        self.signature = signature
        #: Optional DriverStats override; defaults to the project's.
        self.stats = stats
        #: Long-lived (daemon) mode: keep the manifest and replayed
        #: artifact frames pinned in memory, so a warm run pays neither
        #: a manifest JSON load nor per-frame disk reads.  Coherent with
        #: rival sessions by stat-invalidation (any on-disk manifest
        #: change reloads it) and with cache GC by touching the on-disk
        #: frame on every in-memory hit.
        self.pin_warm_state = pin_warm_state
        self._pinned_manifest = None
        self._pinned_manifest_stat = None
        self._pinned_frames = {}

    # -- pinned warm state -------------------------------------------------

    def _manifest_stat(self):
        """The stored manifest's version identity (None when absent):
        a stat tuple on local backends, the ETag on remote ones -- any
        rival merge changes it either way."""
        try:
            return self.backend.manifest_version(self.signature)
        except storemod.StoreError:
            return None

    def _load_manifest(self, stats):
        """The manifest fingerprints, through the in-memory pin when
        ``pin_warm_state`` is set and the on-disk file is unchanged (a
        rival session's merge shows up as a stat change and reloads)."""
        if not self.pin_warm_state:
            return self.store.load_manifest(self.signature)
        stat = self._manifest_stat()
        if stat is not None and stat == self._pinned_manifest_stat:
            stats.add("manifest_pin_hits")
            return self._pinned_manifest
        manifest = self.store.load_manifest(self.signature)
        self._pinned_manifest = manifest
        self._pinned_manifest_stat = stat if manifest is not None else None
        return manifest

    def _repin_manifest(self):
        """Re-pin the manifest after this session wrote it (one JSON
        read per analyzed burst; warm requests then hit the pin)."""
        if not self.pin_warm_state:
            return
        self._pinned_manifest = self.store.load_manifest(self.signature)
        self._pinned_manifest_stat = (
            self._manifest_stat() if self._pinned_manifest is not None
            else None
        )

    def _pin_frame(self, key, artifact):
        if not self.pin_warm_state:
            return
        self._pinned_frames[key] = artifact
        while len(self._pinned_frames) > self.PIN_CAP:
            self._pinned_frames.pop(next(iter(self._pinned_frames)))

    def _unpin_frame(self, key):
        self._pinned_frames.pop(key, None)

    def pinned_frame_keys(self):
        """Keys the in-memory pin currently holds (a daemon's `gc`
        request passes them to :func:`repro.driver.cache.
        collect_cache_garbage` as extra live keys, so on-disk GC never
        collects what this process still replays)."""
        return sorted(self._pinned_frames)

    # -- scheduling --------------------------------------------------------

    def run(self, project, extensions, options=None, jobs=1,
            extension_factory=None, worker_timeout=None):
        """Incremental pass 2: fingerprint, diff, re-analyze dirty roots,
        replay the rest.  Returns an :class:`AnalysisResult` whose
        reports (and ranking inputs) match a cold run byte for byte."""
        if not isinstance(extensions, (list, tuple)):
            extensions = [extensions]
        options = options or AnalysisOptions()
        stats = self.stats or project.stats
        self.backend.bind_stats(stats)

        if options.restrict_partial_hits:
            return self._fallback(
                project, extensions, options, jobs, extension_factory,
                worker_timeout, stats,
                "restrict_partial_hits changes reports under caching",
            )

        graph = project.callgraph
        local, fingerprints = project.fingerprint_tables()
        all_roots = (
            graph.roots() if options.interprocedural
            else sorted(graph.functions)
        )

        manifest = self._load_manifest(stats)
        if manifest is None:
            stats.add("incremental_cold_runs")
            edited = set(fingerprints)
            cone = set(fingerprints)
        else:
            edited = {
                name for name, token_hash in local.items()
                if (manifest.get(name) or (None, None))[0] != token_hash
            }
            cone = {
                name for name, fingerprint in fingerprints.items()
                if (manifest.get(name) or (None, None))[1] != fingerprint
            }
        stats.add("incremental_dirty_functions", len(edited))
        stats.add("incremental_dirty_cone", len(cone))

        used_keys = set()
        reanalyze = set(root for root in all_roots if root in cone)
        cached = self._load_clean_artifacts(
            extensions, (root for root in all_roots if root not in cone),
            fingerprints, reanalyze, stats, used_keys,
        )

        run_options = copy.copy(options)
        run_options.capture_root_artifacts = True

        # Known-coupled configuration (some cached artifact wrote
        # cross-root state): schedule with delta replay from the start.
        if any(
            artifact.delta is not None and artifact.delta.has_writes()
            for artifact in cached.values()
        ):
            return self._run_coupled(
                project, extensions, options, run_options, jobs,
                extension_factory, worker_timeout, stats, graph, all_roots,
                fingerprints, local, manifest, cached, reanalyze, used_keys,
            )

        analyze_roots = sorted(reanalyze)
        fresh = project.run(
            extensions, run_options, jobs=jobs,
            extension_factory=extension_factory,
            worker_timeout=worker_timeout, roots=analyze_roots,
        )

        if fresh.coupled:
            # The run discovered cross-root state we had no record of.
            # A full serial run already *is* the serial environment, so
            # its deltas are valid as captured; anything partial (or
            # parallel, where workers build per-component environments)
            # must be redone serially with delta replay.
            full_serial = (
                jobs <= 1 and not cached
                and set(analyze_roots) == set(all_roots)
            )
            if not full_serial:
                stats.add("annotation_delta_serial_reruns")
                stats.record_degradation(
                    "incremental",
                    "extensions left cross-root state mid-session; re-ran "
                    "serially with annotation-delta replay",
                )
                return self._run_coupled(
                    project, extensions, options, run_options, jobs,
                    extension_factory, worker_timeout, stats, graph,
                    all_roots, fingerprints, local, manifest, cached,
                    reanalyze, used_keys,
                )
        if fresh.truncated:
            return self._fallback(
                project, extensions, options, jobs, extension_factory,
                worker_timeout, stats,
                "global step budget exhausted; root skipping is "
                "order-dependent",
            )

        stats.add("incremental_roots_analyzed", len(analyze_roots))
        stats.add(
            "incremental_roots_replayed",
            len(all_roots) - len(analyze_roots),
        )
        result = self._merge(extensions, all_roots, fresh, cached)
        self._persist(fresh, fingerprints, local, stats, project, used_keys)
        return result

    # -- coupled (global-checker) scheduling -------------------------------

    def _run_coupled(self, project, extensions, options, run_options, jobs,
                     extension_factory, worker_timeout, stats, graph,
                     all_roots, fingerprints, local, manifest, cached,
                     reanalyze, used_keys):
        """Incremental scheduling for extensions with cross-root state.

        Serial by construction: replayed deltas and analyzed roots must
        interleave in the order a cold serial run would produce, so the
        per-component parallel scheduler does not apply.  The sequence:

        1. *Pre-run demotion*: every dirty root's previous delta names
           the writes that may change; clean roots whose read set (or
           annotation reachability cone) intersects them are demoted to
           a fixpoint.
        2. *Resolve + run*: clean roots' deltas are bound to the current
           tree's nodes (unresolvable ones demote their root) and
           applied at their serial positions while the dirty roots are
           re-analyzed.
        3. *Post-run validation*: fresh deltas are diffed against the
           previous run's; a replayed root whose inputs actually changed
           is demoted and the run repeated.  Unknown previous deltas
           count as fully changed, so the loop converges (each round
           strictly shrinks the replayed set) and missing history can
           only cause extra analysis, never a stale replay.
        """
        stats.add("incremental_coupled_runs")
        if jobs > 1:
            stats.add("annotation_delta_serial_forced")

        old_deltas = {}

        def old_delta(ext_index, root):
            """The delta this (extension, root) produced last run, or
            None when unknown (no manifest entry, missing/corrupt frame:
            treated as fully changed)."""
            pair = (ext_index, root)
            if pair in old_deltas:
                return old_deltas[pair]
            delta = None
            artifact = cached.get(pair)
            if artifact is not None:
                delta = artifact.delta
            elif manifest and root in manifest:
                old_fp = (manifest.get(root) or (None, None))[1]
                if old_fp:
                    ext = extensions[ext_index]
                    name = getattr(ext, "name", repr(ext))
                    key = summary_key(
                        self.signature, ext_index, name, root, old_fp)
                    pinned = self._pinned_frames.get(key)
                    try:
                        if pinned is not None:
                            delta = pinned.delta
                        else:
                            artifact = self.store.get(key)
                            if artifact is not None:
                                delta = artifact.delta
                    except (OSError, astcache.CacheCorruption,
                            storemod.StoreError):
                        delta = None
            old_deltas[pair] = delta
            return delta

        reach_memo = {}

        def reach(root):
            """Functions reachable from ``root`` through the call graph
            (the functions whose nodes this root's traversal can read)."""
            seen = reach_memo.get(root)
            if seen is None:
                seen = set()
                stack = [root]
                while stack:
                    fn = stack.pop()
                    if fn in seen or fn not in graph.functions:
                        continue
                    seen.add(fn)
                    stack.extend(graph.callees.get(fn, ()))
                reach_memo[root] = seen
            return seen

        changed_fns = set()   # functions containing changed annotation writes
        changed_glob = set()  # ("glob", ext, var) keys whose value changed

        def seed_changes(root):
            """Mark a root's previous writes as potentially changed."""
            for ext_index in range(len(extensions)):
                old = old_delta(ext_index, root)
                if old is None:
                    continue
                changed_fns.update(old.write_functions())
                changed_glob.update(old.glob_write_keys())

        def impacted(root):
            """Does this clean root read anything that changed?"""
            if changed_fns and reach(root) & changed_fns:
                return True
            for ext_index in range(len(extensions)):
                artifact = cached.get((ext_index, root))
                if artifact is None:
                    continue
                delta = artifact.delta
                if delta is None:
                    return True  # unknown read set: never replay blind
                for read in delta.reads:
                    if read[0] == "glob" and read in changed_glob:
                        return True
                    if read == ("ann*",) and changed_fns:
                        return True
                    if read[0] == "glob*" and any(
                        key[1] == read[1] for key in changed_glob
                    ):
                        return True
            return False

        def demote(root, counter):
            stats.add(counter)
            seed_changes(root)  # its own writes will be re-derived
            for ext_index in range(len(extensions)):
                cached.pop((ext_index, root), None)
            reanalyze.add(root)

        def settle(counter):
            """Demote impacted clean roots to a fixpoint."""
            pending = True
            while pending:
                pending = False
                for root in sorted({r for (_, r) in cached}):
                    if root not in reanalyze and impacted(root):
                        demote(root, counter)
                        pending = True

        for root in sorted(reanalyze):
            seed_changes(root)
        settle("annotation_delta_read_demotions")

        rounds = 0
        max_rounds = len(all_roots) + 2
        while True:
            rounds += 1
            if rounds > max_rounds:
                return self._fallback(
                    project, extensions, options, jobs, extension_factory,
                    worker_timeout, stats,
                    "annotation-delta scheduling did not converge",
                )
            analysis = project.analysis(run_options)
            resolver = deltamod.DeltaResolver(graph, analysis._cfg)
            replay_map = {}
            unresolved = set()
            for (ext_index, root), artifact in sorted(cached.items()):
                if root in unresolved:
                    continue
                try:
                    replay_map[(ext_index, root)] = resolver.resolve(
                        artifact.delta)
                except deltamod.UnresolvedDelta:
                    unresolved.add(root)
            if unresolved:
                for root in sorted(unresolved):
                    demote(root, "annotation_delta_unresolved")
                settle("annotation_delta_read_demotions")
                continue

            analyze_roots = sorted(reanalyze)
            fresh = analysis.run(
                extensions, roots=all_roots, replay=replay_map)
            if fresh.truncated:
                return self._fallback(
                    project, extensions, options, jobs, extension_factory,
                    worker_timeout, stats,
                    "global step budget exhausted; root skipping is "
                    "order-dependent",
                )

            # Post-run validation: what actually changed?
            new_deltas = {
                (a.ext_index, a.root): a.delta for a in fresh.root_artifacts
            }
            for root in analyze_roots:
                for ext_index in range(len(extensions)):
                    fns, globs = deltamod.delta_changes(
                        old_delta(ext_index, root),
                        new_deltas.get((ext_index, root)),
                    )
                    changed_fns.update(fns)
                    changed_glob.update(globs)
            stale = [
                root for root in sorted({r for (_, r) in cached})
                if impacted(root)
            ]
            if stale:
                for root in stale:
                    demote(root, "annotation_delta_stale_demotions")
                settle("annotation_delta_read_demotions")
                continue
            break

        stats.add("annotation_delta_rounds", rounds)
        stats.add("annotation_delta_replays", sum(
            1 for artifact in cached.values()
            if artifact.delta is not None and artifact.delta.has_writes()
        ))
        stats.add("incremental_roots_analyzed", len(analyze_roots))
        stats.add(
            "incremental_roots_replayed",
            len(all_roots) - len(analyze_roots),
        )
        result = self._merge(extensions, all_roots, fresh, cached)
        self._persist(fresh, fingerprints, local, stats, project, used_keys)
        return result

    # -- pieces ------------------------------------------------------------

    def _fallback(self, project, extensions, options, jobs,
                  extension_factory, worker_timeout, stats, why):
        """Run non-incrementally (and persist nothing), loudly."""
        stats.add("incremental_fallbacks")
        stats.record_degradation(
            "incremental", "%s; re-ran non-incrementally" % why
        )
        return project.run(
            extensions, options, jobs=jobs,
            extension_factory=extension_factory,
            worker_timeout=worker_timeout,
        )

    def _load_clean_artifacts(self, extensions, clean_roots, fingerprints,
                              reanalyze, stats, used_keys=None):
        """``{(ext_index, root): RootArtifact}`` for every clean root all
        of whose frames load; roots with any missing or corrupt frame are
        moved into ``reanalyze`` instead.  Hit keys are recorded into
        ``used_keys`` (manifest liveness for cache GC)."""
        cached = {}
        clean_roots = list(clean_roots)
        keymap = {
            (ext_index, root): (
                getattr(ext, "name", repr(ext)),
                summary_key(
                    self.signature, ext_index,
                    getattr(ext, "name", repr(ext)), root,
                    fingerprints[root],
                ),
            )
            for root in clean_roots
            for ext_index, ext in enumerate(extensions)
        }
        if getattr(self.backend, "prefers_batch", False):
            # Remote-backed session: one batched round trip fetches every
            # frame this warm run could replay, instead of a network
            # round trip per (extension, root) pair.
            self.store.prefetch(
                key for (_, key) in keymap.values()
                if key not in self._pinned_frames
            )
        touched = []
        for root in clean_roots:
            loaded = []
            for ext_index, ext in enumerate(extensions):
                name, key = keymap[(ext_index, root)]
                pinned = self._pinned_frames.get(key)
                if pinned is not None:
                    # In-memory warm hit: no disk read, but the stored
                    # frame's mtime is refreshed below so GC still sees
                    # it in use.
                    stats.add("summary_memory_hits")
                    touched.append(key)
                    loaded.append((ext_index, key, pinned))
                    continue
                try:
                    try:
                        artifact = self.store.get(key)
                    except storemod.StoreError:
                        artifact = None
                    if artifact is None:
                        stats.add("summary_misses")
                        loaded = None
                        break
                    self._pin_frame(key, artifact)
                    loaded.append((ext_index, key, artifact))
                except (OSError, astcache.CacheCorruption) as err:
                    stats.add("summary_evictions")
                    stats.record_degradation(
                        "summary-cache",
                        "%s/%s: corrupt summary frame (%s); evicted and "
                        "re-analyzed" % (name, root, err),
                    )
                    self.store.evict(key)
                    self._unpin_frame(key)
                    loaded = None
                    break
            if loaded is None:
                reanalyze.add(root)
            else:
                stats.add("summary_hits", len(loaded))
                for ext_index, key, artifact in loaded:
                    cached[(ext_index, root)] = artifact
                    if used_keys is not None:
                        used_keys.add(key)
        if touched:
            # One batched liveness refresh for every in-memory hit (one
            # round trip on a remote store, not one per frame).
            self.store.touch_many(touched)
        return cached

    def _merge(self, extensions, all_roots, fresh, cached):
        """Replay fresh + cached artifacts in serial (extension, root)
        order through one log: global dedup re-applies at exactly the
        points a cold serial run would apply it."""
        produced = {
            (artifact.ext_index, artifact.root): artifact
            for artifact in fresh.root_artifacts
        }
        log = ErrorLog()
        degraded = []
        for ext_index in range(len(extensions)):
            for root in all_roots:
                artifact = produced.get((ext_index, root))
                if artifact is None:
                    artifact = cached.get((ext_index, root))
                if artifact is None:
                    continue
                artifact.replay_into(log)
                degraded.extend(artifact.degraded)
        merged_stats = dict(fresh.stats)
        merged_stats["errors"] = len(log)
        # Provenance (docs/DRIVER.md, "Stats schema"): the traversal
        # counters above (points_visited, paths_completed, ...) cover
        # only the analyzed dirty cone -- replayed roots contribute
        # reports without traversal work.  Mark the split explicitly so
        # a warm run's counters are never mistaken for a cold run's.
        merged_stats["incremental_analyzed_pairs"] = len(produced)
        merged_stats["incremental_replayed_pairs"] = len(cached)
        merged_stats["stats_coverage"] = "analyzed-roots-only"
        return AnalysisResult(
            log, fresh.tables, merged_stats, truncated=False,
            degraded=degraded,
        )

    def _persist(self, fresh, fingerprints, local, stats, project=None,
                 used_keys=None):
        """Store every clean fresh artifact plus the new manifest."""
        used = set(used_keys or ())
        to_store = {}
        for artifact in fresh.root_artifacts:
            if not artifact.clean:
                continue
            if artifact.delta is not None and artifact.delta.opaque:
                # Cross-root state that does not pickle cannot be
                # replayed; never persist it -- the root simply
                # re-analyzes every run, loudly.
                stats.add("annotation_delta_opaque_roots")
                continue
            fingerprint = fingerprints.get(artifact.root)
            if fingerprint is None:
                continue
            if artifact.summary is not None:
                artifact.summary.fingerprint = fingerprint
            key = summary_key(
                self.signature, artifact.ext_index, artifact.extension,
                artifact.root, fingerprint,
            )
            to_store[key] = artifact
            self._pin_frame(key, artifact)
            used.add(key)
            stats.add("summary_stores")
        if to_store:
            # One batched put: a remote-backed session ships every fresh
            # frame in a single round trip.
            self.store.store_many(to_store)
        ast_keys = ()
        if project is not None:
            ast_keys = sorted(set(project.ast_keys_used))
        self.store.store_manifest(
            self.signature,
            {
                name: [local[name], fingerprints[name]]
                for name in fingerprints
            },
            frame_keys=sorted(used),
            ast_keys=ast_keys,
            stats=stats,
        )
        self._repin_manifest()
