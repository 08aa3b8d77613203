"""Analysis-daemon (xgccd) tests: watcher, protocol, differential
parity, fault matrix, and the cache-GC / locking fixes that ride along.

Covers: content-fingerprint watching (no mtime trust, notify hints,
removals, injected stalls), the UNIX-socket request/response protocol
(analyze / stats / gc / notify / ping / shutdown, undecodable requests),
daemon-vs-cold byte-identity across seeded edit bursts, warm-state reuse
bounds (only changed files reparse, only the dirty cone re-analyzes),
the daemon fault matrix (watcher stall, request-decode fault, mid-burst
analysis crash -- degrade, never wedge), the GC pin-race fix (a rival
manifest merge landing between scan and sweep is honoured), the
lockfile fallback where ``fcntl`` is unavailable, and warm-load mtime
touching (frames a daemon replays daily never age out).
"""

import contextlib
import functools
import json
import os
import shutil
import tempfile
import threading
import time

import pytest

from repro import faults
from repro.codegen.project_gen import apply_function_edits, generate_project
from repro.driver import cache as astcache
from repro.driver.cli import _build_extensions, main
from repro.driver.daemon import (
    DaemonClient,
    DaemonError,
    XgccDaemon,
    wait_for_socket,
)
from repro.driver.session import IncrementalSession, session_signature
from repro.driver.stats import DriverStats
from repro.driver.watch import TreeWatcher, WatcherError, fingerprint_file
from repro.engine.analysis import AnalysisOptions

#: The CLI-default extension list for ``--checker free --checker lock``
#: (top-level partial so it pickles into workers if ever needed).
cli_checkers = functools.partial(_build_extensions, ("free", "lock"), ())


def write_tree(dirpath, files):
    for name, text in files.items():
        with open(os.path.join(str(dirpath), name), "w") as handle:
            handle.write(text)


def c_paths(dirpath):
    return sorted(
        os.path.join(str(dirpath), name)
        for name in os.listdir(str(dirpath))
        if name.endswith(".c")
    )


def cold_output(dirpath, capsys):
    """What a cold, serial, cache-less ``xgcc`` run prints (the byte
    baseline daemon responses must match)."""
    main(["--checker", "free", "--checker", "lock", "-I", str(dirpath)]
         + c_paths(dirpath))
    return capsys.readouterr().out


@pytest.fixture
def sock_dir():
    # AF_UNIX socket paths are length-limited (~108 bytes); pytest
    # tmp_path can blow that, so sockets live in their own short dir.
    path = tempfile.mkdtemp(prefix="xgccd-")
    yield path
    shutil.rmtree(path, ignore_errors=True)


@contextlib.contextmanager
def running_daemon(src_dir, cache_dir, sock_path, options=None, **kwargs):
    """A daemon serving in a background thread; always shut down."""
    options = options or AnalysisOptions()
    signature = session_signature(
        checker_names=["free", "lock"], options=options
    )
    session = IncrementalSession(str(cache_dir), signature,
                                 pin_warm_state=True)
    daemon = XgccDaemon(
        watch_roots=[str(src_dir)], extension_factory=cli_checkers,
        session=session, socket_path=str(sock_path),
        include_paths=[str(src_dir)], cache_dir=str(cache_dir),
        options=options, poll_interval=kwargs.pop("poll_interval", 30.0),
        **kwargs
    )
    thread = threading.Thread(target=daemon.serve_forever, daemon=True)
    thread.start()
    assert wait_for_socket(str(sock_path), timeout=60.0)
    try:
        yield daemon
    finally:
        try:
            with DaemonClient(str(sock_path)) as client:
                client.request("shutdown")
        except (DaemonError, OSError):
            daemon.stop()
        thread.join(timeout=30.0)
        assert not thread.is_alive(), "daemon thread wedged"


class TestTreeWatcher:
    def test_content_diff_ignores_mtime_noise(self, tmp_path):
        a = tmp_path / "a.c"
        a.write_text("int f(void) { return 1; }\n")
        watcher = TreeWatcher(roots=[str(tmp_path)])
        assert watcher.poll() == {str(a)}
        # Same bytes, new mtime: not a change.
        a.write_text("int f(void) { return 1; }\n")
        os.utime(str(a), None)
        assert watcher.poll() == set()
        # New bytes, *old* mtime: still a change (content decides).
        old = time.time() - 86400.0
        a.write_text("int f(void) { return 2; }\n")
        os.utime(str(a), (old, old))
        assert watcher.poll() == {str(a)}

    def test_removal_and_unwatched_suffixes(self, tmp_path):
        (tmp_path / "a.c").write_text("int a;\n")
        (tmp_path / "notes.txt").write_text("not watched\n")
        watcher = TreeWatcher(roots=[str(tmp_path)])
        assert watcher.poll() == {str(tmp_path / "a.c")}
        os.remove(str(tmp_path / "a.c"))
        assert watcher.poll() == {str(tmp_path / "a.c")}
        assert watcher.state == {}

    def test_notify_narrows_the_scan_and_full_poll_recovers(self, tmp_path):
        a, b = tmp_path / "a.c", tmp_path / "b.c"
        a.write_text("int a = 1;\n")
        b.write_text("int b = 1;\n")
        watcher = TreeWatcher(roots=[str(tmp_path)])
        watcher.poll()
        a.write_text("int a = 2;\n")
        b.write_text("int b = 2;\n")
        watcher.notify([str(a)])
        # Event-driven poll re-hashes only the notified path...
        assert watcher.poll(full=False) == {str(a)}
        # ...and the next authoritative poll catches what it skipped.
        assert watcher.poll() == {str(b)}

    def test_injected_stall_leaves_state_untouched(self, tmp_path):
        a = tmp_path / "a.c"
        a.write_text("int a = 1;\n")
        watcher = TreeWatcher(roots=[str(tmp_path)])
        watcher.poll()
        a.write_text("int a = 2;\n")
        with faults.injected([{"site": "daemon.watcher", "times": 1}]):
            with pytest.raises(WatcherError):
                watcher.poll()
            # The failed poll dropped nothing: the edit is still seen.
            assert watcher.poll() == {str(a)}

    def test_fingerprint_file_unreadable_is_none(self, tmp_path):
        assert fingerprint_file(str(tmp_path / "missing.c")) is None


class TestDaemonProtocol:
    @pytest.fixture
    def tree(self, tmp_path):
        src = tmp_path / "src"
        src.mkdir()
        gen = generate_project(seed=7, n_modules=3,
                               functions_per_module=4, bug_rate=0.4)
        write_tree(src, gen.files)
        return {"src": src, "cache": tmp_path / "cache", "gen": gen}

    def test_ping_stats_unknown_op_and_shutdown(self, tree, sock_dir):
        sock = os.path.join(sock_dir, "d.sock")
        with running_daemon(tree["src"], tree["cache"], sock):
            with DaemonClient(sock) as client:
                ping = client.request("ping")
                assert ping["ok"] and ping["pid"] == os.getpid()
                stats = client.request("stats")
                assert stats["ok"]
                assert stats["stats"]["schema_version"] == 9
                assert stats["stats"]["pinned_units"] == 3
                assert stats["stats"]["pinned_frames"] > 0
                bad = client.request("frobnicate")
                assert not bad["ok"] and "unknown request" in bad["error"]
        assert not os.path.exists(sock)  # socket cleaned up on shutdown

    def test_undecodable_request_degrades_not_wedges(self, tree, sock_dir):
        sock = os.path.join(sock_dir, "d.sock")
        with running_daemon(tree["src"], tree["cache"], sock) as daemon:
            with DaemonClient(sock) as client:
                resp = client.send_raw(b"this is not json\n")
                assert not resp["ok"]
                assert "undecodable" in resp["error"]
                # Same connection still serves.
                assert client.request("ping")["ok"]
            assert daemon.stats.count("daemon_request_errors") >= 1


class TestDaemonDifferential:
    """The tentpole contract: daemon-served ranked reports are
    byte-identical to a cold serial run, before and after edit bursts,
    while reparsing only changed files and re-analyzing only the cone.
    """

    def test_edit_bursts_stay_byte_identical_to_cold(
        self, tmp_path, sock_dir, capsys
    ):
        src = tmp_path / "src"
        src.mkdir()
        gen = generate_project(seed=11, n_modules=4,
                               functions_per_module=5, bug_rate=0.3)
        write_tree(src, gen.files)
        sock = os.path.join(sock_dir, "d.sock")
        with running_daemon(src, tmp_path / "cache", sock) as daemon:
            with DaemonClient(sock) as client:
                first = client.request("analyze")
                assert first["ok"]
                assert first["reports"] == cold_output(src, capsys)
                # Nothing changed: the second analyze is a warm hit.
                again = client.request("analyze")
                assert again["served_from"] == "cache"
                assert again["reports"] == first["reports"]
                assert daemon.stats.count("daemon_analyze_warm_hits") >= 1

                total_pairs = first["roots_analyzed"]
                for k, seed in ((1, 3), (2, 9), (3, 27)):
                    before = dict(gen.files)
                    gen, edits = apply_function_edits(gen, k=k, seed=seed)
                    changed = [name for name in gen.files
                               if gen.files[name] != before[name]]
                    write_tree(src, gen.files)
                    resp = client.request("analyze")
                    assert resp["ok"]
                    assert resp["served_from"] == "analysis"
                    # Warm reuse bounds: only edited files reparse, and
                    # the dirty cone is a strict subset of the graph.
                    assert resp["files_reparsed"] == len(changed)
                    assert resp["files"] == 4
                    assert 0 < resp["roots_analyzed"] < total_pairs
                    assert resp["roots_replayed"] > 0
                    assert resp["reports"] == cold_output(src, capsys)

    def test_header_edit_dirties_includers_only(
        self, tmp_path, sock_dir, capsys
    ):
        src = tmp_path / "src"
        src.mkdir()
        write_tree(src, {
            "a.h": "int helper(int x);\n",
            "a.c": '#include "a.h"\n'
                   "void a_fn(int *p) { kfree(p); kfree(p); }\n",
            "b.c": "void b_fn(int *q) { kfree(q); kfree(q); }\n",
        })
        sock = os.path.join(sock_dir, "d.sock")
        with running_daemon(src, tmp_path / "cache", sock) as daemon:
            with DaemonClient(sock) as client:
                base = client.request("analyze")
                assert base["ok"] and base["report_count"] == 2
                # Editing the header reparses its includer, not b.c.
                (src / "a.h").write_text(
                    "int helper(int x);\nint helper2(int x);\n"
                )
                resp = client.request("analyze")
                assert resp["ok"]
                assert resp["files_reparsed"] == 1
                assert resp["reports"] == cold_output(src, capsys)
                # A brand-new header can change include resolution
                # anywhere: conservative full reparse.
                (src / "c.h").write_text("int fresh(void);\n")
                resp = client.request("analyze")
                assert resp["ok"]
                assert resp["files_reparsed"] == 2
                assert daemon.stats.count("daemon_full_reparses") == 1
                assert resp["reports"] == cold_output(src, capsys)

    def test_deleted_file_drops_its_reports(self, tmp_path, sock_dir,
                                            capsys):
        src = tmp_path / "src"
        src.mkdir()
        write_tree(src, {
            "a.c": "void a_fn(int *p) { kfree(p); kfree(p); }\n",
            "b.c": "void b_fn(int *q) { kfree(q); kfree(q); }\n",
        })
        sock = os.path.join(sock_dir, "d.sock")
        with running_daemon(src, tmp_path / "cache", sock):
            with DaemonClient(sock) as client:
                assert client.request("analyze")["report_count"] == 2
                os.remove(str(src / "b.c"))
                resp = client.request("analyze")
                assert resp["ok"] and resp["files"] == 1
                assert resp["report_count"] == 1
                assert resp["reports"] == cold_output(src, capsys)

    def test_notify_hint_feeds_the_next_analysis(self, tmp_path, sock_dir,
                                                 capsys):
        src = tmp_path / "src"
        src.mkdir()
        write_tree(src, {"a.c": "void a_fn(int *p) { kfree(p); }\n"})
        sock = os.path.join(sock_dir, "d.sock")
        with running_daemon(src, tmp_path / "cache", sock):
            with DaemonClient(sock) as client:
                assert client.request("analyze")["report_count"] == 0
                (src / "a.c").write_text(
                    "void a_fn(int *p) { kfree(p); kfree(p); }\n"
                )
                note = client.request("notify", paths=[str(src / "a.c")])
                assert note["ok"] and note["queued"] == 1
                resp = client.request("analyze")
                assert resp["report_count"] == 1
                assert resp["reports"] == cold_output(src, capsys)


class TestDaemonFaultMatrix:
    @pytest.fixture
    def served(self, tmp_path, sock_dir):
        src = tmp_path / "src"
        src.mkdir()
        gen = generate_project(seed=5, n_modules=3,
                               functions_per_module=4, bug_rate=0.4)
        write_tree(src, gen.files)
        sock = os.path.join(sock_dir, "d.sock")
        return {"src": src, "cache": tmp_path / "cache", "sock": sock,
                "gen": gen}

    def test_watcher_stall_serves_last_known_state(self, served):
        with running_daemon(served["src"], served["cache"],
                            served["sock"]) as daemon:
            with DaemonClient(served["sock"]) as client:
                base = client.request("analyze")
                assert base["ok"]
                with faults.injected([{"site": "daemon.watcher",
                                       "times": 1}]):
                    stalled = client.request("analyze")
                # Degraded, answered, same reports as last-known state.
                assert stalled["ok"]
                assert stalled["reports"] == base["reports"]
                assert daemon.stats.count("daemon_watch_errors") == 1
                assert any(
                    "watcher poll failed" in entry["detail"]
                    for entry in daemon.stats.degradations
                )
                # Recovery: the next poll sees edits the stalled one
                # missed.
                gen, __ = apply_function_edits(served["gen"], k=1, seed=2)
                write_tree(served["src"], gen.files)
                resp = client.request("analyze")
                assert resp["ok"] and resp["served_from"] == "analysis"
                assert resp["files_reparsed"] >= 1

    def test_mid_burst_crash_degrades_root_and_recovers(self, served,
                                                        capsys):
        options = AnalysisOptions(root_error_policy="degrade")
        with running_daemon(served["src"], served["cache"],
                            served["sock"], options=options):
            with DaemonClient(served["sock"]) as client:
                base = client.request("analyze")
                assert base["ok"] and not base["degradations"]
                gen, __ = apply_function_edits(served["gen"], k=1, seed=4)
                write_tree(served["src"], gen.files)
                with faults.injected([{"site": "engine.budget",
                                       "times": 1}]):
                    crashed = client.request("analyze")
                # The daemon answered (no hang) with a DegradedRoot-
                # bearing report, not an error.
                assert crashed["ok"]
                assert crashed["degradations"]
                # Degraded roots are never persisted: a forced re-run
                # without the fault converges back to cold parity.
                resp = client.request("analyze", force=True)
                assert resp["ok"] and not resp["degradations"]
                assert resp["reports"] == cold_output(served["src"],
                                                      capsys)

    def test_request_decode_fault_answers_and_keeps_serving(self, served):
        with running_daemon(served["src"], served["cache"],
                            served["sock"]) as daemon:
            with DaemonClient(served["sock"]) as client:
                with faults.injected([{"site": "daemon.request",
                                       "times": 1}]):
                    resp = client.request("ping")
                assert not resp["ok"]
                assert "decode fault" in resp["error"]
                assert client.request("ping")["ok"]
            assert daemon.stats.count("daemon_request_errors") == 1

    def test_analyze_crash_invalidates_cached_response(self, served,
                                                       monkeypatch):
        # A handler that blows up mid-analysis must answer with an
        # error, drop its half-built cache, and serve the next request.
        with running_daemon(served["src"], served["cache"],
                            served["sock"]) as daemon:
            with DaemonClient(served["sock"]) as client:
                assert client.request("analyze")["ok"]

                def boom():
                    raise RuntimeError("checker bug")

                monkeypatch.setattr(daemon, "extension_factory", boom)
                daemon._dirty.add("force-a-rebuild")
                resp = client.request("analyze")
                assert not resp["ok"] and "checker bug" in resp["error"]
                assert daemon.stats.count("daemon_analyze_errors") == 1
                monkeypatch.setattr(daemon, "extension_factory",
                                    cli_checkers)
                assert client.request("analyze")["ok"]


class TestDaemonGC:
    def test_gc_op_spares_pinned_warm_state(self, tmp_path, sock_dir,
                                            capsys):
        src = tmp_path / "src"
        src.mkdir()
        gen = generate_project(seed=9, n_modules=3,
                               functions_per_module=4, bug_rate=0.4)
        write_tree(src, gen.files)
        cache = tmp_path / "cache"
        sock = os.path.join(sock_dir, "d.sock")
        with running_daemon(src, cache, sock) as daemon:
            with DaemonClient(sock) as client:
                base = client.request("analyze")
                assert base["ok"]
                store = astcache.SummaryCache(str(cache / "summaries"))
                # Plant a stale orphan; age a pinned frame the same way.
                orphan = "0d" * 32
                store.store(orphan, ["junk"])
                pinned = daemon.session.pinned_frame_keys()
                assert pinned
                stamp = time.time() - 2 * 86400.0
                store.set_entry_mtime(orphan, stamp)
                store.set_entry_mtime(pinned[0], stamp)
                reply = client.request("gc", days=1.0)
                assert reply["ok"]
                assert reply["gc"]["gc_summary_frames_dropped"] == 1
                assert store.lookup(orphan) is None
                assert store.lookup(pinned[0]) is not None
                # The warm state still replays to cold-identical bytes.
                resp = client.request("analyze", force=True)
                assert resp["reports"] == cold_output(src, capsys)

    def test_warm_replay_touches_frames_past_gc(self, tmp_path, sock_dir):
        # Satellite: frames a daemon replays daily must not age out.
        src = tmp_path / "src"
        src.mkdir()
        write_tree(src, {
            "a.c": "void a_fn(int *p) { kfree(p); kfree(p); }\n",
        })
        cache = tmp_path / "cache"
        sock = os.path.join(sock_dir, "d.sock")
        with running_daemon(src, cache, sock) as daemon:
            with DaemonClient(sock) as client:
                assert client.request("analyze")["ok"]
                store = astcache.SummaryCache(str(cache / "summaries"))
                keys = daemon.session.pinned_frame_keys()
                stamp = time.time() - 10 * 86400.0
                for key in keys:
                    store.set_entry_mtime(key, stamp)
                # A warm replay (memory hits) refreshes every frame it
                # used, so a subsequent GC keeps them even without the
                # daemon's pin list.
                assert client.request("analyze", force=True)["ok"]
                for key in keys:
                    assert time.time() - store.entry_mtime(key) < 3600.0


class TestPinnedTouchBatching:
    def test_pinned_warm_run_touches_frames_in_one_call(self, tmp_path,
                                                         monkeypatch):
        from repro.driver.project import Project

        src = tmp_path / "src"
        src.mkdir()
        write_tree(src, generate_project(
            seed=9, n_modules=3, functions_per_module=4, bug_rate=0.4,
        ).files)
        cache = str(tmp_path / "cache")
        session = IncrementalSession(
            cache, session_signature(checker_names=["free", "lock"],
                                     options=AnalysisOptions()),
            pin_warm_state=True,
        )

        def run():
            project = Project(include_paths=[str(src)], cache_dir=cache,
                              store_backend=session.backend)
            project.compile_files(c_paths(src))
            project.run(cli_checkers(), incremental=session)
            return project

        run()
        keys = session.pinned_frame_keys()
        assert keys
        store = astcache.SummaryCache(backend=session.backend)
        stamp = time.time() - 10 * 86400.0
        for key in keys:
            store.set_entry_mtime(key, stamp)
        calls = []
        real = session.backend.touch_many

        def counting(tier, touched, ts=None):
            calls.append((tier, sorted(touched)))
            return real(tier, touched, ts=ts)

        monkeypatch.setattr(session.backend, "touch_many", counting)
        warm = run()
        assert warm.stats.count("summary_memory_hits") == len(keys)
        assert calls == [("sum", keys)]
        counters = astcache.collect_cache_garbage(cache, cutoff_days=1.0)
        assert counters["gc_summary_frames_dropped"] == 0
        for key in keys:
            assert store.lookup(key) is not None
            assert time.time() - store.entry_mtime(key) < 3600.0


class TestCacheGCRace:
    """Satellite: ``collect_cache_garbage`` used to read pinned keys
    outside any lock, then sweep -- a rival session's read-merge-write
    landing in between had its freshly pinned frames swept."""

    def _backdated_frame(self, store, key, days=2.0):
        store.store(key, ["artifact"])
        store.set_entry_mtime(key, time.time() - days * 86400.0)

    def test_rival_merge_between_scan_and_sweep_is_honoured(self,
                                                            tmp_path):
        cache_dir = str(tmp_path)
        store = astcache.SummaryCache(os.path.join(cache_dir,
                                                   "summaries"))
        first, second = "aa" * 32, "bb" * 32
        self._backdated_frame(store, first)
        self._backdated_frame(store, second)

        def rival_merges():
            # Two interleaved rival stores land *after* the GC's scan
            # phase: fresh manifests pinning the old frames.
            store.store_manifest("rival-one", {"f": ["l"]},
                                 frame_keys=[first])
            store.store_manifest("rival-two", {"g": ["m"]},
                                 frame_keys=[second])

        counters = astcache.collect_cache_garbage(
            cache_dir, cutoff_days=1.0, _after_scan=rival_merges
        )
        assert counters["gc_summary_frames_dropped"] == 0
        assert store.lookup(first) is not None
        assert store.lookup(second) is not None

    def test_frames_vanishing_mid_sweep_are_tolerated(self, tmp_path):
        cache_dir = str(tmp_path)
        store = astcache.SummaryCache(os.path.join(cache_dir,
                                                   "summaries"))
        doomed = "cc" * 32
        self._backdated_frame(store, doomed)

        def someone_else_evicts():
            store.evict(doomed)

        counters = astcache.collect_cache_garbage(
            cache_dir, cutoff_days=1.0, _after_scan=someone_else_evicts
        )
        assert counters["gc_summary_frames_dropped"] == 0
        assert store.lookup(doomed) is None

    def test_extra_live_keys_pin_like_manifests(self, tmp_path):
        cache_dir = str(tmp_path)
        store = astcache.SummaryCache(os.path.join(cache_dir,
                                                   "summaries"))
        held, loose = "dd" * 32, "ee" * 32
        self._backdated_frame(store, held)
        self._backdated_frame(store, loose)
        counters = astcache.collect_cache_garbage(
            cache_dir, cutoff_days=1.0, extra_live_sum=[held]
        )
        assert counters["gc_summary_frames_dropped"] == 1
        assert store.lookup(held) is not None
        assert store.lookup(loose) is None


class TestLockFallback:
    """Satellite: without ``fcntl``, ``_file_lock`` must not silently
    become a no-op -- it falls back to an O_CREAT|O_EXCL lockfile and
    counts the degraded discipline."""

    def test_fallback_counts_and_cleans_up(self, tmp_path, monkeypatch):
        monkeypatch.setattr(astcache, "fcntl", None)
        stats = DriverStats()
        lock = str(tmp_path / "manifest.json.lock")
        with astcache._file_lock(lock, stats=stats):
            assert os.path.exists(lock + ".excl")
        assert not os.path.exists(lock + ".excl")
        assert stats.count("manifest_lock_fallbacks") == 1

    def test_fallback_excludes_concurrent_holders(self, tmp_path,
                                                  monkeypatch):
        monkeypatch.setattr(astcache, "fcntl", None)
        lock = str(tmp_path / "m.lock")
        order = []

        def hold(tag):
            with astcache._file_lock(lock):
                order.append((tag, "in"))
                time.sleep(0.05)
                order.append((tag, "out"))

        threads = [threading.Thread(target=hold, args=(t,))
                   for t in ("a", "b")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # Strict alternation: each holder exits before the next enters.
        assert [kind for __, kind in order] == ["in", "out", "in", "out"]

    def test_stale_lockfile_is_stolen(self, tmp_path, monkeypatch):
        monkeypatch.setattr(astcache, "fcntl", None)
        lock = str(tmp_path / "m.lock")
        excl = lock + ".excl"
        with open(excl, "w"):
            pass
        stamp = time.time() - 2 * astcache._LOCK_FALLBACK_STALE
        os.utime(excl, (stamp, stamp))
        start = time.monotonic()
        with astcache._file_lock(lock):
            pass
        assert time.monotonic() - start < astcache._LOCK_FALLBACK_TIMEOUT

    def test_manifest_merge_still_works_without_fcntl(self, tmp_path,
                                                      monkeypatch):
        monkeypatch.setattr(astcache, "fcntl", None)
        stats = DriverStats()
        store = astcache.SummaryCache(str(tmp_path / "summaries"))
        store.store_manifest("sig", {"f": ["a"]}, frame_keys=["k1"],
                             stats=stats)
        store.store_manifest("sig", {"g": ["b"]}, frame_keys=["k2"],
                             stats=stats)
        doc = store.load_manifest_document("sig")
        assert set(doc["fingerprints"]) == {"f", "g"}
        assert set(doc["frame_keys"]) == {"k1", "k2"}
        assert stats.count("manifest_lock_fallbacks") >= 2


class TestWarmLoadTouch:
    """Satellite: every successful warm load refreshes the frame's
    mtime, so GC's cutoff rule tracks real use, not store time."""

    def test_summary_load_refreshes_mtime(self, tmp_path):
        store = astcache.SummaryCache(str(tmp_path / "summaries"))
        key = "ab" * 32
        store.store(key, ["artifact"])
        store.set_entry_mtime(key, time.time() - 10 * 86400.0)
        assert store.load(key) is not None
        assert time.time() - store.entry_mtime(key) < 3600

    def test_ast_load_refreshes_mtime(self, tmp_path):
        from repro.driver.project import Project

        cache = astcache.AstCache(str(tmp_path))
        compiled = Project().compile_text("int x;\n", "t.c")
        payload = astcache.pack_unit(compiled.unit, compiled.source_bytes)
        key = "cd" * 32
        cache.store(key, payload)
        cache.set_entry_mtime(key, time.time() - 10 * 86400.0)
        assert cache.load(key) is not None
        assert time.time() - cache.entry_mtime(key) < 3600

    def test_touch_entry_tolerates_missing_files(self, tmp_path):
        astcache.touch_entry(str(tmp_path / "never-existed.sum"))


class TestDaemonCLI:
    def test_watch_flag_validation(self):
        with pytest.raises(SystemExit):
            main(["--checker", "free", "--watch", "src"])  # no socket
        with pytest.raises(SystemExit):
            main(["--checker", "free", "--watch", "src",
                  "--daemon-socket", "/tmp/x.sock"])  # no cache dir
        with pytest.raises(SystemExit):
            main(["--watch", "src", "--daemon-socket", "/tmp/x.sock",
                  "--cache-dir", "/tmp/c"])  # no checkers

    def test_client_request_without_daemon_fails_cleanly(self, sock_dir,
                                                         capsys):
        sock = os.path.join(sock_dir, "gone.sock")
        code = main(["--daemon-socket", sock,
                     "--daemon-request", "ping"])
        assert code == 2
        assert "cannot reach daemon" in capsys.readouterr().err

    def test_client_analyze_prints_cold_identical_reports(
        self, tmp_path, sock_dir, capsys
    ):
        src = tmp_path / "src"
        src.mkdir()
        gen = generate_project(seed=13, n_modules=3,
                               functions_per_module=4, bug_rate=0.4)
        write_tree(src, gen.files)
        sock = os.path.join(sock_dir, "d.sock")
        cold = cold_output(src, capsys)
        with running_daemon(src, tmp_path / "cache", sock):
            code = main(["--daemon-socket", sock,
                         "--daemon-request", "analyze"])
            out = capsys.readouterr().out
            assert out == cold
            assert code == (1 if cold else 0)
            code = main(["--daemon-socket", sock,
                         "--daemon-request", "stats"])
            assert code == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["stats"]["schema_version"] == 9
