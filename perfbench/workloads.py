"""The three workloads and the harness that drives xgcc for them.

Every workload analyzes ``generate_project(seed, 40 modules x 30
functions)`` (41 files, ~11.1k lines) with checkers ``lock free null``
and ``--refine=annotate``, through a public entry point: a fresh
``python3 -m repro.driver.cli`` process, or ``XgccDaemon.analyze`` in
this process.  One client, closed loop: the next iteration starts when
the previous one has returned.

A run first sets up (timed as ``setup_s``, repeated ``SETUP_REPEATS``
times per workload), then measures a fixed number of iterations sized to
take about ``--seconds``, checking every output.  With ``--trace 1``
iterations alternate between untraced and traced, so the run yields
per-layer self times and the tracing overhead.

The run is pinned to one CPU, and every timed set-up and iteration sits
between two readings of the host's speed on that CPU (see ``timed``):
the end-to-end times are reported at a fixed nominal speed, so that a
shared host slowing down for a minute does not read as a slower xgcc.
"""

import ctypes
import difflib
import functools
import gc
import json
import os
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import oracle
import tracing

#: --size -> (n_modules, functions_per_module).  "tiny" is for the smoke
#: test only.
SIZES = {"full": (40, 30), "tiny": (3, 6)}
CHECKER_ARGS = ["--checker", "lock", "--checker", "free", "--checker",
                "null", "--refine=annotate"]
#: The run-history bound the warm CLI and the daemon re-apply.
PRUNE_KEEP = 5
#: Timed set-ups per run (setup_s is their median).  Every set-up writes
#: a fresh tree and analyzes it cold once: a warm-up run, a cache fill or
#: a daemon cold start.  Writing the tree alone takes ~15 ms, and the
#: shared disk makes that vary twofold from one minute to the next.  The
#: edit workloads set up twice, not three times: each of their set-ups is
#: a cold analysis that serves no other purpose (daemon_burst also starts
#: the daemon it measures, untimed), and twice keeps one of their runs
#: near 45 s on a slow host.
SETUP_REPEATS = {"cold_full": 3, "warm_edit": 2, "daemon_burst": 2}
#: Seconds per measured iteration on a 2-core 2.1 GHz Xeon.  A
#: run measures ``round(--seconds / nominal)`` iterations: a fixed amount
#: of work per run, so a run on a slow moment measures the same edits as
#: one on a fast moment (daemon and warm latency drift upwards with the
#: number of edits applied, so a time-bounded loop would mix speed into
#: the work done).
NOMINAL_S = {"cold_full": 4.5, "warm_edit": 1.5, "daemon_burst": 0.4}
#: Every child process is killed after this many seconds of the run.
HARD_LIMIT_S = 165.0

#: The nominal host speed: one speed unit in this many seconds.  End-to-end
#: times are reported as if the host had run at that speed.  A 2-core
#: 2.1 GHz Xeon VM ran a unit in 4.5 to 20 ms, depending on its
#: neighbours.
NOMINAL_UNIT_S = 0.005
#: Units per speed reading (the reading is their median).
SPEED_UNITS = 3
#: Seconds between speed readings while an xgcc process runs.
READING_INTERVAL_S = 0.5

HERE = os.path.dirname(os.path.abspath(__file__))
TRACED_XGCC = os.path.join(HERE, "traced_xgcc.py")


# -- host speed -------------------------------------------------------------


#: Two line lists for the speed unit's diff: 200 lines, every seventh
#: changed.
_DIFF_OLD = [("line %d " % number) * 3 for number in range(200)]
_DIFF_NEW = [line if number % 7 else "changed"
             for number, line in enumerate(_DIFF_OLD)]


class _Node:
    __slots__ = ("next", "value")


def _speed_ring(size=100000):
    """A ring of ``size`` nodes linked in shuffled order, ~6 MB: past a
    core's L2 cache, so a walk along it waits on memory the way xgcc's
    walks over its heap do."""
    nodes = [_Node() for __ in range(size)]
    order = list(range(size))
    random.Random(0).shuffle(order)
    for position, index in enumerate(order):
        nodes[index].value = index % 256
        nodes[index].next = nodes[order[(position + 1) % size]]
    return [nodes[0]]


#: Where the next walk starts: successive walks go round the whole ring.
_RING = _speed_ring()


def _speed_unit():
    """A fixed mix of the interpreter work xgcc is made of, in four parts:
    tuple and string building with dict probes and updates; short-lived
    dicts, lists and tuples; a pure-Python sequence diff (loops, calls,
    attribute access); and a pointer walk that misses the cache.  On a
    shared host the mix tracks xgcc's speed better than any one part
    alone: the first three slow down more than xgcc when a neighbour is
    busy, the walk about as much."""
    table = {}
    total = 0
    for step in range(3000):
        key = (step % 251, "k%d" % (step % 97))
        table[key] = table.get(key, 0) + 1
        total += len(key[1])
    kept = []
    for step in range(2000):
        entry = {"k": step, "v": [step, step + 1], "s": "x%d" % step}
        kept.append((entry, entry["v"][0]))
    matcher = difflib.SequenceMatcher(None, _DIFF_OLD, _DIFF_NEW)
    node = _RING[0]
    for __ in range(30000):
        total += node.value
        node = node.next
    _RING[0] = node
    return total + len(kept) + len(matcher.get_opcodes())


#: Every speed reading this process took, and the seconds xgcc processes
#: spent stopped for readings taken while they ran.
READINGS = []
PAUSED = [0.0]


def unit_seconds():
    """One reading of the host's speed: the median time of a few speed
    units on this process's CPU."""
    times = []
    for __ in range(SPEED_UNITS):
        start = time.perf_counter()
        _speed_unit()
        times.append(time.perf_counter() - start)
    READINGS.append(statistics.median(times))
    return READINGS[-1]


def timed(work):
    """``(work(), seconds, scale)``: ``work()``'s result and wall time,
    and the scale that turns its seconds into seconds at the nominal
    speed.

    On a shared host the same xgcc run takes from one to two and a half
    times its quiet-host time, in phases that last from under a second to
    many minutes, and its CPU time stretches with its wall time: the CPU
    itself runs slower.  Speed readings on the same CPU just before and
    just after the work, and every ``READING_INTERVAL_S`` while a child
    process of it runs (``wait_reading_speed``), give the speed the work
    ran at.
    The scale is nominal ÷ their mean unit time, and ``seconds`` leaves
    out the time the process was stopped for readings.  The interpreter
    and the speed unit are the same on both sides of a comparison, so a
    change to xgcc moves the scaled times and a change of host speed does
    not."""
    first, paused = len(READINGS), PAUSED[0]
    unit_seconds()
    start = time.perf_counter()
    result = work()
    seconds = time.perf_counter() - start - (PAUSED[0] - paused)
    unit_seconds()
    return result, seconds, NOMINAL_UNIT_S / statistics.fmean(
        READINGS[first:])


def pin_to_one_cpu():
    """Pin this process (and the children it starts) to one CPU, so the
    speed readings are taken where xgcc runs.  Returns the CPU set to
    restore, or None where affinity cannot be set."""
    try:
        cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(cpus)})
    except (AttributeError, OSError):
        return None
    return cpus


class Context:
    """One benchmark run: arguments, scratch space, samples, failures."""

    def __init__(self, root, workload, seed, seconds, trace, size,
                 corrupt_reference=False, phantom_bug=False):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.size = size
        self.corrupt_reference = corrupt_reference
        self.phantom_bug = phantom_bug
        self.started = time.perf_counter()
        self.work = os.path.join(
            root, ".perfbench_work", "%s-%d" % (workload, os.getpid())
        )
        self.tmp = os.path.join(self.work, "tmp")
        os.makedirs(self.tmp)
        # Temporary files stay in the checkout, this process's included.
        os.environ["TMPDIR"] = self.tmp
        tempfile.tempdir = self.tmp
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.path.join(root, "src")
        # xgcc processes hash strings with a seed of their own (see
        # run.HASH_SEED).
        self.env.pop("PYTHONHASHSEED", None)
        self.attempted = 0
        self.failed = 0
        self.problems = []
        #: Set-ups: {seconds, scale}.
        self.setups = []
        #: Measured iterations: {wall, cpu, rss_mb, latency, scale}.
        self.samples = []
        #: Untraced walls of a --trace 1 run.
        self.untraced_walls = []
        #: Traced iterations: {wall, spans, counts}.
        self.traced = []
        #: Traced --jobs 2 iterations of a cold_full ledger run.
        self.probe = []
        self.chrome = []
        self.expected = oracle.load_expected()
        self.all_cpus = pin_to_one_cpu()

    def cleanup(self):
        shutil.rmtree(self.work, ignore_errors=True)
        parent = os.path.dirname(self.work)
        try:
            os.rmdir(parent)
        except OSError:
            pass

    def fresh_dir(self, name):
        path = os.path.join(self.work, name)
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)
        return path

    def set_up(self, work):
        """Run and time one set-up; returns ``work()``'s result."""
        result, seconds, scale = timed(work)
        self.setups.append({"seconds": seconds, "scale": scale})
        return result

    def time_left(self):
        return HARD_LIMIT_S - (time.perf_counter() - self.started)

    def record(self, problems):
        """Count one attempted operation; any problem fails it."""
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.extend(problems[:2])

    def iterations(self):
        """The measured iterations of this run (a --trace 1 run gets at
        least one traced and one untraced iteration)."""
        if self.size == "tiny":
            return 2 if self.trace else 1
        count = round(self.seconds / NOMINAL_S[self.workload])
        return count | 1  # odd, so the median is one sample

    def keep_going(self, iteration):
        """Until the run's iterations are done; a run on a machine far
        slower than nominal stops early rather than overrun its limit."""
        if iteration >= self.iterations():
            return False
        return iteration == 0 or (
            self.time_left() > 30
            and time.perf_counter() - self.started < 3 * self.seconds + 40
        )

    def traced_iteration(self, iteration):
        return self.trace and iteration % 2 == 1

    def ground_truth(self, generated, text, pinned=True):
        """Ground-truth problems; exact counts only on unedited trees."""
        bugs = list(generated.bugs)
        if self.phantom_bug:
            # A phantom injected bug: the oracle must report it missed.
            from repro.codegen.generator import InjectedBug

            bugs.append(InjectedBug("double-free", "phantom_function"))
        return oracle.check_ground_truth(
            bugs, text, self.expected,
            seed=self.seed if pinned else None, size=self.size,
        )

    def reference(self, text):
        return oracle.corrupt(text) if self.corrupt_reference else text


class XgccRun:
    __slots__ = ("wall", "cpu", "rss_mb", "code", "stdout", "stderr",
                 "spans")


def wait_reading_speed(ctx, pid):
    """Wait for process group ``pid`` to end; ``(status, rusage)``.

    Where the run is pinned to one CPU (and not traced), the group is
    stopped every ``READING_INTERVAL_S`` for a speed reading on that CPU
    (see ``timed``).  The stopped time goes to ``PAUSED``; the group's CPU
    time and RSS do not see it.  Past the run's limit the whole group is
    killed, pool workers too."""
    read_speed = ctx.all_cpus is not None and not ctx.trace
    exited = os.pidfd_open(pid)
    try:
        while not select.select([exited], [], [], READING_INTERVAL_S)[0]:
            if ctx.time_left() < 0:
                os.killpg(pid, signal.SIGKILL)
            elif read_speed:
                stopped = time.perf_counter()
                os.killpg(pid, signal.SIGSTOP)
                unit_seconds()
                os.killpg(pid, signal.SIGCONT)
                PAUSED[0] += time.perf_counter() - stopped
    finally:
        os.close(exited)
    __, status, usage = os.wait4(pid, 0)
    return status, usage


def run_xgcc(ctx, args, cwd, spans_path=None):
    """One ``xgcc`` process, start to exit, with the resource usage of
    its whole tree (``wait4`` folds in reaped pool workers).  The wall
    leaves out the time it was stopped for speed readings."""
    if spans_path is None:
        command = [sys.executable, "-m", "repro.driver.cli"] + args
    else:
        command = [sys.executable, TRACED_XGCC, spans_path, "--"] + args
    out_path = os.path.join(ctx.work, "xgcc.out")
    err_path = os.path.join(ctx.work, "xgcc.err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        paused = PAUSED[0]
        proc = subprocess.Popen(command, cwd=cwd, env=ctx.env, stdout=out,
                                stderr=err, start_new_session=True)
        try:
            status, usage = wait_reading_speed(ctx, proc.pid)
        except BaseException:
            # Interrupted (SIGTERM, ^C): take the child's group down too.
            os.killpg(proc.pid, signal.SIGKILL)
            os.wait4(proc.pid, 0)
            raise
        wall = time.perf_counter() - start - (PAUSED[0] - paused)
    proc.returncode = os.waitstatus_to_exitcode(status)
    run = XgccRun()
    run.wall = wall
    run.cpu = usage.ru_utime + usage.ru_stime
    run.rss_mb = usage.ru_maxrss / 1024.0
    run.code = proc.returncode
    with open(out_path) as handle:
        run.stdout = handle.read()
    with open(err_path) as handle:
        run.stderr = handle.read()
    run.spans = None
    if spans_path is not None and os.path.exists(spans_path):
        with open(spans_path) as handle:
            run.spans = json.load(handle)
        os.remove(spans_path)
    return run


def run_problems(run, label):
    """Exit code 1 (reports found), no crash, no degradation record."""
    problems = []
    if run.code != 1:
        problems.append("%s exited %s: %s"
                        % (label, run.code, run.stderr.strip()[-300:]))
    if "degraded" in run.stderr or "Traceback" in run.stderr:
        problems.append("%s: %s" % (label, run.stderr.strip()[-300:]))
    return problems


def make_project(ctx):
    from repro.codegen.project_gen import generate_project

    n_modules, per_module = SIZES[ctx.size]
    return generate_project(seed=ctx.seed, n_modules=n_modules,
                            functions_per_module=per_module)


def write_tree(directory, generated, previous=None):
    for name, text in sorted(generated.files.items()):
        if previous is not None and previous.files.get(name) == text:
            continue
        with open(os.path.join(directory, name), "w") as handle:
            handle.write(text)


def tree_args(directory, generated):
    """``-I`` for the tree's shared header, then every ``.c`` file by
    absolute path (the daemon names files that way, and report text
    carries the names)."""
    return ["--include", directory] + [
        os.path.join(directory, name)
        for name in sorted(generated.files) if name.endswith(".c")
    ]


def measure_xgcc(ctx, iteration, args, cwd):
    """Run one iteration's process, under the tracer on alternate
    iterations of a --trace 1 run."""
    if ctx.traced_iteration(iteration):
        return run_xgcc(ctx, args, cwd,
                        spans_path=os.path.join(ctx.work, "spans.json"))
    return run_xgcc(ctx, args, cwd)


def keep_trace(ctx, iteration, wall, exported, records=None):
    """File one iteration's wall (and spans, when it was traced) for
    the per-layer ledger of a --trace 1 run."""
    if not ctx.trace:
        return
    if exported is None:
        ctx.untraced_walls.append(wall)
        return
    (ctx.traced if records is None else records).append(
        {"wall": wall, "spans": exported["spans"],
         "counts": exported["counts"]}
    )
    ctx.chrome.extend(tracing.chrome_events(
        exported["spans"], exported["pid"], iteration
    ))


# -- cold workloads -----------------------------------------------------------


def cold_full(ctx):
    """A fresh serial process over the whole tree, no cache.  Set-up
    ends with one warm-up run, so that bytecode is compiled and the page
    cache filled before the first measured iteration; its text is the
    serial cold reference every iteration must equal."""

    def set_up(repeat):
        generated = make_project(ctx)
        tree = ctx.fresh_dir("tree%d" % repeat)
        write_tree(tree, generated)
        files = tree_args(tree, generated)
        return generated, tree, files, run_xgcc(ctx, CHECKER_ARGS + files,
                                                tree)

    for repeat in range(SETUP_REPEATS[ctx.workload]):
        generated, tree, files, warmup = ctx.set_up(lambda: set_up(repeat))
        ctx.record(run_problems(warmup, "warm-up xgcc")
                   + ctx.ground_truth(generated, warmup.stdout))
    reference = ctx.reference(warmup.stdout)
    args = CHECKER_ARGS + files
    iteration = 0
    while ctx.keep_going(iteration):
        run, __, scale = timed(lambda: measure_xgcc(ctx, iteration, args,
                                                    tree))
        problems = run_problems(run, "xgcc") + ctx.ground_truth(
            generated, run.stdout
        )
        problems += oracle.same_text(reference, run.stdout, "xgcc")
        ctx.record(problems)
        ctx.samples.append({"wall": run.wall, "cpu": run.cpu,
                            "rss_mb": run.rss_mb, "latency": run.wall,
                            "scale": scale})
        keep_trace(ctx, iteration, run.wall, run.spans)
        iteration += 1
    if ctx.trace:
        # The ledger ends with one traced --jobs 2 run, the benchmark's
        # only path through the driver.parallel pool (a --jobs 2
        # workload is too unsteady on a shared 2-core host to gate on).
        if ctx.all_cpus is not None:
            os.sched_setaffinity(0, ctx.all_cpus)
        args = CHECKER_ARGS + ["--jobs", "2"] + files
        run = run_xgcc(ctx, args, tree,
                       spans_path=os.path.join(ctx.work, "spans.json"))
        ctx.record(run_problems(run, "xgcc --jobs 2")
                   + ctx.ground_truth(generated, run.stdout)
                   + oracle.same_text(reference, run.stdout, "xgcc --jobs 2"))
        if run.spans is not None:
            keep_trace(ctx, "jobs2", run.wall, run.spans, ctx.probe)


# -- edit workloads -----------------------------------------------------------


def _edit(generated, iteration):
    from repro.codegen.project_gen import apply_function_edits

    edited, __ = apply_function_edits(generated, k=1, seed=iteration)
    return edited


def _final_reference(ctx, tree, generated, text, label):
    """Byte-identity of the last iteration's text against a serial cold
    run over the final tree (untimed)."""
    ref = run_xgcc(ctx, CHECKER_ARGS + tree_args(tree, generated), tree)
    ctx.record(run_problems(ref, "serial reference")
               + ctx.ground_truth(generated, ref.stdout, pinned=False)
               + oracle.same_text(ctx.reference(ref.stdout), text, label))


def warm_edit(ctx):
    """A filled cache, then per iteration one seeded function edit and a
    fresh ``xgcc --incremental`` process."""

    def set_up(repeat):
        generated = make_project(ctx)
        tree = ctx.fresh_dir("tree%d" % repeat)
        cache = ctx.fresh_dir("cache%d" % repeat)
        write_tree(tree, generated)
        args = CHECKER_ARGS + [
            "--incremental", "--cache-dir", cache, "--record-run",
            "--prune-runs", str(PRUNE_KEEP),
        ] + tree_args(tree, generated)
        return generated, tree, args, run_xgcc(ctx, args, tree)

    for repeat in range(SETUP_REPEATS[ctx.workload]):
        generated, tree, args, fill = ctx.set_up(lambda: set_up(repeat))
        ctx.record(run_problems(fill, "cache fill")
                   + ctx.ground_truth(generated, fill.stdout))
    iteration = 0
    text = fill.stdout
    while ctx.keep_going(iteration):
        edited = _edit(generated, iteration)

        def edit_and_check():
            write_tree(tree, edited, generated)
            return measure_xgcc(ctx, iteration, args, tree)

        run, latency, scale = timed(edit_and_check)
        generated = edited
        text = run.stdout
        ctx.record(run_problems(run, "warm xgcc")
                   + ctx.ground_truth(generated, text, pinned=False))
        ctx.samples.append({"wall": run.wall, "cpu": run.cpu,
                            "rss_mb": run.rss_mb, "latency": latency,
                            "scale": scale})
        keep_trace(ctx, iteration, latency, run.spans)
        iteration += 1
    _final_reference(ctx, tree, generated, text, "warm xgcc")


def _start_daemon(ctx, tree, cache, tracer):
    from repro.driver import cli
    from repro.driver.daemon import XgccDaemon
    from repro.driver.session import IncrementalSession, session_signature
    from repro.driver.store import open_store

    args = cli.build_parser().parse_args(CHECKER_ARGS)
    options = cli._make_options(args)
    signature = session_signature(checker_names=args.checker,
                                  metal_texts=[], options=options)
    backend = open_store(cache_dir=cache)
    if tracer is not None:
        backend = tracing.TimedStore(backend, tracer)
    session = IncrementalSession(cache, signature, pin_warm_state=True,
                                 backend=backend)
    factory = functools.partial(cli._build_extensions, tuple(args.checker),
                                ())
    return XgccDaemon(
        watch_roots=[tree], extension_factory=factory, session=session,
        socket_path=os.path.join(ctx.work, "unused.sock"), cache_dir=cache,
        include_paths=[tree], options=options, rank=args.rank,
        refine=args.refine, run_keep=PRUNE_KEEP,
    )


def analyze(daemon):
    """``daemon.analyze()`` plus the degradation records it added to
    the daemon's stats (unit and store degradations land only there)."""
    before = len(daemon.stats.degradations)
    response = daemon.analyze()
    response["new_degradations"] = daemon.stats.degradations[before:]
    return response


def daemon_problems(response, label):
    problems = []
    for entry in response["new_degradations"]:
        problems.append("%s degraded: %s" % (label, entry))
    if not response.get("ok"):
        problems.append("%s failed: %s" % (label, response.get("error")))
    if response.get("degradations"):
        problems.append("%s degraded: %s"
                        % (label, response["degradations"][0]))
    if response.get("served_from") != "analysis":
        problems.append("%s served from %s" % (label,
                                               response.get("served_from")))
    return problems


def _daemon_setup(ctx, repeat, tracer):
    """One daemon set-up: tree, daemon, cold ``analyze()``.  Returns
    ``(problems, (daemon, tree, generated, response))``."""
    generated = make_project(ctx)
    tree = ctx.fresh_dir("tree%d" % repeat)
    cache = ctx.fresh_dir("cache%d" % repeat)
    write_tree(tree, generated)
    daemon = _start_daemon(ctx, tree, cache, tracer)
    response = analyze(daemon)
    problems = (daemon_problems(response, "daemon cold start")
                + ctx.ground_truth(generated, response.get("reports", "")))
    return problems, (daemon, tree, generated, response)


def in_child(ctx, function):
    """``function()`` in a forked child, waited for like an xgcc process
    (``wait_reading_speed``); its JSON-able result comes back through a
    file.  The child's memory never becomes this process's."""
    result_path = os.path.join(ctx.work, "child.json")
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.setpgid(0, 0)
            with open(result_path, "w") as handle:
                json.dump(function(), handle)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    try:
        try:
            os.setpgid(pid, pid)
        except OSError:
            pass  # the child got there first
        status, __ = wait_reading_speed(ctx, pid)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    if os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError("forked set-up exited %s"
                           % os.waitstatus_to_exitcode(status))
    with open(result_path) as handle:
        result = json.load(handle)
    os.remove(result_path)
    return result


def _malloc_trim():
    try:
        return ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError):
        return lambda pad: 0


#: glibc's ``malloc_trim`` (a no-op elsewhere).
MALLOC_TRIM = _malloc_trim()


def reset_peak_rss():
    """Hand the heap's free pages back to the OS, then restart this
    process's peak-RSS count (Linux ``clear_refs`` 5), so the next peak
    is the live state plus what the next call allocates.  False where
    the kernel does not allow the restart."""
    MALLOC_TRIM(0)
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        return False
    return True


def rss_mb(field):
    """``VmHWM`` (peak since the last reset) or ``VmRSS`` (now) in MB."""
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no %s in /proc/self/status" % field)


def daemon_burst(ctx):
    """An in-process daemon with pinned warm state; per iteration one
    seeded edit, then ``XgccDaemon.analyze()``."""
    tracer = tracing.Tracer() if ctx.trace else None
    if tracer is not None:
        tracer.enabled = False
    # Imported before any set-up is timed, so no set-up pays for it.
    tracing.import_layers()
    import repro.codegen.project_gen  # noqa: F401
    # Every timed set-up runs in a forked child, so that it is sampled
    # for speed readings like an xgcc process and the measured daemon
    # shares its process with no discarded one.  The measured daemon's
    # own cold start is not timed.
    for repeat in range(SETUP_REPEATS[ctx.workload]):
        ctx.record(ctx.set_up(lambda: in_child(
            ctx, lambda: _daemon_setup(ctx, repeat, tracer)[0]
        )))
    problems, state = _daemon_setup(ctx, SETUP_REPEATS[ctx.workload],
                                    tracer)
    ctx.record(problems)
    daemon, tree, generated, response = state
    gc.collect()
    iteration = 0
    text = response.get("reports", "")
    try:
        while ctx.keep_going(iteration):
            edited = _edit(generated, iteration)
            traced = ctx.traced_iteration(iteration)
            installation = None
            if traced:
                tracer.spans, tracer.counts = [], {}
                installation = tracing.install(tracer)
                tracer.enabled = True
            try:

                def edit_and_check():
                    write_tree(tree, edited, generated)
                    peak_reset = reset_peak_rss()
                    cpu = time.process_time()
                    call = time.perf_counter()
                    response = analyze(daemon)
                    wall = time.perf_counter() - call
                    return (response, peak_reset, wall,
                            time.process_time() - cpu)

                (response, peak_reset, wall, cpu), latency, scale = timed(
                    edit_and_check
                )
            finally:
                if installation is not None:
                    tracer.enabled = False
                    installation.uninstall()
            # The peak during this analyze(); where the peak cannot be
            # reset, the resident set it leaves behind.
            rss = rss_mb("VmHWM" if peak_reset else "VmRSS")
            generated = edited
            text = response.get("reports", "")
            problems = daemon_problems(response, "daemon analyze")
            if response.get("files_reparsed") != 1:
                problems.append("daemon reparsed %s files for one edit"
                                % response.get("files_reparsed"))
            ctx.record(problems
                       + ctx.ground_truth(generated, text, pinned=False))
            ctx.samples.append({"wall": wall, "cpu": cpu, "rss_mb": rss,
                                "latency": latency, "scale": scale})
            keep_trace(ctx, iteration, latency,
                       tracer.export() if traced else None)
            iteration += 1
    finally:
        daemon.session.backend.close()
    _final_reference(ctx, tree, generated, text, "daemon analyze")


WORKLOADS = {
    "cold_full": cold_full,
    "warm_edit": warm_edit,
    "daemon_burst": daemon_burst,
}
