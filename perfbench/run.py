"""Benchmark runner for clinchbench.

    python3 perfbench/run.py --workload efo-sweep --seed 1 --seconds 20 --trace 0

Runs one workload as a closed loop with one client in this one process:
rounds of ops are sent until the ops' timed calls add up to ``--seconds``.
Every op's output is checked, untimed, against a referee that is correct
on this traffic.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The line before it is a report of the run: environment,
sample counts, input properties and the Monte Carlo guarantees.

Set-up time is measured in fresh interpreters: the runner starts
SETUP_PROBES of them one after another, each importing the package,
generating the first round and warming up, and reports the median.

Every time reported is scaled to one host speed.  The shared host slows
the process in bursts of milliseconds whose density drifts over minutes,
so an op's time rises by up to 1.4 times with the load of other tenants.
Between ops, untimed, the runner times a fixed piece of interpreter work
(HostProbe) for REFERENCE_SHARE of the op time just sent.  The probe's
mean time in a stretch of the run, over REFERENCE_MS, is that stretch's
slowdown; op and set-up times are divided by the slowdown measured around
them.  The report line gives the unscaled values and both slowdowns.

The traced run records one span around each call into the package and
runs every round a second time untraced, in alternating order, to
measure what tracing costs.  Spans are written to ``perfbench/out/``.
"""
from __future__ import annotations

import os

# one BLAS thread: the package is single-threaded, and the machine is shared
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("efo-sweep", "sampling-revenue", "auction-referee")
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60
# Stop starting rounds after this much wall time, so that a run exits
# within its limit even on a machine far slower than expected.
WALL_LIMIT_S = 140.0
# Host probe time per second of op time, spread evenly over the run.
REFERENCE_SHARE = 0.15
# The host probe's time on an unloaded 2.1 GHz Xeon (its fastest time in
# runs there was 0.84 to 0.91 ms): the speed every time is scaled to.
REFERENCE_MS = 0.87
# Host probe time after each set-up probe.
SETUP_REFERENCE_S = 0.3

# Per-layer metrics.  Sizes are the size classes each entry point is
# called at; a workload that does not call an entry point reports 0.
SIZED_CALLS = {
    "envyfree.efo_welfare": (8, 100, 1000),
    "envyfree.efo_revenue": (8, 100, 1000),
    "profit.bspe_budget": (8, 32),
    "profit.combined_mechanism": (8, 32),
    "profit.bspe_nobudget": (8, 32),
    "oracle.simulate_clock": (8, 16, 100, 1000),
}
UNSIZED_CALLS = ("clinching.closed_form", "clinching.run_clock",
                 "clinching.structure_check", "oracle.lp_efo_welfare")
WALK_CALL = "profit.walk_trials"
LAYERS = ("envyfree", "clinching", "profit", "oracle")


def per_layer_units() -> dict:
    """Name and unit of every per-layer metric, in report order."""
    units = {}
    for name, sizes in SIZED_CALLS.items():
        for n in sizes:
            units[f"{name}.n{n}.ms_per_call"] = "ms"
    for name in UNSIZED_CALLS:
        units[f"{name}.ms_per_call"] = "ms"
    units[f"{WALK_CALL}.ms_per_walk"] = "ms"
    for name in (*SIZED_CALLS, *UNSIZED_CALLS, WALK_CALL):
        units[f"{name}.time_share"] = "share"
    units["envyfree.efo_welfare.binding_share"] = "share"
    units["envyfree.efo_revenue.binding_share"] = "share"
    units["clinching.run_clock.events_per_call"] = "count"
    units["clinching.structure_check.flags"] = "count"
    for layer in LAYERS:
        units[f"{layer}.busy_share"] = "share"
        units[f"{layer}.calls"] = "count"
    units["trace.overhead_share"] = "share"
    return units


END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class Caller:
    """The ``call`` hook ops make their timed calls through.

    Adds each call's duration to ``elapsed``; when ``spans`` is a list,
    also records (name, size, start, end, op id) there.
    """

    def __init__(self, spans=None):
        self.spans = spans
        self.elapsed = 0.0
        self.op_id = 0

    def __call__(self, name, size, fn, *args):
        start = time.perf_counter()
        out = fn(*args)
        end = time.perf_counter()
        self.elapsed += end - start
        if self.spans is not None:
            self.spans.append((name, size, start, end, self.op_id))
        return out


def reference_work() -> float:
    """A fixed piece of interpreter work: about 1 ms on a 2.1 GHz Xeon."""
    total = 0.0
    for i in range(1, 10_000):
        total += (i % 7) * 0.5 / i
    return total


class HostProbe:
    """Times ``reference_work`` between ops to measure the host's slowdown.

    The work is the same on every commit, so its mean time over a stretch
    of the run, divided by REFERENCE_MS, is how much the host slowed that
    stretch.  (The fastest time would be a noisier base: it moves by 8%
    between runs.)  ``debt`` holds probe time owed for op time already
    sent, so the probe runs in whole pieces, evenly spread over op time.
    """

    def __init__(self):
        self.times = defaultdict(list)  # stretch -> probe times
        self.debt = 0.0

    def run(self, stretch: str, seconds: float):
        self.debt += seconds
        while self.debt > 0.0:
            start = time.perf_counter()
            reference_work()
            elapsed = time.perf_counter() - start
            self.times[stretch].append(elapsed)
            self.debt -= elapsed

    def slowdown(self, stretch: str) -> float:
        return 1e3 * statistics.fmean(self.times[stretch]) / REFERENCE_MS


def import_package():
    """Import clinchbench from this checkout's ``src``, and nothing else."""
    if not (SRC / "clinchbench" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {SRC / 'clinchbench'}")
    sys.path.insert(0, str(SRC))
    import clinchbench

    if Path(clinchbench.__file__).resolve().parent != SRC / "clinchbench":
        raise SystemExit(f"error: imported clinchbench from {clinchbench.__file__}")


def set_up(name: str, seed: int):
    """Import, generate the first round, and warm up on its smallest ops."""
    import_package()
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    state = workload.setup(seed)
    first = workload.round(state, seed, 0)
    smallest = min(op.size for op in first)
    warm = Caller()
    for op in first:
        if op.size == smallest:
            op.run(warm)
    return workload, state


def probe_setup(name: str, seed: int) -> float:
    """Wall time of one fresh interpreter doing the set-up."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
           "--seed", str(seed), "--setup-only"]
    start = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True,
                          timeout=PROBE_TIMEOUT_S)
    elapsed = time.perf_counter() - start
    if done.returncode != 0:
        raise SystemExit(f"error: set-up probe failed:\n{done.stderr}")
    return elapsed


def git_revision() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "git_revision": git_revision(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "seed": seed,
    }


def measure(workload, state, seed: int, seconds: float, trace: bool,
            wall_start: float, probe: HostProbe) -> dict:
    """Send rounds until the timed calls add up to ``seconds``; check every
    op of the measured pass, and probe the host after each."""
    spans = [] if trace else None
    measured = Caller(spans)
    shadow = Caller()  # the untraced repeat of a traced run
    ops, latencies, failures = [], [], []
    r = 0
    while measured.elapsed + shadow.elapsed < seconds:
        if time.perf_counter() - wall_start > WALL_LIMIT_S:
            break
        batch = workload.round(state, seed, r)
        if trace and r % 2:
            for op in batch:
                op.run(shadow)
        for op in batch:
            measured.op_id = len(ops)
            ops.append(op.record())
            before = measured.elapsed
            try:
                out = op.run(measured)
            except Exception as exc:  # a failed op is counted, not fatal
                failures.append(f"op {len(ops) - 1} ({op.kind}, n={op.size}) "
                                f"raised {exc!r}")
                continue
            latencies.append(measured.elapsed - before)
            probe.run("ops", REFERENCE_SHARE * latencies[-1])
            try:
                problems = op.check(out)
            except Exception as exc:
                problems = [f"check raised {exc!r}"]
            if problems:
                failures.append(f"op {len(ops) - 1} ({op.kind}, n={op.size}): "
                                + "; ".join(problems[:3]))
        if trace and not r % 2:
            for op in batch:
                op.run(shadow)
        r += 1
    return {"ops": ops, "latencies": latencies, "failures": failures,
            "spans": spans, "traced_s": measured.elapsed,
            "untraced_s": shadow.elapsed, "rounds": r}


def percentile(xs, q: float) -> float:
    """Linear-interpolated percentile of a non-empty sample."""
    s = sorted(xs)
    pos = (len(s) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def end_to_end(run, setup_s: float, slowdown: float = 1.0,
               setup_slowdown: float = 1.0) -> dict:
    """The end-to-end metrics, with op times divided by ``slowdown`` and
    set-up time by ``setup_slowdown``."""
    lat = run["latencies"]
    return {
        "ops_per_s": len(lat) / sum(lat) * slowdown,
        "op_ms_p50": 1e3 * percentile(lat, 50) / slowdown,
        "op_ms_p90": 1e3 * percentile(lat, 90) / slowdown,
        "setup_s": setup_s / setup_slowdown,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(run, slowdown: float) -> dict:
    """Self time and call counts per entry point and layer, from the spans,
    with times per call divided by ``slowdown``.

    Spans come from the benchmark's own calls, which never nest, so a
    span's self time is its duration.
    """
    total = defaultdict(float)
    count = defaultdict(int)
    for name, size, start, end, _ in run["spans"]:
        for key in (name, (name, size)):
            total[key] += end - start
            count[key] += 1
    busy = run["traced_s"]
    ops = run["ops"]
    m = {}

    def ms(key, per=None):
        calls = count[key] if per is None else per
        return 1e3 * total[key] / calls / slowdown if calls else 0.0

    for name, sizes in SIZED_CALLS.items():
        for n in sizes:
            m[f"{name}.n{n}.ms_per_call"] = ms((name, n))
    for name in UNSIZED_CALLS:
        m[f"{name}.ms_per_call"] = ms(name)
    walks = sum(op.props.get("walks", 0) for op in ops)
    m[f"{WALK_CALL}.ms_per_walk"] = ms(WALK_CALL, walks)
    for name in (*SIZED_CALLS, *UNSIZED_CALLS, WALK_CALL):
        m[f"{name}.time_share"] = total[name] / busy
    efo = [op.props for op in ops if "welfare_multiplier_positive" in op.props]
    for kind in ("welfare", "revenue"):
        hits = sum(p[f"{kind}_multiplier_positive"] for p in efo)
        m[f"envyfree.efo_{kind}.binding_share"] = hits / len(efo) if efo else 0.0
    events = [op.props["events"] for op in ops if "events" in op.props]
    m["clinching.run_clock.events_per_call"] = (
        sum(events) / len(events) if events else 0.0)
    m["clinching.structure_check.flags"] = sum(
        op.props.get("flagged", False) for op in ops)
    for layer in LAYERS:
        names = [k for k in total if isinstance(k, str) and k.startswith(layer + ".")]
        m[f"{layer}.busy_share"] = sum(total[k] for k in names) / busy
        m[f"{layer}.calls"] = sum(count[k] for k in names)
    m["trace.overhead_share"] = (
        run["traced_s"] / run["untraced_s"] - 1.0 if run["untraced_s"] else 0.0)
    return m


def write_spans(run, name: str, seed: int) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{name}-seed{seed}.jsonl"
    with open(path, "w") as f:
        for span_name, size, start, end, op_id in run["spans"]:
            f.write(json.dumps({"name": span_name, "n": size, "start": start,
                                "end": end, "op": op_id}) + "\n")
    return path


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    return args


def main(argv=None) -> int:
    wall_start = time.perf_counter()
    args = parse_args(argv)
    if args.setup_only:
        set_up(args.workload, args.seed)
        return 0
    import_package()  # fail fast, before any probe, when the source is absent
    host = HostProbe()
    probes = []
    for _ in range(SETUP_PROBES):
        probes.append(probe_setup(args.workload, args.seed))
        host.run("setup", SETUP_REFERENCE_S)
    workload, state = set_up(args.workload, args.seed)
    # Import the checks' solver now, then move everything alive to the
    # permanent generation: collections during the run then traverse what
    # the run allocates, not the interpreter's modules.
    import scipy.optimize  # noqa: F401

    gc.collect()
    gc.freeze()
    run = measure(workload, state, args.seed, args.seconds, bool(args.trace),
                  wall_start, host)
    slowdown = host.slowdown("ops")
    setup_slowdown = host.slowdown("setup")
    attempted = len(run["ops"])
    failed = len(run["failures"])
    for line in run["failures"][:20]:
        print(f"check failed: {line}", file=sys.stderr)
    setup_s = statistics.median(probes)
    if args.trace:
        values = per_layer(run, slowdown)
        units = per_layer_units()
        spans_path = write_spans(run, args.workload, args.seed)
    else:
        values = end_to_end(run, setup_s, slowdown, setup_slowdown)
        units = END_TO_END_UNITS
        spans_path = None
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": environment(args.seed),
        "loop": "closed, one client",
        "rounds": run["rounds"],
        "ops_sampled": len(run["latencies"]),
        "timed_s": run["traced_s"] + run["untraced_s"],
        "failed_share": failed / max(1, attempted),
        "setup_probes_s": probes,
        "host": {"reference_ms": REFERENCE_MS,
                 "fastest_ms": 1e3 * min(map(min, host.times.values())),
                 "slowdown": slowdown, "setup_slowdown": setup_slowdown,
                 "probes": {k: len(v) for k, v in host.times.items()},
                 "unscaled": end_to_end(run, setup_s)},
        "spans": str(spans_path.relative_to(ROOT)) if spans_path else None,
    }
    report.update(workload.summarize(state, run["ops"]))
    print(json.dumps(report))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
