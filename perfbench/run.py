"""polycontact benchmark: one seeded, closed-loop workload per run.

    python3 perfbench/run.py --workload prove --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  A single client sends its next query when the previous one
returns, in this process.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics: set-up time (median of
several set-ups, the others in fresh processes), latency p50/p90,
throughput and peak RSS, from a closed loop of ``--seconds`` seconds.
``--trace 1`` runs a fixed, seeded list of queries three times: untraced,
then twice with spans on the public entry points (``layers.TARGETS``); it
reports per-layer self times and exact counts from the first traced pass,
and exits non-zero if any count differs between the two traced passes.

In both modes, outputs are checked outside the timed region (``check_s``),
repeated inputs must give identical outputs, and the first queries are
replayed through ``cli.run`` whose stdout must equal the library path's.

Every time is CPU time of the measuring thread (``time.thread_time``),
divided by the slowdown of the machine at the time.  The queries are
single-threaded and do no I/O, so CPU time is the wall time they would take
on an idle core; on a shared virtual machine, wall time also counts the
intervals the hypervisor gives the core to someone else.  CPU time itself
swung by up to a factor of two from minute to minute there, so a fixed
standard-library computation (``reference_work``) runs after every query,
and, in the timed loop, every 50 ms of CPU time inside the queries; its CPU
time over 1 ms is the slowdown.  The record line keeps the slowdown and the
raw CPU and wall time of the timed loop.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import importlib
import io
import itertools
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import types
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MODULES = ("numeric", "intervals", "plane", "cuts", "cylinder", "adjacency",
           "algebra", "logic", "pipeline", "cli")
# set-ups per run, this process's plus fresh ones: at least 3, and up to 9
# while they take less than 2 s in all
SETUP_SAMPLES_MIN, SETUP_SAMPLES_MAX, SETUP_BUDGET_S = 3, 9, 2.0
PROBE_TIMEOUT_S = 60
# CPU seconds of one reference_work() at the usual speed of the machine the
# benchmark was tuned on; it only sets the unit of every reported time
REFERENCE_S = 0.001
SETUP_REFERENCE_SAMPLES = 20   # before and after each set-up
# in the timed loop, a reference sample also runs every SAMPLE_INTERVAL_S of
# CPU time, inside the queries; a query is scaled by the samples inside it
# and the NEAREST_SAMPLES others closest to it in time
SAMPLE_INTERVAL_S, NEAREST_SAMPLES = 0.05, 11
END_TO_END_UNITS = {"setup_s": "s", "latency_p50_ms": "ms", "latency_p90_ms": "ms",
                    "throughput_qps": "1/s", "peak_rss_mb": "MB"}
# the process's CPU clock reads in whole scheduler ticks while a CPU-time
# timer (the Sampler's) is armed; the thread's stays exact, and the
# benchmark runs in one thread
clock = time.thread_time


def load_polycontact() -> types.SimpleNamespace:
    sys.path.insert(0, str(SRC))
    pc = types.SimpleNamespace(
        **{m: importlib.import_module(f"polycontact.{m}") for m in MODULES})
    origin = Path(pc.logic.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"polycontact imported from {origin}, not from {SRC}")
    return pc


def set_up(workload) -> tuple[types.SimpleNamespace, float, float, float]:
    """Import plus the warm-up whose results persist across queries;
    returns (modules, set-up seconds, enumeration seconds, slowdown), the
    slowdown measured right before and after."""
    before = [reference_s() for _ in range(SETUP_REFERENCE_SAMPLES)]
    t0 = clock()
    pc = load_polycontact()
    t1 = clock()
    if workload.warm_bound is not None:
        list(pc.logic.enumerate_connected_spaces(workload.warm_bound))
    t2 = clock()
    after = [reference_s() for _ in range(SETUP_REFERENCE_SAMPLES)]
    return pc, t2 - t0, t2 - t1, slowdown(before + after)


def probe(kind: str, workload: str, seed: int) -> dict:
    """Run a set-up or input-generation step in a fresh process."""
    cmd = [sys.executable, str(HERE / "run.py"), "--probe", kind,
           "--workload", workload, "--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{kind} probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_probe(kind: str, workload, seed: int) -> None:
    if kind == "setup":
        _, setup_s, enumerate_s, slow = set_up(workload)
        print(json.dumps({"setup_s": setup_s / slow, "enumerate_s": enumerate_s / slow}))
    else:
        pc = load_polycontact()
        print(json.dumps(workload.make_inputs(pc, seed)))


def reference_work() -> None:
    """A fixed computation of the kind the library does, on the standard
    library only: Fraction arithmetic and dict updates keyed by tuples."""
    acc = Fraction(0)
    table: dict[tuple[int, int], int] = {}
    for i in range(1, 200):
        acc += Fraction(i % 7 + 1, i % 5 + 1)
        key = (i % 13, i % 11)
        table[key] = table.get(key, 0) + 1


def reference_s() -> float:
    t0 = clock()
    reference_work()
    return clock() - t0


def slowdown(samples: list[float]) -> float:
    """How many times slower than nominal the machine ran while the samples
    were taken."""
    return statistics.median(samples) / REFERENCE_S


class Sampler:
    """The reference samples of the timed loop, on one timeline: one after
    every query, and one every SAMPLE_INTERVAL_S of the process's CPU time
    from a SIGPROF handler, which Python calls between bytecodes of
    whatever query is running.  The time of the samples inside a query is
    taken out of the query's time (``inside``)."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.seconds: list[float] = []

    def sample(self) -> float:
        t0 = clock()
        reference_work()
        self.starts.append(t0)
        self.seconds.append(clock() - t0)
        return self.seconds[-1]

    def _tick(self, signum, frame) -> None:
        self.sample()

    def __enter__(self) -> "Sampler":
        self.previous = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self.previous)

    def inside(self, t0: float, t1: float) -> list[float]:
        """The samples that started between t0 and t1."""
        lo, hi = bisect.bisect_left(self.starts, t0), bisect.bisect_left(self.starts, t1)
        return self.seconds[lo:hi]

    def slowdown(self, t0: float, t1: float) -> float:
        """Slowdown of the machine while a query ran from t0 to t1: the
        harmonic mean of the samples inside it and of the NEAREST_SAMPLES
        closest to it in time.  The machine's speed changes within a run,
        within a second at times, so only samples close in time are used;
        and each sample inside a long query stands for an equal slice of its
        CPU time, which the harmonic mean weighs alike."""
        starts = self.starts
        lo, hi = bisect.bisect_left(starts, t0), bisect.bisect_left(starts, t1)
        picked = self.seconds[lo:hi]
        left, right = lo - 1, hi
        for _ in range(NEAREST_SAMPLES):
            take_left = left >= 0 and (right >= len(starts)
                                       or t0 - starts[left] <= starts[right] - t1)
            if take_left:
                picked.append(self.seconds[left])
                left -= 1
            elif right < len(starts):
                picked.append(self.seconds[right])
                right += 1
        return statistics.harmonic_mean(picked) / REFERENCE_S


# ---------------------------------------------------------------------------
# running queries
# ---------------------------------------------------------------------------

def closed_loop(workload, pc, cycles, seconds: float):
    """Whole schedule cycles until the queries have used at least
    ``seconds`` of CPU time, scaled by the slowdown like every reported
    time, so that the number of cycles does not change with the speed of
    the machine; whole cycles give every run the same input mix.
    Returns (records, the slowdown of each query, the samples taken after
    the queries, the number taken inside them, wall seconds)."""
    records, references, spans = [], [], []
    wall = time.perf_counter()
    spent = 0.0
    with Sampler() as sampler:
        for cycle in cycles:
            recs, refs, sp = fixed_pass(workload, pc, cycle, sampler=sampler)
            records += recs
            references += refs
            spans += sp
            spent += sum(lat for _, _, lat, _ in recs) / slowdown(refs)
            if spent >= seconds:
                break
    wall = time.perf_counter() - wall
    local = [sampler.slowdown(t0, t1) for t0, t1 in spans]
    return records, local, references, len(sampler.starts) - len(references), wall


def fixed_pass(workload, pc, queries, tracer=None, sampler=None) -> tuple[list, list, list]:
    """Run the queries in order; a record is (qid, query, CPU seconds,
    output or None).  A reference sample follows every query, so that the
    slowdown is measured over the same stretch of time as the queries.
    Also returns each query's (start, end) on the CPU clock.  With a
    sampler, the time of its samples inside a query is not counted in the
    query's."""
    records, references, spans = [], [], []
    for qid, q in queries:
        t0 = clock()
        try:
            if tracer is None:
                out = workload.run(pc, q)
            else:
                out = tracer.run(qid, "query", workload.run, pc, q)
        except Exception as exc:  # a failed query is counted, not fatal
            out = None
            print(f"query {qid} raised {exc!r}", file=sys.stderr)
        t1 = clock()
        inside = sampler.inside(t0, t1) if sampler else []
        records.append((qid, q, t1 - t0 - sum(inside), out))
        spans.append((t0, t1))
        references.append(sampler.sample() if sampler else reference_s())
    return records, references, spans


# ---------------------------------------------------------------------------
# checks (outside every timed region)
# ---------------------------------------------------------------------------

def check_outputs(workload, pc, records) -> tuple[set, dict]:
    """Returns (ids of failed inputs, first output per input).  An input
    fails when its query raised, its output check fails, or a repeat gave
    a different output."""
    first: dict[str, str] = {}
    queries: dict[str, dict] = {}
    bad: set[str] = set()
    for qid, q, _, out in records:
        queries.setdefault(qid, q)
        if out is None:
            bad.add(qid)
        elif qid not in first:
            first[qid] = out
        elif out != first[qid]:
            bad.add(qid)
            print(f"query {qid}: repeated input gave a different output", file=sys.stderr)
    for qid, out in first.items():
        try:
            problem = workload.check(pc, queries[qid], out)
        except Exception as exc:
            problem = f"check raised {exc!r}"
        if problem:
            bad.add(qid)
            print(f"query {qid}: {problem}", file=sys.stderr)
    return bad, first


def cli_mirror(workload, pc, records, outputs: dict) -> bool:
    """Replay the first query of every input class through ``cli.run``; its
    stdout must equal the library path's output."""
    first_of_class: dict[str, tuple[str, dict]] = {}
    for qid, q, _, _ in records:
        first_of_class.setdefault(qid.split("#")[0], (qid, q))
    ok = True
    done = 0
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        names = itertools.count()

        def write(text: str) -> str:
            path = os.path.join(tmp, f"in{next(names)}.txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            return path

        for qid, q in first_of_class.values():
            argv = workload.cli_argv(q, write)
            if argv is None or qid not in outputs:
                continue
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                pc.cli.run(argv)
            done += 1
            if buf.getvalue() != outputs[qid]:
                ok = False
                print(f"query {qid}: cli.run output differs from the library path",
                      file=sys.stderr)
    return ok and done > 0


def report(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> None:
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))


# ---------------------------------------------------------------------------
# the two modes
# ---------------------------------------------------------------------------

def end_to_end(workload, seed: int, seconds: float) -> int:
    setups: list[float] = []
    while len(setups) < SETUP_SAMPLES_MIN - 1 or (
            len(setups) < SETUP_SAMPLES_MAX - 1 and sum(setups) < SETUP_BUDGET_S):
        setups.append(probe("setup", workload.name, seed)["setup_s"])
    pools = probe("inputs", workload.name, seed)
    pc, setup_s, _, slow = set_up(workload)
    setups.append(setup_s / slow)

    records, local, references, in_query, wall_s = closed_loop(
        workload, pc, workload.cycles(pools), seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    slow = slowdown(references)

    t0 = clock()
    bad, outputs = check_outputs(workload, pc, records)
    mirrored = cli_mirror(workload, pc, records, outputs)
    check_s = clock() - t0
    queries = {qid: q for qid, q, _, _ in records if qid in outputs}

    latencies = [lat / s for (_, _, lat, _), s in zip(records, local)]
    failed = sum(qid in bad for qid, _, _, _ in records)
    p90 = statistics.quantiles(latencies, n=10)[8] if len(latencies) > 1 else latencies[0]
    print(json.dumps({
        "workload": workload.name, "seed": seed, "queries": len(records),
        "beyond_p90": sum(lat > p90 for lat in latencies),
        "slowdown": slow, "in_query_samples": in_query,
        "loop_cpu_s": sum(lat for _, _, lat, _ in records),
        "loop_wall_s": wall_s, "setup_samples_s": setups, "check_s": check_s / slow,
        "cli_mirror": mirrored, "inputs": workload.properties(pc, queries, outputs)}))
    metrics = {
        "setup_s": statistics.median(setups),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_p90_ms": p90 * 1e3,
        "throughput_qps": len(latencies) / sum(latencies),
        "peak_rss_mb": rss_mb,
    }
    report(not bad and mirrored, len(records), failed, metrics, END_TO_END_UNITS)
    return 0


def traced(workload, seed: int) -> int:
    setup = probe("setup", workload.name, seed)
    pools = probe("inputs", workload.name, seed)
    pc = load_polycontact()
    tracer = tracing.Tracer()
    tracer.install(layers.TARGETS)
    kept_ratio = 0.0
    if workload.warm_bound is not None:
        spaces = tracer.run("setup", "setup.enumerate", lambda: list(
            pc.logic.enumerate_connected_spaces(workload.warm_bound)))
        scanned = tracing.totals(tracer.edges).get("adjacency.mk_space", [0])[0]
        kept_ratio = len(spaces) / scanned if scanned else 0.0
    tracer.take()
    tracer.uninstall()

    cycles = workload.cycles(pools)
    queries = [item for _ in range(workload.trace_cycles) for item in next(cycles)]
    # each query runs untraced and then traced, back to back, so that both
    # see the same speed of the machine and their ratio needs no scaling
    plain, traced_a, traced_refs = [], [], []
    for item in queries:
        plain += fixed_pass(workload, pc, [item])[0]
        tracer.install(layers.TARGETS)
        recs, refs, _ = fixed_pass(workload, pc, [item], tracer)
        tracer.uninstall()
        traced_a += recs
        traced_refs += refs
    edges_a, kept_a = tracer.take()
    tracer.install(layers.TARGETS)
    traced_b, _, _ = fixed_pass(workload, pc, queries, tracer)
    edges_b, kept_b = tracer.take()
    tracer.uninstall()
    slow = slowdown(traced_refs)
    overhead = (sum(lat for _, _, lat, _ in traced_a)
                / sum(lat for _, _, lat, _ in plain) - 1)

    t0 = clock()
    records = plain + traced_a + traced_b
    bad, outputs = check_outputs(workload, pc, records)
    mirrored = cli_mirror(workload, pc, records, outputs)
    check_s = clock() - t0

    extra = {
        "logic.enumerate_connected_spaces.s": setup["enumerate_s"],
        "logic.enumeration_kept_ratio": kept_ratio,
        "trace.overhead_ratio": overhead,
        "trace.remainder_s": sum(v[2] for (_, parent, _), v in edges_a.items()
                                 if parent == tracing.ROOT) / slow,
        "check_s": check_s / slow,
    }
    metrics_a = layers.per_layer(pc, tracing.totals(edges_a), kept_a, slow, extra)
    metrics_b = layers.per_layer(pc, tracing.totals(edges_b), kept_b, slow, extra)
    exact_a = {k: metrics_a[k] for k in layers.EXACT}
    exact_b = {k: metrics_b[k] for k in layers.EXACT}
    if exact_a != exact_b or tracing.counts(edges_a) != tracing.counts(edges_b):
        diff = {k: (exact_a[k], exact_b[k]) for k in exact_a if exact_a[k] != exact_b[k]}
        print(f"FATAL: exact counts differ between two traced passes: {diff}",
              file=sys.stderr)
        return 1
    balance = tracing.query_balance(edges_a)
    if balance > 1e-6:
        print(f"FATAL: self times do not sum to query time (off by {balance} s)",
              file=sys.stderr)
        return 1

    failed = sum(qid in bad for qid, _, _, _ in records)
    print(json.dumps({
        "workload": workload.name, "seed": seed, "queries_per_pass": len(queries),
        "slowdown": slow, "absent": tracer.absent, "cli_mirror": mirrored,
        "spans": len(edges_a)}))
    report(not bad and mirrored, len(records), failed, metrics_a, layers.PER_LAYER)
    return 0


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", choices=("setup", "inputs"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (SRC / "polycontact" / "__init__.py").is_file():
        print(f"error: no polycontact sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if args.probe:
        run_probe(args.probe, workload, args.seed)
        return 0
    if args.trace:
        return traced(workload, args.seed)
    return end_to_end(workload, args.seed, args.seconds)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
