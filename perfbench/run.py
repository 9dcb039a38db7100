"""Run one genaft benchmark workload and print its metrics.

    python3 perfbench/run.py --workload corpus_sweep --seed 1 --seconds 30 --trace 0

Load is one closed loop: one instance at a time, in a fixed order, in
rounds over the workload's generated inputs.  A run keeps starting
rounds while the next one is predicted to end within `--seconds` of
timed work, so every round is complete and every run measures the same
mix of instances.  Answers are checked after the clock stops.  Times
are scaled to reference speed, which takes out the drift of a shared
host's speed (calibrate.py).

`--trace 0` prints the end-to-end metrics.  `--trace 1` runs one
warm-up round, then pairs of rounds, one untraced and one with the layer
wrappers installed, for about a quarter of the time; it prints the
per-layer metrics and writes the spans under perfbench/out/.  `--workload all`
runs every workload, each in a fresh process.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the line before it holds the run's
metadata (interpreter, nproc, commit, library size, input digest).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from array import array
from dataclasses import dataclass, field
from time import perf_counter

STARTED = perf_counter()

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKLOADS = ("corpus_sweep", "large_solve", "axiom_check")

# Set-up is repeated in every run, importing genaft afresh each time, at
# least SETUP_REPEATS times and until SETUP_BUDGET_S seconds are spent;
# setup_s is the median.
SETUP_REPEATS = 5
SETUP_BUDGET_S = 3.0
SETUP_MAX_REPEATS = 25

# An untraced run has at least this many rounds, so that every instance's
# median time discards a sample the machine disturbed.
MIN_ROUNDS = 3

# Percentiles in tenths.  A workload's tail is the highest of them with at
# least ten samples beyond it; it depends on the workload alone, so every
# run, and every commit, reports the same percentile of the same mix.
TAIL_LADDER = (999, 995, 990, 980, 950, 900, 800, 750, 500)

# The tail is taken over instance latencies when a round has at least ten
# instances beyond the 90th percentile.
TAIL_BY_INSTANCE_FROM = 900


@dataclass
class Pass:
    # Wall seconds of the instances, round after round; an array, so that
    # the process's peak RSS barely depends on the number of rounds.
    latencies: array = field(default_factory=lambda: array("d"))
    failures: list[str] = field(default_factory=list)
    round_walls: list[float] = field(default_factory=list)
    # (position, seconds): a timing of the reference taken before
    # latencies[position]; see calibrate.py.
    refs: list[tuple[int, float]] = field(default_factory=list)
    # ru_maxrss when the pass ended, before the metrics are computed.
    peak_rss_mb: float = 0.0

    @property
    def rounds(self) -> int:
        return len(self.round_walls)

    @property
    def wall(self) -> float:
        return sum(self.latencies)


def _purge_genaft() -> None:
    for name in [n for n in sys.modules if n == "genaft" or n.startswith("genaft.")]:
        del sys.modules[name]


def set_up(workload: str, seed: int, workdir: pathlib.Path):
    """Generate the inputs and build the instances, repeatedly; the
    set-up times, scaled to reference speed, and the raw ones."""
    from calibrate import reference_time, scale
    from inputs import GENERATORS
    from workloads import SETUPS

    times, instances = [], None
    refs = [(0, reference_time())]
    while len(times) < SETUP_MAX_REPEATS and (len(times) < SETUP_REPEATS or sum(times) < SETUP_BUDGET_S):
        instances = None
        _purge_genaft()
        gc.collect()
        start = perf_counter()
        inputs = GENERATORS[workload](seed)
        instances = SETUPS[workload](inputs, workdir)
        times.append(perf_counter() - start)
        refs.append((len(times), reference_time()))
    return inputs, instances, scale(times, refs, window=1), times


def run_pass(instances, budget_s: float, min_rounds: int = 1, rounds: int | None = None, tracer=None) -> Pass:
    """Whole rounds, at least `min_rounds`, until the next is predicted to
    overrun `budget_s`; or exactly `rounds` of them."""
    from calibrate import CALIBRATE_EVERY_S, reference_time

    done = Pass()
    since_ref = CALIBRATE_EVERY_S
    while True:
        round_start = len(done.latencies)
        for inst in instances:
            if since_ref >= CALIBRATE_EVERY_S:
                done.refs.append((len(done.latencies), reference_time()))
                since_ref = 0.0
            if tracer is not None:
                tracer.begin(inst.kind)
            start = perf_counter()
            try:
                out, error = inst.run(), None
            except Exception as exc:  # a raising instance is a failed one
                out, error = None, exc
            done.latencies.append(perf_counter() - start)
            since_ref += done.latencies[-1]
            if tracer is not None:
                tracer.finish()
            try:
                if error is not None:
                    raise error
                inst.check(out)
            except Exception as exc:  # a wrong answer is a failed instance too
                if not done.failures:
                    traceback.print_exception(exc, file=sys.stderr)
                done.failures.append(f"{inst.kind}: {type(exc).__name__}: {exc}")
        done.round_walls.append(sum(done.latencies[round_start:]))
        if rounds is not None:
            finished = done.rounds >= rounds
        else:
            finished = done.rounds >= min_rounds and done.wall * (done.rounds + 1) / done.rounds > budget_s
        if finished:
            done.refs.append((len(done.latencies), reference_time()))
            done.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            return done


def instance_latencies(latencies: list[float], per_round: int) -> list[float]:
    """Each instance's median time over the run's rounds: robust to the
    runs that the machine slowed."""
    return [statistics.median(latencies[i::per_round]) for i in range(per_round)]


def _rank(tenths: int, n: int) -> int:
    """Nearest rank, 1-based, of a percentile given in tenths."""
    return -(-tenths * n // 1000)


def _highest(n: int) -> int:
    """The highest percentile of TAIL_LADDER with ten of n samples beyond it."""
    return next((t for t in TAIL_LADDER if n - _rank(t, n) >= 10), TAIL_LADDER[-1])


def tail_plan(per_round: int) -> tuple[bool, int]:
    """(by_instance, tenths) of the workload's tail.  With enough instances
    in a round, the samples are the instance latencies, which keeps the
    host's jitter out of the tail of sub-millisecond instances.  A shorter
    round (large_solve's 16 CLI calls) takes every run of every instance
    as a sample, in a run of MIN_ROUNDS rounds."""
    if _highest(per_round) >= TAIL_BY_INSTANCE_FROM:
        return True, _highest(per_round)
    return False, _highest(per_round * MIN_ROUNDS)


def tail(samples: list[float], tenths: int) -> tuple[float, int]:
    """(value, samples beyond it) of the percentile."""
    ordered = sorted(samples)
    rank = _rank(tenths, len(ordered))
    return ordered[rank - 1], len(ordered) - rank


def _git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
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
    return "unknown"


def _metadata(args, inputs, instances, setup_times: list[float], setup_wall: list[float]) -> dict:
    from inputs import digest

    lines = sum(len(p.read_text().splitlines()) for p in (SRC / "genaft").rglob("*.py"))
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "src_genaft_lines": lines,
        "inputs_digest": digest(inputs),
        "instances_per_round": len(instances),
        "setup_s_samples": setup_times,
        "setup_s_wall_samples": setup_wall,
        "process_to_first_instance_s": perf_counter() - STARTED,
    }


def _timings(latencies: list[float], per_round: int) -> tuple[float, float, float, int]:
    """(throughput, p50, tail, samples beyond the tail) of a run's latencies."""
    per_instance = instance_latencies(latencies, per_round)
    by_instance, tenths = tail_plan(per_round)
    value, beyond = tail(per_instance if by_instance else latencies, tenths)
    return per_round / sum(per_instance), statistics.median(per_instance), value, beyond


def end_to_end(done: Pass, per_round: int, setup_times: list[float], meta: dict) -> dict:
    from calibrate import scale, speed

    throughput, p50, tail_s, beyond = _timings(scale(done.latencies, done.refs), per_round)
    by_instance, tenths = tail_plan(per_round)
    wall_throughput, wall_p50, wall_tail, _ = _timings(done.latencies, per_round)
    attempted = len(done.latencies)
    meta.update(
        host_speed_quartiles=speed(done.refs),
        wall_clock={
            "setup_s": statistics.median(meta["setup_s_wall_samples"]),
            "throughput_ips": wall_throughput,
            "latency_p50_ms": wall_p50 * 1000,
            "latency_tail_ms": wall_tail * 1000,
        },
        rounds=done.rounds,
        timed_wall_s=done.wall,
        round_walls_s=done.round_walls,
        tail_percentile=tenths / 10,
        tail_samples="instance latencies" if by_instance else "runs",
        tail_samples_beyond=beyond,
        failed_frac=len(done.failures) / attempted,
    )
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "throughput_ips": (throughput, "instances/s"),
        "latency_p50_ms": (p50 * 1000, "ms"),
        "latency_tail_ms": (tail_s * 1000, "ms"),
        "peak_rss_mb": (done.peak_rss_mb, "MB"),
        "ok_frac": (1 - len(done.failures) / attempted, "ratio"),
    }


def _append(into: Pass, done: Pass) -> None:
    into.refs += [(len(into.latencies) + position, s) for position, s in done.refs]
    into.latencies += done.latencies
    into.failures += done.failures
    into.round_walls += done.round_walls


def per_layer(instances, args, meta: dict) -> tuple[dict, Pass]:
    from tracing import Tracer

    # One untimed round first fills the shared spaces' lazy caches.  Then
    # untraced and traced rounds alternate, so that a drift in the
    # machine's speed falls on both alike.
    warm_up = run_pass(instances, 0, rounds=1)
    pairs = max(1, int(args.seconds / 4 / warm_up.wall))
    tracer = Tracer()
    untraced, traced = Pass(), Pass()
    for _ in range(pairs):
        _append(untraced, run_pass(instances, 0, rounds=1))
        meta["entry_points_missing"] = tracer.install()
        try:
            _append(traced, run_pass(instances, 0, rounds=1, tracer=tracer))
        finally:
            tracer.remove()
    metrics = tracer.metrics(traced.rounds, traced.wall, untraced.wall)
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl.gz"
    tracer.write(spans, {"workload": args.workload, "seed": args.seed})
    meta.update(rounds=traced.rounds, untraced_wall_s=untraced.wall, traced_wall_s=traced.wall,
                spans=len(tracer.start), spans_file=str(spans.relative_to(ROOT)))
    _append(warm_up, untraced)
    _append(warm_up, traced)
    meta["failed_frac"] = len(warm_up.failures) / len(warm_up.latencies)
    return metrics, warm_up


def run_one(args) -> int:
    if not (SRC / "genaft" / "__init__.py").is_file():
        print(f"genaft sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = OUT / f"inputs-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        inputs, instances, setup_times, setup_wall = set_up(args.workload, args.seed, workdir)
        meta = _metadata(args, inputs, instances, setup_times, setup_wall)
        if args.trace:
            metrics, done = per_layer(instances, args, meta)
        else:
            done = run_pass(instances, args.seconds, min_rounds=MIN_ROUNDS)
            metrics = end_to_end(done, len(instances), setup_times, meta)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    meta["failures"] = done.failures[:5]
    by_kind: dict[str, list[float]] = {}
    for k, latency in enumerate(done.latencies):
        by_kind.setdefault(instances[k % len(instances)].kind, []).append(latency)
    meta["median_ms_by_kind"] = {k: statistics.median(v) * 1000 for k, v in by_kind.items()}

    print(f"{args.workload} seed {args.seed}: {len(done.latencies)} instances, "
          f"{meta['rounds']} rounds, {len(done.failures)} failed")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:14.6g} {unit}")
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": not done.failures,
        "attempted": len(done.latencies),
        "failed": len(done.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; metric names get the workload
    as prefix."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
