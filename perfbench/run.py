"""Run one workload of the ccwidth benchmark and print its metrics.

    python3 perfbench/run.py --workload experiment --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from that
checkout's ``src/`` and from nowhere else.  Each invocation is one fresh
process running one workload as a closed loop (the next op starts when
the previous one returns).

With ``--trace 0`` the run prints the end-to-end metrics: set-up time
(median of several fresh imports plus input set-ups), ops per second,
median and tail op time, and peak RSS.  These times are in reference
seconds: each is the process CPU time of the interval, scaled by how
fast a fixed pure-Python calibration loop, run right before and right
after it, went at that moment (see ``reference_time``).  Every op is
checked outside the timed region; failed ops are counted.  With
``--trace 1`` the run alternates traced blocks of ops (spans around each
call into a layer, on fresh inputs) with untraced replays of the same
block, and prints per-layer metrics in wall time, the tracing overhead
and the share of op time the spans cover.  The last line of output is
one JSON object.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter, process_time

from tracing import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Layers as <module>.<function>, in the order the metrics are printed.
LAYERS = [
    "solvers.ccw_exact",
    "generators.random_clique_sum_instance",
    "solvers.bandwidth_exact",
    "graph.clique_number",
    "graph.star_number",
    "composition.compose_covers",
    "composition.edge_span_claim_check",
    "composition.verify_certificate",
    "graph.parse_edge_list",
    "layout.parse_cover",
    "composition.format_certificate",
    "composition.parse_certificate",
]
COUNTS = ["composition.compose_covers.cliques", "experiment.ccw_filled_rows"]
# A traced block ends once its traced ops took this long; the untraced
# replay follows at once, so both halves see the same machine speed.
BLOCK_S = 0.25
# Ops per block of the untraced run (see measure and throughput).
BLOCK_OPS = 32
MAX_REPORTED = 5
# What one calibrate() call takes at reference speed.  The value is about
# its median on the 2-vCPU Xeon VM the benchmark was tuned on, so that
# reference milliseconds read close to CPU milliseconds there.
CALIBRATION_REF_S = 250e-6
# End-to-end times are CPU time of this (single-threaded) process, which
# leaves out the moments another process or virtual machine held the CPU:
# those made single ops up to twice as slow, and over twelve passes on
# the same `certify` inputs p99 moved by 0.31 (max minus min over median)
# when scaled from wall time, by 0.06 when scaled from CPU time.
clock = process_time


def _mix(x: int, y: int) -> int:
    return (x ^ y) & 0xFF


def calibrate() -> float:
    """CPU seconds a fixed piece of pure-Python work takes right now.

    The work (small sets, tuples, dicts, lists, calls and integer
    operations) resembles the library's and never touches it, so a change
    of the library cannot change it.
    """
    t0 = clock()
    table: dict[int, tuple] = {}
    acc = 0
    for i in range(150):
        items = {i, i + 1, i * 3 % 17}
        table[i % 31] = tuple(items)
        acc += _mix(i, len(items)) + len(table) + sum([j * j for j in range(8)])
    return clock() - t0


def reference_time(cpu_s: float, before_s: float, after_s: float) -> float:
    """``cpu_s`` scaled to reference speed.

    ``before_s`` and ``after_s`` are calibration times taken right before
    and right after the timed interval.  The benchmark shares its machine
    with others, whose load changes how fast this process runs: in twelve
    passes over the same 3000 `certify` inputs, the mean op CPU time
    spread (quartile distance over median) by 0.087 and the scaled time
    by 0.019.
    """
    return cpu_s * CALIBRATION_REF_S * 2 / (before_s + after_s)


def import_library():
    """Import ccwidth afresh from this checkout's src/."""
    for name in [m for m in sys.modules if m == "ccwidth" or m.startswith("ccwidth.")]:
        del sys.modules[name]
    lib = importlib.import_module("ccwidth")
    if Path(lib.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"ccwidth was imported from {lib.__file__}, not from {SRC}")
    return lib


def set_up(wl, seed: int) -> list[float]:
    """Set the workload up ``wl.setup_repeats`` times; reference seconds of each."""
    times = []
    for _ in range(wl.setup_repeats):
        before = statistics.median(calibrate() for _ in range(5))
        t0 = clock()
        wl.setup(import_library(), seed)
        cpu = clock() - t0
        after = statistics.median(calibrate() for _ in range(5))
        times.append(reference_time(cpu, before, after))
    return times


class Failures:
    def __init__(self):
        self.count = 0

    def add(self, problems: list[str]) -> None:
        if problems:
            self.count += 1
            if self.count <= MAX_REPORTED:
                print(f"failed op: {problems[0]}", file=sys.stderr)


def attempt(fn, *args):
    """``(fn(*args), None)``, or ``(None, [traceback])`` if it raised."""
    try:
        return fn(*args), None
    except Exception:
        return None, [traceback.format_exc()]


def measure(wl, seconds: float):
    """Untraced closed loop until the ops' own CPU time reaches ``seconds``.

    Ops run in blocks: a block's inputs are made first, then its ops run
    back to back with one calibration between each two, then its answers
    are checked.  Returns the reference time of each op and the failures.
    """
    times: list[float] = []
    failures = Failures()
    busy = 0.0
    while busy < seconds:
        inputs = [wl.make_input(len(times) + k) for k in range(BLOCK_OPS)]
        answers = []
        before = calibrate()
        for inp in inputs:
            t0 = clock()
            out, error = attempt(wl.op, inp)
            dt = clock() - t0
            after = calibrate()
            times.append(reference_time(dt, before, after))
            before = after
            busy += dt
            answers.append((inp, out, error))
            if busy >= seconds:
                break
        for inp, out, error in answers:
            problems, check_error = (None, None) if error else attempt(wl.check, inp, out)
            failures.add(error or check_error or problems)
    return times, failures


def measure_traced(wl, seconds: float):
    """Traced blocks over fresh inputs, each followed by an untraced replay.

    Stops once the traced ops took ``seconds / 2``.  Returns the tracer,
    the traced and untraced totals over the same ops, the op count and
    the failures (wrong answers, or traced and untraced answers that
    differ).
    """
    tracer = Tracer()
    failures = Failures()
    traced_s = plain_s = 0.0
    i = 0
    while traced_s < seconds / 2:
        block = []
        block_end = traced_s + BLOCK_S
        while traced_s < min(block_end, seconds / 2):
            inp = wl.make_input(i)
            i += 1
            t0 = perf_counter()
            res, error = attempt(tracer.call, "op", wl.traced_op, tracer, inp)
            traced_s += perf_counter() - t0
            block.append((inp, res, error))
        for inp, res, error in block:
            t0 = perf_counter()
            out, plain_error = attempt(wl.op, inp)
            plain_s += perf_counter() - t0
            if error or plain_error:
                failures.add(error or plain_error)
            else:
                problems, check_error = attempt(wl.check_traced, inp, res, out)
                failures.add(check_error or problems)
    return tracer, traced_s, plain_s, i, failures


def tail(times: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile of ``times`` and the samples beyond it."""
    ordered = sorted(times)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1], len(ordered) - int(rank)


def throughput(times: list[float]) -> tuple[float, int]:
    """Median over blocks of ``BLOCK_OPS`` consecutive ops of their ops per second.

    Returns it with the number of blocks.  The plain ratio over a whole
    run rests on its few dozen slowest ops: on `bandwidth` it differed by
    0.09 between seeds 1 and 2, the block median by 0.055.
    """
    full = range(0, len(times) - BLOCK_OPS + 1, BLOCK_OPS)
    blocks = [times[j : j + BLOCK_OPS] for j in full] or [times]
    return statistics.median(len(b) / sum(b) for b in blocks), len(blocks)


def commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return "unknown (not a git checkout)"


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(wl, seed, seconds):
    # Set-ups before and after the measurement, so that setup_s does not
    # rest on the machine's speed in one short moment.
    setup_times = set_up(wl, seed)
    times, failures = measure(wl, seconds)
    setup_times += set_up(wl, seed)
    value, beyond = tail(times, wl.tail_pct)
    ops_per_s, blocks = throughput(times)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    notes = {
        "setup_s": f"median of {len(setup_times)} set-ups, each a fresh import "
        "plus the workload's own set-up, in reference seconds",
        "ops_per_s": f"median over {blocks} blocks of {BLOCK_OPS} ops of their "
        "ops per reference second",
        "op_tail_ms": f"p{wl.tail_pct:g} of {len(times)} ops, {beyond} beyond it",
    }
    metrics = {
        "setup_s": metric(statistics.median(setup_times), "s"),
        "ops_per_s": metric(ops_per_s, "1/s"),
        "op_p50_ms": metric(statistics.median(times) * 1000, "ms"),
        "op_tail_ms": metric(value * 1000, "ms"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }
    return metrics, notes, len(times), failures.count


def per_layer(wl, seed, seconds):
    wl.setup(import_library(), seed)
    tracer, traced_s, plain_s, ops, failures = measure_traced(wl, seconds)
    root_s, covered_s, calls, self_s = tracer.summary("op")
    unknown = set(calls) - set(LAYERS)
    if unknown:
        raise SystemExit(f"spans without a layer metric: {sorted(unknown)}")
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = metric(calls.get(layer, 0), "count")
        metrics[f"{layer}.busy_s"] = metric(self_s.get(layer, 0.0), "s")
        metrics[f"{layer}.share"] = metric(self_s.get(layer, 0.0) / root_s, "share")
    for name in COUNTS:
        metrics[name] = metric(tracer.counts.get(name, 0), "count")
    metrics["trace.overhead_share"] = metric((traced_s - plain_s) / plain_s, "share")
    metrics["trace.covered_share"] = metric(covered_s / root_s, "share")
    notes = {
        "trace.overhead_share": f"{ops} ops traced, then replayed untraced, "
        f"in blocks of {BLOCK_S} s",
        "generators.random_clique_sum_instance.busy_s": "includes its own side "
        "ccw_exact calls",
    }
    return metrics, notes, ops, failures.count


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ccwidth" / "__init__.py").is_file():
        print(f"error: no ccwidth sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    wl = WORKLOADS[args.workload]()
    print(
        f"# workload={wl.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
        f"commit={commit()} python={platform.python_version()} nproc={os.cpu_count()}"
    )
    print("# timings come from one unpinned process on a shared machine")
    run = per_layer if args.trace else end_to_end
    metrics, notes, attempted, failed = run(wl, args.seed, args.seconds)
    print(f"failed_share {failed / attempted} share ({failed} of {attempted} ops)")
    for name, m in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} {m['value']} {m['unit']}{note}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed}
    print(json.dumps({**result, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
