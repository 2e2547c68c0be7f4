#!/usr/bin/env python3
"""Benchmark for graphassoc: four seeded workloads, timed end to end and per layer.

One workload, in one process, from the root of a checkout:

    python3 perfbench/run.py --workload oracle-sweep --seed 1 --seconds 20 --trace 0

It imports graphassoc from ``src/`` of the same checkout, makes the
workload's inputs from the seed and runs passes over them, item by item,
until the next item would end after ``--seconds``.  A pass takes a few
seconds, so every item is timed several times; it counts with its median
time in refs, seconds over the time of a fixed reference task run around
and during it (see ``ReferenceClock``).  Every item's output goes through the workload's
correctness gate.  Metric lines go to standard output, and
the last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json with
``--trace 0``, its per-layer metrics with ``--trace 1``.  A traced run
alternates untraced and traced passes and writes its spans and a per-layer
summary under ``perfbench/out/``.

All workloads, timed and traced, with an environment fingerprint, written
to ``perfbench/out/BENCH_seed<seed>.json``:

    python3 perfbench/run.py --all --seed 1
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict
from fractions import Fraction
from importlib import metadata
from pathlib import Path

from tracing import NullTracer, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# Set-ups timed per untimed run: this process plus fresh child processes,
# since only a fresh interpreter pays for the package import again.
SETUP_SAMPLES = 5

# setup_s is set-up time in refs, given in seconds of a nominal host on
# which one ref takes this long (it took 1.0-2.3 ms on the 2-core VM the
# benchmark was built on, depending on the moment).
NOMINAL_REF_S = 0.001

# Times of the reference task taken on each side of an item.  The host's
# speed changes little within a few milliseconds, so their median is the
# speed the item ran at, freed of a single disturbed sample.
REFERENCE_SAMPLES = 3
# An item that runs longer also times the reference task once every this
# many seconds while it runs: over a second the host's speed can change by
# a third.
REFERENCE_TICK_S = 0.1

# Per-layer time metric -> the spans whose durations it sums.
LAYER_TIMES = {
    "graphs.classify_s": ("graphs.classify_iterated_cone",),
    "obstructions.system_s": ("obstructions.w1w2_system",),
    "obstructions.feasible_s": ("obstructions.feasible",),
    "obstructions.search_s": ("obstructions.obstruction_a", "obstructions.obstruction_b"),
    "weights.check_s": ("weights.is_valid", "weights.check_w1_w2"),
    "fans.build_s": ("fans.build_graph_fan",),
    "fans.smooth_s": ("fans.is_smooth",),
    "fans.complete_s": ("fans.is_complete",),
    "fans.f_vector_s": ("fans.f_vector",),
    "tubings.bijection_s": ("tubings.verify_fan_tubing_bijection",),
    "moduli.trees_s": ("moduli.enumerate_stable_trees",),
    "moduli.divisors_s": ("moduli.nodal_divisors",),
    "moduli.correspondence_s": ("moduli.divisor_tube_correspondence",),
    "epsrational.threshold_s": ("epsrational.preservation_threshold",),
}
# Per-layer call-count metric -> the spans it counts.
LAYER_CALLS = {
    "graphs.classify_calls": ("graphs.classify_iterated_cone",),
    "obstructions.feasible_calls": ("obstructions.feasible",),
    "weights.checks": ("weights.is_valid", "weights.check_w1_w2"),
}

# The share each workload's traced pass is predicted to show (see README.md).
PREDICTIONS = {
    "oracle-sweep": (
        "obstructions.feasible_s is at least 90% of the pass",
        lambda m, busy, wall: m["obstructions.feasible_s"] >= 0.9 * wall,
    ),
    "verify-sweep": (
        "tubings is the busiest layer",
        lambda m, busy, wall: max(busy, key=busy.get) == "tubings",
    ),
    "fan-build": (
        "the fans layer takes most of the pass",
        lambda m, busy, wall: busy["fans"] > 0.5 * wall,
    ),
    "moduli-trees": (
        "moduli.trees_s takes most of the pass",
        lambda m, busy, wall: m["moduli.trees_s"] > 0.5 * wall,
    ),
}


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def setup(name: str, seed: int, tracer):
    """Import graphassoc from this checkout and make the workload's seeded
    inputs.  Returns (seconds taken, the reference task's seconds around
    them, workload)."""
    ref_before = time_reference()
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    try:
        import workloads  # imports graphassoc
    except ImportError as exc:
        raise SystemExit(f"error: cannot import graphassoc from {SRC}: {exc}")
    import graphassoc

    if Path(graphassoc.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"error: graphassoc imported from {graphassoc.__file__}, not from {SRC}")
    workload = workloads.WORKLOADS[name](seed, tracer)
    seconds = time.perf_counter() - start
    return seconds, statistics.median(ref_before + time_reference()), workload


def setup_in_child(name: str, seed: int) -> tuple[float, float]:
    proc = subprocess.run(
        [sys.executable, __file__, "--setup-only", "--workload", name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise SystemExit(f"error: set-up in a child process failed:\n{proc.stderr}")
    seconds, ref = proc.stdout.split()[-2:]
    return float(seconds), float(ref)


def reference_task():
    """Fixed pure-Python work in the program's own idiom (small dicts and
    Fraction arithmetic), independent of graphassoc: about 1 ms."""
    counts, total = {}, Fraction(0)
    for i in range(1, 400):
        k = i * 7919 % 101
        counts[k] = counts.get(k, 0) + i
        total += Fraction(k, i)
    return total, sorted(counts.items())


def time_reference(times: int = REFERENCE_SAMPLES) -> list[float]:
    """Seconds the reference task takes now, ``times`` times over.  The
    collector is held off so that the program's heap, which a collection
    would scan, does not count."""
    enabled = gc.isenabled()
    gc.disable()
    samples = []
    try:
        for _ in range(times):
            start = time.perf_counter()
            reference_task()
            samples.append(time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return samples


class ReferenceClock:
    """Times the item run inside it, and the reference task right before
    and right after it and, from a timer signal, once every
    REFERENCE_TICK_S while it runs.  The ticks' time is taken out of the
    item's ``seconds``; ``ref`` is the median reference time."""

    def __enter__(self):
        self.refs = time_reference()
        self.paused = 0.0
        self._handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, REFERENCE_TICK_S, REFERENCE_TICK_S)
        self._start = time.perf_counter()
        return self

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.refs += time_reference(1)
        self.paused += time.perf_counter() - start

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.seconds = time.perf_counter() - self._start - self.paused
        signal.signal(signal.SIGALRM, self._handler)
        self.ref = statistics.median(self.refs + time_reference())
        return False


def run_pass(workload, tracer, deadline=None, expected=None) -> dict:
    """One pass over the items in order.  With a deadline, stop before the
    first item whose ``expected`` latency would end after it; only a complete
    pass gets the whole-pass check.  Latencies cover the program's calls,
    not the gates.  ``refs`` holds the reference time of each item."""
    began = time.perf_counter()
    latencies, refs, done, failed = [], [], [], 0
    for i, (item_id, payload) in enumerate(workload.items):
        if deadline is not None and time.perf_counter() + expected[i] > deadline:
            break
        with ReferenceClock() as clock:
            tracer.begin_item(item_id)
            try:
                out = workload.run(tracer, payload)
            except Exception:
                out, problems = None, ["raised " + traceback.format_exc()]
            tracer.end_item()
        latencies.append(clock.seconds)
        refs.append(clock.ref)
        if out is not None:
            try:
                problems = workload.gate(payload, out)
            except Exception:
                problems = ["gate raised " + traceback.format_exc()]
            done.append((payload, out))
        if problems:
            failed += 1
            print(f"FAILED item {item_id}: {'; '.join(problems)}", file=sys.stderr)
    complete = len(latencies) == len(workload.items)
    if complete:
        problems = workload.pass_gate(done)
        if problems:
            failed += 1
            print(f"FAILED pass check: {'; '.join(problems)}", file=sys.stderr)
    return {
        "wall_ref": sum(lat / ref for lat, ref in zip(latencies, refs)),
        "elapsed": time.perf_counter() - began,
        "latencies": latencies,
        "refs": refs,
        "complete": complete,
        "attempted": len(latencies) + complete,
        "failed": failed,
        "tracer": tracer,
        "traced": isinstance(tracer, Tracer),
    }


def measure(workload, seconds: float, trace: bool) -> list[dict]:
    """A timed run makes one whole pass, then goes on item by item, pass
    after pass, while the next item is expected to end within `seconds`.
    A traced run alternates whole untraced and traced passes, at least one
    of each, while the next pair is expected to end within `seconds`."""
    deadline = time.perf_counter() + seconds
    passes = [run_pass(workload, NullTracer())]
    if trace:
        passes.append(run_pass(workload, Tracer()))
        while time.perf_counter() + passes[-2]["elapsed"] + passes[-1]["elapsed"] <= deadline:
            passes += [run_pass(workload, NullTracer()), run_pass(workload, Tracer())]
        return passes
    while passes[-1]["complete"] and time.perf_counter() < deadline:
        passes.append(run_pass(workload, NullTracer(), deadline, passes[0]["latencies"]))
    return passes


def end_to_end(passes: list[dict], setup_s: float) -> tuple[dict, dict]:
    """Each item counts with its median, over the passes that ran it, of its
    latency in refs: its seconds over the reference task's seconds around
    and during it.  wall_ref sums them into one pass over every item.  A host that runs
    all code slower for a while moves the seconds but not the refs.  Also
    returns, for reading only, the same pass in seconds and the median ref."""
    untraced = [p for p in passes if not p["traced"]]

    def per_item(value):
        return [
            statistics.median(value(p, i) for p in untraced if i < len(p["latencies"]))
            for i in range(len(untraced[0]["latencies"]))
        ]

    in_refs = per_item(lambda p, i: p["latencies"][i] / p["refs"][i])
    metrics = {
        "setup_s": setup_s,
        "wall_ref": sum(in_refs),
        "item_ref_p50": statistics.median(in_refs),
        "item_ref_p90": _p90(in_refs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    seconds = {
        "wall_s": sum(per_item(lambda p, i: p["latencies"][i])),
        "ref_ms": 1000 * statistics.median(r for p in untraced for r in p["refs"]),
    }
    return metrics, seconds


def _p90(values: list) -> float:
    """90th percentile, interpolated between samples; 0 without samples."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _per_pass(total: int, k: int):
    """A count per traced pass: exact when every pass counted the same."""
    return total // k if total % k == 0 else total / k


def per_layer(passes: list[dict], setup_tracer: Tracer) -> tuple[dict, dict]:
    """Per-layer metrics, each a mean over the traced passes, and a summary
    of every layer's busy seconds, calls and share of the traced pass."""
    traced = [p for p in passes if p["traced"]]
    k = len(traced)
    busy_by_span, calls_by_span, counts = defaultdict(float), Counter(), Counter()
    feasible_ms = []
    for p in traced:
        tracer = p["tracer"]
        counts.update(tracer.counts)
        for name, seconds in tracer.calls():
            busy_by_span[name] += seconds
            calls_by_span[name] += 1
            if name == "obstructions.feasible":
                feasible_ms.append(1000 * seconds)
    metrics = {
        "graphs.catalog_s": sum(
            (s for name, s in setup_tracer.calls() if name == "graphs.connected_graphs_up_to_iso"), 0.0
        ),
    }
    for metric, names in LAYER_TIMES.items():
        metrics[metric] = sum(busy_by_span[n] for n in names) / k
    for metric, names in LAYER_CALLS.items():
        metrics[metric] = _per_pass(sum(calls_by_span[n] for n in names), k)
    for name in (
        "obstructions.system_rows", "obstructions.feasible_yes", "obstructions.witness_a",
        "obstructions.witness_b", "fans.rays", "fans.max_cones", "tubings.tubings",
        "moduli.trees", "moduli.divisors", "epsrational.comparisons",
    ):
        metrics[name] = _per_pass(counts[name], k)
    metrics["obstructions.feasible_ms_p90"] = _p90(feasible_ms)
    # overhead in refs, as the timed runs count; shares against the item
    # spans of the mean traced pass, which like the call spans are in
    # seconds and include the reference samples taken during the items
    metrics["trace.overhead_frac"] = (
        statistics.median(p["wall_ref"] for p in traced)
        / statistics.median(p["wall_ref"] for p in passes if not p["traced"])
        - 1
    )
    traced_wall = statistics.mean(p["tracer"].item_seconds() for p in traced)

    # every layer appears in the summary, also one the workload leaves idle
    busy = dict.fromkeys((metric.split(".")[0] for metric in LAYER_TIMES), 0.0)
    calls = Counter()
    for name, seconds in busy_by_span.items():
        layer = name.split(".")[0]
        busy[layer] += seconds / k
        calls[layer] += calls_by_span[name] / k
    summary = {
        "traced_passes": k,
        "traced_wall_s": traced_wall,
        "layers": {
            layer: {"busy_s": busy[layer], "calls": calls[layer], "share": busy[layer] / traced_wall}
            for layer in sorted(busy, key=busy.get, reverse=True)
        },
        "setup_spans": Counter(name for name, _ in setup_tracer.calls()),
    }
    return metrics, summary


def write_trace(name: str, seed: int, setup_tracer: Tracer, passes: list[dict], summary: dict) -> None:
    OUT.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}"
    tracers = [("setup", setup_tracer)] + [
        (f"pass{i}", p["tracer"]) for i, p in enumerate(passes) if p["traced"]
    ]
    origin = setup_tracer.spans[0][1] if setup_tracer.spans else 0
    with open(OUT / f"spans-{stem}.jsonl", "w") as fh:
        for label, tracer in tracers:
            for i, (span, start, end, parent, item) in enumerate(tracer.spans):
                fh.write(json.dumps({
                    "id": f"{label}/{i}",
                    "name": span,
                    "start_ns": start - origin,
                    "end_ns": end - origin,
                    "parent": None if parent is None else f"{label}/{parent}",
                    "item": item,
                }) + "\n")
    (OUT / f"layers-{stem}.json").write_text(json.dumps(summary, indent=2) + "\n")


def fingerprint(seed: int) -> dict:
    commit = "none"
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30, cwd=ROOT
        )
        commit = proc.stdout.strip() or "none"
    return {
        "python": platform.python_version(),
        "networkx": metadata.version("networkx"),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "commit": commit,
    }


def run_workload(spec: dict, name: str, seed: int, seconds: float, trace: bool) -> dict:
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    setup_tracer = Tracer() if trace else NullTracer()
    setup_seconds, setup_ref, workload = setup(name, seed, setup_tracer)
    passes = measure(workload, seconds, trace)
    if trace:
        metrics, summary = per_layer(passes, setup_tracer)
        statement, check = PREDICTIONS[name]
        busy = {layer: v["busy_s"] for layer, v in summary["layers"].items()}
        summary["prediction"] = {
            "statement": statement,
            "holds": check(metrics, busy, summary["traced_wall_s"]),
        }
        summary["metrics"] = metrics
        write_trace(name, seed, setup_tracer, passes, summary)
        for layer, row in summary["layers"].items():
            print(f"layer {layer:13s} busy {row['busy_s']:.4f} s  calls {row['calls']:g}  "
                  f"share {100 * row['share']:.1f}%")
        print(f"prediction: {statement}: {'holds' if summary['prediction']['holds'] else 'DOES NOT HOLD'}")
    else:
        samples = [(setup_seconds, setup_ref)]
        samples += [setup_in_child(name, seed) for _ in range(SETUP_SAMPLES - 1)]
        setup_s = statistics.median(sec / ref for sec, ref in samples) * NOMINAL_REF_S
        metrics, as_measured = end_to_end(passes, setup_s)
        as_measured["setup_s"] = statistics.median(sec for sec, _ in samples)
        print(f"items {len(workload.items)}, latency samples {sum(len(p['latencies']) for p in passes)}"
              f" over {len(passes)} passes, the last {'whole' if passes[-1]['complete'] else 'partial'}")
        print(f"{name} in seconds as measured (not bounded metrics): setup {as_measured['setup_s']:.6g} s,"
              f" pass {as_measured['wall_s']:.6g} s, 1 ref = {as_measured['ref_ms']:.6g} ms")
    missing = {m["name"] for m in wanted} - metrics.keys()
    if missing:
        raise RuntimeError(f"benchmark does not compute {sorted(missing)}")
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(f"env {json.dumps(fingerprint(seed))}")
    for metric, row in result["metrics"].items():
        print(f"{name} {metric} = {row['value']:.6g} {row['unit']}")
    print(f"{name} failed_frac = {failed / attempted:.6g} ratio ({failed}/{attempted})")
    return result


def run_all(spec: dict, seed: int, seconds: float) -> None:
    """Every workload, untraced and traced, each in a process of its own so
    that peak RSS belongs to one workload."""
    report = {"env": fingerprint(seed), "seconds": seconds, "workloads": {}}
    for w in spec["workloads"]:
        rows = report["workloads"][w["name"]] = {}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", w["name"], "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=900, cwd=ROOT,
            )
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                raise SystemExit(f"error: {w['name']} --trace {trace} exited {proc.returncode}")
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            rows["traced" if trace else "timed"] = json.loads(lines[-1])
    OUT.mkdir(exist_ok=True)
    path = OUT / f"BENCH_seed{seed}.json"
    path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"env {json.dumps(report['env'])}")
    print(f"wrote {path.relative_to(ROOT)}")


def main() -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--all", action="store_true", help="run every workload, timed and traced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.all:
        run_all(spec, args.seed, args.seconds)
        return 0
    if args.workload is None:
        parser.error("give --workload or --all")
    if args.setup_only:
        seconds, ref, _ = setup(args.workload, args.seed, NullTracer())
        print(seconds, ref)
        return 0
    result = run_workload(spec, args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
