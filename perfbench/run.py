"""Seeded end-to-end benchmark of the ordua pipeline.

Usage, from the root of a source checkout (the package is imported from
``src/``, nothing needs installing):

    python3 perfbench/run.py --workload lattice-ladder --seed 1 --seconds 20 --trace 0

Workloads: lattice-ladder, spectrum-sweep, enumerate-verify, cli-mix (see
workloads.py for what each runs and why). Every run is single-process and
closed-loop: one item, or one CLI subprocess, at a time.

A run first sets up several times (a fresh ``import ordua`` plus building the
seeded inputs) and reports the median as ``setup_s``. It then repeats the
workload's fixed batch of items until ``--seconds`` are used up, always
finishing the batch in progress, and checks every output against the
benchmark's own references. An item's latency is the median over the passes;
``item_ms_p50`` and ``item_ms_tail`` are percentiles over the batch's items, so
their sample count is the batch size whatever the speed.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates untraced
and traced passes and prints per-layer self time, calls and work counters per
pass of the batch, plus the tracing overhead; the spans themselves are written
to ``.perfbench/spans-<workload>-<seed>.jsonl``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is 0 when every check
passed, 1 when one failed and 2 when the run could not start.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from types import SimpleNamespace

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")

SETUP_REPS = 5
CHILD_REPS = 5


def fresh_import() -> SimpleNamespace:
    """Import ordua from the checkout's src/, discarding any earlier import."""
    for name in [m for m in sys.modules if m == "ordua" or m.startswith("ordua.")]:
        del sys.modules[name]
    pkg = importlib.import_module("ordua")
    if not os.path.abspath(pkg.__file__).startswith(os.path.join(SRC, "ordua") + os.sep):
        raise ImportError(f"ordua imported from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"ordua.{m}")
                              for m in tracing.LAYER_MODULES})


def pin(cpus: list[int], turn: int) -> None:
    """Pin this process (and the children it starts) to the turn-th CPU in
    rotation. On a shared host one CPU can be slowed by a neighbour for many
    seconds while another is not, and a busy process stays on its CPU;
    rotating the passes lets an item's fastest pass find the unhindered one."""
    os.sched_setaffinity(0, {cpus[turn % len(cpus)]})


def set_up(workload: str, seed: int, tiny: bool, workdir: str):
    """Median set-up time over SETUP_REPS fresh imports and input builds."""
    times = []
    cpus = sorted(os.sched_getaffinity(0))
    try:
        for rep in range(SETUP_REPS):
            pin(cpus, rep)
            gc.collect()
            t0 = time.perf_counter()
            ctx = workloads.Context(fresh_import(), seed, tiny, workdir, SRC)
            items = workloads.WORKLOADS[workload](ctx)
            times.append(time.perf_counter() - t0)
    finally:
        os.sched_setaffinity(0, cpus)
    return ctx, items, statistics.median(times)


def run_pass(items, latencies, outcomes, tracer=None) -> float:
    """Run the batch once; return its wall time. Outcomes are counted per
    distinct value, so memory does not grow with the number of passes."""
    t_pass = time.perf_counter()
    for k, item in enumerate(items):
        if tracer is not None:
            tracer.item = item.name
        t0 = time.perf_counter()
        try:
            summary = item.run()
        except Exception:  # an unexpected raise is a failed item, not a crash
            summary = _Raised(traceback.format_exc())
        latencies[k].append(time.perf_counter() - t0)
        outcomes[k][summary] += 1
    return time.perf_counter() - t_pass


class _Raised:
    def __init__(self, text: str):
        self.text = text


def count_failures(items, outcomes) -> tuple[int, int]:
    """(attempted, failed) over every recorded outcome of every item."""
    attempted = failed = 0
    for item, counts in zip(items, outcomes):
        for got, times in counts.items():
            attempted += times
            if isinstance(got, _Raised) or not item.check(got):
                failed += times
                detail = got.text if isinstance(got, _Raised) else repr(got)[:300]
                print(f"check failed ({times}x): {item.name}: {detail}", file=sys.stderr)
    return attempted, failed


def tail_rank(n: int) -> int:
    """Index, in ascending order, of the highest percentile that leaves at
    least ten items beyond it (the maximum when there are ten or fewer)."""
    return n - 11 if n > 10 else n - 1


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def import_ms() -> float:
    """Time to import ordua.cli, measured inside a fresh child."""
    code = ("import time; t = time.perf_counter(); import ordua.cli; "
            "print((time.perf_counter() - t) * 1000.0)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": SRC}, timeout=60, check=True)
    return float(proc.stdout)


def interpreter_ms() -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], timeout=60, check=True)
    return (time.perf_counter() - t0) * 1000.0


def keep_going(elapsed: float, pass_times: list[float], seconds: float) -> bool:
    """Start another pass only if it should end within half a pass of the deadline."""
    return elapsed + 0.5 * statistics.mean(pass_times) < seconds


def measure(items, seconds: float) -> dict:
    latencies = [[] for _ in items]
    outcomes = [Counter() for _ in items]
    pass_times = []
    cpus = sorted(os.sched_getaffinity(0))
    gc.collect()
    try:
        while not pass_times or keep_going(sum(pass_times), pass_times, seconds):
            pin(cpus, len(pass_times))
            pass_times.append(run_pass(items, latencies, outcomes))
    finally:
        os.sched_setaffinity(0, cpus)
    attempted, failed = count_failures(items, outcomes)
    # the work is deterministic, so an item's fastest pass is the most
    # repeatable estimate of its cost: slower passes differ only by
    # interference from the rest of the host
    per_item = sorted(min(v) * 1000.0 for v in latencies)
    rank = tail_rank(len(per_item))
    return {
        "attempted": attempted, "failed": failed, "passes": len(pass_times),
        "elapsed": sum(pass_times), "items": len(items),
        "items_per_s": 1000.0 * len(per_item) / sum(per_item),
        "item_ms_p50": statistics.median(per_item),
        "item_ms_tail": per_item[rank],
        "tail_pct": 100.0 * (rank + 1) / len(per_item),
    }


def measure_traced(ctx, items, seconds: float, spans_path: str) -> dict:
    latencies = [[] for _ in items]
    outcomes = [Counter() for _ in items]
    tracer = tracing.Tracer()
    plain, traced, layers, all_spans = [], [], [], []
    cpus = sorted(os.sched_getaffinity(0))
    gc.collect()
    try:
        while not traced or keep_going(sum(plain) + sum(traced),
                                       [p + t for p, t in zip(plain, traced)], seconds):
            pin(cpus, len(traced))  # a plain and a traced pass share a CPU
            plain.append(run_pass(items, latencies, outcomes))
            ctx.child_trace = True
            ctx.child_spans.clear()
            tracer.install()
            try:
                traced.append(run_pass(items, latencies, outcomes, tracer))
            finally:
                tracer.uninstall()
                ctx.child_trace = False
            spans, counts = tracer.take()
            stages = tracing.rollup(spans)
            all_spans += [[len(traced), *span] for span in spans]
            for name, child in ctx.child_spans:  # cli-mix: spans recorded in the children
                for stage, v in tracing.rollup(child["spans"]).items():
                    entry = stages.setdefault(stage, {"self_s": 0.0, "calls": 0})
                    entry["self_s"] += v["self_s"]
                    entry["calls"] += v["calls"]
                for counter, v in child["counts"].items():
                    counts[counter] = counts.get(counter, 0) + v
                all_spans += [[len(traced), *span[:4], name] for span in child["spans"]]
            layers.append((stages, counts))
    finally:
        os.sched_setaffinity(0, cpus)
    attempted, failed = count_failures(items, outcomes)
    with open(spans_path, "w", encoding="utf-8") as fh:
        for span in all_spans:  # [traced pass, stage, start, end, parent, item]
            fh.write(json.dumps(span) + "\n")
    per_stage = {}
    for stage in tracing.STAGES:
        per_stage[f"{stage}.self_s"] = statistics.median(
            s.get(stage, {}).get("self_s", 0.0) for s, _ in layers)
        per_stage[f"{stage}.calls"] = statistics.median(
            s.get(stage, {}).get("calls", 0) for s, _ in layers)
    for name in tracing.counter_names():
        per_stage[name] = statistics.median(c.get(name, 0) for _, c in layers)
    per_stage["cli.interp_ms"] = statistics.median(interpreter_ms() for _ in range(CHILD_REPS))
    per_stage["cli.import_ms"] = statistics.median(import_ms() for _ in range(CHILD_REPS))
    per_stage["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    return {"attempted": attempted, "failed": failed, "layers": per_stage,
            "passes": (len(plain), len(traced)), "items": len(items)}


def layer_units(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def dominance_report(workload: str, layers: dict, items: int) -> list[str]:
    """Rank stages by self time and test the expected leaders of the workload."""
    selfs = {k[:-len(".self_s")]: v for k, v in layers.items() if k.endswith(".self_s")}
    ranked = sorted(selfs.items(), key=lambda kv: -kv[1])
    lines = ["stage self time per pass (s):"]
    lines += [f"  {stage:22s} {value:10.4f}" for stage, value in ranked if value > 0]
    if workload == "cli-mix":
        start = layers["cli.interp_ms"] + layers["cli.import_ms"]
        work = 1000.0 * sum(selfs.values()) / items
        verdict = "confirmed" if start > work else "contradicted"
        lines.append(f"prediction: interpreter start + import ({start:.1f} ms) exceeds the "
                     f"traced layer work per command ({work:.1f} ms): {verdict}")
        return lines
    group = workloads.PREDICTED_LEADERS[workload]
    inside = sum(selfs.get(s, 0.0) for s in group)
    outside = max((v for s, v in selfs.items() if s not in group), default=0.0)
    verdict = "confirmed" if inside > outside else "contradicted"
    lines.append(f"prediction: {' + '.join(group)} ({inside:.4f} s) exceeds every other "
                 f"stage (max {outside:.4f} s): {verdict}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes: a handful of small items per workload")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "ordua")):
        print(f"perfbench: no ordua sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        try:
            ctx, items, setup_s = set_up(args.workload, args.seed, args.tiny, workdir)
        except ImportError as e:
            print(f"perfbench: cannot import ordua: {e}", file=sys.stderr)
            return 2
        if args.trace:
            spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.jsonl")
            res = measure_traced(ctx, items, args.seconds, spans_path)
            metrics = {name: {"value": value, "unit": layer_units(name)}
                       for name, value in res["layers"].items()}
            lines = [f"workload {args.workload} seed {args.seed} traced: "
                     f"{res['passes'][0]} plain + {res['passes'][1]} traced passes of "
                     f"{res['items']} items; spans in {spans_path}"]
            lines += dominance_report(args.workload, res["layers"], res["items"])
            lines += [f"{name:32s} {m['value']:.6g} {m['unit']}"
                      for name, m in metrics.items()]
        else:
            res = measure(items, args.seconds)
            metrics = {
                "setup_s": {"value": setup_s, "unit": "s"},
                "items_per_s": {"value": res["items_per_s"], "unit": "1/s"},
                "item_ms_p50": {"value": res["item_ms_p50"], "unit": "ms"},
                "item_ms_tail": {"value": res["item_ms_tail"], "unit": "ms"},
                "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
            }
            fail_ratio = res["failed"] / res["attempted"]
            lines = [
                f"workload {args.workload} seed {args.seed}: {res['passes']} passes of "
                f"{res['items']} items in {res['elapsed']:.2f} s",
                f"setup_s       {setup_s:.6f} s  (median of {SETUP_REPS} set-ups)",
                f"items_per_s   {res['items_per_s']:.6f} 1/s",
                f"item_ms_p50   {res['item_ms_p50']:.6f} ms  "
                f"(median over {res['items']} items, each the median of its passes)",
                f"item_ms_tail  {res['item_ms_tail']:.6f} ms  "
                f"(p{res['tail_pct']:.1f} of {res['items']} items)",
                f"fail_ratio    {fail_ratio:.6g} 1  ({res['failed']} of {res['attempted']})",
                f"peak_rss_mb   {metrics['peak_rss_mb']['value']:.3f} MB",
            ]
        for line in lines:
            print(line)
        print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                          "failed": res["failed"], "metrics": metrics}))
        return 0 if res["failed"] == 0 else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
