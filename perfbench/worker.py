"""One workload in one process: generate the inputs, time the operations,
check every output, and print one JSON line with the measurements.

``run.py`` starts this module in a child process with an address-space
limit, so a closure blow-up ends as a counted failure rather than as memory
pressure on the machine. Run it directly only for debugging::

    PYTHONPATH=src:. python3 -m perfbench.worker --workload oracle-small --seed 1 --seconds 2
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

import numpy

import sharelin.cli as cli
from sharelin import _kernels

from .trace import Tracer
from .workloads import WORKLOADS, Workload, check_output

# tail percentile of the latency report, lowered when fewer than
# TAIL_SAMPLES samples lie beyond it
TAIL_PERCENTILE = 90
TAIL_SAMPLES = 10
# layer self-time shares (%) that decide the recorded predictions
DOMINANT_SHARE = 50.0
MATERIAL_SHARE = 5.0
# layers are the program's modules; '_kernels' has no public entry and is
# timed inside 'sharing'
LAYERS = ("cli", "problem_io", "groundness", "amgu", "sharing", "concrete", "fuzz")
FUZZ_STATS = ("decomposed-checked", "independence-checked", "analysis-satisfiable")
WORK_COUNTS = (
    "amgu.early_prune.groups_dropped",
    "sharing.union_closure.groups_in",
    "sharing.union_closure.groups_out",
    "sharing.pairwise_union.groups_in",
    "sharing.pairwise_union.groups_out",
    "sharing.freeness_decomposition.blocks",
)


class Ledger:
    """Per-operation outcomes: attempts, failures and the first stdout seen,
    which every later call of the same operation must repeat byte for byte."""

    def __init__(self):
        self.first_out: dict[str, str] = {}
        self.attempts: dict[str, int] = {}
        self.failures: dict[str, list[str]] = {}

    def record(self, key: str, code, out: str, error: str | None) -> None:
        self.attempts[key] = self.attempts.get(key, 0) + 1
        reason = error
        if reason is None and code != 0:
            reason = f"exit code {code}"
        if reason is None:
            first = self.first_out.setdefault(key, out)
            if first != out:
                reason = "stdout differs from the first call"
        if reason is not None:
            self.failures.setdefault(key, []).append(reason)

    def fail_all(self, key: str, reason: str) -> None:
        """An output check failed: every call of this operation printed it."""
        self.failures[key] = [reason] * self.attempts[key]


def call(argv) -> tuple[object, str, str | None, float]:
    """One in-process CLI call with stdout captured; returns the exit code,
    stdout, a failure reason when it raised, and wall seconds."""
    out = io.StringIO()
    error = None
    code = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a traceback is a counted failure, not a crash
            error = traceback.format_exc(limit=3).strip().splitlines()[-1]
        elapsed = time.perf_counter() - start
    return code, out.getvalue(), error, elapsed


def run_passes(workload: Workload, seconds: float, min_passes: int, ledger: Ledger, tracer=None):
    """Closed loop, one caller: whole passes over the operation list, at
    least ``min_passes``, and more while the next pass, as long as the mean
    pass so far, ends within ``seconds``. Returns every call's latency and
    each pass's wall seconds."""
    latencies: list[float] = []
    pass_seconds: list[float] = []
    start = time.perf_counter()
    while len(pass_seconds) < min_passes or (
        time.perf_counter() - start + statistics.mean(pass_seconds) <= seconds
    ):
        pass_start = time.perf_counter()
        for i, op in enumerate(workload.ops):
            if tracer is not None:
                tracer.op = len(pass_seconds) * len(workload.ops) + i
            code, out, error, elapsed = call(op.argv)
            latencies.append(elapsed)
            ledger.record(op.key, code, out, error)
        pass_seconds.append(time.perf_counter() - pass_start)
    return latencies, pass_seconds


def ops_per_s(workload: Workload, pass_seconds: list[float]) -> float:
    """Operations per second over the fixed operation list: the median of
    the per-pass rates, so one disturbed pass does not move it."""
    return len(workload.ops) / statistics.median(pass_seconds)


def percentile(sorted_values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (inclusive method)."""
    pos = q / 100 * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail_percentile(samples: int) -> float:
    """The highest percentile up to 90 with at least ten samples beyond it."""
    return max(0.0, min(TAIL_PERCENTILE, 100 * (1 - TAIL_SAMPLES / samples)))


def check_all(workload: Workload, ledger: Ledger) -> int:
    """Check each distinct operation's output once; returns the summed
    precision count (``result_groups``)."""
    groups = 0
    for op in workload.ops:
        out = ledger.first_out.get(op.key)
        if out is None:
            continue  # every call failed; already counted
        reason, count = check_output(op, out)
        if reason is not None:
            ledger.fail_all(op.key, reason)
        groups += count
    return groups


def machine() -> dict:
    try:
        import numba  # noqa: F401

        has_numba = True
    except ImportError:
        has_numba = False
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": has_numba,
        "kernel_backend": _kernels.BACKEND,
    }


def layer_metrics(tracer: Tracer, ops: int) -> dict:
    """Per-operation calls, self time and work counts of each traced
    function, fuzz property ratios, and each layer's share of self time.
    Every span lies under a ``cli.main`` span, so the self times add up to
    the traced operations' wall time."""
    metrics = {}
    for name in tracer.names:
        metrics[f"{name}.calls"] = (tracer.call_count(name) / ops, "1/op")
        metrics[f"{name}.self_ms"] = (tracer.self_ms(name) / ops, "ms/op")
    for key in WORK_COUNTS:
        metrics[key] = (tracer.counts[key] / ops, "1/op")
    trials = tracer.counts["fuzz.trials"]
    for stat in FUZZ_STATS:
        ratio = tracer.counts[f"fuzz.{stat}"] / trials if trials else 0.0
        metrics[f"fuzz.{stat.replace('-', '_')}_per_trial"] = (ratio, "1/trial")
    for layer in LAYERS:
        metrics[f"layer.{layer}.self_share"] = (tracer.share(layer + "."), "%")
    return metrics


def predictions(workload: str, tracer: Tracer) -> list[tuple[str, bool]]:
    """The written layer-to-metric predictions, checked against the trace."""
    analyze_calls = tracer.call_count("amgu.analyze")
    prune_calls = tracer.call_count("amgu.early_prune")
    concrete = tracer.share("concrete.")
    if workload == "prune-wide":
        pruning = tracer.share("amgu.early_prune", "groundness.")
        return [
            ("amgu.early_prune with groundness dominates", pruning >= DOMINANT_SHARE),
            ("early_prune runs twice per analyze", prune_calls == 2 * analyze_calls),
            ("concrete is not material", concrete < MATERIAL_SHARE),
        ]
    if workload == "closure-dense":
        kernels = tracer.share("sharing.union_closure", "sharing.pairwise_union")
        return [
            ("the kernel calls dominate", kernels >= DOMINANT_SHARE),
            ("early pruning is skipped", prune_calls == 0),
            ("concrete is not material", concrete < MATERIAL_SHARE),
        ]
    return [("concrete is material", concrete >= MATERIAL_SHARE)]


def measure(workload: Workload, seconds: float, trace: int, spans_path: str) -> dict:
    """Time the workload, then check every output. Untraced, the metrics are
    the end-to-end ones (less ``setup_s``, which ``run.py`` measures); traced,
    half the time runs untraced for the overhead figure and half traced for
    the per-layer metrics."""
    ledger = Ledger()
    call(workload.ops[0].argv)  # warm-up, not counted
    result = {"workload": workload.name, "ops_per_pass": len(workload.ops)}
    if trace == 0:
        latencies, pass_seconds = run_passes(workload, seconds, workload.min_passes, ledger)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        ordered = sorted(latencies)
        tail = tail_percentile(len(ordered))
        result.update(samples=len(ordered), passes=len(pass_seconds), tail_percentile=tail)
        metrics = {
            "ops_per_s": (ops_per_s(workload, pass_seconds), "1/s"),
            "call_ms_p50": (1000 * statistics.median(ordered), "ms"),
            "call_ms_p90": (1000 * percentile(ordered, tail), "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        _, plain_passes = run_passes(workload, seconds / 2, 1, ledger)
        with Tracer() as tracer:
            traced, traced_passes = run_passes(workload, seconds / 2, 1, ledger, tracer)
        tracer.dump(spans_path)
        metrics = layer_metrics(tracer, len(traced))
        untraced_rate = ops_per_s(workload, plain_passes)
        traced_rate = ops_per_s(workload, traced_passes)
        metrics["trace.ops_per_s_untraced"] = (untraced_rate, "1/s")
        metrics["trace.ops_per_s_traced"] = (traced_rate, "1/s")
        metrics["trace.ops_per_s_ratio"] = (traced_rate / untraced_rate, "ratio")
        result.update(
            passes=len(traced_passes),
            spans=spans_path,
            predictions=predictions(workload.name, tracer),
        )

    groups = check_all(workload, ledger)
    if trace == 0:
        metrics["result_groups"] = (groups, "count")
    attempted = sum(ledger.attempts.values())
    failed = sum(len(v) for v in ledger.failures.values())
    result.update(
        metrics=metrics,
        attempted=attempted,
        failed=failed,
        fail_frac=failed / attempted,
        failures={k: v[0] for k, v in list(ledger.failures.items())[:10]},
    )
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", default=os.path.join("perfbench", "_work"))
    parser.add_argument("--outdir", default=os.path.join("perfbench", "_out"))
    args = parser.parse_args(argv)

    workdir = os.path.join(args.workdir, f"{args.workload}-s{args.seed}")
    os.makedirs(workdir, exist_ok=True)
    os.makedirs(args.outdir, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, workdir)
    spans_path = os.path.join(args.outdir, f"spans-{workload.name}-s{args.seed}.jsonl.gz")
    result = measure(workload, args.seconds, args.trace, spans_path)
    result.update(seed=args.seed, machine=machine())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
