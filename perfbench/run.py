"""The sharelin benchmark: one workload, one seed, one result line.

Run from the repository root::

    python3 perfbench/run.py --workload prune-wide --seed 1 --seconds 25 --trace 0

Set-up time (``setup_s``) is the median wall time of fresh interpreters that
import ``sharelin.cli``. The workload then runs in a child process
(``perfbench/worker.py``) under an address-space limit. With ``--trace 0``
the last line of stdout carries the end-to-end metrics; with ``--trace 1``
it carries the per-layer metrics of a traced run. The exit code is 0 only
when every operation succeeded and passed its output check.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("prune-wide", "closure-dense", "oracle-small")
SETUP_RUNS = 11
SETUP_CPU_S = 20
# the child's address-space limit: far above a healthy run (about 0.2 GiB at
# 20 variables), far below what a closure blow-up would take from the machine
ADDRESS_SPACE_BYTES = 2 << 30
# every run must end within this many seconds, set-up included
DEADLINE_S = 170


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC, ROOT])
    # one BLAS thread keeps numpy's address space small and the load at one core
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    return env


def _limit_cpu() -> None:
    resource.setrlimit(resource.RLIMIT_CPU, (SETUP_CPU_S, SETUP_CPU_S))


def measure_setup(env: dict) -> list[float]:
    """Wall seconds for a fresh interpreter to import ``sharelin.cli``; one
    unmeasured run first so compiled bytecode exists, as it does for users.

    The wait blocks rather than polls: ``wait(timeout=...)`` sleeps in
    steps of up to 50 ms, which would quantise the measurement. A CPU-time
    limit on the child bounds the wait instead."""
    times = []
    for i in range(SETUP_RUNS + 1):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", "import sharelin.cli"],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            preexec_fn=_limit_cpu,
        )
        code = proc.wait()
        elapsed = time.perf_counter() - start
        if code != 0:
            raise RuntimeError(f"importing sharelin.cli exited with code {code}")
        if i:
            times.append(elapsed)
    return times


def _limit_address_space() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_BYTES, ADDRESS_SPACE_BYTES))


def run_worker(args, env: dict, timeout: float) -> dict:
    cmd = [
        sys.executable, "-m", "perfbench.worker",
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    with subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, preexec_fn=_limit_address_space, text=True
    ) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description="sharelin benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "sharelin", "cli.py")):
        print(f"error: no sharelin sources under {SRC}", file=sys.stderr)
        return 2
    env = _child_env()
    try:
        setup = measure_setup(env) if args.trace == 0 else []
        result = run_worker(args, env, DEADLINE_S - (time.perf_counter() - started))
    except (subprocess.TimeoutExpired, RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    metrics = dict(result.pop("metrics"))
    if args.trace == 0:
        metrics["setup_s"] = (statistics.median(setup), "s")
        result["setup_samples_s"] = setup
    else:
        for claim, held in result["predictions"]:
            print(f"# prediction {'holds' if held else 'MISMATCH'}: {claim}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    if "samples" in result:
        print(f"# latency samples {result['samples']}, tail percentile {result['tail_percentile']:.4g}")
    print(
        f"# attempted {result['attempted']} failed {result['failed']} "
        f"fail_frac {result['fail_frac']:.6g}"
    )
    for key, reason in result["failures"].items():
        print(f"# failure {key}: {reason}")
    print("# details " + json.dumps(result))
    correct = result["failed"] == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
