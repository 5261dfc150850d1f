"""Tests of the benchmark itself; run from the repository root with

    python3 -m pytest perfbench
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import pytest  # noqa: E402

import sharelin  # noqa: E402
import sharelin.amgu as amgu_mod  # noqa: E402
import sharelin.cli as cli  # noqa: E402
from sharelin.concrete import describes  # noqa: E402
from sharelin.problem_io import parse_problem  # noqa: E402

from perfbench.gen import closure_problem, prune_problem  # noqa: E402
from perfbench.trace import Tracer  # noqa: E402
from perfbench.worker import Ledger, check_all, measure, run_passes, tail_percentile  # noqa: E402
from perfbench.workloads import closure_dense, oracle_small, prune_wide  # noqa: E402


def _problems(seed):
    return [
        prune_problem(seed, 0, 10, False),
        prune_problem(seed, 1, 12, True),
        closure_problem(seed, 0, 24),
    ]


def test_generator_is_deterministic():
    assert [p.text for p in _problems(5)] == [p.text for p in _problems(5)]
    assert [p.text for p in _problems(5)] != [p.text for p in _problems(6)]


@pytest.mark.parametrize("seed", range(4))
def test_base_system_describes_the_initial_state(seed):
    for problem in _problems(seed):
        parsed = parse_problem(problem.text)
        assert describes(parsed.initial, problem.base)
        assert parsed.equations == problem.equations


def test_pos_line_is_compact():
    text = prune_problem(1, 0, 20, True).text
    pos = [line for line in text.splitlines() if line.startswith("pos ")]
    assert len(pos) == 1 and len(pos[0]) < 400


def _bindings():
    return {
        (name, attr): value
        for name, module in sys.modules.items()
        if name == "sharelin" or name.startswith("sharelin.")
        for attr, value in vars(module).items()
        if callable(value)
    }


def test_tracer_restores_every_rebound_name():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with Tracer():
            assert cli.early_prune is not before[("sharelin.cli", "early_prune")]
            assert amgu_mod.union_closure is not before[("sharelin.amgu", "union_closure")]
            assert sharelin.unify.__wrapped__ is before[("sharelin", "unify")]
            raise RuntimeError("leave the block by an exception")
    assert _bindings() == before


def test_tracer_self_time_and_parents(tmp_path):
    workload = prune_wide(3, str(tmp_path), mix=((8, False, 1),), min_passes=1)
    with Tracer() as tracer:
        tracer.op = 0
        assert cli.main(list(workload.ops[0].argv)) == 0
    ids = {span[0] for span in tracer.spans}
    roots = [span for span in tracer.spans if span[4] == -1]
    assert [tracer.names[span[1]] for span in roots] == ["cli.main"]
    assert all(span[4] in ids for span in tracer.spans if span[4] != -1)
    # self times partition the root span's duration
    root = roots[0]
    assert sum(tracer.self_ns) == root[3] - root[2]
    assert tracer.call_count("amgu.early_prune") == 2 * tracer.call_count("amgu.analyze")


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail_percentile(1000) == 90
    assert tail_percentile(50) == pytest.approx(80)


TINY = {
    "prune-wide": lambda seed, d: prune_wide(seed, d, mix=((8, False, 1), (8, True, 1)), min_passes=2),
    "closure-dense": lambda seed, d: closure_dense(seed, d, sizes=(24,), files=1),
    "oracle-small": lambda seed, d: oracle_small(seed, d, calls=2, trials=2),
}


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_passes_its_output_checks(name, tmp_path):
    workload = TINY[name](7, str(tmp_path))
    ledger = Ledger()
    latencies, pass_seconds = run_passes(workload, 0, workload.min_passes, ledger)
    assert len(pass_seconds) == workload.min_passes
    assert len(latencies) == len(pass_seconds) * len(workload.ops)
    groups = check_all(workload, ledger)
    assert ledger.failures == {}
    assert groups > 0


def test_output_check_catches_an_unsound_result(tmp_path, monkeypatch):
    # kernels that form no unions: the sharing that unifying the hubs
    # creates is lost
    def passthrough(groups, *rest):
        return tuple(sorted(set(groups)))

    monkeypatch.setattr(amgu_mod, "union_closure", passthrough)
    monkeypatch.setattr(amgu_mod, "pairwise_union", passthrough)
    workload = closure_dense(7, str(tmp_path), sizes=(24,), files=2)
    ledger = Ledger()
    run_passes(workload, 0, 1, ledger)
    check_all(workload, ledger)
    assert ledger.failures
    assert all(
        reasons == ["result does not describe the solved form of E0 + E'"]
        for reasons in ledger.failures.values()
    )


@pytest.mark.parametrize("trace", (0, 1))
def test_metric_names_match_benchmark_json(trace, tmp_path):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    workload = TINY["oracle-small"](3, str(tmp_path))
    result = measure(workload, 0, trace, str(tmp_path / "spans.jsonl.gz"))
    names = set(result["metrics"]) | ({"setup_s"} if trace == 0 else set())
    assert names == {m["name"] for m in expected}
    assert all(result["metrics"][m["name"]][1] == m["unit"] for m in expected if m["name"] in names - {"setup_s"})
    assert result["failed"] == 0
