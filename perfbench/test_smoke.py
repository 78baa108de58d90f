"""Smoke test of the benchmark at tiny sizes.

Run from the repository root:  python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import os
from collections import Counter

import pytest

import run
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def _bench(capsys, *extra):
    code = run.main(["--seed", "3", "--seconds", "0", "--tiny", *extra])
    lines = capsys.readouterr().out.splitlines()
    return code, lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_end_to_end_metric_prints_with_its_unit(capsys, workload):
    code, lines, result = _bench(capsys, "--workload", workload, "--trace", "0")
    assert code == 0
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    expected["fail_ratio"] = "1"
    for name, unit in expected.items():
        line = next(x for x in lines if x.startswith(name + " "))
        assert line.split()[2] == unit
    assert next(x for x in lines if x.startswith("fail_ratio ")).split()[1] == "0"


def test_traced_run_reports_every_layer_metric(capsys):
    code, lines, result = _bench(capsys, "--workload", "lattice-ladder", "--trace", "1")
    assert code == 0 and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert result["metrics"]["structures.classify.calls"]["value"] > 0
    assert any(x.startswith("prediction: ") for x in lines)


def test_checker_counts_a_wrong_result_as_failed(tmp_path):
    ctx = workloads.Context(run.fresh_import(), 3, True, str(tmp_path), run.SRC)
    items = workloads.lattice_ladder(ctx)
    outcomes = [Counter([item.run()]) for item in items]
    assert run.count_failures(items, outcomes) == (len(items), 0)
    n, kind, primes, points, opens, ok, rebuilt, free = next(iter(outcomes[0]))
    outcomes[0][(n, kind, primes, points, opens, ok, rebuilt + 1, free)] += 1
    assert run.count_failures(items, outcomes) == (len(items) + 1, 1)


def test_cli_checker_rejects_wrong_exit_and_unparseable_output():
    check = workloads._cli_check(0, lambda d: True)
    assert check((0, b"{}", b""))
    assert not check((0, b"not json", b""))
    assert not check((2, b"{}", b""))
