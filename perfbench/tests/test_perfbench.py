"""The benchmark's own tests, on inputs a fifth of full size (10–40 s per run).

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import loadgen
import metrics
import pipeline
from loadgen import Request, Step, max_rate
from run import END_TO_END, PER_LAYER
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
TINY = {"seconds": 3.0, "scale": 0.2}


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path("perfbench") / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_workload_emits_every_named_metric(workload, trace):
    done = _bench(
        "--workload", workload, "--seed", "3", "--seconds", str(TINY["seconds"]),
        "--trace", str(trace), "--scale", str(TINY["scale"]),
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = PER_LAYER if trace else END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    if trace:
        assert (BENCH / "out" / f"{workload}-seed3.trace.json").is_file()
        assert "(untraced gap)" in done.stdout


def test_benchmark_json_names_the_same_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in WORKLOADS.values()]


def test_without_program_source_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _bench(
        "--workload", "wbcd_keepalive", "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=tmp_path,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def _tiny_run(tmp_path, workload="wbcd_keepalive", trace=False):
    return pipeline.run(
        WORKLOADS[workload], 5, TINY["seconds"], trace, tmp_path, scale=TINY["scale"]
    )


def test_wrong_rule_id_in_an_answer_counts_as_failed(tmp_path, monkeypatch):
    honest = pipeline.SnapshotPublisher.query

    def corrupt(self, query=None, **kwargs):
        answer = honest(self, query, **kwargs)
        if not answer.ids:
            return answer
        wrong = next(i for i in range(answer.total_rules) if i not in answer.ids)
        return dataclasses.replace(answer, ids=(wrong,) + answer.ids[1:])

    monkeypatch.setattr(pipeline.SnapshotPublisher, "query", corrupt)
    record = _tiny_run(tmp_path)
    attempted, failures = metrics.outcomes(record)
    assert failures and all(key.startswith(("r", "v")) for key in failures)
    assert any(
        "apply_query reference" in problem
        for problems in failures.values()
        for problem in problems
    )
    e2e = metrics.end_to_end(record, 0.0, attempted, len(failures))
    assert e2e["ok_ratio"] < 1.0


def test_digest_mismatch_between_passes_counts_as_failed(tmp_path, monkeypatch):
    honest = pipeline.repro.mine
    calls = []

    def drops_a_rule_on_the_second_pass(relation, **kwargs):
        result = honest(relation, **kwargs)
        calls.append(1)
        if len(calls) == 2:
            result.rules = type(result.rules)(result.rules[:-1])
        return result

    monkeypatch.setattr(pipeline.repro, "mine", drops_a_rule_on_the_second_pass)
    record = _tiny_run(tmp_path)
    _, failures = metrics.outcomes(record)
    assert list(failures) == ["pass1"]
    assert "rule digest" in failures["pass1"][0]


def test_overdue_generator_shows_in_gen_lag_ms(tmp_path, monkeypatch):
    monkeypatch.setattr(loadgen, "_sleep", lambda seconds: loadgen.time.sleep(seconds + 0.05))
    record = _tiny_run(tmp_path, trace=True)
    assert metrics.per_layer(record)["gen.lag_ms"] >= 45.0


def test_dense_workload_recovers_its_planted_modes():
    workload = WORKLOADS["dense_refresh"]
    relation, planted = workload.make_relation(7, 0.2)
    import repro
    from checks import planted_problems

    result = repro.mine(relation)
    assert planted_problems(result, planted, relation.schema.names) == []
    shifted = dataclasses.replace(planted, centers=planted.centers + 50.0)
    assert planted_problems(result, shifted, relation.schema.names)


def _step(rate, latencies_ms):
    step = Step(rate=rate, seconds=1.0)
    step.requests = [
        Request(i, "/", due=0.0, done=ms / 1e3, status=200)
        for i, ms in enumerate(latencies_ms)
    ]
    return step


def test_max_rate_interpolates_between_the_last_met_and_first_missed_step():
    met = _step(16, [10.0] * 30)
    missed = _step(32, [100.0] * 30)
    # log-log: the tail crosses 31.62 ms (sqrt(10 * 100)) half-way, at 16 * 2**0.5
    assert max_rate([met, missed], limit_ms=np.sqrt(1000.0)) == pytest.approx(16 * 2**0.5)
    assert max_rate([met], limit_ms=50.0) == 16
    assert max_rate([missed], limit_ms=50.0) == 0.0
