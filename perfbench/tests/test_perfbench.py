"""Smoke tests of the benchmark at tiny sizes.

Run from the root of a checkout::

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402
from checks import Tally, check_batch  # noqa: E402
from spans import Tracer  # noqa: E402
from suite import CampaignWorkload, RouteWorkload  # noqa: E402

from repro.campaign import CaseFailure  # noqa: E402

BENCHMARK = run.load_json(os.path.join(ROOT, "BENCHMARK.json"))
CATALOGUE = run.load_json(os.path.join(BENCH, "workloads.json"))

TINY = {
    "route_object": {
        "backend": "object", "side": 6, "k": 20,
        "policy": "restricted-priority", "problems": 2, "checkpoint_every": 2,
    },
    "route_soa": {
        "backend": "soa", "side": 8, "k": 40, "policy": "restricted-priority",
        "problems": 2, "checkpoint_every": 3, "tracemalloc_steps": 4,
    },
    "campaign_small": {
        "cases": 6, "side": 4, "k": 4, "workload": "random",
        "policy": "restricted-priority", "backend": "object", "workers": 2,
    },
    "dynamic_faulted": {
        "side": 5, "rate": 0.1, "policy": "restricted-priority",
        "backend": "object", "steps": 60, "warmup": 10, "runs": 2,
        "link_faults": 2, "packet_drops": 4, "fault_max_window": 8,
        "checkpoint_every": 20,
    },
}


def declared(kind):
    return {metric["name"]: metric["unit"] for metric in BENCHMARK[kind]}


def test_catalogue_matches_benchmark():
    assert set(CATALOGUE["workloads"]) == {w["name"] for w in BENCHMARK["workloads"]}
    assert set(CATALOGUE["per_layer"]) == set(declared("per_layer"))
    assert set(TINY) == set(CATALOGUE["workloads"])
    for name, inputs in TINY.items():
        assert set(inputs) <= set(CATALOGUE["workloads"][name]["inputs"])


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_emits_every_metric(name, trace, tmp_path):
    result = run.run(name, 3, 0.0, trace, TINY[name], out_dir=str(tmp_path))
    assert result["correct"], result
    assert result["failed"] == 0 and result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    emitted = {key: value["unit"] for key, value in result["metrics"].items()}
    assert emitted == declared(kind)
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float))
    if not trace:
        for metric in ("setup_s", "packet_steps_per_s", "run_s_p50", "resume_s"):
            assert result["metrics"][metric]["value"] > 0


def test_same_seed_gives_same_digest(tmp_path, capsys):
    digests = []
    for _ in range(2):
        run.run("route_object", 5, 0.0, False, TINY["route_object"], str(tmp_path))
        out = capsys.readouterr().out
        digests.append(
            [line for line in out.splitlines() if line.startswith("perfbench digest")]
        )
    assert digests[0] == digests[1] and digests[0]


def test_incomplete_run_counts_as_failed(tmp_path, monkeypatch):
    def truncated(self, index):
        return self.engine(index, max_steps=1)

    monkeypatch.setattr(RouteWorkload, "prepare", truncated)
    result = run.run("route_object", 3, 0.0, False, TINY["route_object"], str(tmp_path))
    assert not result["correct"]
    assert result["failed"] >= TINY["route_object"]["problems"]


def test_case_failure_counts_as_failed(tmp_path, monkeypatch):
    execute = CampaignWorkload.execute

    def with_failure(self, index, store):
        path, result = execute(self, index, store)
        result.failures.append(CaseFailure(key="fabricated", error="E", message="m"))
        return path, result

    monkeypatch.setattr(CampaignWorkload, "execute", with_failure)
    result = run.run(
        "campaign_small", 3, 0.0, False, TINY["campaign_small"], str(tmp_path)
    )
    assert not result["correct"]
    assert result["failed"] >= 1


def test_check_batch_and_tally_on_a_truncated_run():
    from repro.algorithms import make_policy
    from repro.core.engine import HotPotatoEngine
    from repro.mesh.topology import Mesh
    from repro.workloads import random_many_to_many

    problem = random_many_to_many(Mesh(2, 6), k=20, seed=1)
    result = HotPotatoEngine(problem, make_policy("restricted-priority"), max_steps=1).run()
    tally = Tally()
    tally.record("truncated", check_batch(result, restricted=True))
    assert tally.failed == 1 and tally.failed_frac == 1.0


def test_self_time_subtracts_direct_children():
    tracer = Tracer()
    with tracer.span("outer", trace="t"):
        with tracer.span("inner"):
            pass
        with tracer.span("inner"):
            pass
    durations = {name: sum(tracer.durations_ms(name)) / 1e3 for name in ("outer", "inner")}
    self_s = tracer.self_seconds()
    assert self_s["inner"] == pytest.approx(durations["inner"])
    assert self_s["outer"] == pytest.approx(durations["outer"] - durations["inner"])
    assert {span[2] for span in tracer.spans} == {"t"}

    off = Tracer(enabled=False)
    with off.span("x"):
        off.count("n", 1)
    assert not off.spans and not off.counts


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "route_object",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    for line in done.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
