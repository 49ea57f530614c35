"""Smoke test of the benchmark harness itself.

Run as ``python -m pytest perf -q`` (``testpaths`` keeps it out of
tier-1: it starts real clusters and takes about a minute).
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from perf import run  # puts src/ on sys.path
from perf import planes, workloads
from perf.compare import compare, is_exact, spread

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in BENCHMARK["workloads"]]
RUN = [sys.executable, str(ROOT / "perf" / "run.py")]


def _traced(name: str, seed: int) -> tuple[str, dict]:
    """One quick traced pass in a subprocess: (stdout, result line)."""
    proc = subprocess.run(RUN + ["--workload", name, "--seed", str(seed), "--trace", "1",
                                 "--quick"], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def quick_set(tmp_path_factory) -> dict:
    """``run.py --quick`` over all four workloads, as a user runs it."""
    out = tmp_path_factory.mktemp("perf") / "quick.json"
    start = time.perf_counter()
    proc = subprocess.run(RUN + ["--quick", "--seed", "3", "--out", str(out)],
                          capture_output=True, text=True, timeout=300)
    wall = time.perf_counter() - start
    assert proc.returncode == 0, proc.stdout + proc.stderr
    document = json.loads(out.read_text())
    document["wall_s"] = wall
    return document


@pytest.fixture(scope="module")
def traced_passes() -> dict:
    """Quick traced passes: seed 3 twice and seed 4 once, per workload."""
    with ThreadPoolExecutor(max_workers=4) as pool:
        futures = {(name, label): pool.submit(_traced, name, seed)
                   for name in NAMES for label, seed in (("a", 3), ("b", 3), ("c", 4))}
        return {key: future.result() for key, future in futures.items()}


def test_quick_run_emits_every_metric(quick_set):
    assert quick_set["wall_s"] < 60
    assert set(quick_set["workloads"]) == set(NAMES)
    assert quick_set["meta"]["workers"] == workloads.cluster_workers()
    for name, entry in quick_set["workloads"].items():
        assert set(entry["end_to_end"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
        assert set(entry["per_layer"]) == {m["name"] for m in BENCHMARK["per_layer"]}
        assert entry["failed"] == 0 and entry["attempted"] > 0
        assert all(len(i["sha256"]) == 64 and i["bytes"] > 0 for i in entry["inputs"])
        for metric in entry["end_to_end"].values():
            assert metric["median"] > 0


def test_metric_names_and_single_emission(traced_passes):
    declared = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert len(declared) == len(set(declared))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in declared)
    for name in NAMES:
        stdout, line = traced_passes[name, "a"]
        assert line["correct"] and line["failed"] == 0
        printed = [row.split()[1] for row in stdout.splitlines() if row.startswith(name)]
        assert sorted(printed) == sorted(m["name"] for m in BENCHMARK["per_layer"])


def test_counts_repeat_for_a_seed_and_move_with_it(traced_passes):
    def exact(name, label):
        metrics = traced_passes[name, label][1]["metrics"]
        return {k: v["value"] for k, v in metrics.items() if is_exact(k, v["unit"])}

    assert all(exact(name, "a") == exact(name, "b") for name in NAMES)
    assert any(exact(name, "a") != exact(name, "c") for name in NAMES)
    for name in NAMES:  # ...and every input is a function of the seed
        shas = [i["sha256"] for i in workloads.make(name, 3, quick=True).describe_inputs()]
        other = [i["sha256"] for i in workloads.make(name, 4, quick=True).describe_inputs()]
        assert shas != other
        assert shas == [i["sha256"]
                        for i in workloads.make(name, 3, quick=True).describe_inputs()]


def test_a_pass_leaves_no_process_behind():
    """Workers and the multiprocessing resource tracker have ended when a
    pass returns: nothing is left in the session it ran in."""
    proc = subprocess.Popen(RUN + ["--workload", "multi_tenant", "--seed", "3", "--trace", "0",
                                   "--quick"], stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    _, stderr = proc.communicate(timeout=120)
    assert proc.returncode == 0, stderr
    left = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue  # it ended meanwhile
        if int(fields[3]) == proc.pid:  # session id; zombies count too
            left.append(stat.parent.name)
    assert not left, f"processes left in session {proc.pid}: {left}"


def test_corrupted_reference_fails_the_run(monkeypatch, capsys):
    real = workloads.WcLowcard.bare

    def corrupted(self, i, state):
        counts = real(self, i, state)
        counts[next(iter(counts))] += 1
        return counts

    monkeypatch.setattr(workloads.WcLowcard, "bare", corrupted)
    assert run.run_pass("wc_lowcard", seed=3, seconds=1.0, trace=0, quick=True) == 1
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert line["correct"] is False
    assert 0 < line["failed"] <= line["attempted"]


def test_compare_verdicts(tmp_path, capsys):
    def result_set(cluster_job_s):
        metrics = {m["name"]: {"unit": m["unit"], "values": [1.0] * 10, "median": 1.0,
                               "spread": 0.0} for m in BENCHMARK["end_to_end"]}
        metrics["cluster_job_s"].update(values=cluster_job_s,
                                        median=sorted(cluster_job_s)[len(cluster_job_s) // 2],
                                        spread=spread(cluster_job_s))
        return {"workloads": {"wc_lowcard": {
            "end_to_end": metrics, "attempted": 1, "failed": 0,
            "per_layer": {"shuffle.spills": {"value": len(cluster_job_s), "unit": "count"}}}}}

    bound = next(m["bound"] for m in BENCHMARK["end_to_end"] if m["name"] == "cluster_job_s")
    paths = {}
    for label, values in {
        "base": [1.0, 1.01, 0.99, 1.0, 1.0],
        "slower": [v * (1 + 2 * bound) for v in (1.0, 1.01, 0.99, 1.0, 1.0, 1.0)],
        "noisy": [0.5, 1.0, 1.5, 2.0, 0.7],
    }.items():
        paths[label] = tmp_path / f"{label}.json"
        paths[label].write_text(json.dumps(result_set(values)))

    assert compare(paths["base"], paths["base"], BENCHMARK) == 0
    assert "regressed" not in capsys.readouterr().out
    assert compare(paths["base"], paths["slower"], BENCHMARK) == 1
    out = capsys.readouterr().out
    assert "regressed" in out and "count differs" in out
    assert compare(paths["base"], paths["noisy"], BENCHMARK) == 0
    assert "unresolved" in capsys.readouterr().out


def test_percentile_hi_needs_ten_samples_beyond():
    assert planes.percentile_hi([3.0, 1.0, 2.0]) == 3.0
    assert planes.percentile_hi(list(range(120))) == 109
