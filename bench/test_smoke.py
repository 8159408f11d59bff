"""Smoke test of the benchmark: every workload at the tiny scale.

Run from the repository root:  python3 -m pytest -q bench/test_smoke.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = [sys.executable, os.path.join("bench", "run.py")]

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _run(*extra, cwd=ROOT, workload="search", trace=0):
    proc = subprocess.run(
        RUN + ["--workload", workload, "--seed", "3", "--seconds", "1",
               "--trace", str(trace), "--scale", "tiny", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None, proc.stderr


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted(workload, trace):
    rc, result, err = _run(workload=workload, trace=trace)
    assert rc == 0, err
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in spec)
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace:
        with open(os.path.join(ROOT, ".bench_work", f"trace-{workload}-3.json")) as fh:
            assert "first_failure_alpha" in json.load(fh)["repetitions"][0]


def test_every_per_layer_metric_names_what_it_moves():
    with open(os.path.join(ROOT, "bench", "layers.json"), encoding="utf-8") as fh:
        layers = json.load(fh)["per_layer"]
    workloads = {w["name"] for w in SPEC["workloads"]}
    assert sorted(layers) == sorted(m["name"] for m in SPEC["per_layer"])
    for entry in layers.values():
        assert entry["on"] and set(entry["on"]) <= workloads


def test_wrong_pinned_digest_trips_the_gate(tmp_path):
    for name in ("bench", "src"):
        shutil.copytree(os.path.join(ROOT, name), tmp_path / name,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    pins_path = tmp_path / "bench" / "pins.json"
    pins = json.loads(pins_path.read_text())
    pins["tiny"]["search"]["catalog_sha256"] = "0" * 64
    pins_path.write_text(json.dumps(pins))
    rc, result, err = _run(cwd=tmp_path)
    assert rc == 1
    assert result["correct"] is False and result["failed"] >= 1
    assert "search.catalog_sha256" in err


def test_refuses_a_changed_cap():
    proc = subprocess.run(
        RUN + ["--workload", "search", "--seed", "3", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
        env={**os.environ, "PERMBINOM_CAP": "1000"},
    )
    assert proc.returncode == 2 and not proc.stdout.strip()


def test_fails_without_the_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench")
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    rc, result, _ = _run(cwd=tmp_path)
    assert rc != 0 and result is None
