"""Smoke self-test of the benchmark, at the tiny size.

    python3 bench/smoke_test.py            # or: python3 -m pytest bench/smoke_test.py

Every workload runs once untraced and once traced. Every metric that
BENCHMARK.json lists must come out with its unit and a valid name, the trace
self-check must pass, a corrupted reference digest must count as a failed
job, and without the program the benchmark must refuse to run.
"""

import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


def _spec(section):
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def _check_metrics(result, expected):
    assert result["correct"], result["summary"]["problems"]
    assert result["failed"] == 0 and result["summary"]["fail_ratio"] == 0
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    for name, m in result["metrics"].items():
        assert NAME.match(name), name
        assert isinstance(m["value"], float), name


def test_end_to_end_metrics():
    assert run.enter_checkout()
    expected = _spec("end_to_end")
    assert expected == run.END_TO_END
    for name in workloads.WORKLOADS:
        result = run.run_workload(name, 0, 0, False, "tiny")
        _check_metrics(result, expected)
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_per_layer_metrics_and_self_check():
    assert run.enter_checkout()
    expected = _spec("per_layer")
    assert expected == run.per_layer_units()
    for name in workloads.WORKLOADS:
        _check_metrics(run.run_workload(name, 0, 0, True, "tiny"), expected)


def test_corrupted_reference_fails_jobs():
    assert run.enter_checkout()
    clean = run.run_workload("rank-scan", 0, 0, False, "tiny")
    reference = dict(clean["job_digests"])
    assert run.run_workload("rank-scan", 0, 0, False, "tiny",
                            reference)["failed"] == 0
    first = next(iter(reference))
    reference[first] = [reference[first][0], "0" * 64]
    corrupted = run.run_workload("rank-scan", 0, 0, False, "tiny", reference)
    assert corrupted["summary"]["fail_ratio"] > 0
    assert not corrupted["correct"]


def test_reference_covers_every_job():
    assert run.enter_checkout()
    with open(run.REFERENCE, encoding="utf-8") as fh:
        recorded = json.load(fh)["workloads"]
    workdir = os.path.join(run.BENCH_DIR, "_work", "smoke-jobs")
    for name in workloads.WORKLOADS:
        jobs = workloads.build(name, run.REFERENCE_SEED, "full", workdir)
        assert {job.name for job in jobs} == set(recorded[name])
    shutil.rmtree(workdir)


def test_refuses_without_program():
    bare = os.path.join(run.ROOT, run.BENCH_DIR, "_work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, run.BENCH_DIR),
                    ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run(
        [sys.executable, os.path.join(run.BENCH_DIR, "run.py"), "--workload",
         "rank-scan", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=60)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""


if __name__ == "__main__":
    for test in [v for k, v in sorted(globals().items()) if k.startswith("test_")]:
        test()
        print("ok", test.__name__)
