"""Benchmark of the `inversive` toolkit: four seeded workloads, end-to-end
metrics untraced, per-layer metrics traced.

    python3 bench/run.py --workload rank-scan --seed 0 --seconds 15 --trace 0
    python3 bench/run.py --workload all          # every workload, one table
    python3 bench/run.py --record-reference      # rewrite bench/reference.json

Run from anywhere; it works from the root of the checkout that holds it and
imports the package from that checkout's `src`. One client runs the jobs of a
workload in a closed loop: each job starts when the previous one has ended.
The job list (a pass) repeats until --seconds have passed, at least once
(twice on cli-roundtrip).
The last line of stdout is one JSON object: correct, attempted, failed and
metrics; the line before it is a summary with the environment, the sample
counts and the combined output digest. README.md in this directory lists
every metric and what it is expected to respond to.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCH_DIR = os.path.basename(HERE)
sys.path.insert(0, HERE)

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Job  # noqa: E402

SETUP_REPS = 5
IMPORT_PROBES = 5
REFERENCE = os.path.join(HERE, "reference.json")
REFERENCE_SEED = 0
CHILD_TIMEOUT_S = 120

# Times are reported at a fixed reference CPU speed: the speed at which the
# calibration kernel below takes CAL_REF_MS. On a shared host the CPU speed
# drifts by up to 2x over tens of seconds, so raw times of runs minutes apart
# cannot be compared; the kernel runs between every two jobs, and each job's
# time is scaled by CAL_REF_MS over the mean kernel time on either side of
# it. Raw times are kept in the summary line.
CAL_REF_MS = 3.0

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "job_p50_ms": "ms", "job_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


@dataclass
class JobRun:
    code: Optional[int]
    out: bytes
    raw_ms: float
    error: Optional[str] = None
    ms: float = 0.0  # raw_ms at the reference speed

    @property
    def sha(self) -> str:
        return hashlib.sha256(self.out).hexdigest()


# ---------------------------------------------------------------------------
# environment


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; "unknown"
    when the checkout is not a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> Dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "git_commit": _git_commit(),
        "loadavg_1m": os.getloadavg()[0],
    }


def child_env() -> Dict[str, str]:
    """Children import the package from this checkout's src (it is not
    installed) and get no THREADS, so --jobs alone sets their worker count."""
    env = dict(os.environ)
    env.pop("THREADS", None)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


# ---------------------------------------------------------------------------
# set-up and job execution


def _calibration_kernel() -> Fraction:
    total = Fraction(0)
    for i in range(1, 600):
        total += Fraction(i % 11 + 1, i) * Fraction(3, i % 5 + 2)
    return total


def calibrate() -> float:
    """Milliseconds the stdlib-only kernel takes right now; the collector
    is paused so the program's heap does not leak into the reading."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        _calibration_kernel()
        return (time.perf_counter() - t0) * 1000
    finally:
        gc.enable()


def _purge_package() -> None:
    for name in [m for m in sys.modules
                 if m == "inversive" or m.startswith("inversive.")]:
        del sys.modules[name]


def setup(workload: str, seed: int, size: str, workdir: str):
    """Import the CLI and write the seeded inputs; repeated SETUP_REPS times
    (each from a fresh package import) so setup_s is a median."""
    times = []
    before = calibrate()
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        _purge_package()
        cli = importlib.import_module("inversive.cli")
        shutil.rmtree(workdir, ignore_errors=True)
        jobs = workloads.build(workload, seed, size, workdir)
        raw = time.perf_counter() - t0
        after = calibrate()
        times.append((raw, raw * 2 * CAL_REF_MS / (before + after)))
        before = after
    src = os.path.join(ROOT, "src") + os.sep
    if not cli.__file__.startswith(src):
        raise RuntimeError("imported %s, not this checkout's src" % cli.__file__)
    return cli, jobs, times


def in_process(cli) -> Callable[[int, Job], Tuple[int, bytes]]:
    def execute(index: int, job: Job) -> Tuple[int, bytes]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(job.argv))
            except SystemExit as e:
                code = e.code if isinstance(e.code, int) else 2
        return code, out.getvalue().encode("utf-8")
    return execute


def in_child(env: Dict[str, str], spans_dir: Optional[str] = None
             ) -> Callable[[int, Job], Tuple[int, bytes]]:
    """Each job a fresh `python -m inversive.cli`; traced children start
    through child.py, which installs the span wrappers first."""
    def execute(index: int, job: Job) -> Tuple[int, bytes]:
        if spans_dir is None:
            cmd = [sys.executable, "-m", "inversive.cli", *job.argv]
        else:
            cmd = [sys.executable, os.path.join(BENCH_DIR, "child.py"),
                   os.path.join(spans_dir, "%d.json" % index), *job.argv]
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, timeout=CHILD_TIMEOUT_S)
        return proc.returncode, proc.stdout
    return execute


def run_pass(jobs: Sequence[Job], execute, tracer=None) -> Tuple[float, List[JobRun]]:
    """Run the job list once; returns its wall seconds at the reference
    speed (the sum of the job times, calibration excluded) and the runs."""
    runs = []
    before = calibrate()
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.current_job = i
        s = time.perf_counter()
        try:
            code, out = execute(i, job)
            run = JobRun(code, out, (time.perf_counter() - s) * 1000)
        except Exception:  # a crashing job is a failed job, not a crashed run
            run = JobRun(None, b"", (time.perf_counter() - s) * 1000,
                         traceback.format_exc(limit=4))
        if job.save_as:
            with open(job.save_as, "wb") as fh:
                fh.write(run.out)
        after = calibrate()
        run.ms = run.raw_ms * 2 * CAL_REF_MS / (before + after)
        before = after
        runs.append(run)
    return sum(r.ms for r in runs) / 1000, runs


def check_run(job: Job, run: JobRun, expected: Optional[Sequence]) -> Tuple[List[str], Dict]:
    """Problems with one job's output, and its parsed report."""
    if run.error is not None:
        return ["%s raised: %s" % (job.name, run.error.strip().splitlines()[-1])], {}
    try:
        report = json.loads(run.out)
    except ValueError:
        return ["%s: stdout is not one JSON report" % job.name], {}
    problems = []
    verdict = report.get("verdict") if isinstance(report, dict) else None
    if verdict not in job.verdicts:
        problems.append("%s: verdict %r, expected one of %s"
                        % (job.name, verdict, list(job.verdicts)))
    elif run.code != workloads.EXIT_OF_VERDICT[verdict]:
        problems.append("%s: exit %s for verdict %s" % (job.name, run.code, verdict))
    if expected is not None and list(expected) != [run.code, run.sha]:
        problems.append("%s: output differs from the reference" % job.name)
    return problems, report


def output_digest(jobs: Sequence[Job], runs: Sequence[JobRun]) -> str:
    h = hashlib.sha256()
    for job, run in zip(jobs, runs):
        h.update(("%s\t%s\t%s\n" % (job.name, run.code, run.sha)).encode())
    return h.hexdigest()


def _p90(values: Sequence[float]) -> float:
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def _import_ms(env: Dict[str, str]) -> float:
    code = ("import time; t = time.perf_counter(); import inversive.cli; "
            "print((time.perf_counter() - t) * 1000)")
    values = []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, check=True,
                              timeout=CHILD_TIMEOUT_S)
        values.append(float(proc.stdout))
    return statistics.median(values)


# ---------------------------------------------------------------------------
# one workload


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 size: str = "full",
                 reference: Optional[Dict[str, Sequence]] = None) -> Dict:
    """Run one workload and return the result object (correct, attempted,
    failed, metrics) plus its summary under "summary"."""
    env_info = environment()
    workdir = os.path.join(BENCH_DIR, "_work", "%s-%s" % (size, workload))
    cli, jobs, setup_times = setup(workload, seed, size, workdir)
    env = child_env()
    children = workload in workloads.CHILD_WORKLOADS
    plain = in_child(env) if children else in_process(cli)
    # one pass of 100 child processes already outlasts --seconds; a second
    # halves the noise of its job percentiles
    min_passes = 2 if children and size == "full" and not trace else 1

    untraced: List[Tuple[float, List[JobRun]]] = []
    traced: List[Tuple[float, List[JobRun]]] = []
    tracer = tracing.Tracer() if trace else None
    spans_dir = os.path.join(workdir, "spans")
    t_start = time.perf_counter()
    while (len(untraced) < min_passes or (trace and not traced)
           or time.perf_counter() - t_start < seconds):
        untraced.append(run_pass(jobs, plain))
        if not trace:
            continue
        if children:
            os.makedirs(spans_dir, exist_ok=True)
            traced.append(run_pass(jobs, in_child(env, spans_dir)))
            for i in range(len(jobs)):
                with open(os.path.join(spans_dir, "%d.json" % i), encoding="utf-8") as fh:
                    tracer.merge(json.load(fh), i)
        else:
            tracer.install()
            try:
                traced.append(run_pass(jobs, plain, tracer))
            finally:
                tracer.uninstall()

    problems: List[str] = []
    failed = attempted = 0
    first = untraced[0][1]
    reports = []
    for _, runs in untraced + traced:
        for job, run, base in zip(jobs, runs, first):
            expected = reference.get(job.name) if reference is not None else None
            found, report = check_run(job, run, expected)
            if run.sha != base.sha or run.code != base.code:
                found.append("%s: output differs between passes" % job.name)
            if runs is first:
                reports.append(report)
            attempted += 1
            failed += bool(found)
            problems += found

    raw_times = None
    if trace:
        summary_spans = tracer.summarize()
        passes = len(traced)
        metrics = tracing.per_layer_metrics(summary_spans, passes)
        problems += workloads.self_check(
            workload,
            lambda name, parents: tracing.calls_under(summary_spans, name, parents) / passes,
            lambda name, index: summary_spans["in_job"][(name, index)] / passes,
            jobs, reports)
        metrics["cli.import_ms"] = (_import_ms(env), "ms")
        metrics["trace.overhead_ratio"] = (
            statistics.median(w for w, _ in traced)
            / statistics.median(w for w, _ in untraced), "ratio")
        os.makedirs(os.path.join(BENCH_DIR, "_out"), exist_ok=True)
        tracer.write_spans(os.path.join(BENCH_DIR, "_out", "spans-%s-%s-seed%d.json"
                                        % (size, workload, seed)))
    else:
        latencies = [r.ms for _, runs in untraced for r in runs]
        raw_times = {
            "setup_s": statistics.median(t for t, _ in setup_times),
            "wall_s": statistics.median(sum(r.raw_ms for r in runs) / 1000
                                        for _, runs in untraced),
            "job_p50_ms": statistics.median(r.raw_ms for _, runs in untraced
                                            for r in runs),
        }
        usage = resource.getrusage(resource.RUSAGE_CHILDREN if children
                                   else resource.RUSAGE_SELF)
        metrics = {
            "setup_s": (statistics.median(t for _, t in setup_times), "s"),
            "wall_s": (statistics.median(w for w, _ in untraced), "s"),
            "job_p50_ms": (statistics.median(latencies), "ms"),
            "job_p90_ms": (_p90(latencies), "ms"),
            "peak_rss_mb": (usage.ru_maxrss / 1024, "MB"),
        }

    summary = {
        "workload": workload, "seed": seed, "size": size, "trace": int(trace),
        "passes": len(untraced), "traced_passes": len(traced),
        "jobs_per_pass": len(jobs),
        "job_samples": len(untraced) * len(jobs),
        "fail_ratio": failed / attempted,
        "output_digest": output_digest(jobs, first),
        "reference_checked": reference is not None,
        "raw_times": raw_times,
        "environment": env_info,
        "problems": problems[:20],
    }
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "summary": summary,
        "job_digests": {job.name: [run.code, run.sha] for job, run in zip(jobs, first)},
    }


# ---------------------------------------------------------------------------
# entry points


def load_reference(workload: str, seed: int, size: str) -> Optional[Dict]:
    """Expected [exit code, stdout sha256] per job, kept for the default seed
    at full size only."""
    if seed != REFERENCE_SEED or size != "full" or not os.path.exists(REFERENCE):
        return None
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)["workloads"].get(workload)


def record_reference(names: Sequence[str]) -> int:
    doc = {"seed": REFERENCE_SEED, "size": "full", "workloads": {}}
    if os.path.exists(REFERENCE):
        with open(REFERENCE, encoding="utf-8") as fh:
            doc = json.load(fh)
    for name in names:
        result = run_workload(name, REFERENCE_SEED, 0, False)
        if not result["correct"]:
            print(json.dumps(result["summary"]["problems"]), file=sys.stderr)
            return 1
        doc["workloads"][name] = result["job_digests"]
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process (so peak RSS is its own), one table."""
    cols = ["setup_s", "wall_s", "peak_rss_mb", "job_p50_ms", "job_p90_ms"]
    print("%-15s %9s %9s %11s %10s %10s %8s %10s" % (
        "workload", *cols, "samples", "fail_ratio"))
    status = 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", "0", "--size", args.size],
            stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print("%-15s failed (exit %d)" % (name, proc.returncode))
            status = 1
            continue
        summary, result = json.loads(lines[-2]), json.loads(lines[-1])
        m = result["metrics"]
        print("%-15s %9.4f %9.4f %11.1f %10.2f %10.2f %8d %10.4f" % (
            name, *(m[c]["value"] for c in cols), summary["job_samples"],
            summary["fail_ratio"]))
    return status


def enter_checkout() -> bool:
    """Work from the checkout root, importing the package from its src;
    False when the checkout holds no program to measure."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "inversive", "cli.py")):
        return False
    os.chdir(ROOT)
    if src not in sys.path:
        sys.path.insert(0, src)
    return True


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric name with its unit, in output order."""
    units = {k: u for k, (_, u) in tracing.per_layer_metrics(
        tracing.Tracer().summarize(), 1).items()}
    units.update({"cli.import_ms": "ms", "trace.overhead_ratio": "ratio"})
    return units


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=list(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full")
    parser.add_argument("--record-reference", action="store_true",
                        help="run one pass at the reference seed and store "
                             "each job's exit code and stdout digest")
    args = parser.parse_args(argv)

    if not enter_checkout():
        print("error: no src/inversive next to %s/; run the benchmark from a "
              "checkout of the repository" % BENCH_DIR, file=sys.stderr)
        return 2
    if args.record_reference:
        names = workloads.WORKLOADS if args.workload == "all" else [args.workload]
        return record_reference(names)
    if args.workload == "all":
        return run_all(args)

    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), args.size,
                          load_reference(args.workload, args.seed, args.size))
    os.makedirs(os.path.join(BENCH_DIR, "_out"), exist_ok=True)
    with open(os.path.join(BENCH_DIR, "_out", "result-%s-%s-seed%d-trace%d.json"
                           % (args.size, args.workload, args.seed, args.trace)),
              "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    print(json.dumps(result["summary"], sort_keys=True))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
