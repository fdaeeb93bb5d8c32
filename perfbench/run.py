#!/usr/bin/env python3
"""Benchmark of entroflow on three seeded workloads: rates, balls, flows.

Run from the root of a checkout:

    python3 perfbench/run.py --workload rates --seed 1 --seconds 30 --trace 0

One process runs one workload as a closed loop: the workload's jobs run
one after another, in a fixed order, through the public entry points
(`entroflow.cli.main` and the library certify pipeline), and the whole
job list repeats until the next repetition would overrun --seconds.
Every output is checked.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; the lines
before it describe the environment and every job.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates
untraced and traced repetitions and reports the per-layer metrics of
the traced ones (see tracer.py and README.md).
"""

from __future__ import annotations

import os
import sys

NPROC = len(os.sched_getaffinity(0))

if __name__ == "__main__":
    # One BLAS/OpenMP thread; mlsi's sample map gets one worker per core.
    # Both must be set before numpy loads.
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"
    os.environ["ENTROFLOW_WORKERS"] = str(NPROC)

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# Set-ups per run at the least; their median is setup_s.
SETUP_REPEATS = 5

# Repetitions per run at the least, whatever --seconds allows.
MIN_REPS = 3

_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import entroflow.cli; "
    "print(repr(time.perf_counter() - t))"
)


@dataclass
class Outcome:
    """What one execution of one job produced."""

    job: str
    suite: str
    seconds: float
    cpu_s: float
    error: str | None = None  # the job produced no verdict
    exit_code: int | None = None
    passed: bool | None = None  # the program's own verdict
    digest: str | None = None  # sha256 of report.json (certify: of its numbers)
    beta: float | None = None
    beta_rel_err: float | None = None
    reference_ok: bool | None = None  # the benchmark's reference check

    @property
    def failed(self) -> bool:
        """Raised, exited non-zero, or failed a check (ops_failed_ratio)."""
        return (
            self.error is not None
            or self.exit_code not in (None, 0)
            or self.passed is False
            or self.reference_ok is False
        )

    @property
    def false_pass(self) -> bool:
        """The program passed an estimate the reference check rejects."""
        return self.passed is True and self.reference_ok is False


# ---------------------------------------------------------------- jobs


def load_entroflow():
    """Import entroflow from this checkout's sources, never from elsewhere."""
    if not (SRC / "entroflow" / "__init__.py").is_file():
        raise ImportError(f"no entroflow sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import entroflow.cli

    if not Path(entroflow.cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"entroflow imported from {entroflow.cli.__file__}, not {SRC}")


def _cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _check_reference(out: Outcome, beta: float, reference: float | None):
    out.beta = beta
    if reference is not None:
        out.beta_rel_err = abs(beta - reference) / reference
        out.reference_ok = out.beta_rel_err <= workloads.BETA_TOLERANCE


def run_cli_job(job, config: Path, outdir: Path) -> Outcome:
    """One CLI run; the report is parsed and checked against the exit code."""
    from entroflow import cli

    start, cpu0 = time.perf_counter(), _cpu()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([job.suite, "--config", str(config), "--out", str(outdir)])
    except (Exception, SystemExit) as exc:  # a crash is a result here, not a stop
        return Outcome(job.name, job.suite, time.perf_counter() - start, _cpu() - cpu0,
                       error=f"{type(exc).__name__}: {exc}")
    out = Outcome(job.name, job.suite, time.perf_counter() - start, _cpu() - cpu0, exit_code=code)
    if code not in (0, 1):
        out.error = f"exit code {code}"
        return out
    try:
        blob = (outdir / "report.json").read_bytes()
        report = json.loads(blob)
        out.passed = bool(report["passed"])
        out.digest = _sha256(blob)
        if job.suite == "mlsi":
            _check_reference(out, float(report["result"]["beta_ratio"]), job.reference)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        out.error = f"unreadable report: {type(exc).__name__}: {exc}"
        return out
    if code != (0 if out.passed else 1):
        out.error = f"exit code {code} disagrees with passed={out.passed}"
    return out


def run_certify_job(job) -> Outcome:
    """Criterion-3 pipeline: fm_check on every sampled state, then the
    decay certificate, both at the model's rate 2."""
    from entroflow import entropyflow, groupsem

    c = job.config
    start, cpu0 = time.perf_counter(), _cpu()
    try:
        sem = groupsem.build_ball_semigroup(c["kind"], c["rank"], c["radius"])
        samples = entropyflow.state_samples(
            sem.ball.size, sem.phi, entropyflow.SamplerConfig(count=c["count"]), c["seed"]
        )
        fm_worst = max(
            entropyflow.fm_check(sem.gen, s, sem.phi, workloads.CERTIFY_RATE, workloads.CERTIFY_TIMES)
            for s in samples
        )
        dec = entropyflow.decay_certificate(sem.gen, sem.phi, workloads.CERTIFY_RATE, samples)
    except Exception as exc:  # a crash is a result here, not a stop
        return Outcome(job.name, job.suite, time.perf_counter() - start, _cpu() - cpu0,
                       error=f"{type(exc).__name__}: {exc}")
    out = Outcome(job.name, job.suite, time.perf_counter() - start, _cpu() - cpu0)
    out.passed = bool(fm_worst <= workloads.CERTIFY_FM_TOL and dec.passed)
    numbers = [fm_worst, dec.worst_margin] + [row["margin"] for row in dec.per_state]
    out.digest = _sha256(" ".join(float(v).hex() for v in numbers).encode())
    return out


def run_jobs(jobs, configs: Path, outputs: Path) -> list:
    """One repetition of the job list, in order."""
    results = []
    for job in jobs:
        if job.suite == "certify":
            results.append(run_certify_job(job))
        else:
            results.append(run_cli_job(job, configs / f"{job.name}.json", outputs / job.name))
    return results


# ---------------------------------------------------------------- set-up


def write_configs(jobs, configs: Path):
    configs.mkdir(parents=True, exist_ok=True)
    for job in jobs:
        if job.suite != "certify":
            (configs / f"{job.name}.json").write_text(json.dumps(job.config), encoding="utf-8")


def time_import() -> float:
    """Import time of entroflow.cli in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE], env=env, cwd=ROOT,
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def set_up(workload: str, seed: int, tiny: bool, configs: Path):
    """Import entroflow in a fresh interpreter, then generate and write the
    configs; returns the jobs and the time both took."""
    imported = time_import()
    start = time.perf_counter()
    jobs = workloads.job_list(workload, seed, tiny)
    write_configs(jobs, configs)
    return jobs, imported + time.perf_counter() - start


# ---------------------------------------------------------------- records


def environment(workload: str, seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": NPROC,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "entroflow_workers": os.environ.get("ENTROFLOW_WORKERS"),
        "workload": workload,
        "seed": seed,
    }


def golden_hashes(workload: str, seed: int) -> dict:
    """report.json hashes recorded for this workload and seed, if any."""
    path = HERE / "golden_hashes.json"
    recorded = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    return recorded.get(workload, {}).get(str(seed), {})


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def rep_seconds(rep: list) -> float:
    return sum(o.seconds for o in rep)


def job_summary(reps: list, workload: str, seed: int) -> dict:
    """Per-job facts that hold for every repetition, plus the job-level
    metrics: suite times, failures, rate error, report hashes."""
    first = reps[0]
    golden = golden_hashes(workload, seed)
    cli_digests = {o.job: o.digest for o in first if o.suite != "certify"}
    checked = [j for j in cli_digests if j in golden]
    errs = [o.beta_rel_err for o in first if o.beta_rel_err is not None]
    suites = {}
    for suite in ("mlsi", "freegroup", "intertwine", "certify", "debruijn", "subalg"):
        per_rep = [sum(o.seconds for o in rep if o.suite == suite) for rep in reps]
        suites[suite] = statistics.median(per_rep)
    return {
        "suite_s": suites,
        "jobs_per_rep": len(first),
        "jobs_failed_per_rep": sum(o.failed for o in first),
        "ops_failed_ratio": sum(o.failed for rep in reps for o in rep) / sum(len(r) for r in reps),
        "beta_rel_err": max(errs) if errs else 0.0,
        "report_hash_checked": len(checked),
        "report_hash_changed": sum(cli_digests[j] != golden[j] for j in checked),
        "report_sha256": cli_digests,
    }


def consistency_problems(reps: list) -> list:
    """Reasons the outputs are not correct: no verdict, a passed estimate
    the reference rejects, or outputs that differ between repetitions."""
    problems = []
    for rep in reps:
        for o in rep:
            if o.error is not None:
                problems.append(f"{o.job}: {o.error}")
            elif o.false_pass:
                problems.append(f"{o.job}: passed with beta {o.beta!r} off its reference")
    for column in zip(*reps):
        if len({o.digest for o in column}) > 1:
            problems.append(f"{column[0].job}: outputs differ between repetitions")
    return sorted(set(problems))


def print_jobs(rep: list):
    for o in rep:
        verdict = "error" if o.error else ("pass" if o.passed else "FAIL")
        beta = "" if o.beta is None else f" beta={o.beta:.6g}"
        if o.beta_rel_err is not None:
            beta += f" rel_err={o.beta_rel_err:.4g}"
        print(f"job {o.job:24s} {o.seconds:8.3f}s exit={o.exit_code} {verdict}{beta} "
              f"sha256={(o.digest or '-')[:16]}" + (f" [{o.error}]" if o.error else ""))


# ---------------------------------------------------------------- runs


def measure(args, configs: Path, outputs: Path) -> tuple:
    """Set up, then run the job list, repeatedly, until the next repetition
    would overrun --seconds of measured time; at least MIN_REPS
    repetitions and SETUP_REPEATS set-ups.  Spreading the set-ups over the
    run keeps their median from following a short slow spell."""
    reps, setups = [], []
    while True:
        jobs, setup_s = set_up(args.workload, args.seed, args.tiny, configs)
        setups.append(setup_s)
        reps.append(run_jobs(jobs, configs, outputs))
        measured = sum(rep_seconds(r) for r in reps)
        typical = statistics.median(rep_seconds(r) for r in reps)
        if len(reps) >= MIN_REPS and measured + typical > args.seconds:
            break
    while len(setups) < SETUP_REPEATS:
        setups.append(set_up(args.workload, args.seed, args.tiny, configs)[1])
    return reps, statistics.median(setups)


def measure_traced(jobs, configs: Path, outputs: Path, seconds: float):
    """Alternate untraced and traced repetitions until the next pair
    would overrun `seconds`; at least one of each."""
    start = time.perf_counter()
    plain, traced, tracers = [], [], []
    while True:
        plain.append(run_jobs(jobs, configs, outputs))
        tracer = tracing.Tracer()
        with tracer:
            traced.append(run_jobs(jobs, configs, outputs))
        tracers.append(tracer)
        pair = statistics.median(rep_seconds(p) + rep_seconds(t) for p, t in zip(plain, traced))
        if time.perf_counter() - start + pair > seconds:
            return plain, traced, tracers


def layer_metrics(plain: list, traced: list, tracers: list, summary: dict) -> dict:
    """The per-layer metrics, in the order BENCHMARK.json lists them."""
    counts = tracers[0].counts()
    out = {}

    def self_s(name):
        return statistics.median(t.self_s.get(name, 0.0) for t in tracers)

    for short, names in tracing.MODULE_SPANS.items():
        for name in names:
            span = f"{short}.{name}"
            out[f"{span}.calls"] = metric(counts.get(f"{span}.calls", 0), "count")
            out[f"{span}.self_s"] = metric(self_s(span), "s")
    out["matcore.expm_superop.max_side"] = metric(counts["matcore.expm_superop.max_side"], "count")
    out["entropyflow.polish.calls"] = metric(counts.get("entropyflow.polish.calls", 0), "count")
    out["entropyflow.polish.nfev"] = metric(counts.get("polish.nfev", 0), "count")
    out["entropyflow.polish.self_s"] = metric(self_s("entropyflow.polish"), "s")
    hits, misses = counts.get("propagator.hits", 0), counts.get("propagator.misses", 0)
    out["qms.propagator.hits"] = metric(hits, "count")
    out["qms.propagator.misses"] = metric(misses, "count")
    out["qms.propagator.hit_ratio"] = metric(hits / (hits + misses) if hits + misses else 0.0, "ratio")
    out["qms.propagator.bytes_held"] = metric(
        statistics.median(t.peak_held for t in tracers) / 2**20, "MB"
    )
    for lib, (_, names) in tracing.KERNEL_SPANS.items():
        for name in names:
            span = f"linalg.{lib}.{name}"
            out[f"{span}.calls"] = metric(counts.get(f"{span}.calls", 0), "count")
            out[f"{span}.self_s"] = metric(self_s(span), "s")
    productions = counts.get("entropyflow.entropy_production.calls", 0)
    eigs = sum(counts.get(f"{k}.calls", 0) for k in tracing.EIG_KERNELS)
    out["ratio.eig_per_production"] = metric(eigs / productions if productions else 0.0, "ratio")
    out["trace.overhead_ratio"] = metric(
        statistics.median(rep_seconds(r) for r in traced)
        / statistics.median(rep_seconds(r) for r in plain),
        "ratio",
    )
    for suite, value in summary["suite_s"].items():
        out[f"suite.{suite}_s"] = metric(value, "s")
    out["jobs.ops_failed_ratio"] = metric(summary["ops_failed_ratio"], "ratio")
    out["jobs.beta_rel_err"] = metric(summary["beta_rel_err"], "ratio")
    out["cli.report_hash_checked"] = metric(summary["report_hash_checked"], "count")
    out["cli.report_hash_changed"] = metric(summary["report_hash_changed"], "count")
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny job sizes, for smoke tests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        load_entroflow()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    run_dir = WORK / f"{args.workload}-{args.seed}-trace{args.trace}-{os.getpid()}"
    configs, outputs = run_dir / "configs", run_dir / "out"
    env = environment(args.workload, args.seed)
    print("env " + json.dumps(env, sort_keys=True))
    try:
        if args.trace:
            jobs = workloads.job_list(args.workload, args.seed, args.tiny)
            write_configs(jobs, configs)
            plain, traced, tracers = measure_traced(jobs, configs, outputs, args.seconds)
            reps = plain + traced
            summary = job_summary(plain, args.workload, args.seed)
            metrics = layer_metrics(plain, traced, tracers, summary)
            problems = consistency_problems(reps)
            if any(t.counts() != tracers[0].counts() for t in tracers):
                problems.append("layer counts differ between traced repetitions")
        else:
            reps, setup_s = measure(args, configs, outputs)
            summary = job_summary(reps, args.workload, args.seed)
            problems = consistency_problems(reps)
            metrics = {
                "wall_s": metric(statistics.median(rep_seconds(r) for r in reps), "s"),
                "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
                "setup_s": metric(setup_s, "s"),
            }
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    print_jobs(reps[0])
    for key, unit in (("suite_s", "s"), ("jobs_per_rep", "count"), ("jobs_failed_per_rep", "count"),
                      ("ops_failed_ratio", "ratio"), ("beta_rel_err", "ratio"),
                      ("report_hash_checked", "count"), ("report_hash_changed", "count")):
        print(f"{key} {json.dumps(summary[key], sort_keys=True)} {unit}")
    print(f"repetitions {len(reps)}")
    for p in problems:
        print(f"problem {p}")
    result = {
        "correct": not problems,
        "attempted": sum(len(r) for r in reps),
        "failed": sum(o.error is not None for r in reps for o in r),
        "metrics": metrics,
    }
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    record = {
        "env": env,
        "summary": summary,
        "problems": problems,
        "repetitions": [[asdict(o) for o in rep] for rep in reps],
        "result": result,
    }
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
