"""Closed-loop benchmark of the specent CLI.

Usage, from the repository root:

    python3 perfbench/run.py --workload null-baseline --seed 1 --seconds 28 --trace 0

One client sends the workload's jobs one after another, each through
``specent.cli.main(argv)`` in this process with the default ``--threads``.
Every output is checked against an independent reference outside the timed
region; a job fails if it raises, exits non-zero or fails its check, and the
run goes on.  With ``--trace 0`` the last stdout line holds the end-to-end
metrics; with ``--trace 1`` every job cycle runs untraced and then traced,
and the traced pass gives the per-layer metrics.  The line before it is a report with the
environment, the generated job parameters, per-job times and any failures.
The exit code is 0 only if every check passed.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 7


def _parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="import specent, build the first job cycle and exit")
    return parser.parse_args(argv)


def _import_specent():
    """specent from this checkout's src/, never from an installed copy."""
    if not (SRC / "specent" / "__init__.py").is_file():
        sys.exit(f"perfbench: no specent sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import specent.cli
    if Path(specent.__file__).resolve().parent != SRC / "specent":
        sys.exit(f"perfbench: imported specent from {specent.__file__}, not {SRC}")
    return specent


def environment(specent) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "specent": specent.__version__,
        "openblas_config": blas.get("openblas configuration", blas.get("name", "unknown")),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


class SetupProbes:
    """Wall times of fresh processes that import specent and build the job list.

    Probe ``k`` of ``SETUP_PROBES`` runs between job cycles once the run is
    ``k / SETUP_PROBES`` done.  The host's speed drifts over tens of seconds,
    while probes taken back to back agree within a few per cent, so spreading
    them gives their median the same host conditions as the jobs.
    """

    def __init__(self, workload: str, seed: int):
        self.argv = [sys.executable, str(HERE / "run.py"), "--setup-probe",
                     "--workload", workload, "--seed", str(seed)]
        self.times = []

    def run_due(self, done: float) -> None:
        while len(self.times) < SETUP_PROBES and len(self.times) <= done * SETUP_PROBES:
            t0 = perf_counter()
            subprocess.run(self.argv, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
            self.times.append(perf_counter() - t0)

    def median(self) -> float:
        self.run_due(1.0)
        return statistics.median(self.times)


@dataclass
class Record:
    job: object
    seconds: float
    problems: list
    bytes_written: int


class Runner:
    """Runs jobs through ``specent.cli.main`` and checks each output."""

    def __init__(self, cli, workload, out_dir: Path):
        self.cli = cli
        self.workload = workload
        self.out = out_dir / "job.json"

    def invoke(self, argv) -> tuple[float, object, str]:
        """Time one ``main(argv)`` call; returns seconds, exit code and stderr."""
        self.out.unlink(missing_ok=True)
        stderr = io.StringIO()
        t0 = perf_counter()
        try:
            with redirect_stdout(io.StringIO()), redirect_stderr(stderr):
                code = self.cli.main([*argv, "--out", str(self.out)])
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a failed job is counted and the run goes on
            code = f"{type(exc).__name__}: {exc}"
        return perf_counter() - t0, code, stderr.getvalue().strip()[-300:]

    def run(self, job) -> Record:
        seconds, code, stderr = self.invoke(job.argv)
        if code != 0:
            return Record(job, seconds, [f"exit {code}: {stderr}"], 0)
        try:
            size = self.out.stat().st_size
            result = json.loads(self.out.read_text("utf-8"))["result"]
            problems = self.workload.check(job, result)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            size, problems = 0, [f"unreadable output: {type(exc).__name__}: {exc}"]
        return Record(job, seconds, problems, size)


def run_cycles(workload, seed, runner, budget, tracer=None, probes=None) -> tuple[list, list]:
    """Whole job cycles, as many as bring the job time closest to ``budget`` seconds.

    With a tracer, each cycle runs untraced and then again traced, so both
    passes over a cycle see the same host conditions.  Set-up probes due by
    the time a cycle starts run before it, outside the job times.
    """
    plain, traced = [], []
    busy = 0.0
    c = 0
    while c == 0 or busy + busy / c / 2 < budget:
        if probes is not None:
            probes.run_due(busy / budget)
        jobs = workload.cycle(seed, c)
        plain += [runner.run(job) for job in jobs]
        if tracer is not None:
            tracer.install()
            try:
                for job in jobs:
                    tracer.job += 1
                    traced.append(runner.run(job))
            finally:
                tracer.uninstall()
        busy = sum(r.seconds for r in plain + traced)
        c += 1
    return plain, traced


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def end_to_end(records, setup_s) -> dict:
    busy = sum(r.seconds for r in records)
    return {
        "setup_s": _metric(setup_s, "s"),
        "items_per_s": _metric(sum(r.job.items for r in records) / busy, "1/s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    specent = _import_specent()
    from workloads import WORKLOADS

    if args.workload == "all":
        codes = [subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", name,
                                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                                 "--trace", str(args.trace)], cwd=ROOT).returncode
                 for name in WORKLOADS]
        return max(codes)
    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from all, {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        workload.cycle(args.seed, 0)
        return 0

    import reference
    import tracing

    run_dir = OUT / f"run-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(specent)}
    try:
        runner = Runner(specent.cli, workload, run_dir)
        _, code, stderr = runner.invoke(workload.warmup)
        report["warmup"] = {"argv": workload.warmup, "exit": code, "stderr": stderr}
        if args.trace == 0:
            probes = SetupProbes(args.workload, args.seed)
            records, _ = run_cycles(workload, args.seed, runner, args.seconds, probes=probes)
            metrics = end_to_end(records, probes.median())
            report["setup_probes_s"] = probes.times
        else:
            tracer = tracing.Tracer()
            plain, traced = run_cycles(workload, args.seed, runner, args.seconds, tracer)
            overhead = sum(r.seconds for r in traced) / sum(r.seconds for r in plain)
            own = tracing.self_times(tracer.spans)
            metrics = tracing.layer_metrics(tracer.spans, own, len(traced),
                                            sum(r.bytes_written for r in traced), overhead)
            report["picture"] = tracing.picture(tracer.spans, own)
            tracer.write(OUT / f"trace-{args.workload}.jsonl")
            records = plain + traced
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    golden_problems = reference.check_goldens(ROOT / "tests" / "golden")
    failed = [r for r in records if r.problems]
    report.update({
        "reference_vs_goldens": golden_problems or "ok",
        "attempted": len(records),
        "failed": len(failed),
        "error_rate": len(failed) / len(records),
        "failures": [{"params": r.job.params, "problems": r.problems} for r in failed[:20]],
        "jobs": [{"params": r.job.params, "s": round(r.seconds, 6), "ok": not r.problems}
                 for r in records],
    })
    correct = not failed and not golden_problems
    print(json.dumps({"report": report}))
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": len(records), "failed": len(failed),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
