"""planefield benchmark: run one workload for a fixed time, check every op,
print every metric.

    python3 perfbench/run.py --workload sweep-reeb --seed 1 --seconds 35 --trace 0

Run from the repository root; the package is imported from ``src/``.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones, measured with no instrumentation:

* ``setup_s``: median over fresh processes of the time from ``import
  planefield`` to the first op (input generation, model emit/load/parse,
  the first schema load);
* ``op_s.p50``: median wall seconds per op;
* ``points_per_s`` and ``checks_per_s``: the workload's points (grid or
  query points) and correctness checks per op, over ``op_s.p50``;
* ``peak_rss_mb``: peak RSS of this process, which runs only the workload.

With ``--trace 1`` ops alternate between untraced and traced (see
``tracing.py``); the metrics are each traced function's self seconds and
calls per traced op, the suite checks' own ``CheckResult.seconds`` and
``trace.overhead``, the traced over the untraced median op time.

Failed ops (an exception, a failed correctness gate, or a report body whose
SHA-256 digest differs from an earlier op on the same input) are counted in
``failed``.  A record with run metadata, op times, digests and failures is
written to ``perfbench/results/``; spans of a traced run go beside it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# One thread per native library, so the only parallelism in a run is the
# workload's own ``jobs`` worker threads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 5
MIN_OPS = 3          # timed untraced ops, whatever --seconds says
PROBE_TIMEOUT_S = 120


def import_program():
    """Import planefield from this checkout's ``src/``, never from elsewhere."""
    package = SRC / "planefield"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no planefield sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import planefield
    if Path(planefield.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported planefield from {planefield.__file__}")
    return planefield


def canonical_digest(body) -> str:
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def make_workload(name: str, work: Path, seed: int, tiny: bool):
    import workloads
    return workloads.WORKLOADS[name](work, seed, tiny=tiny)


def setup_probe(args) -> int:
    """Child process: time import plus workload set-up, print it."""
    start = time.perf_counter()
    import_program()
    with tempfile.TemporaryDirectory(dir=work_root()) as work:
        make_workload(args.workload, Path(work), args.seed, args.tiny)
    print(json.dumps({"setup_s": time.perf_counter() - start}))
    return 0


def work_root() -> Path:
    path = HERE / "work"
    path.mkdir(exist_ok=True)
    return path


def measure_setup(args, probes: int) -> list:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    samples = []
    for _ in range(probes):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, check=False)
        if done.returncode != 0:
            raise SystemExit(f"perfbench: set-up probe failed:\n{done.stderr}")
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


class Runner:
    """Times ops, gates them and tracks body digests per input key."""

    def __init__(self, workload):
        self.workload = workload
        self.k = 0
        self.digests = {}
        self.attempted = 0
        self.failures = []
        self.check_seconds = {}

    def op(self, tracer=None, timed: bool = True) -> float:
        k, self.k = self.k, self.k + 1
        if tracer is not None:
            tracer.install()
        start = time.perf_counter()
        try:
            raw = self.workload.run(k)
        except Exception as err:        # a failing op is counted, never fatal
            raw, problems = None, [f"{type(err).__name__}: {err}"]
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
        self.attempted += 1
        if raw is not None:
            problems = self._check(k, raw, keep_check_times=timed and tracer is None)
        if problems:
            self.failures.append({"op": k, "problems": problems[:5]})
        return elapsed

    def _check(self, k: int, raw, keep_check_times: bool) -> list:
        try:
            key, body, problems = self.workload.check(k, raw)
        except Exception as err:        # e.g. the op wrote no report
            return [f"check raised {type(err).__name__}: {err}"]
        digest = canonical_digest(body)
        if self.digests.setdefault(key, digest) != digest:
            problems.append(f"body digest of {key} changed")
        if keep_check_times:
            for name, seconds in self.workload.check_times(raw).items():
                self.check_seconds.setdefault(name, []).append(seconds)
        return problems


def measure(runner: Runner, seconds: float, tracer=None) -> tuple:
    """Warm up with one op, then run ops until ``seconds`` have passed.
    With a tracer, each untraced op is followed by a traced one."""
    runner.op(timed=False)
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while True:
        plain.append(runner.op())
        if tracer is not None:
            traced.append(runner.op(tracer))
        if len(plain) >= MIN_OPS and time.perf_counter() >= deadline:
            return plain, traced


def end_to_end_metrics(workload, plain: list, setup: list) -> dict:
    op_p50 = statistics.median(plain)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (statistics.median(setup), "s"),
        "op_s.p50": (op_p50, "s"),
        "points_per_s": (workload.points_per_op / op_p50, "points/s"),
        "checks_per_s": (workload.checks_per_op / op_p50, "checks/s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }


def per_layer_metrics(runner: Runner, tracer, plain: list, traced: list) -> dict:
    import tracing
    import workloads
    out = tracing.layer_metrics(tracer, len(traced))
    for name in workloads.suite_check_names():
        samples = runner.check_seconds.get(name)
        out[f"verify.check.{name}.s"] = (statistics.median(samples) if samples else 0.0, "s")
    out["trace.overhead"] = (statistics.median(traced) / statistics.median(plain), "ratio")
    return out


def src_line_count() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted(SRC.rglob("*.py")))


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30, check=False)
    except OSError:
        return None
    return done.stdout.strip() or None


def metadata(args, workload, plain, traced, setup) -> dict:
    import numpy
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "jobs": workload.jobs,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "machine": platform.machine(), "git_sha": git_sha(),
        "src_lines": src_line_count(),
        "samples": {"untraced_ops": len(plain), "traced_ops": len(traced),
                    "setup_probes": len(setup)},
    }


def run(args) -> dict:
    import_program()
    import tracing
    setup = [] if args.trace else measure_setup(args, SETUP_PROBES)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root()))
    try:
        workload = make_workload(args.workload, work, args.seed, args.tiny)
        runner = Runner(workload)
        tracer = tracing.Tracer() if args.trace else None
        plain, traced = measure(runner, args.seconds, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if tracer is None:
        metrics = end_to_end_metrics(workload, plain, setup)
    else:
        metrics = per_layer_metrics(runner, tracer, plain, traced)
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write(results / f"{stem}-spans.json.gz")
    record = {
        "meta": metadata(args, workload, plain, traced, setup),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "op_seconds": {"untraced": plain, "traced": traced},
        "setup_seconds": setup,
        "digests": runner.digests,
        "failures": runner.failures,
    }
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n",
                                          encoding="utf-8")
    failed = len(runner.failures)
    meta = record["meta"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace} jobs={meta['jobs']} "
          f"ops={meta['samples']} src_lines={meta['src_lines']} "
          f"python={meta['python']} numpy={meta['numpy']} nproc={meta['nproc']}",
          file=sys.stderr)
    for key, (value, unit) in metrics.items():
        if not (args.trace and value == 0):
            print(f"#   {key:<48} {value:14.6g} {unit}", file=sys.stderr)
    for failure in runner.failures[:5]:
        print(f"# FAILED op {failure['op']}: {failure['problems']}", file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("sweep-reeb", "integral-torus",
                                                              "suite-small"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="16^3 sweeps, for the harness self-check")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        return setup_probe(args)
    print(json.dumps(run(args)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
