"""Command-line front end.

Subcommands
-----------
check        full curvature report for one plane field on a chart file
classify     aggregates and classification only
verify       run a suite (a JSON spec or ``builtin:<name>``)
model        emit a built-in model (reeb | collar | product | atlas) as JSON
scan         deformation scan alpha + s*beta over a parameter range
integrate-h  quadrature of the mean curvature over a periodic chart
plotdata     CSV of K_e and H along one coordinate line

Exit codes: 0 success, 1 a check/classification failed, 2 usage or config
error.  Reports are written as ``{"body": ..., "timings": ...}``; the body
is byte-identical across reruns and worker counts.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from .chartio import (atlas_payload, dump_json, load_model, save_model,
                      validate_payload)
from .distributions import classify as classify_op
from .distributions import integral_mean_curvature
from .errors import ConfigError, PlanefieldError
from .models import (SurfaceMetric, assemble_open_book_demo, collar_model,
                     contact_deformation_scan, product_fibration,
                     reeb_solid_torus, torus_surface_chart)
from .verify import builtin_suite, builtin_suite_names, run_suite, suite_from_payload

_USAGE_ERROR, _CHECK_FAILURE, _OK = 2, 1, 0
_JOBS_HELP = ("processes that run sweep blocks, this one included "
              "(default: PLANEFIELD_JOBS or 1)")


def _grid(text: str) -> tuple:
    parts = text.replace("x", ",").split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"grid needs 3 counts, got {text!r}")
    counts = tuple(int(p) for p in parts)
    if any(c < 2 for c in counts):
        raise argparse.ArgumentTypeError("grid counts must be >= 2 per axis")
    return counts


def _s_range(text: str) -> list:
    try:
        a, b, n = text.split(":")
        return list(np.linspace(float(a), float(b), int(n)))
    except ValueError as err:
        raise argparse.ArgumentTypeError(
            f"s-range must be a:b:n, got {text!r}") from err


def _jobs(text: str) -> int:
    try:
        jobs = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"jobs must be an integer, got {text!r}") from None
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"jobs must be at least 1, got {jobs}")
    return jobs


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="planefield",
        description="Extrinsic geometry of plane fields on Riemannian 3-manifolds.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, grid_default="16,16,16", tol=False, jobs=True):
        p.add_argument("--grid", type=_grid, default=_grid(grid_default),
                       help="axis counts n1,n2,n3")
        if tol:
            p.add_argument("--tol", type=float, default=1e-8,
                           help="classification tolerance on K_e")
        if jobs:
            p.add_argument("--jobs", type=_jobs, default=None, help=_JOBS_HELP)
        p.add_argument("--output", type=Path, default=None,
                       help="write the JSON report here")

    p = sub.add_parser("check", help="full curvature report")
    p.add_argument("chart", type=Path)
    p.add_argument("--distribution", default=None,
                   help="name of a 1-form in the file")
    common(p, tol=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("classify", help="aggregates and classification only")
    p.add_argument("chart", type=Path)
    p.add_argument("--distribution", default=None)
    common(p, tol=True)

    p = sub.add_parser("verify", help="run a suite")
    p.add_argument("suite", help="file path or builtin:<name>; "
                                 f"builtins: {', '.join(builtin_suite_names())}")
    p.add_argument("--jobs", type=_jobs, default=None, help=_JOBS_HELP)
    p.add_argument("--output", type=Path, default=None)

    p = sub.add_parser("model", help="emit a built-in model")
    p.add_argument("which", choices=("reeb", "collar", "product", "atlas"))
    p.add_argument("--emit", type=Path, required=True)
    p.add_argument("--eps", type=float, default=0.05,
                   help="collar width (collar/atlas)")

    p = sub.add_parser("scan", help="contact deformation scan")
    p.add_argument("chart", type=Path)
    p.add_argument("--alpha", required=True, help="base 1-form name")
    p.add_argument("--beta", required=True, help="deformation 1-form name")
    p.add_argument("--s-range", type=_s_range, required=True,
                   metavar="A:B:N")
    common(p, jobs=False)

    p = sub.add_parser("integrate-h", help="mean-curvature integral")
    p.add_argument("chart", type=Path)
    p.add_argument("--distribution", default=None)
    common(p, grid_default="32,32,32")

    p = sub.add_parser("plotdata", help="CSV of K_e and H along a line")
    p.add_argument("chart", type=Path)
    p.add_argument("--distribution", default=None)
    p.add_argument("--along", required=True, help="coordinate to sweep")
    p.add_argument("--fixed", default=None,
                   help="comma-separated values of the other two coordinates")
    p.add_argument("--n", type=int, default=128)
    p.add_argument("--output", type=Path, default=None)
    return parser


def _emit_report(body: dict, timings: dict, schema: str, output) -> None:
    payload = {"body": body, "timings": timings}
    validate_payload(payload, schema)
    if output is not None:
        dump_json(payload, output)
    else:
        print(json.dumps(payload["body"], indent=2, sort_keys=True))


def _load(path: Path):
    if not path.exists():
        raise ConfigError(f"input file not found: {path}")
    return load_model(path)


def _cmd_check(args, full: bool) -> int:
    csv = full and args.format == "csv"
    if csv and args.output is None:
        raise ConfigError("--format csv requires --output")
    model = _load(args.chart)
    dist = model.distribution(args.distribution)
    start = time.perf_counter()
    rep = classify_op(model.metric, dist, grid=args.grid, tol=args.tol,
                      jobs=args.jobs, keep_points=csv)
    elapsed = time.perf_counter() - start
    body = rep.body()
    body["distribution"] = args.distribution or model.foliation
    if not full:
        body.pop("worst_points")
    if csv:
        rep.write_csv(args.output)
        return _OK if not rep.errors else _CHECK_FAILURE
    _emit_report(body, {"seconds": elapsed}, "report", args.output)
    return _OK if not rep.errors else _CHECK_FAILURE


def _cmd_verify(args) -> int:
    if args.suite.startswith("builtin:"):
        spec = builtin_suite(args.suite.split(":", 1)[1])
    else:
        path = Path(args.suite)
        if not path.exists():
            raise ConfigError(f"input file not found: {path}")
        spec = suite_from_payload(json.loads(path.read_text(encoding="utf-8")))
    report = run_suite(spec, jobs=args.jobs)
    _emit_report(report.body(), report.timings(), "suite-report", args.output)
    if report.vacuous:
        print("suite is empty: vacuously passing", file=sys.stderr)
    for r in report.results:
        status = "PASS" if r.passed else "FAIL"
        print(f"[{status}] {spec.suite}:{r.name}"
              + (f" measured={r.measured:.3e}" if isinstance(r.measured, float)
                 else "")
              + (f" bound={r.bound:.3e}" if isinstance(r.bound, float) else "")
              + (f" error={r.error}" if r.error else ""),
              file=sys.stderr)
    return _OK if report.all_passed else _CHECK_FAILURE


def _cmd_model(args) -> int:
    if args.which == "reeb":
        save_model(reeb_solid_torus(), args.emit)
    elif args.which == "collar":
        save_model(collar_model(args.eps), args.emit)
    elif args.which == "product":
        sm = SurfaceMetric.from_strings(torus_surface_chart(),
                                        ("1 + 0.5*sin(u)^2", "0", "1"))
        save_model(product_fibration(sm), args.emit)
    else:
        models, transitions, _ = assemble_open_book_demo(
            eps=args.eps, classify_grid=(32, 6, 6))
        payload = atlas_payload("annulus-open-book", models, transitions)
        validate_payload(payload, "atlas")
        dump_json(payload, args.emit)
    return _OK


def _cmd_scan(args) -> int:
    model = _load(args.chart)
    alpha = model.form(args.alpha)
    beta = model.form(args.beta)
    start = time.perf_counter()
    rep = contact_deformation_scan(model.metric, alpha, beta, args.s_range,
                                   grid=args.grid,
                                   alpha_name=args.alpha, beta_name=args.beta)
    _emit_report(rep.body(), {"seconds": time.perf_counter() - start},
                 "scan-report", args.output)
    return _OK


def _cmd_integrate_h(args) -> int:
    model = _load(args.chart)
    dist = model.distribution(args.distribution)
    start = time.perf_counter()
    res = integral_mean_curvature(model.metric, dist, grid=args.grid,
                                  jobs=args.jobs)
    res["distribution"] = args.distribution or model.foliation
    _emit_report(res, {"seconds": time.perf_counter() - start},
                 "integrate-report", args.output)
    return _OK


def _cmd_plotdata(args) -> int:
    from .distributions import _point_arrays
    model = _load(args.chart)
    dist = model.distribution(args.distribution)
    chart = model.chart
    axis = chart.axis(args.along)
    others = [i for i in range(3) if i != axis]
    if args.fixed is not None:
        fixed = [float(v) for v in args.fixed.split(",")]
        if len(fixed) != 2:
            raise ConfigError("--fixed needs exactly two values")
    else:
        fixed = [0.5 * (chart.domain[i][0] + chart.domain[i][1])
                 for i in others]
    line, _ = chart.axis_points(axis, args.n, margin=1e-3)
    pts = np.zeros((3, args.n))
    pts[axis] = line
    for i, v in zip(others, fixed):
        pts[i] = v
    arrs = _point_arrays(model.metric, dist, pts)
    k_e, h = arrs["k_e"], arrs["h"]
    lines = [f"{args.along},k_e,h"]
    for j in range(args.n):
        lines.append(f"{float(line[j])!r},{float(k_e[j])!r},{float(h[j])!r}")
    text = "\n".join(lines) + "\n"
    if args.output is not None:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return _OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if "jobs" in vars(args) and args.jobs is None:
        try:
            args.jobs = _jobs(os.environ.get("PLANEFIELD_JOBS", "1"))
        except argparse.ArgumentTypeError as err:
            parser.error(f"PLANEFIELD_JOBS: {err}")
    try:
        if args.command == "check":
            return _cmd_check(args, full=True)
        if args.command == "classify":
            return _cmd_check(args, full=False)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "model":
            return _cmd_model(args)
        if args.command == "scan":
            return _cmd_scan(args)
        if args.command == "integrate-h":
            return _cmd_integrate_h(args)
        if args.command == "plotdata":
            return _cmd_plotdata(args)
        parser.error(f"unknown command {args.command!r}")
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return _USAGE_ERROR
    except PlanefieldError as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return _CHECK_FAILURE
    return _USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
