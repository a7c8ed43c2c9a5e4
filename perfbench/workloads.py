"""The benchmark's workloads.

Each workload is a closed loop with one caller: the next op starts only
after the previous one returned.  A workload builds its inputs from the
seed in ``__init__`` (that is the set-up the benchmark times), ``run(k)``
is op ``k`` (the timed part) and ``check(k, raw)`` gates the op's output
and returns ``(input key, report body, problems)``.  The body's digest is
compared across ops with the same key.

* ``sweep-reeb``: ``planefield classify`` on the emitted Reeb model at 64^3
  on one thread.  Large per-point arrays: stresses field evaluation,
  curvature assembly, the grid reductions and peak RSS.  The model has no
  random input, so the seed is recorded but changes nothing.
* ``integral-torus``: the mean-curvature integral of a random periodic
  form on the flat torus at 64^3, on two threads.  Trig-heavy forms over an
  all-constant metric; the only workload on the ``jetalg`` divergence route
  and the thread pool.
* ``suite-small``: a suite payload of six builtin suites plus the pointwise
  H = -div(n) check, 200 single-point curvature queries and a chartio
  round trip.  Batches of 1 to a few hundred points, where per-call
  overhead dominates.
"""

from __future__ import annotations

import json
import math

import numpy as np

from planefield import catalog, chartio, cli, distributions, verify
from planefield.expr import smoothstep
from planefield.models import closed_form_B_reeb
from planefield.models.reeb import REEB_F_HI, REEB_F_LO, REEB_G_HI, REEB_G_LO

SWEEP_GRID = (64, 64, 64)
TINY_GRID = (16, 16, 16)
KE_TOL = 1e-8              # classification tolerance of the builtin suites
INTEGRAL_TOL = 1e-6        # integral-vanishes tolerance
DEFECT_TOL = 1e-9          # pointwise-identity tolerance
H_REL_TOL = 1e-9           # closed-form-oracle tolerance, relative to max(1, |H|)


def _grid_arg(grid) -> str:
    return ",".join(str(n) for n in grid)


class Workload:
    """What a workload declares besides ``run`` and ``check``."""

    name: str
    jobs: int = 1
    points_per_op: int      # grid or query points one op evaluates
    checks_per_op: int      # correctness checks one op's gate applies

    def check_times(self, raw) -> dict:
        """Seconds per suite check of op output ``raw``, by check name."""
        return {}


class SweepReeb(Workload):
    name = "sweep-reeb"

    def __init__(self, work, seed: int, tiny: bool = False):
        self.grid = TINY_GRID if tiny else SWEEP_GRID
        self.model_path = work / "reeb.json"
        self.report_path = work / "classify.json"
        if cli.main(["model", "reeb", "--emit", str(self.model_path)]) != 0:
            raise RuntimeError("planefield model reeb failed")
        chartio.load_model(self.model_path)
        self.points_per_op = math.prod(self.grid)
        self.checks_per_op = 1

    def run(self, k: int):
        return cli.main(["classify", str(self.model_path),
                         "--grid", _grid_arg(self.grid),
                         "--jobs", str(self.jobs),
                         "--output", str(self.report_path)])

    def check(self, k: int, code):
        body = json.loads(self.report_path.read_text(encoding="utf-8"))["body"]
        self.report_path.unlink()     # the next op must write its own
        problems = []
        if code != 0:
            problems.append(f"exit code {code}")
        if body["classification"] != "parabolic":
            problems.append(f"classification {body['classification']!r}")
        if body["n_valid"] != body["n_points"] or body["n_points"] != self.points_per_op:
            problems.append(f"n_valid {body['n_valid']} of {body['n_points']}")
        k_e = body["aggregates"]["k_e"]
        max_ke = max(abs(k_e["min"]), abs(k_e["max"]))
        if not max_ke <= KE_TOL:
            problems.append(f"max |K_e| {max_ke!r}")
        return f"reeb@{_grid_arg(self.grid)}", body, problems


class IntegralTorus(Workload):
    name = "integral-torus"
    jobs = 2
    n_forms = 3

    def __init__(self, work, seed: int, tiny: bool = False):
        self.grid = TINY_GRID if tiny else SWEEP_GRID
        path = work / "flat-torus.json"
        chartio.save_model(catalog.flat_torus_model(), path)
        self.metric = chartio.load_model(path).metric
        self.forms = [(seed + i, distributions.Distribution.kernel(
            catalog.random_periodic_form(seed + i))) for i in range(self.n_forms)]
        self.points_per_op = math.prod(self.grid)
        self.checks_per_op = 1

    def run(self, k: int):
        _, dist = self.forms[k % self.n_forms]
        return distributions.integral_mean_curvature(
            self.metric, dist, grid=self.grid, jobs=self.jobs, defect=True)

    def check(self, k: int, res):
        form_seed, _ = self.forms[k % self.n_forms]
        problems = []
        if res["n_points"] != self.points_per_op:
            problems.append(f"n_points {res['n_points']}")
        if not abs(res["integral_h"]) <= INTEGRAL_TOL:
            problems.append(f"integral_h {res['integral_h']!r}")
        if not res["max_pointwise_defect"] <= DEFECT_TOL:
            problems.append(f"max_pointwise_defect {res['max_pointwise_defect']!r}")
        return (f"random_periodic_form({form_seed})@{_grid_arg(self.grid)}",
                res, problems)


SUITES = ("reeb-solid-torus", "metric-path-interface", "open-book-collar",
          "fibration-pullback", "metric-transfer", "contact-deformation")


def suite_payload(seed: int) -> dict:
    """JSON suite spec: the checks of ``SUITES`` plus the pointwise
    H = -div(n) check, with every operation seed shifted by ``seed`` (seed 0
    reproduces the builtin parameters)."""
    checks = [c for name in SUITES for c in verify.builtin_suite(name).checks]
    checks += [c for c in verify.builtin_suite("mean-curvature-divergence").checks
               if c.operation == "h-divergence-pointwise"]
    rows = []
    for c in checks:
        params = json.loads(json.dumps(c.params))    # tuples -> lists
        if "seed" in params:
            params["seed"] += seed
        if "seeds" in params:
            params["seeds"] = [s + 3 * seed for s in params["seeds"]]
        rows.append({"name": c.name, "operation": c.operation, "params": params})
    return {"suite": "suite-small", "checks": rows}


def suite_check_names() -> list:
    return [row["name"] for row in suite_payload(0)["checks"]]


def reeb_closed_form_h(r: np.ndarray) -> np.ndarray:
    """H of the Reeb foliation from the closed-form B in the paper frame
    X = d_phi, Y = (1 - f) d_r - f d_t, whose Gram matrix is
    diag(G, (1 - f)^2 + f^2)."""
    b = closed_form_B_reeb(r)
    s2 = smoothstep(REEB_G_LO, REEB_G_HI, r)
    f = smoothstep(REEB_F_LO, REEB_F_HI, r)
    g_phi = (1.0 - s2) * r ** 2 + s2
    return b[..., 0, 0] / g_phi + b[..., 1, 1] / ((1.0 - f) ** 2 + f ** 2)


class SuiteSmall(Workload):
    name = "suite-small"
    n_queries = 200

    def __init__(self, work, seed: int, tiny: bool = False):
        self.work = work
        self.seed = seed
        self.payload = suite_payload(seed)
        chartio.validate_payload(self.payload, "suite")
        reeb_path, atlas_path = work / "reeb.json", work / "atlas.json"
        for which, path in (("reeb", reeb_path), ("atlas", atlas_path)):
            if cli.main(["model", which, "--emit", str(path)]) != 0:
                raise RuntimeError(f"planefield model {which} failed")
        self.reeb = chartio.load_model(reeb_path)
        self.reeb_payload = chartio.model_payload(self.reeb)
        self.atlas = chartio.load_atlas(atlas_path)
        self.atlas_payload = chartio.atlas_payload(*self.atlas)
        self.dist = self.reeb.distribution()
        self.points = self.reeb.chart.random_points(self.n_queries, seed=seed)
        self.expected_h = reeb_closed_form_h(self.points[0])
        self.points_per_op = self.n_queries
        self.checks_per_op = len(self.payload["checks"]) + self.n_queries

    def run(self, k: int):
        report = verify.run_suite(verify.suite_from_payload(self.payload), jobs=self.jobs)
        metric = self.reeb.metric
        values = []
        for i in range(self.n_queries):
            query = (distributions.mean_curvature if i % 2 == 0
                     else distributions.extrinsic_curvature)
            values.append(query(metric, self.dist, self.points[:, i]))
        model_path, atlas_path = self.work / "rt-reeb.json", self.work / "rt-atlas.json"
        chartio.save_model(self.reeb, model_path)
        model = chartio.load_model(model_path)
        chartio.save_atlas(*self.atlas, atlas_path)
        atlas = chartio.load_atlas(atlas_path)
        return report, values, model, atlas

    def check(self, k: int, raw):
        report, values, model, atlas = raw
        problems = [f"check {r.name} failed" + (f": {r.error}" if r.error else "")
                    for r in report.results if not r.passed]
        if len(report.results) != len(self.payload["checks"]):
            problems.append(f"{len(report.results)} check results")
        for i, value in enumerate(values):
            if i % 2 == 0:
                expected = float(self.expected_h[i])
                if not abs(value - expected) <= H_REL_TOL * max(1.0, abs(expected)):
                    problems.append(f"H {value!r} != closed form {expected!r} at query {i}")
            elif not abs(value) <= KE_TOL:
                problems.append(f"K_e {value!r} at query {i}")
        model_payload, atlas_payload = chartio.model_payload(model), chartio.atlas_payload(*atlas)
        if model_payload != self.reeb_payload:
            problems.append("model round trip changed the payload")
        if atlas_payload != self.atlas_payload:
            problems.append("atlas round trip changed the payload")
        body = {"suite": report.body(), "queries": values,
                "model": model_payload, "atlas": atlas_payload}
        return f"suite-small(seed {self.seed})", body, problems

    def check_times(self, raw) -> dict:
        return {r.name: r.seconds for r in raw[0].results}


WORKLOADS = {w.name: w for w in (SweepReeb, IntegralTorus, SuiteSmall)}
