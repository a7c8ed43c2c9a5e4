"""The CI workflow runs the Tier-1 suite and the benchmark self-check on
every supported Python, once on the oldest supported numpy, compares
a suite's and a flat-torus integral's report bodies at one and two
processes and a Reeb sweep's at one, two and three, and bounds the peak
RSS of 128^3 sweeps."""

import re
from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"


def test_workflow_runs_tier1_and_selfcheck_on_python_310_and_311():
    workflow = yaml.safe_load(WORKFLOW.read_text(encoding="utf-8"))
    job = workflow["jobs"]["tests"]
    assert job["strategy"]["matrix"]["python-version"] == ["3.10", "3.11"]
    assert any(step.get("with", {}).get("python-version")
               == "${{ matrix.python-version }}" for step in job["steps"])
    runs = [step.get("run", "") for step in job["steps"]]
    assert ("PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} "
            "python -m pytest -q --continue-on-collection-errors") in runs
    assert "python3 perfbench/selfcheck.py" in runs


def test_ci_and_the_test_extra_install_pyyaml():
    """Without PyYAML the workflow check above is skipped."""
    workflow = yaml.safe_load(WORKFLOW.read_text(encoding="utf-8"))
    installs = [step.get("run", "") for step in workflow["jobs"]["tests"]["steps"]
                if "pip install" in step.get("run", "")]
    assert any('"pyyaml' in run for run in installs)
    pyproject = (WORKFLOW.parents[2] / "pyproject.toml").read_text(encoding="utf-8")
    test_extra = re.search(r"^test = \[(.*)\]$", pyproject, re.MULTILINE)
    assert test_extra and '"pyyaml' in test_extra.group(1)


def test_workflow_runs_tier1_on_the_numpy_floor():
    """pyproject.toml declares numpy>=1.24; one leg installs exactly 1.24."""
    workflow = yaml.safe_load(WORKFLOW.read_text(encoding="utf-8"))
    job = workflow["jobs"]["tests"]
    matrix = job["strategy"]["matrix"]
    assert matrix["numpy"] == [">=1.24"]
    assert {"python-version": "3.10", "numpy": "==1.24.*"} in matrix["include"]
    installs = [step["run"] for step in job["steps"] if "pip install" in step.get("run", "")]
    assert any('"numpy${{ matrix.numpy }}"' in run for run in installs)
    pyproject = (WORKFLOW.parents[2] / "pyproject.toml").read_text(encoding="utf-8")
    assert '"numpy>=1.24"' in pyproject


def test_workflow_compares_suite_bodies_across_worker_counts():
    """One step runs builtin:quadrature at --jobs 1 and 2 and fails unless
    the two report bodies are equal."""
    workflow = yaml.safe_load(WORKFLOW.read_text(encoding="utf-8"))
    runs = [step.get("run", "") for step in workflow["jobs"]["tests"]["steps"]]
    step = next(run for run in runs if "builtin:quadrature" in run)
    for jobs in (1, 2):
        assert ("PYTHONPATH=src python -m planefield.cli verify builtin:quadrature "
                f"--jobs {jobs} --output jobs{jobs}.json") in step
    assert "['body']" in step and "sys.exit(a != b)" in step


def test_workflow_compares_reeb_classify_bodies_across_worker_counts():
    """One step emits the Reeb model, classifies it at 48^3 with --jobs 1,
    2 and 3 (seven blocks, the last one partial, so more than one block per
    process and a partial block are merged, and at 3 two children run
    beside the caller) and fails unless the three report bodies are equal."""
    workflow = yaml.safe_load(WORKFLOW.read_text(encoding="utf-8"))
    runs = [step.get("run", "") for step in workflow["jobs"]["tests"]["steps"]]
    step = next(run for run in runs if "model reeb --emit" in run)
    assert "PYTHONPATH=src python -m planefield.cli model reeb --emit reeb.json" in step
    for jobs in (1, 2, 3):
        assert ("PYTHONPATH=src python -m planefield.cli classify reeb.json "
                f"--grid 48,48,48 --jobs {jobs} --output reeb{jobs}.json") in step
    assert "('reeb1.json', 'reeb2.json', 'reeb3.json')" in step
    assert "sys.exit(not a == b == c)" in step


def test_workflow_compares_torus_integral_bodies_across_worker_counts():
    """One step saves the flat-torus model, integrates H of one of its
    distributions at 48^3 with --jobs 1 and 2 (seven blocks, the last one
    partial, so the exact block sums are merged across workers) and fails
    unless the two report bodies are equal."""
    workflow = yaml.safe_load(WORKFLOW.read_text(encoding="utf-8"))
    runs = [step.get("run", "") for step in workflow["jobs"]["tests"]["steps"]]
    step = next(run for run in runs if "integrate-h" in run)
    assert "chartio.save_model(catalog.flat_torus_model(), 'torus.json')" in step
    for jobs in (1, 2):
        assert ("PYTHONPATH=src python -m planefield.cli integrate-h torus.json "
                "--distribution graph-foliation --grid 48,48,48 "
                f"--jobs {jobs} --output torus{jobs}.json") in step
    assert "('torus1.json', 'torus2.json')" in step and "sys.exit(a != b)" in step


def test_workflow_bounds_the_peak_rss_of_128_cubed_sweeps():
    """One step emits the Reeb and the two-pi torus models, runs classify on
    Reeb and a deformation scan on the torus at 128^3, each in a child
    process, and fails if the largest child's peak RSS exceeds 500 MB."""
    workflow = yaml.safe_load(WORKFLOW.read_text(encoding="utf-8"))
    runs = [step.get("run", "") for step in workflow["jobs"]["tests"]["steps"]]
    step = next(run for run in runs if "RUSAGE_CHILDREN" in run)
    assert "PYTHONPATH=src python -m planefield.cli model reeb --emit reeb.json" in step
    assert "chartio.save_model(catalog.two_pi_torus_model(), 'two-pi-torus.json')" in step
    assert '["classify", "reeb.json"]' in step
    assert ('["scan", "two-pi-torus.json", "--alpha", "vertical", "--beta", "winding-contact",'
            in step and '"--s-range", "0:0.5:3"]' in step)
    assert '"--grid", "128,128,128"' in step and "check=True" in step
    assert "ru_maxrss / 1024" in step and "sys.exit(peak_mb > 500)" in step
