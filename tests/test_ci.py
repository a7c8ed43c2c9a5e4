"""The CI workflow runs the Tier-1 suite and the benchmark self-check on
every supported Python, once on the oldest supported numpy, compares
every builtin suite's report bodies at one and two processes and, at one,
two and three, the classify bodies of the Reeb model and of two random
forms that read every axis and the flat-torus integrals of the graph
foliation and of those forms, at 48^3 and on row-slab blocks, compares the
per-point CSVs of the Reeb model and of the flat torus's graph foliation
at one and two processes and a Reeb CSV at 48^3 at one, two and three,
and checks the 32^3 CSVs for -0.0, bounds the peak RSS of
128^3 sweeps, one of them over every grid point, and checks that valid
inputs never import jsonschema."""

import re
from pathlib import Path

import pytest

from planefield.verify import builtin_suite_names

yaml = pytest.importorskip("yaml")

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"
# saves the flat torus with a random form that reads every axis
_SAVE_RANDOM_TORUS = ("m = catalog.flat_torus_model(); m.forms['random'] = "
                      "catalog.random_periodic_form(0); "
                      "chartio.save_model(m, 'torus-random.json')")
# the same with random_periodic_form(5), whose blocks at 48^3 and 5x200x100
# include blocks whose points pick two kernel planes
_SAVE_RANDOM5_TORUS = ("m = catalog.flat_torus_model(); m.forms['random'] = "
                       "catalog.random_periodic_form(5); "
                       "chartio.save_model(m, 'torus-random5.json')")


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
    """One step loops over every builtin suite, runs it at --jobs 1 and 2
    and fails unless the two report bodies are equal."""
    workflow = yaml.safe_load(WORKFLOW.read_text(encoding="utf-8"))
    runs = [step.get("run", "") for step in workflow["jobs"]["tests"]["steps"]]
    step = next(run for run in runs if "builtin:$suite" in run)
    loop = re.search(r"^for suite in (.*); do$", step, re.MULTILINE)
    assert loop and sorted(loop.group(1).split()) == builtin_suite_names()
    for jobs in (1, 2):
        assert ('PYTHONPATH=src python -m planefield.cli verify "builtin:$suite" '
                f"--jobs {jobs} --output jobs{jobs}.json") in step
    assert "['body']" in step and "sys.exit(a != b)" in step


def test_workflow_compares_reeb_classify_bodies_across_worker_counts():
    """One step emits the Reeb model and the flat torus with
    ``random_periodic_form(0)`` and with ``random_periodic_form(5)``,
    classifies all three at 48^3 with --jobs 1, 2 and 3 and fails unless
    the three report bodies of each are equal.  The Reeb fields read r
    alone, so its sweep is one block of 48 points; the random forms read
    every axis, so their sweeps have seven blocks, the last one partial:
    more than one block per process and a partial block are merged, and at
    3 two children run beside the caller.  Two of form 5's blocks pick two
    kernel planes; none of form 0's does."""
    workflow = yaml.safe_load(WORKFLOW.read_text(encoding="utf-8"))
    runs = [step.get("run", "") for step in workflow["jobs"]["tests"]["steps"]]
    step = next(run for run in runs if "model reeb --emit" in run)
    assert "PYTHONPATH=src python -m planefield.cli model reeb --emit reeb.json" in step
    assert _SAVE_RANDOM_TORUS in step
    for jobs in (1, 2, 3):
        assert ("PYTHONPATH=src python -m planefield.cli classify reeb.json "
                f"--grid 48,48,48 --jobs {jobs} --output reeb{jobs}.json") in step
        assert ("PYTHONPATH=src python -m planefield.cli classify torus-random.json "
                f"--distribution random --grid 48,48,48 --jobs {jobs} "
                f"--output random{jobs}.json") in step
        assert ("PYTHONPATH=src python -m planefield.cli classify torus-random5.json "
                f"--distribution random --grid 48,48,48 --jobs {jobs} "
                f"--output random5-{jobs}.json") in step
    assert _SAVE_RANDOM5_TORUS in step
    assert "('reeb1.json', 'reeb2.json', 'reeb3.json')" in step
    assert "('random1.json', 'random2.json', 'random3.json')" in step
    assert "('random5-1.json', 'random5-2.json', 'random5-3.json')" in step
    assert step.count("sys.exit(not a == b == c)") == 3


def test_workflow_compares_reeb_csv_across_worker_counts():
    """One step writes the per-point CSVs at 32^3 (two blocks) of the Reeb
    model and of the flat torus's graph foliation, where most zeros fold,
    with --jobs 1 and 2, and the Reeb CSV at 48^3 (seven blocks, the last
    one partial) with --jobs 1, 2 and 3, fails unless the CSVs of each
    model and grid are byte-identical, and fails if any field of the 32^3
    CSVs reads -0.0."""
    workflow = yaml.safe_load(WORKFLOW.read_text(encoding="utf-8"))
    runs = [step.get("run", "") for step in workflow["jobs"]["tests"]["steps"]]
    step = next(run for run in runs if "--format csv" in run)
    assert "PYTHONPATH=src python -m planefield.cli model reeb --emit reeb.json" in step
    assert "chartio.save_model(catalog.flat_torus_model(), 'torus.json')" in step
    for jobs in (1, 2):
        assert ("PYTHONPATH=src python -m planefield.cli check reeb.json --grid 32,32,32 "
                f"--format csv --jobs {jobs} --output points{jobs}.csv") in step
        assert ("PYTHONPATH=src python -m planefield.cli check torus.json "
                "--distribution graph-foliation --grid 32,32,32 "
                f"--format csv --jobs {jobs} --output torus-points{jobs}.csv") in step
    assert "cmp points1.csv points2.csv" in step
    assert "cmp torus-points1.csv torus-points2.csv" in step
    for jobs in (1, 2, 3):
        assert ("PYTHONPATH=src python -m planefield.cli check reeb.json --grid 48,48,48 "
                f"--format csv --jobs {jobs} --output reeb48-{jobs}.csv") in step
    assert "cmp reeb48-1.csv reeb48-2.csv" in step and "cmp reeb48-1.csv reeb48-3.csv" in step
    assert "('points1.csv', 'torus-points1.csv')" in step
    assert "sys.exit('-0.0' in fields)" in step


def test_workflow_compares_torus_integral_bodies_across_worker_counts():
    """One step saves the flat-torus model and the flat torus with
    ``random_periodic_form(0)`` and with ``random_periodic_form(5)``,
    integrates H of the graph foliation and of the random forms at 48^3
    with --jobs 1, 2 and 3 and fails unless the three report bodies of each
    are equal.  The graph foliation reads x and y, so its sweep is one block
    of 48^2 points; the random forms read every axis, so their sweeps have
    seven blocks, the last one partial, in uneven strides over three
    processes, and the exact block sums are merged across workers."""
    workflow = yaml.safe_load(WORKFLOW.read_text(encoding="utf-8"))
    runs = [step.get("run", "") for step in workflow["jobs"]["tests"]["steps"]]
    step = next(run for run in runs if "integrate-h" in run)
    assert "chartio.save_model(catalog.flat_torus_model(), 'torus.json')" in step
    assert _SAVE_RANDOM_TORUS in step
    for jobs in (1, 2, 3):
        assert ("PYTHONPATH=src python -m planefield.cli integrate-h torus.json "
                "--distribution graph-foliation --grid 48,48,48 "
                f"--jobs {jobs} --output torus{jobs}.json") in step
        assert ("PYTHONPATH=src python -m planefield.cli integrate-h torus-random.json "
                "--distribution random --grid 48,48,48 "
                f"--jobs {jobs} --output torus-random{jobs}.json") in step
        assert ("PYTHONPATH=src python -m planefield.cli integrate-h torus-random5.json "
                "--distribution random --grid 48,48,48 "
                f"--jobs {jobs} --output torus-random5-{jobs}.json") in step
    assert _SAVE_RANDOM5_TORUS in step
    assert "('torus1.json', 'torus2.json', 'torus3.json')" in step
    assert "('torus-random1.json', 'torus-random2.json', 'torus-random3.json')" in step
    assert "('torus-random5-1.json', 'torus-random5-2.json', 'torus-random5-3.json')" in step
    assert step.count("sys.exit(not a == b == c)") == 3


def test_workflow_compares_row_slab_bodies_across_worker_counts():
    """One step saves the flat torus with ``random_periodic_form(0)`` and
    with ``random_periodic_form(5)``, classifies both and integrates H of
    both at 5x200x100, where each block is a slab of rows, with --jobs 1, 2
    and 3, and fails unless the three report bodies of each run are equal."""
    workflow = yaml.safe_load(WORKFLOW.read_text(encoding="utf-8"))
    runs = [step.get("run", "") for step in workflow["jobs"]["tests"]["steps"]]
    step = next(run for run in runs if "--grid 5,200,100" in run)
    assert _SAVE_RANDOM_TORUS in step and _SAVE_RANDOM5_TORUS in step
    assert "for jobs in 1 2 3; do" in step
    for model, prefix in (("torus-random.json", "slab"), ("torus-random5.json", "slab5")):
        for op, name in (("classify", "classify"), ("integrate-h", "integral")):
            assert (f"PYTHONPATH=src python -m planefield.cli {op} {model} "
                    "--distribution random --grid 5,200,100 --jobs $jobs "
                    f"--output {prefix}-{name}$jobs.json") in step
    assert ("load(f'{s}-{k}1.json') == load(f'{s}-{k}2.json') == load(f'{s}-{k}3.json') "
            "for s in ('slab', 'slab5') for k in ('classify', 'integral')") in step


def test_workflow_bounds_the_peak_rss_of_128_cubed_sweeps():
    """One step emits the Reeb model, the flat torus with
    ``random_periodic_form(0)`` and the two-pi torus, runs classify on Reeb
    and on the random form (which reads every axis, so its sweep holds all
    128^3 points) and a deformation scan on the two-pi torus at 128^3, each
    in a child process, and fails if the largest child's peak RSS exceeds
    500 MB."""
    workflow = yaml.safe_load(WORKFLOW.read_text(encoding="utf-8"))
    runs = [step.get("run", "") for step in workflow["jobs"]["tests"]["steps"]]
    step = next(run for run in runs if "RUSAGE_CHILDREN" in run)
    assert "PYTHONPATH=src python -m planefield.cli model reeb --emit reeb.json" in step
    assert _SAVE_RANDOM_TORUS in step
    assert "chartio.save_model(catalog.two_pi_torus_model(), 'two-pi-torus.json')" in step
    assert '["classify", "reeb.json"]' in step
    assert '["classify", "torus-random.json", "--distribution", "random"]' in step
    assert ('["scan", "two-pi-torus.json", "--alpha", "vertical", "--beta", "winding-contact",'
            in step and '"--s-range", "0:0.5:3"]' in step)
    assert '"--grid", "128,128,128"' in step and "check=True" in step
    assert "ru_maxrss / 1024" in step and "sys.exit(peak_mb > 500)" in step


def test_workflow_fails_if_valid_inputs_import_jsonschema():
    """One step emits the Reeb model, classifies it at 16^3 and runs the
    open-book-collar suite through cli.main in one interpreter, then fails
    if jsonschema was imported."""
    workflow = yaml.safe_load(WORKFLOW.read_text(encoding="utf-8"))
    runs = [step.get("run", "") for step in workflow["jobs"]["tests"]["steps"]]
    step = next(run for run in runs if '"jsonschema" in sys.modules' in run)
    assert "from planefield.cli import main" in step
    assert 'main(["model", "reeb", "--emit", "reeb.json"])' in step
    assert ('main(["classify", "reeb.json", "--grid", "16,16,16", '
            '"--output", "reeb16.json"])') in step
    assert 'main(["verify", "builtin:open-book-collar"])' in step
    assert 'sys.exit("jsonschema" in sys.modules)' in step
