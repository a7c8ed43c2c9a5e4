"""Quick self-check of the benchmark harness on 16^3 grids.

    python3 perfbench/selfcheck.py

For every workload it runs ``run.py --tiny --seconds 0`` (warm-up plus the
minimum number of ops) once untraced and twice traced, and checks that

* each run emits exactly the metrics BENCHMARK.json names for its mode,
  each with the declared unit;
* every op passed its correctness gate;
* the count metrics (``*.calls``, ``expr.eval_jet.points``,
  ``geometry.pairwise_sum.values``, ``geometry.chunked_eval.bytes_returned``)
  repeat exactly across the two traced runs;
* the report-body digests agree across all three runs.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 5
COUNT_SUFFIXES = (".calls", ".points", ".values", ".bytes_returned")


def run(workload: str, trace: int) -> tuple:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "0", "--trace", str(trace), "--tiny"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    record = json.loads((HERE / "results" / f"{workload}-seed{SEED}-trace{trace}.json")
                        .read_text(encoding="utf-8"))
    return result, record["digests"]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        plain, plain_digests = run(workload, 0)
        first, first_digests = run(workload, 1)
        second, second_digests = run(workload, 1)
        for trace, result in ((0, plain), (1, first), (1, second)):
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            if emitted != declared[trace]:
                missing = sorted(set(declared[trace]) - set(emitted))
                extra = sorted(set(emitted) - set(declared[trace]))
                wrong = sorted(k for k in emitted.keys() & declared[trace].keys()
                               if emitted[k] != declared[trace][k])
                problems.append(f"{workload} trace={trace}: missing {missing}, "
                                f"undeclared {extra}, wrong unit {wrong}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload} trace={trace}: {result['failed']} failed ops")
        for name, value in first["metrics"].items():
            if name.endswith(COUNT_SUFFIXES) and second["metrics"][name] != value:
                problems.append(f"{workload}: {name} {value['value']} then "
                                f"{second['metrics'][name]['value']}")
        if not plain_digests == first_digests == second_digests:
            problems.append(f"{workload}: body digests differ across runs")
        print(f"{workload}: {len(plain['metrics'])} end-to-end and "
              f"{len(first['metrics'])} per-layer metrics, "
              f"{len(plain_digests)} digested input(s)", file=sys.stderr)
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print("selfcheck " + ("failed" if problems else "passed"), file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
