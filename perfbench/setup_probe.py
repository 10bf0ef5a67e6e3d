"""One set-up sample for ``setup_s``: a fresh interpreter imports
``repro`` and runs the workload's warm-up cell.

    python3 perfbench/setup_probe.py WORKLOAD SEED

Prints the warm-up cell's output digest as JSON, so the parent can
check that every process computes the same result.
"""

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (needs the source path above)


def main(workload, seed):
    spec = workloads.warmup_spec(workload, int(seed))
    result = workloads.run_cell(spec, collect_metrics=spec.observe)
    print(json.dumps({"digest": workloads.digest([result])}))


if __name__ == "__main__":
    main(*sys.argv[1:])
