"""The repository's benchmark: one workload, one seed, one JSON result.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sim-zoo-full --seed 1 --seconds 30 --trace 0

Workloads: ``sim-zoo-full``, ``sim-sharded-wide``, ``service-closed``
(see README.md).  ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
the per-layer metrics of a separate traced run.  Progress and the raw
figures go to standard output first; the last line is the result::

    {"correct": true, "attempted": 147, "failed": 21, "metrics": {...}}

The program is imported from ``src/`` next to this directory; without it
the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

SIM_WORKLOADS = ("sim-zoo-full", "sim-sharded-wide")
WORKLOADS = SIM_WORKLOADS + ("service-closed",)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"benchmark: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    OUT_DIR.mkdir(exist_ok=True)
    if args.workload in SIM_WORKLOADS:
        import simbench

        result = simbench.run(simbench.WORKLOADS[args.workload], args.seed,
                              args.seconds, bool(args.trace), out_dir=OUT_DIR)
    else:
        import servicebench

        result = servicebench.run(args.seed, args.seconds, bool(args.trace),
                                  root=ROOT, out_dir=OUT_DIR)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
