"""Benchmark entry point; see perfbench/README.md.

    python3 perfbench/run.py --workload walk-ladder --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1   # every workload, both kinds of run

The last line of output is one JSON object: correct, attempted, failed and
the metrics.  Run it from the root of a paracount checkout.
"""
import sys
from pathlib import Path

if __name__ == "__main__":
    src = Path(__file__).resolve().parent.parent / "src"
    if not (src / "paracount" / "cli.py").is_file():
        sys.exit(f"perfbench: {src}/paracount not found; run from a paracount checkout")
    sys.path.insert(0, str(src))
    import bench

    sys.exit(bench.main(sys.argv[1:]))
