"""`selftest`: the cross-oracle property battery (module `selftest`)."""
from __future__ import annotations

import sys


OPTIONS = {"selftest": (
    ("--seed", "seed", int, 7, None),
    ("--scale", "scale", ("smoke", "full"), "smoke", None),
)}


def run(stm, args) -> int:
    ok = True
    for name, passed, failures in stm.run_selftest(args.seed, args.scale):
        print(f"{'PASS' if passed else 'FAIL'}  {name}")
        for failure in failures[:5]:
            print(f"      {failure}", file=sys.stderr)
        ok = ok and passed
    print(f"{'OK' if ok else 'FAILED'}  seed={args.seed} scale={args.scale}")
    return 0 if ok else 1
