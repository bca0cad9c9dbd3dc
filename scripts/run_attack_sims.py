#!/usr/bin/env python3
"""Run every built-in attack suite and print the full reports.

One signing key is generated and shared across suites, so the run stays fast
while each suite still builds its own zone, trust anchors and policy cache.

Usage: python3 scripts/run_attack_sims.py
"""

import sys
import time

from dstc.dnssec import ZoneKeyPair
from dstc.scenarios import BUILTIN_SUITES, run_builtin_suite


def main() -> int:
    keys = ZoneKeyPair.generate("zsk-1")
    all_passed = True
    for name in BUILTIN_SUITES:
        start = time.perf_counter()
        report = run_builtin_suite(name, keys=keys)
        elapsed = time.perf_counter() - start
        print(report.render())
        print(f"({elapsed * 1000:.0f} ms)")
        print()
        all_passed = all_passed and report.all_passed
    print("all suites passed" if all_passed else "SOME SUITES FAILED")
    return 0 if all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
