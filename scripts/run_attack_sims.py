#!/usr/bin/env python3
"""Run every built-in attack suite and print the full reports.

Every suite builds its own zone, trust anchors and policy cache, all signed
under the one fixture key of the process, so the key is generated only once.

Usage: python3 scripts/run_attack_sims.py
"""

import sys
import time

from dstc.scenarios import BUILTIN_SUITES, run_builtin_suite


def main() -> int:
    all_passed = True
    for name in BUILTIN_SUITES:
        start = time.perf_counter()
        report = run_builtin_suite(name)
        elapsed = time.perf_counter() - start
        print(report.render())
        print(f"({elapsed * 1000:.0f} ms)")
        print()
        all_passed = all_passed and report.all_passed
    print("all suites passed" if all_passed else "SOME SUITES FAILED")
    return 0 if all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
