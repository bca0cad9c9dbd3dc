#!/usr/bin/env python3
"""Generate the paper's 7080-profile survey corpus and summarise it.

The generator places exact population counts for every figure the paper's
survey reports, so running the survey over the emitted file demonstrates
that the statistics pipeline recovers its ground truth.

Usage: python3 scripts/make_survey_corpus.py [output-path]
"""

import sys
import time
from pathlib import Path

# The checkout's own sources come first, so no install or PYTHONPATH is needed.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dstc.survey import generate_corpus, render_corpus, render_report_text, survey


def main() -> int:
    out_path = sys.argv[1] if len(sys.argv) > 1 else "survey_corpus.txt"
    start = time.perf_counter()
    profiles = generate_corpus()
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(render_corpus(profiles))
    report = survey(profiles)
    elapsed = time.perf_counter() - start
    print(f"wrote {len(profiles)} profiles to {out_path} in {elapsed:.2f}s")
    print()
    print(render_report_text(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
