"""The scripts README documents run from a plain checkout: no install and no
PYTHONPATH, from any working directory."""

import os
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run(cwd, script, *args):
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    return subprocess.run([sys.executable, str(SCRIPTS / script), *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def test_the_attack_suites_script_runs_from_a_plain_checkout(tmp_path):
    done = _run(tmp_path, "run_attack_sims.py")
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "all suites passed"


def test_the_survey_corpus_script_runs_from_a_plain_checkout(tmp_path):
    done = _run(tmp_path, "make_survey_corpus.py", "corpus.txt")
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("wrote 7080 profiles to corpus.txt ")
    assert (tmp_path / "corpus.txt").is_file()
