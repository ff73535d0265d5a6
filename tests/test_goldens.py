"""Recorded CLI outputs replayed in-process.

perfbench/goldens.json holds the exit code and stdout sha256 of every job
the benchmark can run.  This replays `selfsim.cli.main` on every CLI job
of the `cli_short` and `wreath` workloads and on the shipped-config Borel
portrait and automaton jobs of `univariate`, so a change to any printed
byte fails here before it fails the benchmark.  The file is only read.
"""

import hashlib
import json
from pathlib import Path

import pytest

from selfsim.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDENS = json.loads((ROOT / "perfbench" / "goldens.json").read_text())


def jobs(workload, keep=lambda job: True):
    slots = GOLDENS["workloads"][workload]["slots"]
    found = [job for slot in slots for job in slot if job[0] == "cli" and keep(job)]
    return list(dict.fromkeys(map(tuple, found)))


def borel_shipped(job):
    return job[1] in ("decompose", "automaton") and job[2].startswith("configs/borel")


JOBS = jobs("cli_short") + jobs("univariate", borel_shipped) + jobs("wreath")


@pytest.mark.parametrize("job", JOBS, ids=[" ".join(job[1:]) for job in JOBS])
def test_job_matches_golden(job, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    try:
        code = main(list(job[1:]))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 1
    out = capsys.readouterr().out
    expected = GOLDENS["expected"][json.dumps(list(job))]
    assert code == expected["exit"]
    assert hashlib.sha256(out.encode()).hexdigest() == expected["sha256"]


def test_replay_covers_the_workloads():
    assert len(jobs("cli_short")) == 563
    assert len(jobs("univariate", borel_shipped)) == 14
    assert len(jobs("wreath")) == 56
