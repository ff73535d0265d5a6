"""Recorded CLI outputs replayed in-process.

perfbench/goldens.json holds the exit code and stdout sha256 of every job
the benchmark can run.  This replays every job of the three workloads in
process, through `selfsim.cli.main` or the `main` of perfbench/prule.py,
so a change to any printed byte fails here before it fails the
benchmark.  Each job must also print with at most one `sys.stdout.write`:
under PYTHONUNBUFFERED=1 every write is a system call.  The files are only
read.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from selfsim.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDENS = json.loads((ROOT / "perfbench" / "goldens.json").read_text())


def _script_main(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


RUNNERS = {"cli": main, "prule": _script_main("prule")}


def jobs(workload):
    slots = GOLDENS["workloads"][workload]["slots"]
    return list(dict.fromkeys(tuple(job) for slot in slots for job in slot))


JOBS = jobs("cli_short") + jobs("univariate") + jobs("wreath")


@pytest.mark.parametrize("job", JOBS, ids=[" ".join(job[job[0] == "cli" :]) for job in JOBS])
def test_job_matches_golden(job, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    writes = []
    real = sys.stdout.write
    monkeypatch.setattr(sys.stdout, "write", lambda text: writes.append(text) or real(text))
    try:
        code = RUNNERS[job[0]](list(job[1:]))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 1
    out = capsys.readouterr().out
    expected = GOLDENS["expected"][json.dumps(list(job))]
    assert code == expected["exit"]
    assert hashlib.sha256(out.encode()).hexdigest() == expected["sha256"]
    assert len(writes) <= 1


def test_replay_covers_the_workloads():
    assert len(jobs("cli_short")) == 563
    assert len(jobs("univariate")) == 51
    assert len(jobs("wreath")) == 56
