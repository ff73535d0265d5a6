"""tools/cpu_pairs.py, the in-process CPU sampler, on one cheap job."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_one_round_of_one_build_on_the_same_tree():
    jobs = [["build", "configs/lamplighter_p2_n1.json"]]
    tool = ROOT / "tools" / "cpu_pairs.py"
    done = subprocess.run(
        [sys.executable, str(tool), str(ROOT), str(ROOT), "1", json.dumps(jobs)],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    [job] = report["jobs"]
    assert report["rounds"] == 1 and job["argv"] == jobs[0] and job["same_output"]
    for entry in (job, report["total"]):
        assert entry["parent"]["median"] > 0 and entry["change"]["median"] > 0
        assert entry["parent_iqr"] == 0 and entry["won"] in (0, 1)
    # each sample's own peak RSS, where /proc gives one
    peaks = job["peak_mb"]
    assert set(peaks) == {"parent", "change"}
    if Path("/proc/self/status").exists():
        assert all(isinstance(mb, float) and 5 < mb < 1000 for mb in peaks.values())
    else:
        assert peaks == {"parent": None, "change": None}
