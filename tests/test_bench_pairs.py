"""tools/bench_pairs.py on a throwaway repository with a stub benchmark.

The stub ``perfbench/run.py`` reads its speed from ``src/speed.txt``,
logs each run's speed and seed, and prints a result line in the real
benchmark's form, so a run takes no time.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import bench_pairs  # noqa: E402

STUB_RUN = '''
import argparse, json, os, pathlib
parser = argparse.ArgumentParser()
for flag in ("--workload", "--seed", "--seconds", "--trace"):
    parser.add_argument(flag)
args = parser.parse_args()
speed = float(pathlib.Path("src/speed.txt").read_text())
with open(os.environ["STUB_LOG"], "a") as log:
    log.write(f"{speed:g} {args.seed} {args.workload}\\n")
metrics = {"wall_s": {"value": 100.0 / speed, "unit": "s"},
           "setup_s": {"value": 0.1, "unit": "s"},
           "train_rows_per_s": {"value": speed, "unit": "rows/s"},
           "peak_rss_mb": {"value": 50.0, "unit": "MB"}}
print("details")
print(json.dumps({"correct": True, "attempted": 3, "failed": 0,
                  "metrics": metrics}))
'''


def git(repo, *args):
    subprocess.run(["git", "-C", str(repo), "-c", "user.name=t",
                    "-c", "user.email=t@example.com", *args], check=True,
                   capture_output=True)


@pytest.fixture
def stub_repo(tmp_path, monkeypatch):
    """A committed repository whose working tree runs 1.5x as fast."""
    repo = tmp_path / "repo"
    (repo / "perfbench").mkdir(parents=True)
    (repo / "src").mkdir()
    (repo / "perfbench" / "run.py").write_text(STUB_RUN)
    declared = json.loads((Path(bench_pairs.REPO) / "BENCHMARK.json")
                          .read_text())
    declared["command"] = [sys.executable, "perfbench/run.py"]
    (repo / "BENCHMARK.json").write_text(json.dumps(declared))
    (repo / "src" / "speed.txt").write_text("100")
    git(repo, "init", "-q")
    git(repo, "add", "-A")
    git(repo, "commit", "-q", "-m", "stub")
    (repo / "src" / "speed.txt").write_text("150")
    monkeypatch.setattr(bench_pairs, "REPO", repo)
    monkeypatch.setenv("STUB_LOG", str(tmp_path / "runs.log"))
    return repo


def log_lines(stub_repo):
    log = stub_repo.parent / "runs.log"
    return log.read_text().split("\n")[:-1] if log.is_file() else []


@pytest.mark.parametrize("changed", ["perfbench/run.py", "BENCHMARK.json",
                                     "perfbench/extra.py"])
def test_a_benchmark_that_differs_is_refused(stub_repo, changed):
    path = stub_repo / changed
    path.write_text((path.read_text() if path.is_file() else "") + "\n")
    assert bench_pairs.main(["--base", "HEAD", "--workload", "w",
                             "--pairs", "2", "--seconds", "1",
                             "--label", "t"]) == 1
    assert log_lines(stub_repo) == []
    assert not (stub_repo / "BENCH_t.json").exists()


def test_pairs_alternate_and_share_one_seed(stub_repo):
    assert bench_pairs.main(["--base", "HEAD", "--workload", "w",
                             "--pairs", "4", "--seconds", "1",
                             "--label", "t"]) == 0
    runs = [line.split() for line in log_lines(stub_repo)]
    assert [speed for speed, _, _ in runs] == [
        "100", "150", "150", "100", "100", "150", "150", "100"]
    seeds = [seed for _, seed, _ in runs]
    assert seeds[0::2] == seeds[1::2]
    assert {workload for _, _, workload in runs} == {"w"}

    written = json.loads((stub_repo / "BENCH_t.json").read_text())
    entry = written["workloads"]["w"]
    assert entry["correct"] is True and entry["pairs"] == 4
    assert entry["head"]["dirty"] is True
    assert [(r["pair"], r["side"], r["position"]) for r in entry["runs"]][:4] \
        == [(0, "base", 0), (0, "head", 1), (1, "head", 0), (1, "base", 1)]
    for run in entry["runs"]:
        assert run["result"]["correct"] is True and run["exit"] == 0
        assert "steal" in run
    declared = json.loads((stub_repo / "BENCHMARK.json").read_text())
    assert set(entry["metrics"]) == {m["name"] for m in declared["end_to_end"]}
    rows = entry["metrics"]["train_rows_per_s"]
    assert rows["ratios"] == [1.5] * 4
    assert rows["wins"] == 4 and rows["pairs"] == 4
    assert rows["bound"] == 0.25 and rows["better"] == "higher"
    assert rows["base"]["median"] == 100.0 and rows["head"]["median"] == 150.0
    assert {"q1", "q3", "n"} <= set(rows["base"])
    wall = entry["metrics"]["wall_s"]
    assert wall["wins"] == 4     # lower is better
    assert entry["metrics"]["setup_s"]["wins"] == 0   # a tie is no win


def test_a_second_workload_joins_the_same_file(stub_repo):
    for workload in ("w", "v"):
        assert bench_pairs.main(["--base", "HEAD", "--workload", workload,
                                 "--pairs", "1", "--seconds", "1",
                                 "--label", "t"]) == 0
    written = json.loads((stub_repo / "BENCH_t.json").read_text())
    assert sorted(written["workloads"]) == ["v", "w"]
