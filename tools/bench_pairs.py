"""Alternating paired benchmark runs of a base revision and this working
tree, summarised per metric.

    python tools/bench_pairs.py --base REV --workload W --pairs N \
        --seconds S --label L

REV's committed files are exported into a temporary directory
(checkout.py).  Both trees must hold the same ``perfbench/`` and
``BENCHMARK.json``, or the tool refuses with exit 1 and runs nothing: a
pair only compares two programs when one benchmark measures both.

Each pair draws one fresh seed, runs the benchmark command of
``BENCHMARK.json`` (``--workload W --seed SEED --seconds S --trace 0``)
in each tree with it, and alternates which tree runs first: pair 0 runs
the base first, pair 1 the working tree, and so on.  Every run's result
line (the last line of its output) is kept with the share of CPU time
the host stole during it, read from ``/proc/stat`` (null where that file
does not exist); nothing on the machine is changed.

``BENCH_<L>.json`` in the repository root holds one entry per workload;
a run replaces its workload's entry and keeps the others.  Per end-to-end
metric and side it gives the median and quartiles, and per pair the ratio
head / base, the number of pairs the working tree won (its value is
better, as ``BENCHMARK.json`` says), and the metric's bound.  Exit status:
0 when every run exited 0 and reported ``correct``, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import secrets
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from checkout import REPO, export, git, resolve

SIDES = ("base", "head")


def bench_files(tree: Path) -> dict:
    """``BENCHMARK.json`` and every file under ``perfbench/``, by path,
    without bytecode caches."""
    paths = [tree / "BENCHMARK.json",
             *sorted((tree / "perfbench").rglob("*"))]
    return {str(path.relative_to(tree)): path.read_bytes() for path in paths
            if path.is_file() and "__pycache__" not in path.parts}


def cpu_times() -> list | None:
    """The aggregate ``cpu`` line of /proc/stat, or None without one."""
    try:
        with open("/proc/stat", encoding="ascii") as stat:
            return [int(field) for field in stat.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def steal_share(before, after) -> float | None:
    """Stolen over total CPU time between two ``cpu_times`` readings."""
    if before is None or after is None or len(after) < 8:
        return None
    total = sum(after) - sum(before)
    return (after[7] - before[7]) / total if total > 0 else None


def run_once(tree: Path, command: list, workload: str, seed: int,
             seconds: float) -> dict:
    """One benchmark run in ``tree``: its exit code, result line, steal."""
    before, started = cpu_times(), time.monotonic()
    done = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, timeout=seconds + 600)
    elapsed, after = time.monotonic() - started, cpu_times()
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
        sys.stderr.write(done.stderr[-2000:])
    return {"exit": done.returncode, "result": result,
            "steal": steal_share(before, after), "elapsed_s": elapsed}


def run_pairs(trees: dict, command: list, workload: str, pairs: int,
              seconds: float) -> list:
    """``pairs`` alternating pairs of runs, one fresh seed per pair."""
    runs = []
    for pair in range(pairs):
        seed = secrets.randbelow(2 ** 31)
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for position, side in enumerate(order):
            run = run_once(trees[side], command, workload, seed, seconds)
            runs.append({"pair": pair, "seed": seed, "side": side,
                         "position": position, **run})
            status = "correct" if run_ok(run) else "NOT CORRECT"
            print(f"pair {pair} seed {seed} {side}: exit {run['exit']}, "
                  f"{status}, {run['elapsed_s']:.1f} s", flush=True)
    return runs


def run_ok(run: dict) -> bool:
    result = run["result"]
    return (run["exit"] == 0 and isinstance(result, dict)
            and result.get("correct") is True and result.get("failed") == 0)


def spread(values: list) -> dict:
    """Median and quartiles (statistics.quantiles' exclusive method)."""
    summary = {"n": len(values),
               "median": statistics.median(values) if values else None}
    if len(values) >= 2:
        summary["q1"], _, summary["q3"] = statistics.quantiles(values, n=4)
    return summary


def summarise(runs: list, declared: list) -> dict:
    """Per declared end-to-end metric: each side's spread, the per-pair
    ratios head / base, the head's wins and the bound."""
    values = {}
    for run in runs:
        metrics = (run["result"] or {}).get("metrics", {})
        for name, entry in metrics.items():
            values.setdefault(name, {}).setdefault(
                run["pair"], {})[run["side"]] = entry["value"]
    summary = {}
    for metric in declared:
        per_pair = values.get(metric["name"], {})
        both = [p for p in sorted(per_pair) if len(per_pair[p]) == 2]
        ratios = [per_pair[p]["head"] / per_pair[p]["base"] for p in both
                  if per_pair[p]["base"]]
        higher = metric["better"] == "higher"
        wins = sum((per_pair[p]["head"] > per_pair[p]["base"]) == higher
                   and per_pair[p]["head"] != per_pair[p]["base"]
                   for p in both)
        summary[metric["name"]] = {
            "unit": metric["unit"], "better": metric["better"],
            "bound": metric["bound"],
            **{side: spread([per_pair[p][side] for p in sorted(per_pair)
                             if side in per_pair[p]]) for side in SIDES},
            "ratios": ratios, "wins": wins, "pairs": len(both)}
    return summary


def write_bench(path: Path, workload: str, entry: dict) -> None:
    """Put ``entry`` under ``workload`` in the JSON file at ``path``."""
    data = (json.loads(path.read_text(encoding="utf-8")) if path.is_file()
            else {"workloads": {}})
    data["workloads"][workload] = entry
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True,
                        help="git revision to compare the working tree with")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--label", required=True,
                        help="the result goes to BENCH_<label>.json")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    base_rev = resolve(args.base, REPO)
    if base_rev is None:
        parser.error(f"not a commit: {args.base}")
    benchmark = json.loads((REPO / "BENCHMARK.json").read_text("utf-8"))

    scratch = Path(tempfile.mkdtemp(prefix="bench_pairs_"))
    try:
        trees = {"base": scratch / "base-tree", "head": REPO}
        export(base_rev, trees["base"], REPO)
        base_files, head_files = (bench_files(trees[side]) for side in SIDES)
        differing = sorted(name for name in set(base_files) | set(head_files)
                           if base_files.get(name) != head_files.get(name))
        if differing:
            print(f"refused: the benchmark differs between {base_rev} and "
                  f"the working tree in {', '.join(differing)}",
                  file=sys.stderr)
            return 1
        print(f"base {base_rev} against the working tree {REPO}: "
              f"{args.pairs} pairs of {args.workload} at {args.seconds:g} s",
              flush=True)
        runs = run_pairs(trees, benchmark["command"], args.workload,
                         args.pairs, args.seconds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    head = git("rev-parse", "HEAD", repo=REPO)
    dirty = bool(git("status", "--porcelain", repo=REPO))
    entry = {
        "base": base_rev, "head": {"sha": head, "dirty": dirty},
        "pairs": args.pairs, "seconds": args.seconds,
        "environment": {"python": platform.python_version(),
                        "machine": platform.machine(),
                        "nproc": os.cpu_count()},
        "correct": all(run_ok(run) for run in runs),
        "metrics": summarise(runs, benchmark["end_to_end"]),
        "runs": runs,
    }
    out = REPO / f"BENCH_{args.label}.json"
    write_bench(out, args.workload, entry)
    for name, metric in entry["metrics"].items():
        base, new = metric["base"]["median"], metric["head"]["median"]
        if base is not None and new is not None:
            print(f"{name}: base {base:.6g}, head {new:.6g} {metric['unit']}, "
                  f"head better in {metric['wins']} of {metric['pairs']}")
    print(f"wrote {out}; every run correct: {entry['correct']}")
    return 0 if entry["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
