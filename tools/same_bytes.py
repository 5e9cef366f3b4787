"""Run one fixed matrix of softstep commands on a base revision and on this
working tree, and report every output that differs.

    python tools/same_bytes.py --base REV [--expect-diff NAME ...]

REV's committed files are exported into a temporary directory outside
the repository (checkout.py), which is removed afterwards.  Each case of
MATRIX runs its commands in an empty directory of its own, once under each
tree's ``src``, with BLAS on one thread.  Compared per case: each
command's stdout, its stderr with durations masked, its exit code, and
every file the case leaves behind, with ``duration_seconds`` masked in
JSON files.

A case that is meant to differ is named with ``--expect-diff``; its
differences are printed but do not fail the run, and an expected case
that turns out equal does.  Exit status: 0 when no unexpected difference
was found, 1 otherwise.  The matrix is never edited to hide a difference.
"""

from __future__ import annotations

import argparse
import difflib
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from checkout import REPO, export, git, resolve

TOY = "blobs:n_per_class=60,sigma=8"
FAST = ["--epochs", "3", "--window", "3", "--batch-size", "32"]
# the benchmark's imbalanced blobs and its CSV shape, at small sizes
IMBALANCED = "blobs:sigma=8,keep=0.03"
CSV_NAME = "data.csv"
CSV_ROWS = 10_000
CSV = ["--dataset", CSV_NAME, "--label-column", "label",
       "--positive-value", "pos"]


def _command_cases():
    """Every command at seeds 0 and 3, as tsv into --out and json to stdout."""
    per_command = {
        "train": [["train", "--dataset", TOY, "--loss", "f_1", *FAST]],
        "evaluate": [
            ["train", "--dataset", TOY, "--loss", "f_1", *FAST,
             "--checkpoint", "m.ckpt", "--out", "train.tsv"],
            ["evaluate", "--dataset", TOY, "--loss", "f_1",
             "--checkpoint", "m.ckpt"]],
        "batch-sweep": [["batch-sweep", "--dataset", TOY, "--loss", "f_1",
                         "--epochs", "3", "--window", "3",
                         "--batch-size", "32,128"]],
        "loss-grid": [["loss-grid", "--dataset", TOY, "--trials", "1",
                       *FAST]],
        "fbeta-sweep": [["fbeta-sweep", "--dataset", TOY, "--trials", "1",
                         "--betas", "0.5,2", *FAST]],
        "sigmoid-compare": [["sigmoid-compare", "--dataset", TOY,
                             "--trials", "1", *FAST]],
    }
    cases = {}
    for command, steps in per_command.items():
        for seed in ("0", "3"):
            for form, where in (("tsv", ["--out", "out.tsv"]), ("json", [])):
                *setup, last = [step + ["--seed", seed] for step in steps]
                cases[f"{command}-seed{seed}-{form}"] = setup + [
                    last + ["--format", form, *where]]
    return cases


MATRIX = {
    **_command_cases(),
    "train-checkpoint-report-evaluate": [
        ["train", "--dataset", TOY, "--loss", "f_1", *FAST, "--seed", "0",
         "--checkpoint", "m.ckpt", "--report", "report.json",
         "--out", "train.tsv"],
        ["evaluate", "--dataset", TOY, "--loss", "f_1", "--seed", "0",
         "--checkpoint", "m.ckpt", "--out", "evaluate.tsv"]],
    # at beta 2 train scores its test table at the loss's beta, apart from
    # training; evaluate then scores the checkpoint the same way, and both
    # JSON tables are the same bytes
    "train-f2-json-report-evaluate": [
        ["train", "--dataset", TOY, "--loss", "f_2", "--tau-grid", "0.3,0.6",
         *FAST, "--seed", "0", "--format", "json", "--report", "report.json",
         "--checkpoint", "m.ckpt", "--out", "train.json"],
        ["evaluate", "--dataset", TOY, "--loss", "f_2",
         "--tau-grid", "0.3,0.6", "--seed", "0", "--format", "json",
         "--checkpoint", "m.ckpt", "--out", "evaluate.json"]],
    # the auroc cell fails on a one-class validation split: exit 2
    "loss-grid-partial-failure": [
        ["loss-grid", "--dataset", "blobs:n_per_class=50,keep=0.02",
         "--loss", "accuracy,auroc", "--trials", "1", "--epochs", "5",
         "--window", "3", "--seed", "0", "--out", "grid.tsv"]],
    # refused at spec time: exit 1
    "fbeta-sweep-refused-beta": [
        ["fbeta-sweep", "--dataset", TOY, "--betas", "1,-2", "--trials", "1"]],
    "train-refused-f-inf": [["train", "--dataset", TOY, "--loss", "f_inf"]],
    # a tau the logistic fit reaches only by its retry from k = slope_mid;
    # the sigmoid_fit cells train and stall, so error rows and exit 2
    "sigmoid-compare-tau-0.0003": [
        ["sigmoid-compare", "--dataset", TOY, "--tau", "0.0003",
         "--trials", "1", *FAST, "--seed", "0", "--out", "compare.tsv"]],
    "bench-grid-small-batch": [
        ["loss-grid", "--dataset", IMBALANCED,
         "--loss", "accuracy,f_1,auroc", "--batch-size", "256",
         "--trials", "1", "--epochs", "3", "--window", "3", "--seed", "0",
         "--out", "grid.tsv"]],
    "bench-sweep-probe": [
        ["batch-sweep", "--dataset", IMBALANCED, "--loss", "f_1",
         "--batch-size", "64,256,1024", "--epochs", "2", "--window", "2",
         "--dropout", "0.0", "--seed", "0", "--out", "sweep.tsv"]],
    "bench-csv-train-eval": [
        ["train", *CSV, "--seed", "0", "--loss", "auroc",
         "--approximation", "sigmoid_fit", "--batch-size", "4096",
         "--epochs", "2", "--window", "2", "--checkpoint", "model.ckpt",
         "--out", "train.tsv"],
        ["evaluate", *CSV, "--seed", "0", "--checkpoint", "model.ckpt",
         "--out", "evaluate.tsv"]],
}

_DURATION_TEXT = re.compile(rb"\b\d+\.\d+s\b")
_DURATION_FIELD = re.compile(rb'("duration_seconds": )[^,}\n]+')


def write_csv(path: Path) -> None:
    """A fixed 8-feature CSV with 'pos' and 'neg' labels, the same bytes on
    every run (a plain LCG, so it needs nothing from either tree)."""
    state = 12345
    lines = [",".join([f"x{i}" for i in range(8)] + ["label"])]
    for _ in range(CSV_ROWS):
        cells = []
        for _ in range(9):
            state = (1103515245 * state + 12345) % 2**31
            cells.append(state / 2**31)
        positive = cells[8] < 0.2
        shift = 0.6 if positive else 0.0
        lines.append(",".join("%.6f" % (4.0 * v - 2.0 + shift)
                              for v in cells[:8])
                     + (",pos" if positive else ",neg"))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def run_case(src: Path, workdir: Path, steps) -> list:
    """Run a case's steps in ``workdir``; (exit code, stdout, stderr) each."""
    workdir.mkdir(parents=True)
    if any(CSV_NAME in step for step in steps):
        write_csv(workdir / CSV_NAME)
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    results = []
    for step in steps:
        done = subprocess.run([sys.executable, "-m", "softstep.cli", *step],
                              cwd=workdir, env=env, capture_output=True)
        results.append((done.returncode, done.stdout,
                        _DURATION_TEXT.sub(b"<duration>s", done.stderr)))
    return results


def case_files(workdir: Path) -> dict:
    """Every file a case left behind, with JSON durations masked."""
    files = {}
    for path in sorted(workdir.rglob("*")):
        if path.is_file():
            data = path.read_bytes()
            if path.suffix == ".json":
                data = _DURATION_FIELD.sub(rb"\1<masked>", data)
            files[str(path.relative_to(workdir))] = data
    return files


def describe(what: str, base: bytes, head: bytes) -> str:
    """A short diff of two byte strings: lines of text, else sizes."""
    try:
        old = base.decode("utf-8").splitlines()
        new = head.decode("utf-8").splitlines()
    except UnicodeDecodeError:
        offset = next((i for i, (a, b) in enumerate(zip(base, head))
                       if a != b), min(len(base), len(head)))
        return (f"  {what}: binary, {len(base)} vs {len(head)} bytes, "
                f"first difference at byte {offset}")
    lines = list(difflib.unified_diff(old, new, "base", "head", lineterm="",
                                      n=1))
    shown = lines[:40] + ([f"... {len(lines) - 40} more lines"]
                          if len(lines) > 40 else [])
    return f"  {what}:\n" + "\n".join("    " + line for line in shown)


def compare_case(steps, base_runs, head_runs, base_files, head_files) -> list:
    """Every difference between the two trees' runs of one case."""
    found = []
    for step, (old, new) in enumerate(zip(base_runs, head_runs)):
        label = f"step {step + 1} ({steps[step][0]})"
        if old[0] != new[0]:
            found.append(f"  {label} exit code: {old[0]} vs {new[0]}")
        for index, stream in ((1, "stdout"), (2, "stderr")):
            if old[index] != new[index]:
                found.append(describe(f"{label} {stream}", old[index],
                                      new[index]))
    for name in sorted(set(base_files) | set(head_files)):
        if name not in head_files or name not in base_files:
            side = "base" if name in base_files else "head"
            found.append(f"  file {name}: written by {side} only")
        elif base_files[name] != head_files[name]:
            found.append(describe(f"file {name}", base_files[name],
                                  head_files[name]))
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True,
                        help="git revision to compare the working tree with")
    parser.add_argument("--expect-diff", action="append", default=[],
                        metavar="NAME", help="a matrix case meant to differ")
    args = parser.parse_args(argv)
    unknown = sorted(set(args.expect_diff) - set(MATRIX))
    if unknown:
        parser.error(f"no matrix case named {', '.join(unknown)}")
    base_rev = resolve(args.base)
    if base_rev is None:
        parser.error(f"not a commit: {args.base}")

    listed = subprocess.run(
        [sys.executable, "-c",
         "from softstep.cli import COMMANDS; print(*COMMANDS)"],
        env=dict(os.environ, PYTHONPATH=str(REPO / "src")), check=True,
        capture_output=True, text=True).stdout.split()
    missing = [c for c in listed if not any(steps[-1][0] == c
                                            for steps in MATRIX.values())]
    if missing:
        parser.error(f"the matrix runs no {', '.join(missing)} command")

    print(f"base {base_rev} against the working tree {REPO} "
          f"(HEAD {git('rev-parse', 'HEAD')}); {len(MATRIX)} cases",
          flush=True)
    unexpected = []
    scratch = Path(tempfile.mkdtemp(prefix="same_bytes_"))
    base_tree = scratch / "base-tree"
    try:
        export(base_rev, base_tree)
        for name, steps in MATRIX.items():
            runs = {side: run_case(tree / "src", scratch / side / name, steps)
                    for side, tree in (("base", base_tree), ("head", REPO))}
            found = compare_case(steps, runs["base"], runs["head"],
                                 case_files(scratch / "base" / name),
                                 case_files(scratch / "head" / name))
            codes = ",".join(str(code) for code, _, _ in runs["head"])
            if not found:
                status = "same" if name not in args.expect_diff else \
                    "SAME, but a difference was expected"
            else:
                status = "differs (expected)" if name in args.expect_diff \
                    else "DIFFERS"
            print(f"{name} [exit {codes}]: {status}")
            for line in found:
                print(line)
            if bool(found) != (name in args.expect_diff):
                unexpected.append(name)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if unexpected:
        print(f"{len(unexpected)} of {len(MATRIX)} cases not as expected: "
              f"{', '.join(unexpected)}")
        return 1
    print(f"all {len(MATRIX)} cases as expected")
    return 0


if __name__ == "__main__":
    sys.exit(main())
