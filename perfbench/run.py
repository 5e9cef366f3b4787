"""softstep benchmark: protocol workloads timed end to end and layer by layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload grid-small-batch --seed 0 \
        --seconds 30 --trace 0

Workloads (see workloads.py): ``grid-small-batch``, ``sweep-probe`` and
``csv-train-eval``.  The run generates the workload's inputs from
``--seed``, then repeats the workload for ``--seconds`` seconds, each
iteration in a fresh Python process, so imports and the cached sigmoid
fits are paid the way a command-line user pays them.  The first
iteration is a checked but untimed warm-up; medians over the others are
reported.  BLAS is pinned to one thread in every iteration.

End-to-end metrics (``--trace 0``), from untraced iterations:

- ``wall_s``: importing softstep plus every ``softstep`` command the
  workload runs; input generation is excluded.
- ``setup_s``: importing softstep plus the first
  ``experiments.prepared_split`` call (the CSV parse on csv-train-eval).
- ``train_rows_per_s``: epochs x training rows x trainings, a fixed count,
  divided by the time spent inside ``training.train`` calls.
- ``peak_rss_mb``: the iteration process's maximum resident memory.

Per-layer metrics (``--trace 1``): iterations alternate between untraced
and traced; the traced ones wrap each layer's public functions from
outside the package (tracer.py) and report ``<span>.calls``, ``.rows``,
``.s`` and ``.self_s`` per span, four work ratios, and
``trace.overhead_s``, the traced minus the untraced median ``wall_s``.
The package runs on one thread with no queue, so no wait-time metric
exists and none is reported.

Every iteration is checked: each command exits 0, every table cell
succeeds, each output file is byte-identical to the run's first iteration
(traced or not), the work counters equal the expected work exactly, plus
the workload's own checks.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``, where attempted and
failed count cells and checks; the line before it holds the run's
details: environment, per-workload figures (``evaluate_s``, ``test_f1``,
``test_auroc``, ``error_rate``), counters and failed checks.  Raw spans of
the last traced iteration are written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracer import LAYER_SPANS, RATIOS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

BLAS_THREADS = 1
MIN_UNTRACED = 3
MIN_TRACED = 2
# Stop starting iterations after this long, whatever --seconds says, so a
# run ends well inside its time limit.
HARD_LIMIT_S = 140.0

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "train_rows_per_s": "rows/s",
             "peak_rss_mb": "MB"}


def layer_units() -> dict[str, str]:
    units = {}
    for name, has_rows in LAYER_SPANS:
        units[f"{name}.calls"] = "count"
        if has_rows:
            units[f"{name}.rows"] = "rows"
        units[f"{name}.s"] = "s"
        units[f"{name}.self_s"] = "s"
    units.update({name: "ratio" for name in RATIOS})
    units["trace.overhead_s"] = "s"
    return units


def environment(seed: int) -> dict:
    import numpy

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "softstep").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": BLAS_THREADS,
        "git": git_state(),
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


def git_state() -> dict:
    """Commit and dirty flag; both null where the checkout is not a repo."""
    def git(*args):
        try:
            done = subprocess.run(["git", "-C", str(ROOT), *args],
                                  capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    # A checkout nested in some other repository is not a git checkout.
    if git("rev-parse", "--show-toplevel") != str(ROOT):
        return {"sha": None, "dirty": None}
    sha = git("rev-parse", "HEAD")
    return {"sha": sha, "dirty": bool(git("status", "--porcelain"))}


def worker_env() -> dict:
    env = dict(os.environ)
    threads = str(BLAS_THREADS)
    env.update(PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS=threads,
               OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads,
               PYTHONHASHSEED="0")
    return env


class Run:
    """Iterations of one workload, their checks and their results."""

    def __init__(self, workload, seed: int, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, int] = {}
        self.untraced: list[dict] = []
        self.traced: list[dict] = []
        self.absent: set[str] = set()
        self.reference: dict | None = None
        self.eval_rows = None
        self.figures: dict[str, float] = {}

    def check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures[name] = self.failures.get(name, 0) + 1

    def iterate(self, index: int, trace: bool, timeout: float,
                timed: bool = True) -> None:
        """One iteration, checked; its timings are kept only if ``timed``."""
        out_dir = self.workdir / f"iter{index}"
        out_dir.mkdir()
        result_path = out_dir / "result.json"
        spans_path = (OUT_DIR
                      / f"{self.workload.name}-seed{self.seed}.spans.jsonl")
        config = {"src": str(SRC), "trace": trace,
                  "spans_path": str(spans_path),
                  "commands": self.workload.commands(self.seed, self.workdir,
                                                     out_dir)}
        try:
            done = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), json.dumps(config),
                 str(result_path)],
                cwd=ROOT, env=worker_env(), capture_output=True, text=True,
                timeout=timeout)
        except subprocess.TimeoutExpired:
            self.check(f"iteration {index} finished in time", False)
            return
        if done.returncode != 0 or not result_path.is_file():
            sys.stderr.write(done.stderr[-2000:])
            self.check(f"iteration {index} worker exit {done.returncode}",
                       False)
            return
        result = json.loads(result_path.read_text(encoding="utf-8"))
        self.absent.update(result["absent"])
        for position, code in enumerate(result["exits"]):
            self.check(f"command {position} exit code {code}", code == 0)
        outputs = {}
        for name in self.workload.outputs:
            path = out_dir / name
            outputs[name] = path.read_bytes() if path.is_file() else None
        if any(data is None for data in outputs.values()):
            self.check(f"iteration {index} wrote every output", False)
            return
        self._check_outputs(outputs, result)
        if timed:
            (self.traced if trace else self.untraced).append(result)
        shutil.rmtree(out_dir)

    def _check_outputs(self, outputs: dict, result: dict) -> None:
        workload = self.workload
        try:
            for cell, ok in workload.cells(outputs):
                self.check(cell, ok)
            for name, ok in workload.checks(outputs):
                self.check(name, ok)
            figures = workload.figures(outputs)
        except (KeyError, ValueError, IndexError) as exc:
            self.check(f"outputs parse ({type(exc).__name__}: {exc})", False)
            return
        expected = workload.expected_work()
        counters = result["counters"]
        self.check("trainings as expected",
                   counters["trainings"] == expected["trainings"])
        self.check("batches attempted as expected",
                   counters["optimizer_steps"] + counters["skipped_batches"]
                   == expected["batches"])
        self.check("rows trained as expected",
                   counters["rows_trained"] == expected["rows_trained"])
        layers = result.get("layers", {})
        if "network.adam_step.calls" in layers:
            self.check("traced optimizer steps equal counted steps",
                       layers["network.adam_step.calls"]
                       == counters["optimizer_steps"])
        if "network.forward_eval.rows" in layers:
            eval_rows = layers["network.forward_eval.rows"]
            if self.eval_rows is None:
                self.eval_rows = eval_rows
            self.check("forward_eval rows equal across traced iterations",
                       eval_rows == self.eval_rows)
        current = {"outputs": {k: hashlib.sha256(v).hexdigest()
                               for k, v in outputs.items()},
                   "counters": counters}
        if self.reference is None:
            self.reference = current
            self.figures = figures
            return
        for name, digest in current["outputs"].items():
            self.check(f"{name} byte-identical across iterations",
                       digest == self.reference["outputs"][name])
        self.check("work counters equal across iterations",
                   counters == self.reference["counters"])


def median(values):
    return statistics.median(values) if values else None


def spread(values) -> dict:
    summary = {"median": median(values), "n": len(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        summary.update(q1=q1, q3=q3)
    return summary


def e2e_metrics(run: Run) -> dict[str, list[float]]:
    rows = run.workload.expected_work()["rows_trained"]
    series = {name: [] for name in E2E_UNITS}
    for result in run.untraced:
        series["wall_s"].append(result["wall_s"])
        if result["setup_s"] is not None:
            series["setup_s"].append(result["setup_s"])
        if result["train_s"] > 0:
            series["train_rows_per_s"].append(rows / result["train_s"])
        series["peak_rss_mb"].append(result["peak_rss_mb"])
    return series


def layer_metrics(run: Run) -> dict[str, float]:
    merged: dict[str, list[float]] = {}
    for result in run.traced:
        for name, value in result["layers"].items():
            merged.setdefault(name, []).append(value)
    metrics = {name: median(values) for name, values in merged.items()}
    traced_wall = median([r["wall_s"] for r in run.traced])
    untraced_wall = median([r["wall_s"] for r in run.untraced])
    if traced_wall is not None and untraced_wall is not None:
        metrics["trace.overhead_s"] = traced_wall - untraced_wall
    return metrics


def workload_figures(run: Run) -> dict:
    figures = dict(run.figures)
    if run.workload.name == "csv-train-eval":
        figures["evaluate_s"] = median(
            [r["command_s"][1] for r in run.untraced])
    figures["error_rate"] = run.failed / max(run.attempted, 1)
    return figures


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # A terminated run still stops its worker and removes its files.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    if not (SRC / "softstep" / "__init__.py").is_file():
        print(f"error: no softstep package under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    seed = args.seed % 2 ** 31
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT_DIR))
    try:
        workload.prepare(seed, workdir)
        run = Run(workload, seed, workdir)
        started = time.monotonic()
        durations = []
        while True:
            elapsed = time.monotonic() - started
            enough = (len(run.untraced) >= MIN_UNTRACED
                      and (not args.trace or len(run.traced) >= MIN_TRACED))
            # End the run where its expected length is closest to --seconds.
            expected_end = elapsed + median(durations) / 2 if durations else 0
            if elapsed >= HARD_LIMIT_S or (enough
                                           and expected_end >= args.seconds):
                break
            trace = bool(args.trace) and len(durations) % 2 == 1
            # The first iteration is a warm-up: it writes the bytecode
            # caches and fills the page cache, and only its outputs count.
            run.iterate(len(durations), trace,
                        timeout=HARD_LIMIT_S + 20 - elapsed,
                        timed=bool(durations))
            durations.append(time.monotonic() - started - elapsed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if not run.untraced or (args.trace and not run.traced):
        print(f"error: no successful iteration; failed checks: "
              f"{run.failures[:10]}", file=sys.stderr)
        return 1

    series = e2e_metrics(run)
    if args.trace:
        units = layer_units()
        values = layer_metrics(run)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in units.items() if name in values}
    else:
        metrics = {name: {"value": median(values), "unit": E2E_UNITS[name]}
                   for name, values in series.items() if values}
    for name, entry in metrics.items():
        print(f"{name:48s} {entry['value']:.6g} {entry['unit']}")
    details = {
        "workload": workload.name,
        "why": workload.why,
        "environment": environment(seed),
        "iterations": {"untraced": len(run.untraced),
                       "traced": len(run.traced)},
        "end_to_end": {name: spread(values)
                       for name, values in series.items()},
        "workload_figures": workload_figures(run),
        "counters": run.reference["counters"] if run.reference else None,
        "expected_work": workload.expected_work(),
        "failed_checks": run.failures,
        "absent_targets": sorted(run.absent),
        "wait_time": "not measured: one thread, no queue",
    }
    print(json.dumps(details, sort_keys=True))
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
