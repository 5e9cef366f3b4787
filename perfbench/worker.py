"""Run one iteration of a benchmark workload in a fresh interpreter.

Usage: python3 worker.py CONFIG_JSON RESULT_PATH

CONFIG_JSON holds ``src`` (the directory softstep must be imported from),
``commands`` (a list of ``softstep`` argument lists, run in order through
``softstep.cli.main``), ``trace`` and ``spans_path``.  The worker writes
one JSON object to RESULT_PATH with its timings, work counters, peak
memory and, when tracing, the per-layer summary; the spans themselves go
to ``spans_path``.

Untraced iterations wrap only ``experiments.prepared_split`` and
``training.train`` (a handful of calls per run), which ``setup_s`` and
``train_rows_per_s`` need; traced iterations wrap every layer boundary.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def main(config_text: str, result_path: str) -> int:
    config = json.loads(config_text)
    started = time.perf_counter()
    import softstep.cli
    import_s = time.perf_counter() - started

    source = Path(softstep.cli.__file__).resolve()
    if Path(config["src"]).resolve() not in source.parents:
        print(f"softstep was imported from {source}, not from "
              f"{config['src']}", file=sys.stderr)
        return 2

    from tracer import (E2E_TARGETS, LAYER_TARGETS, TRACE_SLOTS, Tracer,
                        summarize)

    if config["trace"]:
        tracer = Tracer(TRACE_SLOTS)
        absent = tracer.install(LAYER_TARGETS)
    else:
        tracer = Tracer()
        absent = tracer.install(E2E_TARGETS)
    exits = []
    command_s = []
    for argv in config["commands"]:
        begun = time.perf_counter()
        exits.append(softstep.cli.main(argv))
        command_s.append(time.perf_counter() - begun)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    splits = tracer.durations("experiments.prepared_split")
    result = {
        "exits": exits,
        "import_s": import_s,
        "command_s": command_s,
        "wall_s": import_s + sum(command_s),
        "setup_s": import_s + splits[0] if splits else None,
        "train_s": sum(tracer.durations("training.train")),
        "counters": tracer.counters,
        "peak_rss_mb": peak_rss_mb,
        "absent": absent,
    }
    if config["trace"]:
        result["layers"] = summarize(tracer.spans, tracer.missing_spans)
        tracer.write(config["spans_path"])
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
