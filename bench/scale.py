"""Mock ``run-all`` at several cohort sizes: wall time, peak RSS and LLM calls
per note per stage, for each labeler batch size (``normalize.LABEL_BATCH``).

    PYTHONPATH=src python3 bench/scale.py --tree before=../parent/src --tree after=src
        [--sizes 200,2000,5000] [--batches 20] [--latency-sizes 200,1000] [--repeat 3]

Inputs come from perfbench's ``diverse_cohort`` generator (seed 0). Each
(size, batch size) cell runs all eight stages in its own process, with
the mock backend, an in-memory cache, ``max_concurrency`` 4,
``k_medoids`` 200 and ``folds`` 3, so its peak RSS is that of one run; each
stage also records the peak RSS reached by its end. Each ``--tree
LABEL=SRC`` names a source tree whose results are stored under LABEL in
BENCH_scale.json (other labels in the file are kept). Every cell runs the
trees alternately, one run of each per repeat, on the same inputs, so a
shift in the machine's load between sittings does not read as a code
change. Batch size 1 sends one entry per labeler request, as the paper
does; equal ``report_hash`` values for one size mean that the report bytes
are the same.

Each stage of a serial cell also records ``mock_s``: the seconds spent
inside the mock backend's ``chat`` and ``embed`` (the stand-in for the
model server), wrapped from this script as perfbench wraps its hooks.
They are CPU seconds of the calling thread, so no wait for another thread
counts; ``s`` less ``mock_s`` is the pipeline's own share of the stage.

Each ``--latency-sizes`` cell runs ``Runner.run_all`` once more behind
perfbench's endpoint stand-in (``endpoint.LatencyBackend``), which sleeps
LATENCY_S per request, at the default labeler batch size. Beside its wall
time it records ``floor_s``, R·L/c: R requests at latency L on c
``max_concurrency`` slots take at least that long. Its stages' ``start_s``
(from the run's start) show which ran side by side.

Every cell runs ``--repeat`` times, each in its own process: ``wall_s``
and ``peak_rss_mb`` are the medians, ``*_range`` the lowest and highest,
and the stages are those of the run with the median wall time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, os.pardir, "perfbench"))

from endpoint import LatencyBackend  # noqa: E402
from workloads import diverse_cohort, write_tables  # noqa: E402

from clinnote import normalize  # noqa: E402
from clinnote.config import Config  # noqa: E402
from clinnote.gateway import LLMGateway, MockBackend  # noqa: E402
from clinnote.pipeline import STAGES, Runner, report_hash  # noqa: E402

SEED = 0
CONFIG = {"mock_mode": True, "cache_dir": "", "max_concurrency": 4,
          "k_medoids": 200, "folds": 3, "seed": SEED}
LATENCY_S = 0.020  # the endpoint stand-in's sleep per request in latency cells


def _peak_rss_mb():
    return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1)


def _time_mock_backend():
    """Wrap MockBackend's chat and embed; returns a list whose one item sums
    the CPU seconds their calls take in their calling threads."""
    spent, lock = [0.0], threading.Lock()
    for attr in ("chat", "embed"):
        def timed(self, *args, _original=getattr(MockBackend, attr), **kwargs):
            began = time.thread_time()
            try:
                return _original(self, *args, **kwargs)
            finally:
                with lock:
                    spent[0] += time.thread_time() - began
        setattr(MockBackend, attr, timed)
    return spent


def cell(inputs, out, label_batch, latency_s=0.0):
    """One run in this process; returns its measurements."""
    normalize.LABEL_BATCH = label_batch
    config = Config(
        admissions_path=os.path.join(inputs, "admissions.csv"),
        diagnoses_path=os.path.join(inputs, "diagnoses.csv"),
        notes_path=os.path.join(inputs, "notes.csv"),
        truth_vitals_path=os.path.join(inputs, "truth_vitals.csv"),
        truth_sdoh_path=os.path.join(inputs, "truth_sdoh.csv"),
        **CONFIG,
    )
    if latency_s:
        gateway = LLMGateway(config, backend=LatencyBackend(latency_s, seed=SEED))
    else:
        gateway = LLMGateway(config)
    runner = Runner(config, out, gateway=gateway)
    stages = {}
    start, started = time.perf_counter(), time.time()
    if latency_s:  # run_all, which may run stages side by side
        for stage, entry in runner.run_all()["stages"].items():
            stages[stage] = {"start_s": round(entry["started"] - started, 3),
                             "s": round(entry["finished"] - entry["started"], 3),
                             "llm_calls": entry["network_calls"]}
    else:
        mock_s = _time_mock_backend()
        for stage in STAGES:
            began, calls, mocked = time.perf_counter(), gateway.network_calls, mock_s[0]
            runner.run_stage(stage)
            stages[stage] = {"s": round(time.perf_counter() - began, 3),
                             "mock_s": round(mock_s[0] - mocked, 3),
                             "llm_calls": gateway.network_calls - calls,
                             "peak_rss_mb": _peak_rss_mb()}
    wall_s = time.perf_counter() - start
    gateway.close()
    notes = 0  # index notes: each is extracted or quarantined
    for name in ("extractions.jsonl", "quarantine.jsonl"):
        with open(os.path.join(out, name)) as fh:
            notes += sum(1 for _ in fh)
    for row in stages.values():
        row["calls_per_note"] = round(row["llm_calls"] / notes, 3)
    latency = {}
    if latency_s:  # R requests at latency L on c slots take at least R·L/c
        latency = {"latency_ms": round(latency_s * 1000),
                   "max_concurrency": config.max_concurrency,
                   "floor_s": round(gateway.network_calls * latency_s / config.max_concurrency, 2)}
    return {
        "label_batch": label_batch,
        **latency,
        "notes": notes,
        "wall_s": round(wall_s, 2),
        "peak_rss_mb": _peak_rss_mb(),
        "llm_calls": gateway.network_calls,
        "calls_per_note": round(gateway.network_calls / notes, 3),
        "report_hash": report_hash(out),
        "stages": stages,
    }


def _env(src):
    """The environment of a cell that imports clinnote from ``src``."""
    return dict(os.environ, PYTHONPATH=os.path.abspath(src))


def _median_run(runs):
    """The run with the median wall time, given the medians and ranges of
    wall time and peak RSS over all runs."""
    row = dict(sorted(runs, key=lambda run: run["wall_s"])[(len(runs) - 1) // 2], runs=len(runs))
    for key in ("wall_s", "peak_rss_mb"):
        values = [run[key] for run in runs]
        row[key] = round(statistics.median(values), 2)
        row[key + "_range"] = [min(values), max(values)]
    return row


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--tree", action="append", default=[], metavar="LABEL=SRC",
                    help="a source tree to run, alternately with the other --tree ones, "
                         "and the key its results are stored under")
    ap.add_argument("--sizes", default="200,2000,5000", help="patients per cohort ('' for none)")
    ap.add_argument("--batches", default="20", help="labeler batch sizes")
    ap.add_argument("--latency-sizes", default="200,1000",
                    help="patients per cohort behind the sleeping endpoint ('' for none)")
    ap.add_argument("--repeat", type=int, default=3, help="runs per cell")
    ap.add_argument("--out", default="BENCH_scale.json")
    ap.add_argument("--cell", nargs=4, metavar=("INPUTS", "OUT", "LABEL_BATCH", "LATENCY_S"),
                    help=argparse.SUPPRESS)  # one measured run, started by main
    ap.add_argument("--inputs", nargs=2, metavar=("PATIENTS", "DIR"),
                    help=argparse.SUPPRESS)  # one cohort's CSVs, written for main
    args = ap.parse_args()
    if args.inputs:
        write_tables(diverse_cohort(int(args.inputs[0]), SEED), args.inputs[1])
        return
    if args.cell:
        inputs, out, label_batch, latency_s = args.cell
        print(json.dumps(cell(inputs, out, int(label_batch), float(latency_s))))
        return
    if not args.tree:
        ap.error("give one --tree LABEL=SRC per source tree")
    trees = [tree.split("=", 1) for tree in args.tree]

    cells = [(int(p), b, 0.0) for p in filter(None, args.sizes.split(","))
             for b in args.batches.split(",")]
    cells += [(int(p), str(normalize.LABEL_BATCH), LATENCY_S)
              for p in filter(None, args.latency_sizes.split(","))]
    rows = {label: [] for label, _ in trees}
    with tempfile.TemporaryDirectory() as work:
        for patients, label_batch, latency_s in cells:
            inputs = os.path.join(work, f"inputs-{patients}")
            if not os.path.isdir(inputs):  # in a child: a cell's peak RSS starts at main's
                subprocess.run([sys.executable, __file__, "--inputs", str(patients), inputs],
                               check=True)
            runs = {label: [] for label, _ in trees}
            for i in range(args.repeat):
                for j, (label, src) in enumerate(trees):
                    out = os.path.join(work, f"run-{patients}-{label_batch}-{latency_s}-{i}-{j}")
                    done = subprocess.run(
                        [sys.executable, __file__, "--cell", inputs, out, label_batch,
                         str(latency_s)],
                        check=True, capture_output=True, text=True, env=_env(src),
                    )
                    runs[label].append(json.loads(done.stdout))
            for label, _ in trees:
                rows[label].append({"patients": patients, **_median_run(runs[label])})
                print(label, json.dumps({k: v for k, v in rows[label][-1].items()
                                         if k != "stages"}), flush=True)

    bench = {}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            bench = json.load(fh)
    bench.update({
        "what": "mock run-all on perfbench's diverse_cohort generator, one process per "
                "cell: wall time, peak RSS, LLM calls per note per stage, and in serial "
                "cells the mock backend's CPU seconds per stage (mock_s); cells with "
                "latency_ms sleep that long per request and floor_s is R·L/c; wall_s "
                "and peak_rss_mb are medians of `runs` runs, with *_range",
        "config": CONFIG,
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs, "
                   f"Python {platform.python_version()}",
    })
    bench.setdefault("results", {}).update(rows)
    with open(args.out, "w") as fh:
        json.dump(bench, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
