"""Mock ``run-all`` at several cohort sizes: wall time, peak RSS and LLM calls
per note per stage, for each labeler batch size (``normalize.LABEL_BATCH``).

    PYTHONPATH=src python3 bench/scale.py --label after [--sizes 200,2000,5000] [--batches 20]

Inputs come from perfbench's ``diverse_cohort`` generator (seed 0). Each
(size, batch size) cell runs all eight stages in its own process, with
the mock backend, an in-memory cache, ``max_concurrency`` 4,
``k_medoids`` 200 and ``folds`` 3, so its peak RSS is that of one run; each
stage also records the peak RSS reached by its end. The results are stored
under ``--label`` in BENCH_scale.json (other labels in the file are kept),
so two versions of the code can sit side by side: run the script once per
checkout, with PYTHONPATH pointing at that checkout's ``src``. Batch size 1
sends one entry per labeler request, as the paper does; equal
``report_hash`` values for one size mean that the report bytes are the same.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, os.pardir, "perfbench"))

from workloads import diverse_cohort, write_tables  # noqa: E402

from clinnote import normalize  # noqa: E402
from clinnote.config import Config  # noqa: E402
from clinnote.gateway import LLMGateway  # noqa: E402
from clinnote.pipeline import STAGES, Runner, report_hash  # noqa: E402

SEED = 0
CONFIG = {"mock_mode": True, "cache_dir": "", "max_concurrency": 4,
          "k_medoids": 200, "folds": 3, "seed": SEED}


def _peak_rss_mb():
    return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1)


def cell(inputs, out, label_batch):
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
    gateway = LLMGateway(config)
    runner = Runner(config, out, gateway=gateway)
    stages = {}
    start = time.perf_counter()
    for stage in STAGES:
        began, calls = time.perf_counter(), gateway.network_calls
        runner.run_stage(stage)
        stages[stage] = {"s": round(time.perf_counter() - began, 3),
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
    return {
        "label_batch": label_batch,
        "notes": notes,
        "wall_s": round(wall_s, 2),
        "peak_rss_mb": _peak_rss_mb(),
        "llm_calls": gateway.network_calls,
        "calls_per_note": round(gateway.network_calls / notes, 3),
        "report_hash": report_hash(out),
        "stages": stages,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", help="key the results are stored under")
    ap.add_argument("--sizes", default="200,2000,5000", help="patients per cohort")
    ap.add_argument("--batches", default="20", help="labeler batch sizes")
    ap.add_argument("--out", default="BENCH_scale.json")
    ap.add_argument("--cell", nargs=3, metavar=("INPUTS", "OUT", "LABEL_BATCH"),
                    help=argparse.SUPPRESS)  # one measured run, started by main
    args = ap.parse_args()
    if args.cell:
        inputs, out, label_batch = args.cell
        print(json.dumps(cell(inputs, out, int(label_batch))))
        return
    if not args.label:
        ap.error("--label is required")

    rows = []
    with tempfile.TemporaryDirectory() as work:
        for patients in map(int, args.sizes.split(",")):
            inputs = os.path.join(work, f"inputs-{patients}")
            write_tables(diverse_cohort(patients, SEED), inputs)
            for label_batch in args.batches.split(","):
                out = os.path.join(work, f"run-{patients}-{label_batch}")
                done = subprocess.run(
                    [sys.executable, __file__, "--cell", inputs, out, label_batch],
                    check=True, capture_output=True, text=True,
                )
                rows.append({"patients": patients, **json.loads(done.stdout)})
                print(json.dumps({k: v for k, v in rows[-1].items() if k != "stages"}),
                      flush=True)

    bench = {}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            bench = json.load(fh)
    bench.update({
        "what": "mock run-all on perfbench's diverse_cohort generator, one process per "
                "cell: wall time, peak RSS, LLM calls per note per stage",
        "config": CONFIG,
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs, "
                   f"Python {platform.python_version()}",
    })
    bench.setdefault("results", {})[args.label] = rows
    with open(args.out, "w") as fh:
        json.dump(bench, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
