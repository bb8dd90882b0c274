"""One pipeline run in a fresh process: all eight stages through the public
API, then the correctness checks and the run's own metrics as one JSON
line on stdout.

    python3 perfbench/worker.py '<json spec>'

The spec names the workload, the input CSV directory, a scratch directory
for the run and cache, whether to trace, and where to write the spans.
`run.py` starts this script once per measured run.
"""

from __future__ import annotations

import csv
import json
import os
import resource
import sys
import time
from dataclasses import asdict

from clinnote.config import Config
from clinnote.gateway import LLMGateway, MockBackend
from clinnote.pipeline import STAGES, Runner, report_hash

from endpoint import LatencyBackend
from workloads import WORKLOADS

PREDICT_VARIANTS = ("raw", "overall", "no_number", "structural")
LLM_SUMMARY_VARIANTS = ("overall", "no_number")


def _read_jsonl(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def tree_bytes(path):
    total = 0
    for dirpath, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(dirpath, f)) for f in files)
    return total


def operation_counts(out):
    """(attempted, failed) LLM-backed operations recorded in a run dir.

    Failures are quarantined extractions, failed judge calls, failed
    summaries and unlabeled SDOH rows.
    """
    extracted = len(_read_jsonl(os.path.join(out, "extractions.jsonl")))
    quarantined = len(_read_jsonl(os.path.join(out, "quarantine.jsonl")))
    with open(os.path.join(out, "judge_report.json")) as fh:
        judge = json.load(fh)
    summaries = [s for s in _read_jsonl(os.path.join(out, "summaries.jsonl"))
                 if s["variant"] in LLM_SUMMARY_VARIANTS]
    sdoh = _read_csv(os.path.join(out, "normalized_sdoh.csv"))
    attempted = (extracted + quarantined + len(judge["per_patient"]) + judge["n_failed"]
                 + len(summaries) + len(sdoh))
    failed = (quarantined + judge["n_failed"]
              + sum(s["status"] == "failed" for s in summaries)
              + sum(r["status"] == "unlabeled" for r in sdoh))
    return attempted, failed


def check_outputs(out, work_dir, disk_cache):
    """Invariants every run must meet; returns the list of those broken."""
    errors = []
    with open(os.path.join(out, "manifest.json")) as fh:
        done = json.load(fh)["stages"]
    missing = [s for s in STAGES if s not in done]
    if missing:
        errors.append(f"stages missing from the manifest: {missing}")

    cohort = {r["hadm_id"]: r for r in _read_jsonl(os.path.join(out, "cohort.jsonl"))}
    with_note = sum(bool(cohort.get(p["index_hadm_id"], {}).get("discharge_note"))
                    for p in _read_csv(os.path.join(out, "pairs.csv")))
    extracted = (len(_read_jsonl(os.path.join(out, "extractions.jsonl")))
                 + len(_read_jsonl(os.path.join(out, "quarantine.jsonl"))))
    if extracted != with_note:
        errors.append(f"{extracted} extractions + quarantined for {with_note} index notes")

    with open(os.path.join(out, "prediction_report.json")) as fh:
        prediction = json.load(fh)
    for variant in PREDICT_VARIANTS:
        rep = prediction.get(variant)
        if rep is None or "skipped" in rep:
            errors.append(f"prediction variant {variant} missing or skipped")
            continue
        aurocs = [f["auroc"] for f in rep["per_fold"]] + [rep["summary"]["auroc"]["mean"]]
        if not all(0.0 <= a <= 1.0 for a in aurocs):
            errors.append(f"prediction variant {variant}: AUROC outside [0, 1]")

    if not disk_cache:
        written = [os.path.join(d, f) for d, _, files in os.walk(work_dir)
                   for f in files if f.startswith("llm_cache")]
        if written:
            errors.append(f"cache files written without a cache dir: {written}")
    return errors


def run(spec):
    workload = WORKLOADS[spec["workload"]]
    inputs, work = spec["inputs"], spec["work_dir"]
    out, cache_dir = os.path.join(work, "run"), os.path.join(work, "cache")
    config = Config(
        admissions_path=os.path.join(inputs, "admissions.csv"),
        diagnoses_path=os.path.join(inputs, "diagnoses.csv"),
        notes_path=os.path.join(inputs, "notes.csv"),
        truth_vitals_path=os.path.join(inputs, "truth_vitals.csv"),
        truth_sdoh_path=os.path.join(inputs, "truth_sdoh.csv"),
        mock_mode=True,
        cache_dir=cache_dir if workload.disk_cache else "",
        **workload.config,
    )
    if workload.latency_s:
        backend = LatencyBackend(seed=config.seed, latency_s=workload.latency_s)
    else:
        backend = MockBackend(seed=config.seed)

    tracer = counts = None
    if spec["trace"]:
        import layers
        from spans import Tracer

        tracer = Tracer(run_id=f"{workload.name}-{spec['seed']}-{spec['index']}")
        counts = layers.instrument(tracer, backend)

    start = time.perf_counter()
    gateway = LLMGateway(config, backend=backend)
    Runner(config, out, gateway=gateway).run_all()
    run_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted, failed = operation_counts(out)
    cache_bytes = tree_bytes(cache_dir)
    result = {
        "run_s": run_s,
        "peak_rss_mb": peak_rss_mb,
        "llm_calls": gateway.network_calls,
        "disk_mb": (tree_bytes(out) + cache_bytes) / 1e6,
        "ok_ops_ratio": 1.0 - failed / attempted,
        "report_hash": report_hash(out),
        "errors": check_outputs(out, work, workload.disk_cache),
    }
    if tracer is not None:
        result["layers"] = layers.layer_metrics(tracer, counts, cache_bytes)
        with open(spec["spans_path"], "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(asdict(span)) + "\n")
    return result


if __name__ == "__main__":
    print(json.dumps(run(json.loads(sys.argv[1]))))
