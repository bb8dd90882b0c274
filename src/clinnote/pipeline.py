"""Stage orchestration: wiring the modules into reproducible runs.

Each stage reads its inputs from and writes its outputs into one run
directory, atomically, and records input/output content hashes in a run
manifest. ``STAGE_TABLE`` is the one description of the stages: what each
reads, which report files it writes and which config keys it reads.
Dependency checks, stage fingerprints and the report hash all come from it;
the manifest's ``code`` key, ``package_hash()``, covers the program itself.
Re-running a completed stage whose fingerprint and outputs are unchanged is
a no-op, which makes long live-LLM runs resumable.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import logging
import os
import pathlib
import time
from dataclasses import asdict, dataclass

from . import cohort as cohort_mod
from . import stats as stats_mod
from .cohort import atomic_write, write_csv, write_jsonl
from .config import Config
from .errors import (
    CVInfeasible,
    DegeneratePredictor,
    DegenerateTable,
    DependencyMissing,
    InvalidInput,
    JudgeFailed,
    NoConvergence,
    SeparationDetected,
    VectorizerDegenerate,
)
from .extraction import CHARTED_KEYS, ExtractionRecord, Extractor, QuarantinedExtraction
from .fidelity import (
    _age_years,
    corpus_judge_summary,
    evaluate_categorical,
    evaluate_vital,
    icd9_descriptions,
    judge_diagnoses,
    load_truth_sdoh,
    load_truth_vitals,
)
from .gateway import LLMGateway
from .normalize import NORMALIZED_VARIABLES, LabeledEntry, cluster_variable, normalize_variable
from .predict import evaluate_cv
from .summarize import Summarizer, render_structural
from .vitals import VITALS, CanonicalVital, canonicalize_record

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class Stage:
    """One pipeline stage; ``Runner._stage_<name>`` does its work."""

    name: str
    inputs: tuple = ()  # run-dir files the stage reads
    reports: tuple = ()  # deterministic outputs that report_hash covers
    config: tuple = ()  # Config keys the stage reads; a *_path key counts by its file


# what every chat reply depends on; the seed picks the mock backend's replies
_CHAT = ("endpoint_url", "mock_mode", "seed", "chat_model", "max_tokens")

STAGE_TABLE = (
    Stage("ingest",
          reports=("cohort.jsonl", "pairs.csv", "cohort_summary.json"),
          config=("admissions_path", "diagnoses_path", "notes_path")),
    Stage("extract",
          inputs=("cohort.jsonl", "pairs.csv"),
          reports=("extractions.jsonl",),
          config=(*_CHAT, "temperature")),
    Stage("canonicalize",
          inputs=("extractions.jsonl",),
          reports=("canonical_vitals.csv",)),
    Stage("normalize",
          inputs=("extractions.jsonl",),
          reports=("normalized_sdoh.csv",),
          config=(*_CHAT, "temperature", "embed_model", "k_medoids")),
    Stage("evaluate-fidelity",
          inputs=("cohort.jsonl", "extractions.jsonl", "canonical_vitals.csv"),
          reports=("agreement_report.json", "judge_report.json"),
          config=(*_CHAT, "temperature", "truth_vitals_path", "truth_sdoh_path")),
    Stage("associate",
          inputs=("pairs.csv", "extractions.jsonl", "canonical_vitals.csv",
                  "normalized_sdoh.csv"),
          reports=("association_report.json",),
          config=("standardize",)),
    Stage("summarize",
          inputs=("cohort.jsonl", "pairs.csv", "extractions.jsonl"),
          reports=("summaries.jsonl",),
          config=(*_CHAT, "summary_temperature")),
    Stage("predict",
          inputs=("cohort.jsonl", "pairs.csv", "summaries.jsonl"),
          reports=("prediction_report.json",),
          config=("folds", "seed", "l2_lambda")),
)

STAGES = tuple(stage.name for stage in STAGE_TABLE)
_STAGE_BY_NAME = {stage.name: stage for stage in STAGE_TABLE}
_PRODUCER = {report: stage.name for stage in STAGE_TABLE for report in stage.reports}


def _sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


@functools.cache
def package_hash(root=os.path.dirname(os.path.abspath(__file__))):
    """SHA-256 of the package's .py, .txt and .csv files (the code, prompts
    and data that build every report) in sorted relative-path order,
    bytecode caches left out."""
    h = hashlib.sha256()
    for path in sorted(pathlib.Path(root).rglob("*")):
        rel = path.relative_to(root)
        if path.suffix in (".py", ".txt", ".csv") and "__pycache__" not in rel.parts:
            h.update(f"{rel.as_posix()}\0{_sha256_file(path)}\n".encode())
    return h.hexdigest()


def _write_json(path, obj):
    atomic_write(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


class Runner:
    def __init__(self, config: Config, out_dir: str, gateway=None):
        self.config = config
        self.out = out_dir
        os.makedirs(out_dir, exist_ok=True)
        self._gateway = gateway
        self._owns_gateway = gateway is None
        self.manifest_path = os.path.join(out_dir, "manifest.json")
        self.manifest = self._load_manifest()

    # -- manifest ----------------------------------------------------------

    def _load_manifest(self):
        """The run dir's manifest, or a fresh one if other code wrote it."""
        if os.path.exists(self.manifest_path):
            with open(self.manifest_path) as fh:
                manifest = json.load(fh)
            if manifest.get("code") == package_hash():
                return manifest
        return {"code": package_hash(), "stages": {}}

    def _gateway_counts(self):
        gw = self._gateway
        return (gw.network_calls, gw.cache_hits) if gw is not None else (0, 0)

    def _input_hashes(self, stage: Stage):
        """A stage's fingerprint: its run-dir inputs and the config keys it
        reads, a *_path key by its file's bytes if any."""
        hashes = {name: _sha256_file(self.path(name)) for name in stage.inputs}
        for key in stage.config:
            value = getattr(self.config, key)
            if key.endswith("_path") and os.path.isfile(value):
                value = _sha256_file(value)
            hashes[f"config:{key}"] = value
        return hashes

    @property
    def gateway(self):
        if self._gateway is None:
            self._gateway = LLMGateway(self.config)
        return self._gateway

    def close(self):
        """Close the gateway this runner made, if it made one."""
        if self._owns_gateway and self._gateway is not None:
            self._gateway.close()

    def path(self, name):
        return os.path.join(self.out, name)

    # -- public API --------------------------------------------------------

    def run_stage(self, stage):
        """Run one stage; no-op if done with unchanged fingerprint and outputs."""
        if stage not in _STAGE_BY_NAME:
            raise InvalidInput(f"unknown stage: {stage}")
        spec = _STAGE_BY_NAME[stage]
        for name in spec.inputs:
            if (_PRODUCER[name] not in self.manifest["stages"]
                    or not os.path.exists(self.path(name))):
                raise DependencyMissing(_PRODUCER[name])

        input_hashes = self._input_hashes(spec)
        done = self.manifest["stages"].get(stage)
        if done and done["input_hashes"] == input_hashes and all(
            os.path.exists(self.path(f)) and _sha256_file(self.path(f)) == digest
            for f, digest in done["output_hashes"].items()
        ):
            log.info("stage %s up to date; skipping", stage)
            return done

        started = time.time()
        calls, hits = self._gateway_counts()
        # a stage method returns the files it wrote besides its reports
        side_outputs = getattr(self, "_stage_" + stage.replace("-", "_"))() or []
        calls_after, hits_after = self._gateway_counts()
        entry = {
            "input_hashes": input_hashes,
            "output_hashes": {
                f: _sha256_file(self.path(f)) for f in [*spec.reports, *side_outputs]
            },
            "started": started,
            "finished": time.time(),
            # this run's requests: sent to the backend, answered by the cache
            "network_calls": calls_after - calls,
            "cache_hits": hits_after - hits,
        }
        self.manifest["stages"][stage] = entry
        _write_json(self.manifest_path, self.manifest)
        return entry

    def run_all(self):
        for stage in STAGES:
            self.run_stage(stage)
            if stage == "ingest":  # fail before any LLM call if CV cannot run
                labels = list(map(self._outcomes().get, self._modeling_notes()))
                n_pos, n_neg = sum(labels), len(labels) - sum(labels)
                if min(n_pos, n_neg) < self.config.folds:
                    raise CVInfeasible(
                        f"{n_pos} readmitted and {n_neg} not readmitted labelled notes "
                        f"cannot fill {self.config.folds} folds with both classes")
        return self.manifest

    # -- shared loaders ----------------------------------------------------

    def _load_cohort(self):
        with open(self.path("cohort.jsonl")) as fh:
            return {d["hadm_id"]: d for d in map(json.loads, fh)}

    def _load_pairs(self):
        with open(self.path("pairs.csv"), newline="") as fh:
            return list(csv.DictReader(fh))

    def _load_extractions(self):
        with open(self.path("extractions.jsonl")) as fh:
            return [ExtractionRecord(**json.loads(line)) for line in fh]

    def _outcomes(self):
        """index hadm_id -> readmission label."""
        return {row["index_hadm_id"]: int(row["label"]) for row in self._load_pairs()}

    def _modeling_notes(self):
        """index hadm_id -> discharge note, for admissions that have one."""
        cohort = self._load_cohort()
        out = {}
        for row in self._load_pairs():
            rec = cohort.get(row["index_hadm_id"])
            if rec and rec.get("discharge_note"):
                out[row["index_hadm_id"]] = rec["discharge_note"]
        return out

    # -- stages ------------------------------------------------------------

    def _stage_ingest(self):
        store = cohort_mod.load_tables(
            self.config.admissions_path,
            self.config.diagnoses_path,
            self.config.notes_path,
        )
        store = cohort_mod.filter_hf_cohort(store)
        pairs = cohort_mod.build_readmission_pairs(store)
        summary = cohort_mod.summarize_cohort(store, pairs)
        cohort_mod.write_cohort_jsonl(store, self.path("cohort.jsonl"))
        cohort_mod.write_pairs_csv(pairs, self.path("pairs.csv"))
        _write_json(self.path("cohort_summary.json"), asdict(summary))
        _write_json(self.path("rejects.json"), store.rejects)
        return ["rejects.json"]

    def _stage_extract(self):
        notes = self._modeling_notes()
        extractor = Extractor(self.gateway)
        results = self.gateway.map(lambda h: extractor.extract(notes[h], h), sorted(notes))
        quarantined = [r for r in results if isinstance(r, QuarantinedExtraction)]
        records = [r for r in results if not isinstance(r, QuarantinedExtraction)]
        write_jsonl(self.path("extractions.jsonl"), map(asdict, records))
        write_jsonl(self.path("quarantine.jsonl"), map(asdict, quarantined))
        return ["quarantine.jsonl"]

    def _stage_canonicalize(self):
        rows = []
        for rec in self._load_extractions():
            for v in canonicalize_record(rec):
                value = "" if v.value is None else f"{v.value:.6f}"
                rows.append([v.hadm_id, v.variable, value, v.original_text,
                             v.original_unit, v.status])
        rows.sort()
        write_csv(
            self.path("canonical_vitals.csv"),
            ["hadm_id", "variable", "value", "original_text", "original_unit", "status"],
            rows,
        )

    def _load_canonical_vitals(self):
        """variable -> hadm_id -> CanonicalVital (ok rows only)."""
        out: dict = {}
        with open(self.path("canonical_vitals.csv"), newline="") as fh:
            for row in csv.DictReader(fh):
                if row["status"] != "ok":
                    continue
                out.setdefault(row["variable"], {})[row["hadm_id"]] = CanonicalVital(
                    **{**row, "value": float(row["value"])})
        return out

    def _stage_normalize(self):
        records = self._load_extractions()
        entries = {}
        for variable in NORMALIZED_VARIABLES:
            found = [(rec.hadm_id, value) for rec in records
                     if (value := rec.get(variable)) is not None]
            n_distinct = len({text for _, text in found})
            if n_distinct < 2:
                log.info("normalize: skipping %s (%d distinct entries)", variable, n_distinct)
                continue
            entries[variable] = found
        if entries:  # one embedding request; clustering then reads the cache
            self.gateway.embed(sorted({text for found in entries.values() for _, text in found}))

        # clustered here, one variable at a time, so one PAM's memory is held
        # at once whatever max_concurrency; the workers carry only requests
        clusterings = {}
        for variable, found in entries.items():
            clusterings[variable] = cluster_variable(self.gateway, found, self.config.k_medoids)
            log.info("normalize: %s cluster sizes %s", variable,
                     sorted(clusterings[variable].cluster_sizes(), reverse=True)[:10])
        results = self.gateway.map(
            lambda variable: normalize_variable(
                self.gateway, variable, entries[variable], clusterings[variable]
            ),
            entries,
        )
        os.makedirs(self.path("schemes"), exist_ok=True)
        all_rows = []
        scheme_files = []
        for variable, (scheme, labeled) in zip(entries, results):
            scheme_path = os.path.join("schemes", f"{variable}.json")
            _write_json(self.path(scheme_path), asdict(scheme))
            scheme_files.append(scheme_path)
            for entry in labeled:
                all_rows.append(
                    [entry.hadm_id, entry.variable, entry.raw_text,
                     entry.assigned_category, entry.status]
                )
        all_rows.sort()
        write_csv(
            self.path("normalized_sdoh.csv"),
            ["hadm_id", "variable", "raw_text", "category", "status"],
            all_rows,
        )
        return scheme_files

    def _stage_evaluate_fidelity(self):
        records = self._load_extractions()
        canon = self._load_canonical_vitals()
        report = {"vitals": [], "categorical": []}

        if self.config.truth_vitals_path and os.path.exists(self.config.truth_vitals_path):
            truth_vitals = load_truth_vitals(self.config.truth_vitals_path)
            for variable in VITALS:
                row = evaluate_vital(
                    variable, canon.get(variable, {}), truth_vitals.get(variable, {})
                )
                if row:
                    report["vitals"].append(row)

        if self.config.truth_sdoh_path and os.path.exists(self.config.truth_sdoh_path):
            truth_sdoh = load_truth_sdoh(self.config.truth_sdoh_path)
            extracted_charted = {
                var: {r.hadm_id: r.charted_sdoh.get(var) for r in records}
                for var in CHARTED_KEYS
            }
            for variable in CHARTED_KEYS:
                row = evaluate_categorical(
                    variable, extracted_charted[variable], truth_sdoh.get(variable, {})
                )
                if row:
                    report["categorical"].append(row)

        _write_json(self.path("agreement_report.json"), report)

        codes = {h: rec.get("icd9_codes", []) for h, rec in self._load_cohort().items()}
        descriptions = icd9_descriptions()

        def judge(rec):
            try:
                return judge_diagnoses(
                    self.gateway, rec.hadm_id,
                    [d["condition"] for d in rec.diagnoses], codes[rec.hadm_id], descriptions,
                )
            except JudgeFailed as exc:
                log.warning("judge failed: %s", exc)
                return None

        results = self.gateway.map(judge, [rec for rec in records if codes.get(rec.hadm_id)])
        verdicts = [v for v in results if v is not None]
        judge_report = {
            "per_patient": list(map(asdict, verdicts)),
            "summary": corpus_judge_summary(verdicts) if verdicts else None,
            "n_failed": len(results) - len(verdicts),
        }
        _write_json(self.path("judge_report.json"), judge_report)

    def _stage_associate(self):
        outcomes = self._outcomes()
        canon = self._load_canonical_vitals()
        records = {r.hadm_id: r for r in self._load_extractions()}

        logistic = []
        for variable in [*VITALS, "age"]:
            xs, ys = [], []
            for hadm_id, label in outcomes.items():
                if variable == "age":
                    rec = records.get(hadm_id)
                    years = _age_years(rec.charted_sdoh.get("age")) if rec else None
                    if years is None:
                        continue
                    xs.append(years)
                else:
                    vital = canon.get(variable, {}).get(hadm_id)
                    if vital is None:
                        continue
                    xs.append(vital.value)
                ys.append(label)
            try:
                fit = stats_mod.fit_univariate_logistic(
                    xs, ys, standardize=self.config.standardize, variable=variable
                )
                logistic.append(fit.to_dict())
            except (InvalidInput, DegeneratePredictor, SeparationDetected,
                    NoConvergence) as exc:
                logistic.append({"variable": variable, "skipped": str(exc), "n": len(xs)})

        # gender bypasses normalization but still gets a chi-square row
        variables = {"gender": [
            LabeledEntry(h, "gender", r.charted_sdoh["gender"], r.charted_sdoh["gender"])
            for h, r in records.items()
            if r.charted_sdoh.get("gender") is not None
        ]}
        labeled_by_var: dict = {}
        with open(self.path("normalized_sdoh.csv"), newline="") as fh:
            for row in csv.DictReader(fh):
                labeled_by_var.setdefault(row["variable"], []).append(LabeledEntry(
                    row["hadm_id"], row["variable"], row["raw_text"], row["category"],
                    row["status"],
                ))
        variables.update(sorted(labeled_by_var.items()))

        chisq = []
        for variable, entries in variables.items():
            try:
                table = stats_mod.build_contingency(entries, outcomes)
                result = stats_mod.chi_square_test(table, variable=variable)
                result.unique_values = len({e.raw_text for e in entries})
                entry = asdict(result)
                entry["contingency"] = {
                    "rows": table.rows,
                    "counts": table.counts.astype(int).tolist(),
                }
                chisq.append(entry)
            except DegenerateTable as exc:
                chisq.append({"variable": variable, "skipped": str(exc)})

        _write_json(
            self.path("association_report.json"),
            {"logistic": logistic, "chi_square": chisq},
        )

    def _stage_summarize(self):
        notes = self._modeling_notes()
        records = {r.hadm_id: r for r in self._load_extractions()}
        summarizer = Summarizer(self.gateway)
        jobs = [(hadm_id, variant) for hadm_id in sorted(notes)
                for variant in ("overall", "no_number")]
        summaries = dict(zip(jobs, self.gateway.map(
            lambda job: summarizer.summarize(notes[job[0]], job[1], job[0]), jobs
        )))
        out = []
        for hadm_id in sorted(notes):
            out += [summaries[hadm_id, "overall"], summaries[hadm_id, "no_number"]]
            if hadm_id in records:
                out.append(render_structural(records[hadm_id], notes[hadm_id]))
        write_jsonl(self.path("summaries.jsonl"), map(asdict, out))

    def _stage_predict(self):
        outcomes = self._outcomes()
        notes = self._modeling_notes()
        summaries: dict = {}
        with open(self.path("summaries.jsonl")) as fh:
            for line in fh:
                d = json.loads(line)
                summaries.setdefault(d["variant"], {})[d["hadm_id"]] = d

        corpora = {"raw": {h: n for h, n in notes.items()}}
        for variant in ("overall", "no_number", "structural"):
            docs = {}
            for hadm_id, d in summaries.get(variant, {}).items():
                if variant == "no_number" and d["status"] == "contains_numbers":
                    continue
                docs[hadm_id] = d["text"]
            corpora[variant] = docs

        report = {}
        for variant, docs in corpora.items():
            hadm_ids = sorted(h for h in docs if h in outcomes)
            texts = [docs[h] for h in hadm_ids]
            labels = [outcomes[h] for h in hadm_ids]
            try:
                result = evaluate_cv(
                    texts, labels,
                    n_folds=self.config.folds,
                    seed=self.config.seed,
                    l2_lambda=self.config.l2_lambda,
                    variant=variant,
                )
                report[variant] = result.to_dict()
            except (InvalidInput, CVInfeasible, VectorizerDegenerate) as exc:
                report[variant] = {"input_variant": variant, "skipped": str(exc),
                                   "n_docs": len(texts)}
        _write_json(self.path("prediction_report.json"), report)


def report_files(out_dir):
    """The deterministic report outputs (excludes the timestamped manifest)."""
    names = [name for stage in STAGE_TABLE for name in stage.reports]
    return [os.path.join(out_dir, n) for n in names if os.path.exists(os.path.join(out_dir, n))]


def report_hash(out_dir):
    """One hash over all report files, for determinism checks."""
    h = hashlib.sha256()
    for path in report_files(out_dir):
        h.update(os.path.basename(path).encode())
        h.update(_sha256_file(path).encode())
    return h.hexdigest()
