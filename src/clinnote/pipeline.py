"""Stage orchestration: wiring the modules into reproducible runs.

Each stage reads its inputs from and writes its outputs into one run
directory, atomically, and records input/output content hashes in a run
manifest. ``STAGE_TABLE`` is the one description of the stages: what each
reads, which report files it writes and which config keys it reads.
Dependency checks, stage fingerprints and the report hash all come from it;
the manifest's ``code`` key, ``package_hash()``, covers the program itself.
Re-running a completed stage whose fingerprint and outputs are unchanged is
a no-op, which makes long live-LLM runs resumable.

``Runner.run_all`` starts each stage once its inputs' producers have run:
in ``STAGES`` order on the calling thread until a call to a backend that
waits has returned (``LLMGateway.calls_wait``), then each on its own
thread, all sharing the gateway's max_concurrency slots and map workers,
which serve first the stage with the most stages downstream (``_RANK``).
Summarize reads extract's output ``late``, after its requests, so it
starts beside extract once calls wait, and starts no further request once
extract has failed; ``_await_inputs`` alone decides whether an input's
producer is still running. So ``started``/``finished`` intervals may
overlap; each stage's manifest entry counts its own requests. Before any
request, ``run_all`` asks ``predict.stratified_folds`` whether the
labelled notes can fill the folds.
"""

from __future__ import annotations

import contextvars
import csv
import functools
import hashlib
import json
import logging
import operator
import os
import pathlib
import queue
import threading
import time
from dataclasses import dataclass

from . import cohort as cohort_mod
from . import stats as stats_mod
from .cohort import atomic_write, encode, write_csv, write_jsonl
from .config import Config
from .errors import DependencyMissing, InvalidInput, JudgeFailed, NoEstimate
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
from .gateway import ON_FIRST_WAIT, RANK, REQUEST_COUNTS, LLMGateway
from .normalize import NORMALIZED_VARIABLES, LabeledEntry, cluster_variable, normalize_variable
from .predict import evaluate_cv, stratified_folds
from .summarize import LLM_VARIANTS, VARIANTS, Summarizer, render_structural
from .vitals import VITALS, CanonicalVital, canonicalize_record

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class Stage:
    """One pipeline stage; ``Runner._stage_<name>`` does its work."""

    name: str
    inputs: tuple = ()  # run-dir files the stage reads
    late: tuple = ()  # run-dir files it reads only once its requests are answered
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
          inputs=("cohort.jsonl", "pairs.csv"),
          late=("extractions.jsonl",),
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
_NEEDS = {stage.name: {_PRODUCER[name] for name in stage.inputs} for stage in STAGE_TABLE}


def _downstream(name):
    """The stages that read ``name``'s outputs, directly or through others."""
    return {s for t in STAGE_TABLE if name in map(_PRODUCER.get, t.inputs + t.late)
            for s in {t.name, *_downstream(t.name)}}


_RANK = {name: len(_downstream(name)) for name in STAGES}  # the gateway's queue rank


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


# the order of canonical_vitals.csv and normalized_sdoh.csv rows; each pair is unique
_ROW_KEY = operator.attrgetter("hadm_id", "variable")


def _write_json(path, obj):
    """Keys sorted, records through ``cohort.encode``."""
    atomic_write(path, json.dumps(obj, indent=2, sort_keys=True, default=encode) + "\n")


class Runner:
    def __init__(self, config: Config, out_dir: str, gateway=None):
        self.config = config
        self.out = out_dir
        os.makedirs(out_dir, exist_ok=True)
        self._gateway = gateway
        self._owns_gateway = gateway is None
        self.manifest_path = os.path.join(out_dir, "manifest.json")
        self.manifest = self._load_manifest()
        self._manifest_lock = threading.Lock()  # stage threads record one at a time
        self._running = {}  # stage run_all started -> Event set once it recorded or failed

    # -- manifest ----------------------------------------------------------

    def _load_manifest(self):
        """The run dir's manifest, or a fresh one if other code wrote it; a
        file that is no JSON object, a truncated one say, counts as such."""
        try:
            with open(self.manifest_path) as fh:
                manifest = json.load(fh)
        except (FileNotFoundError, ValueError):
            manifest = None
        if isinstance(manifest, dict) and manifest.get("code") == package_hash():
            return manifest
        return {"code": package_hash(), "stages": {}}

    def _input_hashes(self, stage: Stage):
        """A stage's fingerprint: its run-dir inputs and the config keys it
        reads, a *_path key by its file's bytes if any."""
        hashes = {name: _sha256_file(self.path(name)) for name in stage.inputs + stage.late}
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

    def _await_inputs(self, names, wait=True):
        """Wait for the producers of ``names`` that run_all is running, then
        raise DependencyMissing unless each has run here and left its file.
        Without ``wait``, pass over the names whose producer is still
        running, and return them."""
        passed = []
        for name in names:
            if (event := self._running.get(_PRODUCER[name])) and not event.is_set():
                if not wait:
                    passed.append(name)
                    continue
                event.wait()
            if (_PRODUCER[name] not in self.manifest["stages"]
                    or not os.path.exists(self.path(name))):
                raise DependencyMissing(_PRODUCER[name])
        return passed

    # -- public API --------------------------------------------------------

    def run_stage(self, stage):
        """Run one stage; no-op if done with unchanged fingerprint and outputs.
        A late input that run_all is producing is checked and hashed only
        once the stage method has awaited it (``_await_inputs``), so such a
        stage is never skipped."""
        if stage not in _STAGE_BY_NAME:
            raise InvalidInput(f"unknown stage: {stage}")
        spec = _STAGE_BY_NAME[stage]
        self._await_inputs(spec.inputs)
        waits = self._await_inputs(spec.late, wait=False)

        input_hashes = None if waits else self._input_hashes(spec)
        done = self.manifest["stages"].get(stage)
        if done and done["input_hashes"] == input_hashes and all(
            os.path.exists(self.path(f)) and _sha256_file(self.path(f)) == digest
            for f, digest in done["output_hashes"].items()
        ):
            log.info("stage %s up to date; skipping", stage)
            return done

        started = time.time()
        counts = [0, 0]  # this run's requests: sent to the backend, answered by the cache
        context = contextvars.copy_context()  # the stage's own, counting its requests
        context.run(REQUEST_COUNTS.set, counts)
        context.run(RANK.set, _RANK[stage])
        # a stage method returns the files it wrote besides its reports
        side_outputs = context.run(getattr(self, "_stage_" + stage.replace("-", "_"))) or []
        entry = {
            "input_hashes": input_hashes or self._input_hashes(spec),
            "output_hashes": {
                f: _sha256_file(self.path(f)) for f in [*spec.reports, *side_outputs]
            },
            "started": started,
            "finished": time.time(),
            "network_calls": counts[0],
            "cache_hits": counts[1],
        }
        with self._manifest_lock:
            self.manifest["stages"][stage] = entry
            _write_json(self.manifest_path, self.manifest)
        return entry

    def run_all(self):
        """Run each stage once its inputs' producers have run (module doc).
        After a failure or Ctrl-C no further stage starts, and a running one
        that reads the failed stage's output late starts no further request;
        running stages record, then the first failure in ``STAGES`` order is
        raised."""
        self._running = {}
        self.run_stage("ingest")
        labels = list(map(self._outcomes().get, self._modeling_notes()))
        n_pos, n_neg = sum(labels), len(labels) - sum(labels)
        try:  # fail before any LLM call
            stratified_folds(labels, self.config.folds, self.config.seed)
        except NoEstimate as exc:
            raise NoEstimate(
                f"{n_pos} readmitted and {n_neg} not readmitted labelled notes "
                f"cannot fill {self.config.folds} folds with both classes") from exc
        done, failures = {"ingest"}, {}
        finished = queue.SimpleQueue()  # (stage, exception or None)

        def run(stage):
            try:
                self.run_stage(stage)
                finished.put((stage, None))
            except BaseException as exc:  # raised again on the calling thread
                finished.put((stage, exc))
            finally:
                self._running[stage].set()

        def start_ready():  # on the calling thread only, also as ON_FIRST_WAIT
            # threads start only once the gateway exists, so none races to make it
            serial = self._gateway is None or not self._gateway.calls_wait
            ready = [s for s in STAGES if not (failures or s in done or s in self._running)
                     and _NEEDS[s] <= done][:1 if serial else None]
            for stage in ready:
                self._running[stage] = threading.Event()
                if serial:
                    run(stage)
                else:
                    threading.Thread(target=run, args=(stage,), name=stage).start()

        received = 0
        token = ON_FIRST_WAIT.set(start_ready)  # starts summarize beside a serial extract
        try:
            while True:
                start_ready()
                if received == len(self._running):
                    break
                stage, exc = finished.get()
                received += 1
                if exc is None:
                    done.add(stage)
                else:
                    failures[stage] = exc
        except BaseException:  # Ctrl-C: running stages record before it is raised
            for event in self._running.values():
                event.wait()
            raise
        finally:
            ON_FIRST_WAIT.reset(token)
        if failures:
            raise failures[min(failures, key=STAGES.index)]
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
        write_jsonl(self.path("cohort.jsonl"), (store.admissions[h] for h in sorted(store.admissions)))
        write_csv(self.path("pairs.csv"), cohort_mod.ReadmissionPair, pairs)
        _write_json(self.path("cohort_summary.json"), summary)
        _write_json(self.path("rejects.json"), store.rejects)
        return ["rejects.json"]

    def _stage_extract(self):
        notes = self._modeling_notes()
        extractor = Extractor(self.gateway)
        results = self.gateway.map(lambda h: extractor.extract(notes[h], h), sorted(notes))
        quarantined = [r for r in results if isinstance(r, QuarantinedExtraction)]
        records = [r for r in results if not isinstance(r, QuarantinedExtraction)]
        write_jsonl(self.path("extractions.jsonl"), records)
        write_jsonl(self.path("quarantine.jsonl"), quarantined)
        return ["quarantine.jsonl"]

    def _stage_canonicalize(self):
        vitals = [v for rec in self._load_extractions() for v in canonicalize_record(rec)]
        write_csv(self.path("canonical_vitals.csv"), CanonicalVital, sorted(vitals, key=_ROW_KEY))

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
        # one embedding request for the distinct texts of all variables
        texts = sorted({text for found in entries.values() for _, text in found})
        rows = dict(zip(texts, self.gateway.embed(texts))) if texts else {}
        # clustered here, one variable at a time, so one PAM's memory is held
        # at once whatever max_concurrency; the workers carry only requests
        medoids = {variable: cluster_variable(found, rows, self.config.k_medoids)
                   for variable, found in entries.items()}
        del rows  # the embeddings, held only while clustering
        results = self.gateway.map(
            lambda variable: normalize_variable(
                self.gateway, variable, entries[variable], medoids[variable]
            ),
            entries,
        )
        os.makedirs(self.path("schemes"), exist_ok=True)
        scheme_files = [os.path.join("schemes", f"{variable}.json") for variable in entries]
        for name, (scheme, _) in zip(scheme_files, results):
            _write_json(self.path(name), scheme)
        for name in os.listdir(self.path("schemes")):  # an earlier run's variables
            if os.path.join("schemes", name) not in scheme_files:
                os.remove(self.path(os.path.join("schemes", name)))
        labeled = sorted((entry for _, out in results for entry in out), key=_ROW_KEY)
        write_csv(self.path("normalized_sdoh.csv"), LabeledEntry, labeled)
        return scheme_files

    def _stage_evaluate_fidelity(self):
        records = self._load_extractions()
        canon = self._load_canonical_vitals()
        report = {"vitals": [], "categorical": []}

        if self.config.truth_vitals_path:
            truth_vitals = load_truth_vitals(self.config.truth_vitals_path)
            for variable in VITALS:
                row = evaluate_vital(
                    variable, canon.get(variable, {}), truth_vitals.get(variable, {})
                )
                if row:
                    report["vitals"].append(row)

        if self.config.truth_sdoh_path:
            truth_sdoh = load_truth_sdoh(self.config.truth_sdoh_path)
            for variable in CHARTED_KEYS:
                extracted = {r.hadm_id: r.charted_sdoh.get(variable) for r in records}
                row = evaluate_categorical(variable, extracted, truth_sdoh.get(variable, {}))
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
            "per_patient": verdicts,
            "summary": corpus_judge_summary(verdicts) if verdicts else None,
            "n_failed": len(results) - len(verdicts),
        }
        _write_json(self.path("judge_report.json"), judge_report)

    def _stage_associate(self):
        outcomes = self._outcomes()
        canon = self._load_canonical_vitals()
        records = {r.hadm_id: r for r in self._load_extractions()}
        # variable -> hadm_id -> predictor value
        values = {variable: {h: vital.value for h, vital in canon.get(variable, {}).items()}
                  for variable in VITALS}
        values["age"] = {h: years for h, r in records.items()
                         if (years := _age_years(r.charted_sdoh.get("age"))) is not None}

        logistic = []
        for variable, by_hadm in values.items():
            xs = [by_hadm[h] for h in outcomes if h in by_hadm]
            ys = [label for h, label in outcomes.items() if h in by_hadm]
            try:
                fit = stats_mod.fit_univariate_logistic(
                    xs, ys, standardize=self.config.standardize, variable=variable
                )
                logistic.append(fit.to_dict())
            except NoEstimate as exc:
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
                labeled_by_var.setdefault(row["variable"], []).append(LabeledEntry(**row))
        variables.update(sorted(labeled_by_var.items()))

        chisq = []
        for variable, entries in variables.items():
            try:
                table = stats_mod.build_contingency(entries, outcomes)
                result = stats_mod.chi_square_test(table, variable=variable)
                result.unique_values = len({e.raw_text for e in entries})
                result.contingency = {"rows": table.rows,
                                      "counts": table.counts.astype(int).tolist()}
                chisq.append(result)
            except NoEstimate as exc:
                chisq.append({"variable": variable, "skipped": str(exc)})

        _write_json(
            self.path("association_report.json"),
            {"logistic": logistic, "chi_square": chisq},
        )

    def _stage_summarize(self):
        notes = self._modeling_notes()
        # extract's output, read after the requests, while extract runs beside
        waits = self._await_inputs(_STAGE_BY_NAME["summarize"].late, wait=False)
        summarizer = Summarizer(self.gateway)
        jobs = [(hadm_id, variant) for hadm_id in sorted(notes) for variant in LLM_VARIANTS]

        def summarize(job):
            self._await_inputs(waits, wait=False)  # no job starts once extract failed
            return summarizer.summarize(notes[job[0]], job[1], job[0])

        summaries = dict(zip(jobs, self.gateway.map(summarize, jobs)))
        self._await_inputs(waits)
        records = {r.hadm_id: r for r in self._load_extractions()}
        out = []
        for hadm_id in sorted(notes):
            out += [summaries[hadm_id, variant] for variant in LLM_VARIANTS]
            if hadm_id in records:
                out.append(render_structural(records[hadm_id], notes[hadm_id]))
        write_jsonl(self.path("summaries.jsonl"), out)

    def _stage_predict(self):
        outcomes = self._outcomes()
        notes = self._modeling_notes()
        corpora = {"raw": notes, **{variant: {} for variant in VARIANTS}}
        with open(self.path("summaries.jsonl")) as fh:
            for d in map(json.loads, fh):  # only ok ones: a no-number one with digits is not
                if d["status"] == "ok":
                    corpora[d["variant"]][d["hadm_id"]] = d["text"]

        report = {}
        for variant, docs in corpora.items():
            hadm_ids = sorted(docs)
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
            except NoEstimate as exc:
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
