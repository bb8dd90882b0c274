import collections
import compileall
import csv
import dataclasses
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time

import pytest

from clinnote import fidelity, normalize, pipeline
from clinnote.cli import main
from clinnote.cohort import AdmissionRecord, ReadmissionPair, encode
from clinnote.config import Config, config_from_dict, validate_config
from clinnote.errors import (
    ConfigError,
    DependencyMissing,
    InvalidInput,
    NoEstimate,
    RequestFailed,
)
from clinnote.extraction import QuarantinedExtraction
from clinnote.fixture import write_fixture
from clinnote.gateway import REQUEST_COUNTS, LLMGateway, MockBackend
from clinnote.normalize import LabeledEntry
from clinnote.pipeline import STAGE_TABLE, STAGES, Runner, package_hash, report_hash
from clinnote.prompts import PromptTemplate, load_prompt
from clinnote.vitals import CanonicalVital

from conftest import make_config


class TestConfig:
    def test_defaults(self):
        cfg = Config()
        assert cfg.folds == 5
        assert cfg.k_medoids == 200
        assert cfg.l2_lambda == 1.0
        assert cfg.standardize is True
        assert cfg.mock_mode is False
        assert cfg.temperature == 0.0
        assert cfg.summary_temperature == 0.3

    def test_unknown_key_fatal(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            config_from_dict({"foldz": 3})

    def test_type_mismatch_fatal(self):
        with pytest.raises(ConfigError):
            config_from_dict({"folds": "five"})
        with pytest.raises(ConfigError):
            config_from_dict({"folds": True})  # bool is not an int here
        with pytest.raises(ConfigError):
            config_from_dict({"mock_mode": 1})

    @pytest.mark.parametrize("key, value", [
        ("max_concurrency", 0), ("max_concurrency", -2), ("k_medoids", 0),
        ("folds", 1), ("max_tokens", 0), ("max_retries", -1),
    ])
    def test_out_of_range_fatal(self, key, value):
        with pytest.raises(ConfigError, match=f"'{key}': must be at least"):
            config_from_dict({key: value})
        with pytest.raises(ConfigError, match=f"'{key}': must be at least"):
            Config(**{key: value})

    @pytest.mark.parametrize("key", ["temperature", "summary_temperature", "l2_lambda"])
    @pytest.mark.parametrize("value", [-0.5, float("nan"), float("inf")])
    def test_negative_or_non_finite_float_fatal(self, key, value):
        with pytest.raises(ConfigError, match=f"'{key}': must be at least 0 and finite"):
            config_from_dict({key: value})

    def test_non_finite_float_in_json_file_fatal(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"summary_temperature": NaN}')  # Python's json reads NaN
        with pytest.raises(ConfigError, match="summary_temperature"):
            validate_config(str(path))

    def test_smallest_allowed_values_accepted(self):
        cfg = config_from_dict({"max_concurrency": 1, "k_medoids": 1, "folds": 2,
                                "max_tokens": 1, "max_retries": 0})
        assert (cfg.max_concurrency, cfg.folds, cfg.max_retries) == (1, 2, 0)

    def test_float_accepts_int(self):
        assert config_from_dict({"l2_lambda": 2}).l2_lambda == 2

    def test_file_loading(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"folds": 3, "mock_mode": True}))
        cfg = validate_config(str(path))
        assert cfg.folds == 3 and cfg.mock_mode

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            validate_config("/no/such/config.json")

    def test_bad_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            validate_config(str(path))

    def test_non_object_root(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError):
            validate_config(str(path))

    def test_api_key_from_env(self, monkeypatch):
        cfg = Config(api_key_env="CLINNOTE_TEST_KEY")
        assert cfg.api_key() == ""
        monkeypatch.setenv("CLINNOTE_TEST_KEY", "sekrit")
        assert cfg.api_key() == "sekrit"


FIXTURE_REPORT_HASH = "fde6e7ff59b91e685f7d2e9d6020100f92bf3018503969f0cb4476ae700e7074"
# SHA-256 of the fixture run's sorted cache keys: the exact bytes of every
# request (system prompt, user content, temperature, max_tokens, model) and
# the backend it went to
FIXTURE_REQUEST_KEYS_HASH = "bfffe1c38ab5b999d95281f4bfd584569befd9c59fee6d764bb04876bbaac59c"


def fixture_config(tmp_path, **overrides):
    data_dir = tmp_path / "data"
    paths = write_fixture(str(data_dir), seed=0)
    return make_config(
        tmp_path,
        admissions_path=paths["admissions.csv"],
        diagnoses_path=paths["diagnoses.csv"],
        notes_path=paths["notes.csv"],
        truth_vitals_path=paths["truth_vitals.csv"],
        truth_sdoh_path=paths["truth_sdoh.csv"],
        **{"folds": 3, "k_medoids": 8, **overrides},
    )


@pytest.fixture(scope="module")
def fixture_run(tmp_path_factory):
    """The config and run directory of one completed fixture run; tests
    read them and leave them unchanged."""
    tmp_path = tmp_path_factory.mktemp("fixture_run")
    cfg = fixture_config(tmp_path)
    run_all(cfg, str(tmp_path / "run"))
    return cfg, str(tmp_path / "run")


def run_all(cfg, out):
    """``Runner(cfg, out).run_all()``, closing the runner's gateway after."""
    runner = Runner(cfg, out)
    try:
        return runner.run_all()
    finally:
        runner.close()


def rerun_after(cfg, out, **changes):
    """The stages a completed run re-runs after ``changes`` to its config,
    and the network calls that second run makes."""
    first = run_all(cfg, out)["stages"]
    changed = dataclasses.replace(cfg, **changes)
    gateway = LLMGateway(changed)
    try:
        second = Runner(changed, out, gateway=gateway).run_all()["stages"]
    finally:
        gateway.close()
    rerun = [s for s in STAGES if second[s]["finished"] != first[s]["finished"]]
    return rerun, gateway.network_calls


def edit_manifest(out, edit):
    """Rewrite the manifest in ``out`` after ``edit`` changes it in place."""
    path = os.path.join(out, "manifest.json")
    with open(path) as fh:
        manifest = json.load(fh)
    edit(manifest)
    with open(path, "w") as fh:
        json.dump(manifest, fh)


def other_code(manifest):
    manifest["code"] = "0" * 64


CONFIG_KEYS = frozenset(f.name for f in dataclasses.fields(Config))


class RecordingConfig(Config):
    """A Config that notes in ``reads`` each field read while ``stage`` is set."""

    stage = None

    def __getattribute__(self, name):
        if name in CONFIG_KEYS:
            stage = object.__getattribute__(self, "stage")
            if stage is not None:
                object.__getattribute__(self, "reads").setdefault(stage, set()).add(name)
        return object.__getattribute__(self, name)


class TestRunner:
    def test_run_all_produces_reports(self, tmp_path):
        cfg = fixture_config(tmp_path)
        out = str(tmp_path / "run")
        run_all(cfg, out)
        for name in ("cohort.jsonl", "pairs.csv", "extractions.jsonl",
                     "canonical_vitals.csv", "normalized_sdoh.csv",
                     "agreement_report.json", "judge_report.json",
                     "association_report.json", "summaries.jsonl",
                     "prediction_report.json", "manifest.json"):
            assert os.path.exists(os.path.join(out, name)), name

    def test_manifest_records_every_stage(self, tmp_path):
        cfg = fixture_config(tmp_path)
        out = str(tmp_path / "run")
        manifest = run_all(cfg, out)
        assert set(manifest["stages"]) == set(STAGES)
        for stage in STAGE_TABLE:
            entry = manifest["stages"][stage.name]
            assert entry["output_hashes"]
            keys = {k for k in entry["input_hashes"] if k.startswith("config:")}
            assert keys == {f"config:{key}" for key in stage.config}, stage.name

    def test_unknown_stage(self, tmp_path):
        runner = Runner(fixture_config(tmp_path), str(tmp_path / "run"))
        with pytest.raises(InvalidInput):
            runner.run_stage("frobnicate")

    def test_dependency_missing(self, tmp_path):
        runner = Runner(fixture_config(tmp_path), str(tmp_path / "run"))
        with pytest.raises(DependencyMissing) as exc:
            runner.run_stage("extract")
        assert exc.value.stage == "ingest"

    def test_rerun_is_noop(self, tmp_path):
        cfg = fixture_config(tmp_path)
        out = str(tmp_path / "run")
        runner = Runner(cfg, out)
        first = runner.run_stage("ingest")
        second = runner.run_stage("ingest")
        assert second["finished"] == first["finished"]  # skipped, not redone

    def test_input_change_triggers_rerun(self, tmp_path):
        cfg = fixture_config(tmp_path)
        out = str(tmp_path / "run")
        runner = Runner(cfg, out)
        first = runner.run_stage("ingest")
        with open(cfg.notes_path, "a") as fh:
            fh.write("")  # no content change -> still a no-op
        assert runner.run_stage("ingest")["finished"] == first["finished"]
        with open(cfg.notes_path, "a") as fh:
            fh.write("\n")
        second = Runner(cfg, out).run_stage("ingest")
        assert second["finished"] > first["finished"]

    def test_config_change_triggers_rerun(self, tmp_path):
        rerun, _ = rerun_after(fixture_config(tmp_path), str(tmp_path / "run"), seed=99)
        assert "predict" in rerun
        assert "ingest" not in rerun and "canonicalize" not in rerun

    def test_seed_change_asks_the_backend_again(self, tmp_path):
        # the mock seed is in every cache key, so seed 99 gets seed-99 replies
        out = str(tmp_path / "run")
        rerun, network_calls = rerun_after(fixture_config(tmp_path), out, seed=99)
        assert network_calls > 0
        with open(os.path.join(out, "manifest.json")) as fh:
            stages = json.load(fh)["stages"]
        assert stages["extract"]["network_calls"] == 10  # one per index note
        assert sum(stages[s]["network_calls"] for s in rerun) == network_calls

    def test_manifest_counts_belong_to_the_run_of_each_stage(self, tmp_path):
        cfg = fixture_config(tmp_path)
        out = str(tmp_path / "run")
        gateway = LLMGateway(cfg)
        try:
            first = Runner(cfg, out, gateway=gateway).run_all()
        finally:
            gateway.close()
        stages = first["stages"]
        assert sum(e["network_calls"] for e in stages.values()) == gateway.network_calls
        assert sum(e["cache_hits"] for e in stages.values()) == gateway.cache_hits
        second = run_all(dataclasses.replace(cfg, folds=4), out)
        assert second["stages"]["predict"]["network_calls"] == 0
        assert second["stages"]["predict"]["cache_hits"] == 0
        assert second["stages"]["extract"] == stages["extract"]
        assert second["stages"]["extract"]["network_calls"] == 10

    def test_a_warm_cache_run_counts_every_answer_as_a_hit(self, tmp_path, monkeypatch):
        cfg = fixture_config(tmp_path)
        run_all(cfg, str(tmp_path / "cold"))
        gateway = LLMGateway(cfg)
        asked = []  # (the asking stage's request counts, texts embedded or None for a chat)

        def chat(request, chat=gateway.chat):
            asked.append((REQUEST_COUNTS.get(), None))
            return chat(request)

        def embed(texts, embed=gateway.embed):
            asked.append((REQUEST_COUNTS.get(), texts))
            return embed(texts)

        monkeypatch.setattr(gateway, "chat", chat)
        monkeypatch.setattr(gateway, "embed", embed)
        try:
            stages = Runner(cfg, str(tmp_path / "warm"), gateway=gateway).run_all()["stages"]
        finally:
            gateway.close()
        assert gateway.network_calls == 0
        assert all(entry["network_calls"] == 0 for entry in stages.values())
        assert sum(entry["cache_hits"] for entry in stages.values()) == gateway.cache_hits
        [normalize] = {id(counts): counts for counts, texts in asked if texts is not None}.values()
        chats = sum(counts is normalize and texts is None for counts, texts in asked)
        embedded = {text for counts, texts in asked if texts is not None for text in texts}
        assert chats > 0 and embedded
        assert stages["normalize"]["cache_hits"] == chats + len(embedded)

    @pytest.mark.parametrize("key, value, rerun", [
        ("folds", 4, ["predict"]),
        ("standardize", False, ["associate"]),
        ("l2_lambda", 0.5, ["predict"]),
        ("summary_temperature", 0.7, ["summarize"]),
    ])
    def test_config_key_reruns_only_the_stages_reading_it(self, tmp_path, key, value,
                                                          rerun):
        got, network_calls = rerun_after(
            fixture_config(tmp_path), str(tmp_path / "run"), **{key: value})
        assert got == rerun
        if "summarize" not in rerun:
            assert network_calls == 0

    def test_same_bytes_input_at_new_path_reruns_nothing(self, tmp_path):
        cfg = fixture_config(tmp_path)
        moved = str(tmp_path / "moved_notes.csv")
        shutil.copyfile(cfg.notes_path, moved)
        assert rerun_after(cfg, str(tmp_path / "run"), notes_path=moved) == ([], 0)

    def test_each_stage_reads_only_its_config_keys(self, tmp_path, monkeypatch):
        cfg = RecordingConfig(**dataclasses.asdict(fixture_config(tmp_path)))
        cfg.reads = {}
        for stage in STAGES:
            method = "_stage_" + stage.replace("-", "_")

            def recorded(runner, _run=getattr(Runner, method), _stage=stage):
                runner.config.stage = _stage
                try:
                    return _run(runner)
                finally:
                    runner.config.stage = None

            monkeypatch.setattr(Runner, method, recorded)
        run_all(cfg, str(tmp_path / "run"))
        run_only = CONFIG_KEYS - {key for stage in STAGE_TABLE for key in stage.config}
        assert run_only == {"api_key_env", "cache_dir", "max_concurrency", "max_retries"}
        for stage in STAGE_TABLE:
            assert cfg.reads.get(stage.name, set()) - set(stage.config) <= run_only, stage.name
        assert cfg.reads["predict"] == {"folds", "seed", "l2_lambda"}

    @pytest.mark.parametrize("key, value", [
        ("max_concurrency", 1), ("max_retries", 0), ("cache_dir", "elsewhere"),
    ])
    def test_run_only_key_change_reruns_nothing(self, tmp_path, key, value):
        cfg = fixture_config(tmp_path)
        out = str(tmp_path / "run")
        first = run_all(cfg, out)["stages"]
        if key == "cache_dir":
            value = str(tmp_path / value)
        changed = dataclasses.replace(cfg, **{key: value})
        gateway = LLMGateway(changed)
        try:
            second = Runner(changed, out, gateway=gateway).run_all()["stages"]
        finally:
            gateway.close()
        assert [s for s in STAGES if second[s]["finished"] != first[s]["finished"]] == []
        assert gateway.network_calls == 0

    def _rerun_stages(self, cfg, out, edit):
        """Stages that run again after ``edit`` on a completed run."""
        first = run_all(cfg, out)["stages"]
        first = {stage: entry["finished"] for stage, entry in first.items()}
        edit()
        second = run_all(cfg, out)["stages"]
        return [s for s in STAGES if second[s]["finished"] != first[s]]

    def test_prompt_edit_reruns_every_stage_from_the_cache(self, tmp_path, monkeypatch):
        # an edited copy of the package stands for the edited program
        package = tmp_path / "clinnote"
        shutil.copytree(os.path.dirname(pipeline.__file__), package)
        judge = package / "prompts" / "judge.txt"
        judge.write_text(judge.read_text() + "\nBe strict.\n")
        edited = PromptTemplate("judge", judge.read_text())
        cfg = fixture_config(tmp_path)
        out = str(tmp_path / "run")
        first = run_all(cfg, out)["stages"]
        monkeypatch.setattr(pipeline, "package_hash",
                            lambda: package_hash.__wrapped__(str(package)))
        monkeypatch.setattr(fidelity, "load_prompt",
                            lambda name: edited if name == "judge" else load_prompt(name))
        gateway = LLMGateway(cfg)
        try:
            second = Runner(cfg, out, gateway=gateway).run_all()["stages"]
        finally:
            gateway.close()
        assert [s for s in STAGES if second[s]["finished"] != first[s]["finished"]] == list(
            STAGES)
        # only the judge requests, which carry the edited prompt, miss the cache
        assert gateway.network_calls == second["evaluate-fidelity"]["network_calls"] == 10

    @pytest.mark.parametrize("older", ["other code", "before the code key"])
    def test_new_code_reruns_every_stage_from_the_cache(self, tmp_path, monkeypatch, older):
        cfg = fixture_config(tmp_path)
        out = str(tmp_path / "run")
        first = run_all(cfg, out)["stages"]

        def before_the_code_key(manifest):  # with the whole-run counts written then
            del manifest["code"]
            manifest["gateway"] = {"network_calls": 59}

        if older == "other code":
            monkeypatch.setattr(pipeline, "package_hash", lambda: "0" * 64)
        else:
            edit_manifest(out, before_the_code_key)
        gateway = LLMGateway(cfg)
        try:
            second = Runner(cfg, out, gateway=gateway).run_all()
        finally:
            gateway.close()
        assert [s for s in STAGES
                if second["stages"][s]["finished"] != first[s]["finished"]] == list(STAGES)
        assert gateway.network_calls == 0
        assert set(second) == {"code", "stages"}
        assert report_hash(out) == FIXTURE_REPORT_HASH
        assert run_all(cfg, out)["stages"] == second["stages"]  # now every stage skips

    def test_outputs_of_other_code_are_no_inputs(self, tmp_path):
        cfg = fixture_config(tmp_path)
        out = str(tmp_path / "run")
        run_all(cfg, out)
        edit_manifest(out, other_code)
        runner = Runner(cfg, out)
        with pytest.raises(DependencyMissing, match="this version of clinnote") as exc:
            runner.run_stage("predict")
        assert exc.value.stage == "ingest"
        assert runner._gateway is None  # no request could have been sent

    @pytest.mark.parametrize("text", ['{"code": ', "[]", "null", '"stages"', "\udcff"])
    def test_manifest_that_is_no_json_object_starts_afresh(self, tmp_path, fixture_run,
                                                          text):
        out = shutil.copytree(fixture_run[1], tmp_path / "run")
        (out / "manifest.json").write_bytes(text.encode("utf-8", "surrogateescape"))
        runner = Runner(fixture_config(tmp_path), str(out))
        assert runner.manifest == {"code": package_hash(), "stages": {}}
        with pytest.raises(DependencyMissing):
            runner.run_stage("extract")
        runner.run_stage("ingest")
        assert list(json.loads((out / "manifest.json").read_text())["stages"]) == ["ingest"]

    def test_edited_output_reruns_its_stage(self, tmp_path):
        cfg = fixture_config(tmp_path)
        out = str(tmp_path / "run")
        report = os.path.join(out, "prediction_report.json")

        def edit_report():
            with open(report, "a") as fh:
                fh.write(" ")

        assert self._rerun_stages(cfg, out, edit_report) == ["predict"]
        assert report_hash(out) == FIXTURE_REPORT_HASH

    def test_each_prompt_is_read_once(self):
        assert load_prompt("judge") is load_prompt("judge")

    def test_truth_edit_triggers_rerun(self, tmp_path):
        cfg = fixture_config(tmp_path)

        def edit_truth():
            with open(cfg.truth_vitals_path, "a") as fh:
                fh.write("H001,hr,80.0,bpm,2130-02-02T13:00:00\n")

        rerun = self._rerun_stages(cfg, str(tmp_path / "run"), edit_truth)
        assert rerun == ["evaluate-fidelity"]

    def test_malformed_truth_rows_skipped(self, tmp_path, caplog):
        cfg = fixture_config(tmp_path)
        with open(cfg.truth_vitals_path, "a") as fh:
            fh.write("H001,hr,,bpm,2130-02-02T13:00:00\nH001,hr,80.0,bpm,x,extra\n")
        with open(cfg.truth_sdoh_path, "a") as fh:
            fh.write("H001,language,\n")
        out = str(tmp_path / "run")
        run_all(cfg, out)
        assert report_hash(out) == FIXTURE_REPORT_HASH
        skipped = [r.getMessage() for r in caplog.records if "truth row skipped" in r.message]
        assert len(skipped) == 3

    @pytest.mark.parametrize("key, rows, other", [
        ("truth_vitals_path", "vitals", "categorical"),
        ("truth_sdoh_path", "categorical", "vitals"),
    ])
    def test_truth_file_named_but_missing_fails_the_stage(self, tmp_path, fixture_run, key,
                                                          rows, other):
        out = shutil.copytree(fixture_run[1], tmp_path / "run")
        cfg = fixture_config(tmp_path)
        missing = Runner(dataclasses.replace(cfg, **{key: str(tmp_path / "no_such.csv")}),
                         str(out))
        with pytest.raises(FileNotFoundError, match="no_such.csv"):
            missing.run_stage("evaluate-fidelity")
        empty = Runner(dataclasses.replace(cfg, **{key: ""}), str(out))
        try:  # an empty path still skips its rows
            empty.run_stage("evaluate-fidelity")
        finally:
            empty.close()
        report = json.loads((out / "agreement_report.json").read_text())
        assert report[rows] == [] and report[other]

    def test_predict_admits_only_ok_summaries(self, tmp_path, fixture_run, monkeypatch):
        out = shutil.copytree(fixture_run[1], tmp_path / "run")
        rows = [json.loads(line) for line in (out / "summaries.jsonl").read_text().splitlines()]
        refused = next(row for row in rows if row["variant"] == "overall")
        refused["status"] = "refused"
        (out / "summaries.jsonl").write_text("".join(json.dumps(row) + "\n" for row in rows))
        corpora = {}

        def recording(texts, labels, **kwargs):
            corpora[kwargs["variant"]] = texts
            return real(texts, labels, **kwargs)

        real = pipeline.evaluate_cv
        monkeypatch.setattr(pipeline, "evaluate_cv", recording)
        Runner(fixture_config(tmp_path), str(out)).run_stage("predict")
        assert refused["text"] not in corpora["overall"]
        assert len(corpora["overall"]) == len(corpora["raw"]) - 1

    def test_unfillable_folds_fail_before_any_request(self, tmp_path):
        runner = Runner(fixture_config(tmp_path, folds=5), str(tmp_path / "run"))
        try:
            with pytest.raises(NoEstimate, match="6 readmitted and 4 not readmitted.* 5 folds"):
                runner.run_all()
            assert runner.gateway.network_calls == 0
            assert list(runner.manifest["stages"]) == ["ingest"]
        finally:
            runner.close()

    def test_unfillable_variant_is_skipped(self, tmp_path):
        out = str(tmp_path / "run")
        run_all(fixture_config(tmp_path), out)
        Runner(fixture_config(tmp_path, folds=5), out).run_stage("predict")
        with open(os.path.join(out, "prediction_report.json")) as fh:
            pred = json.load(fh)
        assert pred["raw"]["skipped"] == "could not build 5 folds with both classes"
        assert pred["raw"]["n_docs"] == 10

    def test_degenerate_vocabulary_skips_only_its_variant(self, tmp_path):
        out = str(tmp_path / "run")
        run_all(fixture_config(tmp_path), out)
        path = os.path.join(out, "summaries.jsonl")
        with open(path) as fh:
            rows = [json.loads(line) for line in fh]
        structural = [row for row in rows if row["variant"] == "structural"]
        for i, row in enumerate(structural):
            row["text"] = f"only{i}"
        with open(path, "w") as fh:
            fh.writelines(json.dumps(row) + "\n" for row in rows)
        Runner(fixture_config(tmp_path), out).run_stage("predict")
        with open(os.path.join(out, "prediction_report.json")) as fh:
            pred = json.load(fh)
        assert pred["structural"]["skipped"] == "no token appears in >= 2 training documents"
        for variant in ("raw", "overall", "no_number"):
            assert "per_fold" in pred[variant], variant

    @pytest.mark.parametrize("stage, target", [
        ("associate", "clinnote.stats.fit_univariate_logistic"),
        ("predict", "clinnote.pipeline.evaluate_cv"),
    ])
    def test_invalid_input_fails_the_stage(self, tmp_path, fixture_run, monkeypatch, stage,
                                           target):
        """A caller's mistake is no skipped row: the stage fails and writes
        no report."""
        out = shutil.copytree(fixture_run[1], tmp_path / "run")
        edit_manifest(out, lambda manifest: manifest["stages"].pop(stage))
        (report,) = pipeline._STAGE_BY_NAME[stage].reports
        before = (out / report).read_bytes()

        def mistaken(*args, **kwargs):
            raise InvalidInput("a caller's mistake")

        monkeypatch.setattr(target, mistaken)
        with pytest.raises(InvalidInput, match="a caller's mistake"):
            Runner(fixture_config(tmp_path), str(out)).run_stage(stage)
        assert (out / report).read_bytes() == before
        assert stage not in json.loads((out / "manifest.json").read_text())["stages"]

    def test_blank_discharge_note_is_sent_nowhere(self, tmp_path):
        cfg = fixture_config(tmp_path)
        with open(cfg.notes_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["hadm_id"] == "H001"
        rows[0]["text"] = "   \n  "
        with open(cfg.notes_path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        sent = []

        class Recording(MockBackend):
            def chat(self, request):
                sent.append(request.user_content)
                return super().chat(request)

        out = tmp_path / "run"
        gateway = LLMGateway(cfg, backend=Recording())
        try:
            Runner(cfg, str(out), gateway=gateway).run_all()
        finally:
            gateway.close()
        cohort = {d["hadm_id"]: d for d in
                  map(json.loads, (out / "cohort.jsonl").read_text().splitlines())}
        assert cohort["H001"]["discharge_note"] is None
        for name in ("extractions.jsonl", "summaries.jsonl"):
            hadm_ids = {json.loads(line)["hadm_id"]
                        for line in (out / name).read_text().splitlines()}
            assert len(hadm_ids) == 9 and "H001" not in hadm_ids, name
        assert sent and all(text.strip() for text in sent)

    def test_stage_inputs_are_earlier_reports(self):
        produced = set()
        for stage in STAGE_TABLE:
            assert set(stage.inputs + stage.late) <= produced, stage.name
            produced |= set(stage.reports)

    @pytest.mark.parametrize("stage", STAGE_TABLE[1:], ids=lambda stage: stage.name)
    def test_each_stage_reads_only_the_files_its_table_row_lists(self, tmp_path, fixture_run,
                                                                 stage):
        """Run alone in a directory holding its ``inputs`` and ``late`` files
        and the other stages' manifest entries, a stage asks the cache only
        and writes the fixture run's bytes; so the skip rule, which hashes
        just those files, sees every file a stage reads."""
        cfg, full = fixture_run
        with open(os.path.join(full, "manifest.json")) as fh:
            manifest = json.load(fh)
        recorded = manifest["stages"].pop(stage.name)
        out = tmp_path / "run"
        out.mkdir()
        for name in stage.inputs + stage.late:
            shutil.copy(os.path.join(full, name), out / name)
        (out / "manifest.json").write_text(json.dumps(manifest))
        runner = Runner(cfg, str(out))
        try:
            entry = runner.run_stage(stage.name)
        finally:
            runner.close()
        assert entry["network_calls"] == 0
        assert entry["input_hashes"] == recorded["input_hashes"]
        assert entry["output_hashes"] == recorded["output_hashes"]

    def test_fixture_report_hash_pinned(self, tmp_path):
        cfg = fixture_config(tmp_path)
        out = str(tmp_path / "run")
        run_all(cfg, out)
        assert report_hash(out) == FIXTURE_REPORT_HASH

    @staticmethod
    def _request_keys(tmp_path, **overrides):
        cfg = fixture_config(tmp_path, **overrides)
        gateway = LLMGateway(cfg)
        out = str(tmp_path / "run")
        Runner(cfg, out, gateway=gateway).run_all()
        gateway.close()
        assert report_hash(out) == FIXTURE_REPORT_HASH
        return sorted(gateway.cache._entries)

    def test_fixture_request_keys_pinned(self, tmp_path):
        keys = self._request_keys(tmp_path)
        assert len(keys) == 77
        digest = hashlib.sha256("\n".join(keys).encode()).hexdigest()
        assert digest == FIXTURE_REQUEST_KEYS_HASH

    @pytest.mark.parametrize("workers", [1, 4])
    def test_report_hash_same_at_any_concurrency(self, tmp_path, workers):
        class Jittery(MockBackend):
            """Sleeps 0-3 ms by request hash, so replies finish out of order."""

            def chat(self, request):
                digest = hashlib.sha256(request.user_content.encode()).digest()
                time.sleep(digest[0] % 4 / 1000)
                return super().chat(request)

        cfg = fixture_config(tmp_path, max_concurrency=workers)
        gateway = LLMGateway(cfg, backend=Jittery())
        out = str(tmp_path / "run")
        Runner(cfg, out, gateway=gateway).run_all()
        gateway.close()
        assert report_hash(out) == FIXTURE_REPORT_HASH

    def test_normalize_embeds_once(self, tmp_path):
        batches = []

        class Recording(MockBackend):
            def embed(self, model, texts):
                batches.append(list(texts))
                return super().embed(model, texts)

        cfg = fixture_config(tmp_path)
        gateway = LLMGateway(cfg, backend=Recording())
        Runner(cfg, str(tmp_path / "run"), gateway=gateway).run_all()
        gateway.close()
        assert len(batches) == 1
        assert batches[0] == sorted(set(batches[0]))
        assert report_hash(str(tmp_path / "run")) == FIXTURE_REPORT_HASH

    def test_max_tokens_reaches_every_request(self, tmp_path, monkeypatch):
        seen = {}

        class Recording(MockBackend):
            def chat(self, request):
                seen.setdefault(request.system_prompt, set()).add(request.max_tokens)
                return super().chat(request)

        # batches of 3 leave one-text chunks, so both labeler prompts are sent
        monkeypatch.setattr(normalize, "LABEL_BATCH", 3)
        cfg = fixture_config(tmp_path, max_tokens=512)
        gateway = LLMGateway(cfg, backend=Recording())
        Runner(cfg, str(tmp_path / "run"), gateway=gateway).run_all()
        gateway.close()
        names = ("extractor", "normalizer", "labeler", "labeler_batch", "judge",
                 "summary_overall", "summary_no_number")
        assert seen == {load_prompt(name).text: {512} for name in names}

    def test_temperature_reaches_every_agent_request(self, tmp_path, monkeypatch):
        seen = {}

        class Recording(MockBackend):
            def chat(self, request):
                seen.setdefault(request.system_prompt, set()).add(request.temperature)
                return super().chat(request)

        # batches of 3 leave one-text chunks, so both labeler prompts are sent
        monkeypatch.setattr(normalize, "LABEL_BATCH", 3)
        cfg = fixture_config(tmp_path, temperature=0.7)
        gateway = LLMGateway(cfg, backend=Recording())
        Runner(cfg, str(tmp_path / "run"), gateway=gateway).run_all()
        gateway.close()
        agents = ("extractor", "normalizer", "labeler", "labeler_batch", "judge")
        summaries = ("summary_overall", "summary_no_number")
        assert seen == {**{load_prompt(name).text: {0.7} for name in agents},
                        **{load_prompt(name).text: {0.3} for name in summaries}}

    def test_byte_identical_reruns(self, tmp_path):
        cfg = fixture_config(tmp_path)
        out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
        run_all(cfg, out1)
        run_all(cfg, out2)
        assert report_hash(out1) == report_hash(out2)

    def test_report_contents_sane(self, tmp_path):
        cfg = fixture_config(tmp_path)
        out = str(tmp_path / "run")
        run_all(cfg, out)
        with open(os.path.join(out, "association_report.json")) as fh:
            assoc = json.load(fh)
        logistic_vars = {row["variable"] for row in assoc["logistic"]}
        assert {"temperature", "hr", "bp_sys", "age"} <= logistic_vars
        chisq_vars = {row["variable"] for row in assoc["chi_square"]}
        assert "gender" in chisq_vars
        with open(os.path.join(out, "prediction_report.json")) as fh:
            pred = json.load(fh)
        assert set(pred) == {"raw", "overall", "no_number", "structural"}
        for variant, rep in pred.items():
            if "skipped" in rep:
                continue
            assert 0.0 <= rep["summary"]["auroc"]["mean"] <= 1.0

    def test_age_with_unit_enters_the_logistic_fit(self, tmp_path):
        out = str(tmp_path / "run")
        run_all(fixture_config(tmp_path), out)

        def age_fit():
            with open(os.path.join(out, "association_report.json")) as fh:
                return next(r for r in json.load(fh)["logistic"] if r["variable"] == "age")

        before = age_fit()
        path = os.path.join(out, "extractions.jsonl")
        with open(path) as fh:
            records = [json.loads(line) for line in fh]
        records[0]["charted_sdoh"]["age"] += " years"
        with open(path, "w") as fh:
            fh.writelines(json.dumps(rec) + "\n" for rec in records)
        Runner(fixture_config(tmp_path), out).run_stage("associate")
        assert age_fit() == before
        assert before["n"] == 10

    def test_canonical_vitals_bytes_for_every_status(self, tmp_path):
        out = tmp_path / "run"
        out.mkdir()
        record = {"hadm_id": "H1", "vitals_raw": {
            "body_temperature": "98.6 F", "heart_rate": "350", "respiration_rate": "fast",
            "blood_pressure": "80/120", "weight": "150 lbs"}}
        (out / "extractions.jsonl").write_text(json.dumps(record) + "\n")
        Runner(make_config(tmp_path), str(out))._stage_canonicalize()
        assert (out / "canonical_vitals.csv").read_bytes() == "".join(
            line + "\r\n" for line in (
                "hadm_id,variable,value,original_text,original_unit,status",
                "H1,bp_dia,120.000000,80/120,mmHg,inconsistent",
                "H1,bp_sys,80.000000,80/120,mmHg,inconsistent",
                "H1,hr,350.000000,350,bpm,out_of_range",
                "H1,rr,,fast,,unparseable",
                "H1,temperature,37.000000,98.6 F,°F,ok",
                "H1,weight,68.038855,150 lbs,lb,ok",
            )).encode()

    def test_pairs_boundary_labels_from_fixture(self, tmp_path):
        # fixture plan includes 29.5-day (label 1) and 31-day (label 0) gaps
        cfg = fixture_config(tmp_path)
        out = str(tmp_path / "run")
        Runner(cfg, out).run_stage("ingest")
        with open(os.path.join(out, "pairs.csv"), newline="") as fh:
            pairs = list(csv.DictReader(fh))
        assert len(pairs) == 10
        by_interval = {round(float(p["interval_days"]), 1): int(p["label"])
                       for p in pairs}
        assert by_interval[29.5] == 1
        assert by_interval[31.0] == 0


@pytest.mark.parametrize("name, record", [
    ("pairs.csv", ReadmissionPair),
    ("canonical_vitals.csv", CanonicalVital),
    ("normalized_sdoh.csv", LabeledEntry),
])
def test_table_header_is_its_record_fields(fixture_run, name, record):
    with open(os.path.join(fixture_run[1], name), newline="") as fh:
        header = next(csv.reader(fh))
    assert header == [f.name for f in dataclasses.fields(record)]


def test_cohort_jsonl_rows_are_admission_records(fixture_run):
    with open(os.path.join(fixture_run[1], "cohort.jsonl")) as fh:
        keys = [sorted(json.loads(line)) for line in fh]
    assert keys and all(
        k == sorted(f.name for f in dataclasses.fields(AdmissionRecord)) for k in keys)


def _assert_written_as_asdict(obj):
    """A record written through ``cohort.encode`` gives the bytes ``asdict``
    gave, as a JSONL line and as an indented report."""
    assert dataclasses.is_dataclass(obj)
    for indent in (None, 2):
        assert (json.dumps(obj, indent=indent, sort_keys=True, default=encode)
                == json.dumps(dataclasses.asdict(obj), indent=indent, sort_keys=True,
                              default=encode))


@dataclasses.dataclass
class _WithNonField:
    a: int

    def __post_init__(self):
        self.derived = self.a + 1  # an attribute that is not a field


class TestRecordWriters:
    def test_every_record_type_written_as_asdict(self, tmp_path, monkeypatch):
        written = []

        def recording(real):
            jsonl = real is pipeline.write_jsonl  # before the patch replaces it

            def write(path, objs):
                objs = list(objs) if jsonl else objs  # a generator, written once
                written.append(objs)
                real(path, objs)
            return write

        for name in ("write_jsonl", "_write_json"):
            monkeypatch.setattr(pipeline, name, recording(getattr(pipeline, name)))
        run_all(fixture_config(tmp_path), str(tmp_path / "run"))

        def records(obj):
            if dataclasses.is_dataclass(obj):
                yield obj
            elif isinstance(obj, (list, tuple)):
                for item in obj:
                    yield from records(item)
            elif isinstance(obj, dict):
                for item in obj.values():
                    yield from records(item)

        seen = [rec for obj in written for rec in records(obj)]
        seen.append(QuarantinedExtraction("h1", 'raw {"', "no JSON object in the reply"))
        for rec in seen:
            _assert_written_as_asdict(rec)
        assert {type(r).__name__ for r in seen} == {
            "AdmissionRecord", "CohortSummary", "ExtractionRecord", "QuarantinedExtraction",
            "CategoryScheme", "JudgeVerdict", "ChiSquareResult", "SummaryRecord"}

    def test_a_non_field_attribute_is_caught(self):
        with pytest.raises(AssertionError):
            _assert_written_as_asdict(_WithNonField(1))


class TestNormalizeStage:
    """Normalize clusters each variable on the stage's own thread, one at a
    time, then hands the scheme and label requests to ``gateway.map``."""

    @staticmethod
    def _extracted(tmp_path, **overrides):
        runner = Runner(fixture_config(tmp_path, **overrides), str(tmp_path / "run"))
        for stage in ("ingest", "extract"):
            runner.run_stage(stage)
        return runner

    def test_embeds_once(self, tmp_path, monkeypatch):
        runner = self._extracted(tmp_path)
        embed, calls = LLMGateway.embed, []

        def recording(gateway, texts):
            calls.append(list(texts))
            return embed(gateway, texts)

        monkeypatch.setattr(LLMGateway, "embed", recording)
        try:
            runner.run_stage("normalize")
        finally:
            runner.close()
        assert len(calls) == 1 and calls[0] == sorted(set(calls[0]))

    def test_rerun_removes_the_schemes_it_did_not_write(self, tmp_path):
        runner = self._extracted(tmp_path)
        try:
            runner.run_stage("normalize")
            before = sorted(os.listdir(runner.path("schemes")))
            with open(runner.path("extractions.jsonl")) as fh:
                records = [json.loads(line) for line in fh]
            for record in records:  # one language: below two distinct entries
                record["charted_sdoh"]["language"] = "English"
            with open(runner.path("extractions.jsonl"), "w") as fh:
                fh.writelines(json.dumps(record) + "\n" for record in records)
            runner.run_stage("normalize")
        finally:
            runner.close()
        listed = [os.path.basename(name)
                  for name in runner.manifest["stages"]["normalize"]["output_hashes"]
                  if name.startswith("schemes")]
        assert "language.json" in before and len(before) > 2
        assert sorted(os.listdir(runner.path("schemes"))) == sorted(listed) == [
            name for name in before if name != "language.json"]

    def test_clusters_one_variable_at_a_time_on_the_stage_thread(self, tmp_path,
                                                                 monkeypatch):
        runner = self._extracted(tmp_path, max_concurrency=4)
        original = normalize.cluster_entries
        lock = threading.Lock()
        active, calls = [0], []

        def cluster_entries(*args, **kwargs):
            with lock:
                active[0] += 1
                calls.append((threading.get_ident(), active[0]))
            try:
                time.sleep(0.05)  # time for a second call to overlap
                return original(*args, **kwargs)
            finally:
                with lock:
                    active[0] -= 1

        monkeypatch.setattr(normalize, "cluster_entries", cluster_entries)
        try:
            runner.run_stage("normalize")
        finally:
            runner.close()
        assert len(calls) >= 3
        assert calls == [(threading.get_ident(), 1)] * len(calls)
        assert "normalize" in runner.manifest["stages"]

    def test_clustering_error_raised_before_any_request_is_sent(self, tmp_path,
                                                               monkeypatch):
        runner = self._extracted(tmp_path, max_concurrency=4)
        cluster = normalize.cluster_entries
        clustered, schemes = [], []

        def cluster_entries(*args, **kwargs):
            if len(clustered) == 2:
                raise InvalidInput("cannot cluster the third variable")
            clustered.append(args[0])
            return cluster(*args, **kwargs)

        monkeypatch.setattr(normalize, "cluster_entries", cluster_entries)
        monkeypatch.setattr(normalize, "synthesize_scheme",
                            lambda gateway, variable, medoid_texts: schemes.append(variable))
        try:
            with pytest.raises(InvalidInput, match="third variable"):
                runner.run_stage("normalize")
        finally:
            runner.close()
        assert len(clustered) == 2 and schemes == []
        assert "normalize" not in runner.manifest["stages"]


class Killed(BaseException):
    """Stands for the process being stopped: no handler in the program catches it."""


class KillingBackend(MockBackend):
    """Answers the first ``after`` requests, then raises ``error`` on every one."""

    waits = False  # it computes, as the mock does

    def __init__(self, after, error=Killed):
        super().__init__()
        self.after = after
        self.error = error
        self.calls = 0
        self._lock = threading.Lock()

    def _count(self):
        with self._lock:
            self.calls += 1
            if self.calls > self.after:
                raise self.error()

    def chat(self, request):
        self._count()
        return super().chat(request)

    def embed(self, model, texts):
        self._count()
        return super().embed(model, texts)


class TestKillAndResume:
    """A run stopped partway and resumed on the same cache gives the clean
    run's reports, and asks the endpoint only for what the first run missed."""

    # with one entry per labeler request the fixture run sends 85 requests:
    # extract 1-10, normalize 11-55, evaluate-fidelity 56-65 and summarize 66-85
    @pytest.mark.parametrize("after, completed", [
        (5, ["ingest"]),
        (40, ["ingest", "extract", "canonicalize"]),
        (80, ["ingest", "extract", "canonicalize", "normalize", "evaluate-fidelity",
              "associate"]),
    ])
    @pytest.mark.parametrize("workers", [1, 4])
    def test_resume_repeats_no_request(self, tmp_path, monkeypatch, workers, after,
                                       completed):
        monkeypatch.setattr(normalize, "LABEL_BATCH", 1)
        self._kill_and_resume(tmp_path, workers, after, completed)

    # in batches of LABEL_BATCH it sends 59: extract 1-10, normalize 11-29,
    # evaluate-fidelity 30-39 and summarize 40-59
    @pytest.mark.parametrize("after, completed", [
        (5, ["ingest"]),
        (20, ["ingest", "extract", "canonicalize"]),
        (50, ["ingest", "extract", "canonicalize", "normalize", "evaluate-fidelity",
              "associate"]),
    ])
    @pytest.mark.parametrize("workers", [1, 4])
    def test_batched_resume_repeats_no_request(self, tmp_path, workers, after, completed):
        self._kill_and_resume(tmp_path, workers, after, completed)

    # RequestFailed is what HttpBackend raises once its retries are spent: it
    # fails the stage it hits, also inside normalize and summarize, and the
    # re-run asks only for what is not cached
    @pytest.mark.parametrize("after, completed", [
        (5, ["ingest"]),
        (20, ["ingest", "extract", "canonicalize"]),
        (35, ["ingest", "extract", "canonicalize", "normalize"]),
        (50, ["ingest", "extract", "canonicalize", "normalize", "evaluate-fidelity",
              "associate"]),
    ])
    @pytest.mark.parametrize("workers", [1, 4])
    def test_gateway_error_fails_the_stage(self, tmp_path, workers, after, completed):
        self._kill_and_resume(tmp_path, workers, after, completed, error=RequestFailed)

    @staticmethod
    def _kill_and_resume(tmp_path, workers, after, completed, error=Killed):
        cfg = fixture_config(tmp_path, max_concurrency=workers)
        clean_cfg = dataclasses.replace(cfg, cache_dir=str(tmp_path / "clean_cache"))
        clean = LLMGateway(clean_cfg)
        Runner(clean_cfg, str(tmp_path / "clean"), gateway=clean).run_all()
        clean.close()

        out = str(tmp_path / "run")
        killed = LLMGateway(cfg, backend=KillingBackend(after, error))
        runner = Runner(cfg, out, gateway=killed)
        with pytest.raises(error):
            runner.run_all()
        killed.close()
        assert list(runner.manifest["stages"]) == completed
        assert killed.network_calls == after

        resumed = LLMGateway(cfg)
        Runner(cfg, out, gateway=resumed).run_all()
        resumed.close()
        assert report_hash(out) == FIXTURE_REPORT_HASH
        assert killed.network_calls + resumed.network_calls == clean.network_calls


class Sleeping(MockBackend):
    """The mock backend behind a stand-in endpoint: every call sleeps
    ``latency_s``, so the gateway sees its calls wait. Notes the most calls
    in flight at once."""

    def __init__(self, latency_s=0.005):
        super().__init__()
        self.latency_s = latency_s
        self.inflight = self.max_inflight = 0
        self._lock = threading.Lock()

    def _wait(self, latency_s=None):
        with self._lock:
            self.inflight += 1
            self.max_inflight = max(self.max_inflight, self.inflight)
        time.sleep(self.latency_s if latency_s is None else latency_s)
        with self._lock:
            self.inflight -= 1

    def chat(self, request):
        self._wait()
        return super().chat(request)

    def embed(self, model, texts):
        self._wait()
        return super().embed(model, texts)


class SleepingKiller(KillingBackend):
    """A KillingBackend whose calls sleep 5 ms first, so stages overlap; it
    does not say whether it waits, so it is taken to."""

    def _count(self):
        time.sleep(0.005)
        super()._count()


def stage_threads(monkeypatch):
    """stage -> the thread ``Runner.run_stage`` ran it on, filled as runs go."""
    threads = {}
    run_stage = Runner.run_stage

    def recording(self, stage):
        threads[stage] = threading.get_ident()
        return run_stage(self, stage)

    monkeypatch.setattr(Runner, "run_stage", recording)
    return threads


def run_with(cfg, out, backend):
    """The manifest of a run-all on ``backend``, and its gateway."""
    gateway = LLMGateway(cfg, backend=backend)
    try:
        return Runner(cfg, out, gateway=gateway).run_all()["stages"], gateway
    finally:
        gateway.close()


def overlapping(stages):
    """The pairs of stages whose [started, finished] intervals overlap."""
    return [(a, b) for a in stages for b in stages if a < b
            and stages[a]["started"] < stages[b]["finished"]
            and stages[b]["started"] < stages[a]["finished"]]


SUMMARY_PROMPTS = {load_prompt(name).text for name in ("summary_overall", "summary_no_number")}
LABELER_PROMPTS = {load_prompt(name).text for name in ("labeler", "labeler_batch")}


def last_extract_waits(summaries, stop=None, summary_s=0.0):
    """A sleeping backend whose last extract request (of the fixture's 10)
    waits until ``summaries`` summary requests were asked, and 50 ms more,
    then calls ``stop`` if one is given; each summary request sleeps
    ``summary_s`` more. Summarize's requests queue behind extract's, so it
    holds a slot while they run."""
    extractor = load_prompt("extractor").text

    class LastExtractWaits(Sleeping):
        def __init__(self):
            super().__init__()
            self.asked = collections.Counter()
            self.summarized = threading.Event()

        def summaries_asked(self):
            return sum(self.asked[prompt] for prompt in SUMMARY_PROMPTS)

        def chat(self, request):
            with self._lock:
                self.asked[request.system_prompt] += 1
                if self.summaries_asked() >= summaries:
                    self.summarized.set()
                last = request.system_prompt == extractor and self.asked[extractor] == 10
            if last:
                assert self.summarized.wait(10)
                time.sleep(0.05)
                if stop is not None:
                    stop()
            elif request.system_prompt in SUMMARY_PROMPTS:
                time.sleep(summary_s)
            return super().chat(request)

    return LastExtractWaits


def extract_down():
    raise RequestFailed("extract's endpoint is down")


def ctrl_c():
    signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)


class TestStageScheduling:
    """Stages run one at a time on the calling thread until a call to a
    waiting backend returns; then each stage starts on its own thread as
    soon as the stages producing its inputs have run, summarize beside
    extract."""

    def test_mock_runs_stages_one_at_a_time_on_the_calling_thread(self, tmp_path,
                                                                  monkeypatch):
        threads = stage_threads(monkeypatch)
        stages, gateway = run_with(fixture_config(tmp_path, max_concurrency=4),
                                   str(tmp_path / "run"), MockBackend())
        assert not gateway.calls_wait
        assert overlapping(stages) == []
        assert sorted(stages, key=lambda s: stages[s]["started"]) == list(STAGES)
        assert threads == dict.fromkeys(STAGES, threading.get_ident())

    def test_ready_stages_overlap_once_calls_wait(self, tmp_path, monkeypatch):
        threads = stage_threads(monkeypatch)
        backend = Sleeping()
        out = str(tmp_path / "run")
        stages, gateway = run_with(fixture_config(tmp_path, max_concurrency=4), out, backend)
        assert gateway.calls_wait
        assert stages["summarize"]["started"] < stages["extract"]["finished"]
        assert stages["summarize"]["started"] < stages["normalize"]["finished"]
        assert report_hash(out) == FIXTURE_REPORT_HASH
        assert backend.max_inflight <= 4
        # ingest and extract start before any backend call has returned
        assert threads["ingest"] == threads["extract"] == threading.get_ident()
        assert threading.get_ident() not in {threads[s] for s in STAGES[2:]}

    def test_up_to_date_run_makes_no_gateway(self, tmp_path):
        cfg, out = fixture_config(tmp_path), str(tmp_path / "run")
        run_all(cfg, out)
        runner = Runner(cfg, out)
        runner.run_all()
        assert runner._gateway is None  # the cache was never loaded

    def test_summarize_reads_extractions_once_extract_has_recorded(self, tmp_path):
        """Summarize's requests are all answered before extract's last one."""
        out = str(tmp_path / "run")
        stages, _ = run_with(fixture_config(tmp_path, max_concurrency=4), out,
                             last_extract_waits(20)())
        assert report_hash(out) == FIXTURE_REPORT_HASH
        extract, summarize = stages["extract"], stages["summarize"]
        assert summarize["started"] < extract["finished"] < summarize["finished"]
        assert (summarize["input_hashes"]["extractions.jsonl"]
                == extract["output_hashes"]["extractions.jsonl"])

    def test_threads_are_the_pool_and_the_running_stages(self, tmp_path):
        """Threads seen in backend calls never exceed the calling thread,
        max_concurrency pool workers and the stage threads then running."""
        before, samples = threading.active_count(), []

        class Counting(Sleeping):
            def chat(self, request):
                threads = threading.enumerate()
                samples.append(len(threads) - sum(t.name in STAGES for t in threads))
                return super().chat(request)

        stages, gateway = run_with(fixture_config(tmp_path, max_concurrency=4),
                                   str(tmp_path / "run"), Counting())
        assert gateway.calls_wait and overlapping(stages)
        assert max(samples) <= before + 4

    def test_each_stage_counts_its_own_requests(self, tmp_path):
        cfg = fixture_config(tmp_path, max_concurrency=4)
        serial, _ = run_with(cfg, str(tmp_path / "serial"), MockBackend())
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # threads switch often, so a lost update would show
        try:
            overlapped, gateway = run_with(
                dataclasses.replace(cfg, cache_dir=str(tmp_path / "other_cache")),
                str(tmp_path / "overlapped"), Sleeping())
        finally:
            sys.setswitchinterval(interval)
        counts = {s: (e["network_calls"], e["cache_hits"]) for s, e in overlapped.items()}
        assert counts == {s: (e["network_calls"], e["cache_hits"]) for s, e in serial.items()}
        assert sum(calls for calls, _ in counts.values()) == gateway.network_calls
        assert sum(hits for _, hits in counts.values()) == gateway.cache_hits

    # the batched run sends 59 requests: under overlap normalize,
    # evaluate-fidelity and summarize send theirs, from the 11th on, side by side
    @pytest.mark.parametrize("after", [5, 20, 35, 50])
    @pytest.mark.parametrize("error", [Killed, RequestFailed])
    def test_kill_and_resume_under_overlap(self, tmp_path, after, error):
        cfg = fixture_config(tmp_path, max_concurrency=4)
        _, clean = run_with(dataclasses.replace(cfg, cache_dir=str(tmp_path / "clean_cache")),
                            str(tmp_path / "clean"), MockBackend())
        out = str(tmp_path / "run")
        killed = LLMGateway(cfg, backend=SleepingKiller(after, error))
        with pytest.raises(error):
            Runner(cfg, out, gateway=killed).run_all()
        killed.close()
        assert killed.network_calls == after
        _, resumed = run_with(cfg, out, MockBackend())
        assert report_hash(out) == FIXTURE_REPORT_HASH
        assert killed.network_calls + resumed.network_calls == clean.network_calls

    def test_ctrl_c_waits_for_running_stages_to_record(self, tmp_path, monkeypatch):
        """Ctrl-C reaches the calling thread once extract has recorded, while
        summarize, which started beside extract, still runs."""
        threads = stage_threads(monkeypatch)
        asked, interrupted = [], threading.Event()

        class Interrupting(Sleeping):
            def chat(self, request):
                if request.system_prompt in SUMMARY_PROMPTS:
                    with self._lock:
                        asked.append(request)
                        if "canonicalize" in threads and not interrupted.is_set():
                            interrupted.set()  # Ctrl-C while the calling thread waits
                            signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)
                    self._wait(0.02)  # summarize outlasts extract
                return super().chat(request)

        cfg = fixture_config(tmp_path, max_concurrency=4)
        out = str(tmp_path / "run")
        with pytest.raises(KeyboardInterrupt):
            run_with(cfg, out, Interrupting())
        with open(os.path.join(out, "manifest.json")) as fh:
            recorded = json.load(fh)["stages"]
        assert len(asked) == 20  # summarize ran to its end
        assert set(recorded) == set(threads)  # every stage that started
        assert "summarize" in recorded and "predict" not in recorded

    def test_failed_stage_lets_running_stages_record(self, tmp_path, monkeypatch):
        """Normalize's label requests fail while summarize is running and
        evaluate-fidelity has started: both are recorded, no stage starts
        after the failure, and the re-run asks only for normalize's requests."""
        judged, labeler_failed = threading.Event(), threading.Event()
        failed_at = []
        cluster_variable = pipeline.cluster_variable
        render_structural = pipeline.render_structural

        def cluster_once_judged(*args):  # on normalize's thread, holding no worker
            assert judged.wait(10)
            return cluster_variable(*args)

        def render_once_normalize_failed(*args):  # keeps summarize running
            assert labeler_failed.wait(10) and runner._running["normalize"].wait(10)
            return render_structural(*args)

        class LabelerDown(Sleeping):
            def chat(self, request):
                if request.system_prompt == load_prompt("judge").text:
                    judged.set()
                elif request.system_prompt in LABELER_PROMPTS:
                    failed_at.append(time.time())
                    labeler_failed.set()
                    raise RequestFailed("503 from the labeler's endpoint")
                return super().chat(request)

        monkeypatch.setattr(pipeline, "cluster_variable", cluster_once_judged)
        monkeypatch.setattr(pipeline, "render_structural", render_once_normalize_failed)
        cfg = fixture_config(tmp_path, max_concurrency=4)
        out = str(tmp_path / "run")
        gateway = LLMGateway(cfg, backend=LabelerDown())
        runner = Runner(cfg, out, gateway=gateway)
        with pytest.raises(RequestFailed, match="labeler"):
            runner.run_all()
        gateway.close()
        with open(os.path.join(out, "manifest.json")) as fh:
            failed = json.load(fh)["stages"]
        assert set(failed) == {"ingest", "extract", "canonicalize", "evaluate-fidelity",
                               "summarize"}
        assert failed["summarize"]["started"] < min(failed_at) < failed["summarize"]["finished"]

        monkeypatch.undo()
        rerun, resumed = run_with(cfg, out, MockBackend())
        assert report_hash(out) == FIXTURE_REPORT_HASH
        assert {s: rerun[s] for s in failed} == failed  # skipped
        assert resumed.network_calls == rerun["normalize"]["network_calls"]

    def test_first_failure_in_stage_order_is_raised(self, tmp_path):
        """Summarize fails on its first request, beside extract, which fails
        later: extract, the earlier stage, is the one raised."""

        class TwoDown(last_extract_waits(1, extract_down)):
            def chat(self, request):
                reply = super().chat(request)
                if request.system_prompt in SUMMARY_PROMPTS:
                    raise RequestFailed("summarize's endpoint is down")
                return reply

        out = str(tmp_path / "run")
        with pytest.raises(RequestFailed, match="extract"):
            run_with(fixture_config(tmp_path, max_concurrency=4), out, TwoDown())
        with open(os.path.join(out, "manifest.json")) as fh:
            assert set(json.load(fh)["stages"]) == {"ingest"}

    @pytest.mark.parametrize("stop, raised, match", [(extract_down, RequestFailed, "extract"),
                                                     (ctrl_c, KeyboardInterrupt, None)])
    def test_extract_failure_while_summarize_runs_records_neither(self, tmp_path, stop,
                                                                 raised, match):
        """Summarize, which reads extract's output last, starts no request
        once extract has failed or was interrupted and is not recorded
        either; a re-run asks only for the requests not yet cached."""
        cfg = fixture_config(tmp_path, max_concurrency=4)
        _, clean = run_with(dataclasses.replace(cfg, cache_dir=str(tmp_path / "clean_cache")),
                            str(tmp_path / "clean"), MockBackend())
        out = str(tmp_path / "run")
        backend = last_extract_waits(4, stop, summary_s=0.05)()
        failing = LLMGateway(cfg, backend=backend)
        with pytest.raises(raised, match=match):
            Runner(cfg, out, gateway=failing).run_all()
        failing.close()
        with open(os.path.join(out, "manifest.json")) as fh:
            assert set(json.load(fh)["stages"]) == {"ingest"}
        assert 4 <= backend.summaries_asked() < 20  # summarize stopped
        _, resumed = run_with(cfg, out, MockBackend())
        assert report_hash(out) == FIXTURE_REPORT_HASH
        assert failing.network_calls + resumed.network_calls == clean.network_calls


class TestCli:
    def _write_config(self, tmp_path):
        cfg = fixture_config(tmp_path)
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "admissions_path": cfg.admissions_path,
            "diagnoses_path": cfg.diagnoses_path,
            "notes_path": cfg.notes_path,
            "truth_vitals_path": cfg.truth_vitals_path,
            "truth_sdoh_path": cfg.truth_sdoh_path,
            "cache_dir": cfg.cache_dir,
            "folds": 3,
            "k_medoids": 8,
        }))
        return str(path)

    def test_run_all_exit_0(self, tmp_path):
        config = self._write_config(tmp_path)
        out = str(tmp_path / "run")
        assert main(["run-all", "--config", config, "--out", out, "--mock"]) == 0
        assert os.path.exists(os.path.join(out, "prediction_report.json"))

    def test_bad_config_exit_2(self, tmp_path):
        assert main(["ingest", "--config", "/no/such.json",
                     "--out", str(tmp_path / "run")]) == 2
        bad = tmp_path / "bad.json"
        bad.write_text('{"unknown_key": 1}')
        assert main(["ingest", "--config", str(bad),
                     "--out", str(tmp_path / "run")]) == 2
        bad.write_text('{"max_concurrency": 0}')
        assert main(["ingest", "--config", str(bad),
                     "--out", str(tmp_path / "run")]) == 2

    def test_missing_dependency_exit_3(self, tmp_path):
        config = self._write_config(tmp_path)
        assert main(["extract", "--config", config,
                     "--out", str(tmp_path / "fresh"), "--mock"]) == 3

    def test_stage_failure_exit_4(self, tmp_path):
        bad = tmp_path / "cfg.json"
        bad.write_text(json.dumps({"admissions_path": "/no/such.csv",
                                   "cache_dir": str(tmp_path / "cache")}))
        assert main(["ingest", "--config", str(bad),
                     "--out", str(tmp_path / "run"), "--mock"]) == 4

    def test_seed_override(self, tmp_path):
        config = self._write_config(tmp_path)
        out = str(tmp_path / "run")
        for stage in ("ingest", "extract"):
            assert main([stage, "--config", config, "--out", out,
                         "--mock", "--seed", "7"]) == 0
        with open(os.path.join(out, "manifest.json")) as fh:
            manifest = json.load(fh)
        assert "seed" not in manifest  # each stage that reads it records it
        assert manifest["stages"]["extract"]["input_hashes"]["config:seed"] == 7

    def test_negative_seed_exit_2_before_any_request(self, tmp_path, monkeypatch):
        sent = []
        monkeypatch.setattr(MockBackend, "chat", lambda self, request: sent.append(request))
        config = self._write_config(tmp_path)
        out = tmp_path / "run"
        assert main(["run-all", "--config", config, "--out", str(out),
                     "--mock", "--seed", "-1"]) == 2
        assert sent == [] and not out.exists()

    def test_outputs_of_other_code_exit_3(self, tmp_path):
        config = self._write_config(tmp_path)
        out = str(tmp_path / "run")
        assert main(["run-all", "--config", config, "--out", out, "--mock"]) == 0
        edit_manifest(out, other_code)
        assert main(["predict", "--config", config, "--out", out, "--mock"]) == 3

    def test_truncated_manifest_starts_afresh(self, tmp_path):
        out = tmp_path / "run"
        out.mkdir()
        (out / "manifest.json").write_text('{"code": ')
        assert main(["ingest", "--config", self._write_config(tmp_path),
                     "--out", str(out), "--mock"]) == 0
        assert list(json.loads((out / "manifest.json").read_text())["stages"]) == ["ingest"]

    def test_out_that_is_a_file_exit_4(self, tmp_path, capsys):
        out = tmp_path / "run"
        out.write_text("")
        assert main(["ingest", "--config", self._write_config(tmp_path),
                     "--out", str(out), "--mock"]) == 4
        assert capsys.readouterr().err.startswith("stage failure: ")


class TestPackageHash:
    """The manifest's ``code`` key: one hash of the package's own files."""

    @pytest.fixture
    def package(self, tmp_path):
        copy = tmp_path / "clinnote"
        shutil.copytree(os.path.dirname(pipeline.__file__), copy,
                        ignore=shutil.ignore_patterns("__pycache__"))
        return copy

    def test_a_copy_hashes_like_the_package(self, package):
        assert package_hash.__wrapped__(str(package)) == package_hash()

    def test_bytecode_does_not_move_it(self, package):
        before = package_hash.__wrapped__(str(package))
        assert compileall.compile_dir(str(package), quiet=1)
        assert list(package.rglob("__pycache__/*.pyc"))
        assert package_hash.__wrapped__(str(package)) == before

    @pytest.mark.parametrize("name", ["prompts/judge.txt", "data/icd9_descriptions.csv"])
    def test_one_byte_moves_it(self, package, name):
        before = package_hash.__wrapped__(str(package))
        path = package / name
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 1
        path.write_bytes(bytes(data))
        assert package_hash.__wrapped__(str(package)) != before

    def test_computed_on_first_use_not_at_import(self):
        check = ("import clinnote.pipeline as p; "
                 "assert p.package_hash.cache_info().currsize == 0")
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(pipeline.__file__))}
        subprocess.run([sys.executable, "-c", check], env=env, check=True)
