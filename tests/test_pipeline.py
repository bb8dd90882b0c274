import dataclasses
import hashlib
import json
import os
import threading
import time

import pytest

from clinnote import fidelity, pipeline
from clinnote.cli import main
from clinnote.config import Config, config_from_dict, validate_config
from clinnote.errors import CVInfeasible, ConfigError, DependencyMissing, InvalidInput
from clinnote.fixture import write_fixture
from clinnote.gateway import LLMGateway, MockBackend
from clinnote.pipeline import STAGE_TABLE, STAGES, Runner, report_hash
from clinnote.prompts import PromptTemplate, load_prompt

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


def run_all(cfg, out):
    """``Runner(cfg, out).run_all()``, closing the runner's gateway after."""
    runner = Runner(cfg, out)
    try:
        return runner.run_all()
    finally:
        runner.close()


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
        for entry in manifest["stages"].values():
            assert entry["output_hashes"]
            assert entry["config_hash"] == manifest["config_hash"]

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
        cfg = fixture_config(tmp_path)
        out = str(tmp_path / "run")
        first = Runner(cfg, out).run_stage("ingest")
        cfg.seed = 99
        second = Runner(cfg, out).run_stage("ingest")
        assert second["finished"] > first["finished"]

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

    def test_prompt_edit_triggers_rerun(self, tmp_path, monkeypatch):
        cfg = fixture_config(tmp_path)
        load = pipeline.load_prompt

        def edited_load(name):
            prompt = load(name)
            if name == "judge":
                return PromptTemplate(name, prompt.text + "\nBe strict.\n")
            return prompt

        def edit_judge_prompt():
            monkeypatch.setattr(pipeline, "load_prompt", edited_load)
            monkeypatch.setattr(fidelity, "load_prompt", edited_load)

        rerun = self._rerun_stages(cfg, str(tmp_path / "run"), edit_judge_prompt)
        assert rerun == ["evaluate-fidelity"]

    def test_truth_edit_triggers_rerun(self, tmp_path):
        cfg = fixture_config(tmp_path)

        def edit_truth():
            with open(cfg.truth_vitals_path, "a") as fh:
                fh.write("H001,hr,80.0,bpm,2130-02-02T13:00:00\n")

        rerun = self._rerun_stages(cfg, str(tmp_path / "run"), edit_truth)
        assert rerun == ["evaluate-fidelity"]

    def test_unfillable_folds_fail_before_any_request(self, tmp_path):
        runner = Runner(fixture_config(tmp_path, folds=5), str(tmp_path / "run"))
        try:
            with pytest.raises(CVInfeasible, match="6 readmitted and 4 not readmitted.* 5 folds"):
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

    def test_stage_inputs_are_earlier_reports(self):
        produced = set()
        for stage in STAGE_TABLE:
            assert set(stage.inputs) <= produced, stage.name
            produced |= set(stage.reports)

    def test_fixture_report_hash_pinned(self, tmp_path):
        cfg = fixture_config(tmp_path)
        out = str(tmp_path / "run")
        run_all(cfg, out)
        assert report_hash(out) == FIXTURE_REPORT_HASH

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

    def test_max_tokens_reaches_every_request(self, tmp_path):
        seen = {}

        class Recording(MockBackend):
            def chat(self, request):
                seen.setdefault(request.system_prompt, set()).add(request.max_tokens)
                return super().chat(request)

        cfg = fixture_config(tmp_path, max_tokens=512)
        gateway = LLMGateway(cfg, backend=Recording())
        Runner(cfg, str(tmp_path / "run"), gateway=gateway).run_all()
        gateway.close()
        names = ("extractor", "normalizer", "labeler", "judge",
                 "summary_overall", "summary_no_number")
        assert seen == {load_prompt(name).text: {512} for name in names}

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

    def test_pairs_boundary_labels_from_fixture(self, tmp_path):
        # fixture plan includes 29.5-day (label 1) and 31-day (label 0) gaps
        cfg = fixture_config(tmp_path)
        out = str(tmp_path / "run")
        Runner(cfg, out).run_stage("ingest")
        import csv

        with open(os.path.join(out, "pairs.csv"), newline="") as fh:
            pairs = list(csv.DictReader(fh))
        assert len(pairs) == 10
        by_interval = {round(float(p["interval_days"]), 1): int(p["label"])
                       for p in pairs}
        assert by_interval[29.5] == 1
        assert by_interval[31.0] == 0


class Killed(BaseException):
    """Stands for the process being stopped: no handler in the program catches it."""


class KillingBackend(MockBackend):
    """Answers the first ``after`` requests, then raises Killed on every one."""

    def __init__(self, after):
        super().__init__()
        self.after = after
        self.calls = 0
        self._lock = threading.Lock()

    def _count(self):
        with self._lock:
            self.calls += 1
            if self.calls > self.after:
                raise Killed()

    def chat(self, request):
        self._count()
        return super().chat(request)

    def embed(self, model, texts):
        self._count()
        return super().embed(model, texts)


class TestKillAndResume:
    """A run stopped partway and resumed on the same cache gives the clean
    run's reports, and asks the endpoint only for what the first run missed."""

    # the fixture run sends 85 requests: extract 1-10, normalize 11-55,
    # evaluate-fidelity 56-65 and summarize 66-85
    @pytest.mark.parametrize("after, completed", [
        (5, ["ingest"]),
        (40, ["ingest", "extract", "canonicalize"]),
        (80, ["ingest", "extract", "canonicalize", "normalize", "evaluate-fidelity",
              "associate"]),
    ])
    @pytest.mark.parametrize("workers", [1, 4])
    def test_resume_repeats_no_request(self, tmp_path, workers, after, completed):
        cfg = fixture_config(tmp_path, max_concurrency=workers)
        clean_cfg = dataclasses.replace(cfg, cache_dir=str(tmp_path / "clean_cache"))
        clean = LLMGateway(clean_cfg)
        Runner(clean_cfg, str(tmp_path / "clean"), gateway=clean).run_all()
        clean.close()

        out = str(tmp_path / "run")
        killed = LLMGateway(cfg, backend=KillingBackend(after))
        runner = Runner(cfg, out, gateway=killed)
        with pytest.raises(Killed):
            runner.run_all()
        killed.close()
        assert list(runner.manifest["stages"]) == completed
        assert killed.network_calls == after

        resumed = LLMGateway(cfg)
        Runner(cfg, out, gateway=resumed).run_all()
        resumed.close()
        assert report_hash(out) == FIXTURE_REPORT_HASH
        assert killed.network_calls + resumed.network_calls == clean.network_calls


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
        assert main(["ingest", "--config", config, "--out", out,
                     "--mock", "--seed", "7"]) == 0
        with open(os.path.join(out, "manifest.json")) as fh:
            assert json.load(fh)["seed"] == 7
