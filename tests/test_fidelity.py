import json

import pytest
from hypothesis import given, strategies as st

from clinnote.errors import JudgeFailed, ParseFailure
from clinnote.fidelity import (
    JudgeVerdict,
    TOLERANCE_RULES,
    _parse_judge_reply,
    corpus_judge_summary,
    evaluate_categorical,
    evaluate_vital,
    icd9_descriptions,
    judge_diagnoses,
    load_truth_sdoh,
    load_truth_vitals,
    normalize_unit,
    within_tolerance,
)
from clinnote.vitals import CanonicalVital, f_to_c


class TestToleranceRules:
    def test_frozen_bounds(self):
        assert TOLERANCE_RULES["temperature"].native_tolerances == {"F": 0.5, "C": 0.3}
        assert TOLERANCE_RULES["hr"].native_tolerances == {"bpm": 5.0}
        assert TOLERANCE_RULES["rr"].native_tolerances == {"breaths/min": 1.0}
        assert TOLERANCE_RULES["spo2"].native_tolerances == {"%": 1.0}
        assert TOLERANCE_RULES["height"].native_tolerances == {"cm": 2.0, "in": 1.0}
        assert TOLERANCE_RULES["weight"].native_tolerances == {"kg": 2.0, "lb": 5.0}
        assert TOLERANCE_RULES["bp_sys"].native_tolerances == {"mmHg": 5.0}

    @pytest.mark.parametrize("variable,a,b,unit,hit", [
        ("temperature", 98.6, 99.1, "F", True),
        ("temperature", 98.6, 99.2, "F", False),
        ("temperature", 37.0, 37.3, "C", True),
        ("temperature", 37.0, 37.4, "C", False),
        ("hr", 80, 85, "bpm", True),
        ("hr", 80, 86, "bpm", False),
        ("weight", 80, 85, "lb", True),
        ("weight", 80, 82, "kg", True),
        ("weight", 80, 82.5, "kg", False),
    ])
    def test_boundaries_inclusive(self, variable, a, b, unit, hit):
        assert within_tolerance(variable, a, b, unit) == hit

    @given(st.floats(min_value=30, max_value=45), st.floats(min_value=30, max_value=45))
    def test_symmetric(self, a, b):
        assert within_tolerance("temperature", a, b, "C") == \
            within_tolerance("temperature", b, a, "C")

    def test_unit_aliases(self):
        assert normalize_unit("°F") == "F"
        assert normalize_unit("LBS") == "lb"
        assert normalize_unit("mmHg") == "mmHg"
        assert normalize_unit("inches") == "in"


def _vital(hadm, variable, value, unit):
    return CanonicalVital(hadm, variable, value, original_text="", original_unit=unit)


class TestEvaluateVital:
    def test_native_comparison_when_units_align(self):
        # extracted 98.6F; truth rows in F; 0.4F apart -> hit under the
        # F rule even though 0.4F ~ 0.22C would also pass, assert native path
        extracted = {"H1": _vital("H1", "temperature", f_to_c(98.6), "°F")}
        truth = {"H1": [(99.0, "F")]}
        row = evaluate_vital("temperature", extracted, truth)
        assert row["cond_acc"] == 100.0
        # 0.9F apart: fails native F tolerance (0.5F) but would pass nothing
        truth = {"H1": [(99.5, "F")]}
        assert evaluate_vital("temperature", extracted, truth)["cond_acc"] == 0.0

    def test_canonical_fallback_on_mixed_units(self):
        extracted = {"H1": _vital("H1", "temperature", 37.0, "°F")}
        truth = {"H1": [(98.6, "F"), (37.1, "C")]}  # mixed units -> canonical
        row = evaluate_vital("temperature", extracted, truth)
        assert row["cond_acc"] == 100.0  # |37.0 - median C| <= 0.3

    def test_truth_median_used(self):
        extracted = {"H1": _vital("H1", "hr", 90.0, "bpm")}
        truth = {"H1": [(80.0, "bpm"), (88.0, "bpm"), (120.0, "bpm")]}
        row = evaluate_vital("hr", extracted, truth)
        assert row["cond_acc"] == 100.0  # median 88, within 5
        assert row["mae"] == pytest.approx(2.0)
        assert row["mape"] == pytest.approx(100.0 * 2.0 / 88.0)

    def test_coverage_over_truth_admissions(self):
        extracted = {"H1": _vital("H1", "hr", 80.0, "bpm")}
        truth = {"H1": [(80.0, "bpm")], "H2": [(90.0, "bpm")]}
        row = evaluate_vital("hr", extracted, truth)
        assert row["pct_extracted"] == 50.0
        assert row["n_pairs"] == 1

    def test_no_truth_returns_none(self):
        assert evaluate_vital("hr", {}, {}) is None

    def test_no_extractions_cond_acc_none(self):
        row = evaluate_vital("hr", {}, {"H1": [(80.0, "bpm")]})
        assert row["pct_extracted"] == 0.0
        assert row["cond_acc"] is None
        assert row["mae"] is None

    def test_mape_skips_zero_truth(self):
        extracted = {"H1": _vital("H1", "temperature", 1.0, "°C"),
                     "H2": _vital("H2", "temperature", 5.0, "°C")}
        truth = {"H1": [(0.0, "C")], "H2": [(4.0, "C")]}
        row = evaluate_vital("temperature", extracted, truth)
        assert row["mae"] == pytest.approx(1.0)
        assert row["mape"] == pytest.approx(25.0)  # only H2 contributes

    def test_weight_native_lb(self):
        # extracted 176 lb (79.83 kg); truth 180 lb -> 4 lb apart, within 5 lb
        extracted = {"H1": _vital("H1", "weight", 176 * 0.45359237, "lb")}
        truth = {"H1": [(180.0, "lb")]}
        assert evaluate_vital("weight", extracted, truth)["cond_acc"] == 100.0
        # 2 kg canonical tolerance would have failed (1.81 kg... actually
        # 4 lb = 1.814 kg passes too); push to 4.9 lb to isolate native path
        truth = {"H1": [(180.9, "lb")]}
        assert evaluate_vital("weight", extracted, truth)["cond_acc"] == 100.0


class TestEvaluateCategorical:
    def test_gender_synonyms(self):
        row = evaluate_categorical(
            "gender", {"H1": "Male", "H2": "Woman"}, {"H1": "M", "H2": "F"}
        )
        assert row["cond_acc"] == 100.0

    def test_marital_synonyms(self):
        row = evaluate_categorical(
            "marital_status",
            {"H1": "widower", "H2": "separated"},
            {"H1": "WIDOWED", "H2": "DIVORCED"},
        )
        assert row["cond_acc"] == 100.0

    def test_age_within_one_year(self):
        row = evaluate_categorical(
            "age",
            {"H1": "72", "H2": "72-year-old", "H3": "75"},
            {"H1": "72.8", "H2": "71.2", "H3": "73.0"},
        )
        assert row["cond_acc"] == pytest.approx(200.0 / 3.0)

    def test_coverage_and_cond_denominator(self):
        row = evaluate_categorical(
            "gender", {"H1": "M"}, {"H1": "M", "H2": "F"}
        )
        assert row["pct_extracted"] == 50.0
        assert row["cond_acc"] == 100.0  # conditional on extraction

    def test_empty_truth(self):
        assert evaluate_categorical("gender", {}, {"H1": "  "}) is None


def good_judge_reply(score, matches):
    return json.dumps({"score": score, "matches": matches})


class TestJudgeParsing:
    def test_valid(self):
        score, me, mi = _parse_judge_reply(
            good_judge_reply(4, [{"extracted_index": 0, "icd_index": 2},
                                 {"extracted_index": 1, "icd_index": 0}]),
            n_extracted=3, n_icd=4,
        )
        assert (score, me, mi) == (4, 2, 2)

    def test_score_out_of_range(self):
        with pytest.raises(ParseFailure):
            _parse_judge_reply(good_judge_reply(6, []), 1, 1)
        with pytest.raises(ParseFailure):
            _parse_judge_reply(good_judge_reply(-1, []), 1, 1)

    def test_non_integer_score(self):
        with pytest.raises(ParseFailure):
            _parse_judge_reply(json.dumps({"score": "4", "matches": []}), 1, 1)

    def test_index_out_of_range(self):
        with pytest.raises(ParseFailure):
            _parse_judge_reply(
                good_judge_reply(3, [{"extracted_index": 5, "icd_index": 0}]), 2, 2
            )

    def test_injective_violation(self):
        reply = good_judge_reply(3, [
            {"extracted_index": 0, "icd_index": 0},
            {"extracted_index": 0, "icd_index": 1},
        ])
        with pytest.raises(ParseFailure):
            _parse_judge_reply(reply, 2, 2)

    @pytest.mark.parametrize("item", [[0, 0], 3, "0-0", None])
    def test_non_object_match_is_parse_failure(self, item):
        with pytest.raises(ParseFailure):
            _parse_judge_reply(good_judge_reply(3, [item]), 2, 2)

    def test_fenced_reply(self):
        text = f"```json\n{good_judge_reply(5, [])}\n```"
        assert _parse_judge_reply(text, 0, 0)[0] == 5

    def test_stray_bracket_before_json(self):
        text = f"Scores use the {{0-5}} scale:\n{good_judge_reply(3, [])}"
        assert _parse_judge_reply(text, 0, 0)[0] == 3


class TestJudgeDiagnoses:
    def test_repair_then_success(self, scripted_gateway_factory):
        gw, backend = scripted_gateway_factory(
            ["nonsense", good_judge_reply(4, [{"extracted_index": 0, "icd_index": 0}])]
        )
        verdict = judge_diagnoses(gw, "H1", ["CHF"], ["4280"], descriptions={})
        assert verdict.score == 4
        assert backend.calls == 2

    def test_non_object_match_repaired(self, scripted_gateway_factory):
        gw, backend = scripted_gateway_factory([
            good_judge_reply(4, [[0, 0]]),
            good_judge_reply(4, [{"extracted_index": 0, "icd_index": 0}]),
        ])
        verdict = judge_diagnoses(gw, "H1", ["CHF"], ["4280"], descriptions={})
        assert verdict.matched_icd == 1
        assert backend.calls == 2

    def test_two_failures_raise(self, scripted_gateway_factory):
        gw, _ = scripted_gateway_factory(["bad", "still bad"])
        with pytest.raises(JudgeFailed):
            judge_diagnoses(gw, "H1", ["CHF"], ["4280"], descriptions={})

    def test_mock_gateway_end_to_end(self, mock_gateway):
        verdict = judge_diagnoses(
            mock_gateway, "H1",
            ["Congestive heart failure", "Atrial fibrillation"],
            ["4280", "42731"],
        )
        assert verdict.n_extracted == 2 and verdict.n_icd == 2
        assert verdict.matched_extracted == 2
        assert verdict.score == 5


class TestCorpusSummary:
    def _verdicts(self):
        return [
            JudgeVerdict("H1", 3, matched_extracted=2, matched_icd=2,
                         n_extracted=4, n_icd=10),
            JudgeVerdict("H2", 5, matched_extracted=3, matched_icd=3,
                         n_extracted=3, n_icd=5),
        ]

    def test_micro_average(self):
        s = corpus_judge_summary(self._verdicts())
        assert s["cond_acc"] == pytest.approx(5.0 / 7.0)
        assert s["abs_acc"] == pytest.approx(5.0 / 15.0)
        assert s["mean_score"] == 4.0
        assert s["avg_n_icd"] == 7.5

    def test_macro_average(self):
        s = corpus_judge_summary(self._verdicts(), macro=True)
        assert s["cond_acc"] == pytest.approx((2 / 4 + 3 / 3) / 2)
        assert s["abs_acc"] == pytest.approx((2 / 10 + 3 / 5) / 2)

    def test_empty_raises(self):
        with pytest.raises(ParseFailure):
            corpus_judge_summary([])


class TestBundledDescriptionsAndLoaders:
    def test_icd9_table_covers_hf_codes(self):
        table = icd9_descriptions()
        assert "4280" in table
        assert "heart failure" in table["4280"].lower()

    def test_load_truth_files(self, tmp_path):
        vit = tmp_path / "truth_vitals.csv"
        vit.write_text(
            "hadm_id,variable,value,unit,charttime\n"
            "H1,hr,80,bpm,2130-01-01\nH1,hr,84,bpm,2130-01-02\n"
        )
        sdoh = tmp_path / "truth_sdoh.csv"
        sdoh.write_text("hadm_id,variable,value\nH1,gender,M\n")
        tv = load_truth_vitals(str(vit))
        assert tv["hr"]["H1"] == [(80.0, "bpm"), (84.0, "bpm")]
        ts = load_truth_sdoh(str(sdoh))
        assert ts["gender"]["H1"] == "M"
