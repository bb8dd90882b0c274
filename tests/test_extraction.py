import json

import pytest
from hypothesis import given, strategies as st

from clinnote.errors import InvalidVariable, ParseFailure, SchemaViolation
from clinnote.extraction import (
    ALL_VARIABLES,
    CHARTED_KEYS,
    CHIEF_KEYS,
    Extractor,
    ExtractionRecord,
    QuarantinedExtraction,
    REPAIR_INSTRUCTION,
    UNCHARTED_KEYS,
    VITALS_KEYS,
    extraction_coverage,
    parse_structured_output,
)

FULL_REPLY = json.dumps({
    "Charted_SDOHs": {
        "Gender": "Male", "Age": "72", "Language": "null",
        "Marital_Status": "Married",
    },
    "NonCharted_SDOHs": {
        "Alcohol_Use": "denies", "Tobacco_Use": "quit 10 years ago",
        "Drug_Use": "null", "Transportation": "null", "Housing": "lives alone",
        "Parental": "null", "Employment_Status": "Retired",
        "Social_Support": "daughter visits daily",
    },
    "Clinical_Info": {
        "Vitals": {
            "Body_Temperature": "98.6 F", "Heart_Rate": "88",
            "Respiration_Rate": "18", "Blood_Pressure": "130/80",
            "SpO2": "97%", "Height": "null", "Weight": "80 kg",
        },
    },
    "Chief_Complaint": {"Symptoms": "dyspnea", "Description": "worsening on exertion"},
    "Diagnoses": [
        {"Condition": "Acute on chronic systolic heart failure", "Details": "diuresed"},
        {"Condition": "Atrial fibrillation", "Details": "null"},
    ],
})


class TestParseStructuredOutput:
    def test_full_reply(self):
        rec = parse_structured_output(FULL_REPLY, hadm_id="H1")
        assert rec.charted_sdoh["gender"] == "Male"
        assert rec.charted_sdoh["language"] is None
        assert rec.uncharted_sdoh["employment_status"] == "Retired"
        assert rec.vitals_raw["blood_pressure"] == "130/80"
        assert rec.vitals_raw["height"] is None
        assert rec.chief_complaint["symptoms"] == "dyspnea"
        assert rec.diagnoses[0]["condition"].startswith("Acute on chronic")
        assert rec.diagnoses[1]["details"] == ""

    def test_schema_complete_even_when_keys_missing(self):
        rec = parse_structured_output('{"Charted_SDOHs": {"Gender": "F"}}')
        assert set(rec.charted_sdoh) == set(CHARTED_KEYS)
        assert set(rec.uncharted_sdoh) == set(UNCHARTED_KEYS)
        assert set(rec.vitals_raw) == set(VITALS_KEYS)
        assert set(rec.chief_complaint) == set(CHIEF_KEYS)
        assert rec.charted_sdoh["gender"] == "F"
        assert rec.charted_sdoh["age"] is None

    def test_fenced_reply(self):
        rec = parse_structured_output(f"```json\n{FULL_REPLY}\n```")
        assert rec.charted_sdoh["age"] == "72"

    def test_surrounding_prose(self):
        rec = parse_structured_output(f"Here is the extraction:\n{FULL_REPLY}\nDone.")
        assert rec.charted_sdoh["age"] == "72"

    def test_case_insensitive_keys(self):
        rec = parse_structured_output('{"charted_sdoh": {"GENDER": "F", "AGE": "60"}}')
        assert rec.charted_sdoh["gender"] == "F"
        assert rec.charted_sdoh["age"] == "60"

    @pytest.mark.parametrize("literal", ["null", "NULL", "None", "n/a", "", "   "])
    def test_null_literals_canonicalized(self, literal):
        reply = json.dumps({"Charted_SDOHs": {"Gender": literal}})
        assert parse_structured_output(reply).charted_sdoh["gender"] is None

    def test_numeric_values_stringified(self):
        reply = json.dumps({"Charted_SDOHs": {"Age": 72}})
        assert parse_structured_output(reply).charted_sdoh["age"] == "72"

    def test_no_json_raises_parse_failure(self):
        with pytest.raises(ParseFailure):
            parse_structured_output("I could not process this note.")

    def test_wrong_shape_raises_schema_violation(self):
        with pytest.raises(SchemaViolation):
            parse_structured_output('{"unrelated": 1}')
        with pytest.raises(SchemaViolation):
            parse_structured_output('{"Charted_SDOHs": "not an object"}')
        with pytest.raises(SchemaViolation):
            parse_structured_output('{"Diagnoses": {"Condition": "x"}}')

    def test_diagnoses_skip_malformed_items(self):
        reply = json.dumps({"Diagnoses": [
            {"Condition": "CHF"}, "garbage", {"Details": "orphan"},
        ]})
        rec = parse_structured_output(reply)
        assert rec.diagnoses == [{"condition": "CHF", "details": ""}]

    def test_round_trip_to_from_dict(self):
        rec = parse_structured_output(FULL_REPLY, hadm_id="H9")
        again = ExtractionRecord.from_dict(rec.to_dict())
        assert again.to_dict() == rec.to_dict()

    @given(st.text(max_size=120))
    def test_arbitrary_text_never_returns_partial_schema(self, text):
        try:
            rec = parse_structured_output(text)
        except (ParseFailure, SchemaViolation):
            return
        assert set(rec.vitals_raw) == set(VITALS_KEYS)


class TestCoverage:
    def _recs(self):
        a = parse_structured_output('{"Charted_SDOHs": {"Gender": "F"}}')
        b = parse_structured_output('{"Charted_SDOHs": {"Gender": "null"}}')
        c = parse_structured_output('{"Charted_SDOHs": {"Gender": "M"}}')
        return [a, b, c]

    def test_percentage(self):
        assert extraction_coverage(self._recs(), "gender") == pytest.approx(200.0 / 3.0)
        assert extraction_coverage(self._recs(), "age") == 0.0

    def test_unknown_variable(self):
        with pytest.raises(InvalidVariable):
            extraction_coverage(self._recs(), "shoe_size")

    def test_empty_records(self):
        with pytest.raises(InvalidVariable):
            extraction_coverage([], "gender")

    def test_all_variables_listed(self):
        assert len(ALL_VARIABLES) == 19
        assert "blood_pressure" in ALL_VARIABLES


class TestExtractorRepairFlow:
    def test_clean_reply_single_call(self, scripted_gateway_factory):
        gw, backend = scripted_gateway_factory([FULL_REPLY])
        extractor = Extractor(gw)
        rec = extractor.extract("note text", "H1")
        assert isinstance(rec, ExtractionRecord)
        assert backend.calls == 1

    def test_one_repair_then_success(self, scripted_gateway_factory):
        gw, backend = scripted_gateway_factory(["sorry, no JSON here", FULL_REPLY])
        extractor = Extractor(gw)
        rec = extractor.extract("note text", "H1")
        assert isinstance(rec, ExtractionRecord)
        assert backend.calls == 2

    def test_repair_prompt_appends_instruction(self, scripted_gateway_factory):
        seen = []

        gw, backend = scripted_gateway_factory(["bad", FULL_REPLY])
        original = backend.chat

        def spy(request):
            seen.append(request.user_content)
            return original(request)

        backend.chat = spy
        Extractor(gw).extract("note text", "H1")
        assert seen[0] == "note text"
        assert seen[1].endswith(REPAIR_INSTRUCTION)

    def test_two_failures_quarantine(self, scripted_gateway_factory):
        gw, backend = scripted_gateway_factory(["bad", "still bad"])
        result = Extractor(gw).extract("note text", "H1")
        assert isinstance(result, QuarantinedExtraction)
        assert result.hadm_id == "H1"
        assert backend.calls == 2

    def test_extract_many_partitions(self, mock_gateway):
        # replies keyed by note text, so any order of the concurrent calls works
        backend = mock_gateway.backend
        backend.register("good note", FULL_REPLY)
        backend.register("bad note", "bad")
        backend.register(f"bad note\n\n{REPAIR_INSTRUCTION}", "bad again")
        records, quarantined = Extractor(mock_gateway).extract_many(
            {"H1": "good note", "H2": "bad note"}
        )
        assert [r.hadm_id for r in records] == ["H1"]
        assert [q.hadm_id for q in quarantined] == ["H2"]
