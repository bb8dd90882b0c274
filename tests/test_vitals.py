import pytest
from hypothesis import given, strategies as st

from clinnote.errors import InvalidInput
from clinnote.extraction import VITALS_KEYS
from clinnote.fidelity import normalize_unit
from clinnote import vitals
from clinnote.vitals import (
    VITALS,
    c_to_f,
    cm_to_in,
    f_to_c,
    in_to_cm,
    kg_to_lb,
    lb_to_kg,
    parse_vital,
)


def one(outcomes):
    assert len(outcomes) == 1
    return outcomes[0]


class TestConversions:
    def test_known_points(self):
        assert f_to_c(98.6) == pytest.approx(37.0)
        assert f_to_c(32.0) == pytest.approx(0.0)
        assert in_to_cm(1.0) == pytest.approx(2.54)
        assert lb_to_kg(1.0) == pytest.approx(0.45359237)

    @given(st.floats(min_value=-200, max_value=200,
                     allow_nan=False, allow_infinity=False))
    def test_temperature_round_trip(self, f):
        assert c_to_f(f_to_c(f)) == pytest.approx(f, abs=1e-9)

    @given(st.floats(min_value=0.1, max_value=500,
                     allow_nan=False, allow_infinity=False))
    def test_length_weight_round_trip(self, v):
        assert cm_to_in(in_to_cm(v)) == pytest.approx(v)
        assert kg_to_lb(lb_to_kg(v)) == pytest.approx(v)


class TestTemperature:
    @pytest.mark.parametrize("text,celsius,unit", [
        ("98.6 F", 37.0, "°F"),
        ("98.6F", 37.0, "°F"),
        ("98.6 °F", 37.0, "°F"),
        ("37.0 C", 37.0, "°C"),
        ("37", 37.0, "°C"),       # unmarked, <=45 -> Celsius
        ("101.2", 38.444444, "°F"),  # unmarked, >45 -> Fahrenheit
    ])
    def test_parsing(self, text, celsius, unit):
        v = one(parse_vital("body_temperature", text, "H1"))
        assert v.status == "ok"
        assert v.value == pytest.approx(celsius, abs=1e-4)
        assert v.original_unit == unit

    def test_mixed_form_first_token_wins(self):
        v = one(parse_vital("body_temperature", "98.6F (37.0C)"))
        assert v.value == pytest.approx(37.0)

    def test_out_of_range(self):
        v = one(parse_vital("body_temperature", "12 C", "H1"))
        assert v.status == "out_of_range"

    def test_unparseable(self):
        v = one(parse_vital("body_temperature", "afebrile"))
        assert v.status == "unparseable"


class TestHeight:
    @pytest.mark.parametrize("text,cm", [
        ("170 cm", 170.0),
        ("170", 170.0),            # unmarked > 90 -> cm
        ("67 in", 170.18),
        ("67", 170.18),            # unmarked <= 90 -> inches
        ("5'10\"", 177.8),
        ("5 ft 10 in", 177.8),
        ("6 feet", 182.88),
    ])
    def test_parsing(self, text, cm):
        v = one(parse_vital("height", text))
        assert v.status == "ok"
        assert v.value == pytest.approx(cm, abs=0.01)

    def test_out_of_range(self):
        assert one(parse_vital("height", "400 cm")).status == "out_of_range"


class TestWeight:
    @pytest.mark.parametrize("text,kg", [
        ("80 kg", 80.0),
        ("80", 80.0),              # unmarked <= 250 -> kg
        ("176 lbs", 79.832),
        ("176 lb", 79.832),
        ("300", 136.078),          # unmarked > 250 -> pounds
    ])
    def test_parsing(self, text, kg):
        v = one(parse_vital("weight", text))
        assert v.status == "ok"
        assert v.value == pytest.approx(kg, abs=0.01)

    def test_out_of_range(self):
        assert one(parse_vital("weight", "800 kg")).status == "out_of_range"


class TestBloodPressure:
    def test_split(self):
        sys_v, dia_v = parse_vital("blood_pressure", "130/80", "H1")
        assert (sys_v.variable, sys_v.value) == ("bp_sys", 130.0)
        assert (dia_v.variable, dia_v.value) == ("bp_dia", 80.0)
        assert sys_v.status == dia_v.status == "ok"

    def test_spaces_allowed(self):
        sys_v, dia_v = parse_vital("blood_pressure", "BP 130 / 80 mmHg")
        assert sys_v.value == 130.0 and dia_v.value == 80.0

    def test_inverted_flagged_inconsistent(self):
        sys_v, dia_v = parse_vital("blood_pressure", "80/130")
        assert sys_v.status == "inconsistent"
        assert dia_v.status == "inconsistent"

    def test_no_pair_unparseable(self):
        v = one(parse_vital("blood_pressure", "130"))
        assert v.status == "unparseable"

    def test_out_of_range_component(self):
        sys_v, dia_v = parse_vital("blood_pressure", "320/80")
        assert sys_v.status == "out_of_range"
        assert dia_v.status == "ok"


class TestSimpleVitals:
    def test_hr_rr_spo2(self):
        assert one(parse_vital("heart_rate", "88 bpm")).value == 88.0
        assert one(parse_vital("respiration_rate", "18")).value == 18.0
        assert one(parse_vital("spo2", "97%")).value == 97.0

    @pytest.mark.parametrize("variable,text", [
        ("heart_rate", "350"), ("respiration_rate", "2"), ("spo2", "40"),
    ])
    def test_out_of_range(self, variable, text):
        assert one(parse_vital(variable, text)).status == "out_of_range"

    def test_null_value(self):
        v = one(parse_vital("heart_rate", None, "H1"))
        assert v.status == "unparseable"
        assert v.value is None and v.original_text == ""

    @pytest.mark.parametrize("key, variable", [
        ("heart_rate", "hr"), ("blood_pressure", "bp_sys"),
        ("body_temperature", "temperature"), ("respiration_rate", "rr"), ("spo2", "spo2"),
    ])
    def test_null_value_named_by_canonical_variable(self, key, variable):
        v = one(parse_vital(key, None, "H1"))
        assert (v.variable, v.status) == (variable, "unparseable")
        assert v.value is None and v.original_text == ""

    def test_unknown_variable(self):
        with pytest.raises(InvalidInput):
            parse_vital("cholesterol", "200")


class TestPlausibleRanges:
    def test_frozen_bounds(self):
        assert {v: s.plausible for v, s in VITALS.items()} == {
            "temperature": (30.0, 45.0),
            "hr": (20.0, 300.0),
            "rr": (4.0, 80.0),
            "spo2": (50.0, 100.0),
            "height": (100.0, 250.0),
            "weight": (20.0, 350.0),
            "bp_sys": (30.0, 300.0),
            "bp_dia": (30.0, 300.0),
        }

    @given(st.floats(min_value=-1000, max_value=1000,
                     allow_nan=False, allow_infinity=False))
    def test_hr_status_matches_bounds(self, value):
        outcome = one(parse_vital("heart_rate", f"{value:.1f}"))
        in_range = 20.0 <= float(f"{value:.1f}") <= 300.0
        assert (outcome.status == "ok") == in_range


# One sample per unit a parser emits, marked and unmarked, keyed by
# extraction-schema variable.
UNIT_SAMPLES = {
    "body_temperature": {"98.6 F": "°F", "101.2": "°F", "37.0 C": "°C", "37": "°C"},
    "height": {"5'10\"": "ft-in", "67 in": "in", "67": "in", "170 cm": "cm", "170": "cm"},
    "weight": {"176 lb": "lb", "300": "lb", "80 kg": "kg", "80": "kg"},
    "blood_pressure": {"130/80 mmHg": "mmHg", "130/80": "mmHg"},
    "heart_rate": {"88 bpm": "bpm", "88": "bpm"},
    "respiration_rate": {"18 breaths/min": "breaths/min", "18": "breaths/min"},
    "spo2": {"97%": "%", "97": "%"},
}


class TestVitalsTable:
    def test_every_emitted_unit_has_a_tolerance(self):
        assert set(UNIT_SAMPLES) == set(VITALS_KEYS)
        reached = set()
        for raw_key, samples in UNIT_SAMPLES.items():
            for text, unit in samples.items():
                for outcome in parse_vital(raw_key, text):
                    assert outcome.status == "ok", (raw_key, text)
                    assert outcome.original_unit == unit, (raw_key, text)
                    tolerances = VITALS[outcome.variable].native_tolerances
                    assert normalize_unit(outcome.original_unit) in tolerances, (raw_key, text)
                    reached.add(outcome.variable)
        assert reached == set(VITALS)

    def test_one_parser_per_schema_key(self):
        assert set(vitals._PARSERS) == set(VITALS_KEYS)

    def test_canonical_unit_has_a_tolerance(self):
        for spec in VITALS.values():
            assert spec.unit in spec.native_tolerances
            assert set(spec.conversions) <= set(spec.native_tolerances)

    def test_conversions_round_trip(self):
        for spec in VITALS.values():
            for to_canonical, from_canonical in spec.conversions.values():
                for value in (-40.0, 0.0, 37.0, 66.0, 175.3):
                    assert from_canonical(to_canonical(value)) == pytest.approx(value, abs=1e-9)
