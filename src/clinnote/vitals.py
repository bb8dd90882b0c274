"""Free-text vital sign values -> numbers in canonical units.

``VITALS`` holds what every stage knows about each canonical vital sign:
its canonical unit, plausibility range, agreement tolerances and unit
conversions. Blood pressure strings like "120/60" split into systolic and
diastolic components. Out-of-range values are flagged rather than
corrected.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass, field

from .errors import InvalidInput
from .extraction import VITALS_KEYS

log = logging.getLogger(__name__)

LB_PER_KG = 0.45359237
CM_PER_IN = 2.54


def f_to_c(f):
    return (f - 32.0) * 5.0 / 9.0


def c_to_f(c):
    return c * 9.0 / 5.0 + 32.0


def in_to_cm(inches):
    return inches * CM_PER_IN


def cm_to_in(cm):
    return cm / CM_PER_IN


def lb_to_kg(lb):
    return lb * LB_PER_KG


def kg_to_lb(kg):
    return kg / LB_PER_KG


@dataclass(frozen=True)
class Vital:
    """One canonical vital sign. Units are spelled as ``fidelity.normalize_unit``
    returns them, so ``unit`` is always a key of ``native_tolerances``."""

    unit: str
    plausible: tuple  # (low, high) canonical bounds; values outside are flagged, not clipped
    native_tolerances: dict  # unit -> +/- agreement bound in that unit
    conversions: dict = field(default_factory=dict)  # unit -> (to_canonical, from_canonical)


VITALS = {
    "temperature": Vital("C", (30.0, 45.0), {"F": 0.5, "C": 0.3}, {"F": (f_to_c, c_to_f)}),
    "hr": Vital("bpm", (20.0, 300.0), {"bpm": 5.0}),
    "rr": Vital("breaths/min", (4.0, 80.0), {"breaths/min": 1.0}),
    "spo2": Vital("%", (50.0, 100.0), {"%": 1.0}),
    "height": Vital("cm", (100.0, 250.0), {"cm": 2.0, "in": 1.0}, {"in": (in_to_cm, cm_to_in)}),
    "weight": Vital("kg", (20.0, 350.0), {"kg": 2.0, "lb": 5.0}, {"lb": (lb_to_kg, kg_to_lb)}),
    "bp_sys": Vital("mmHg", (30.0, 300.0), {"mmHg": 5.0}),
    "bp_dia": Vital("mmHg", (30.0, 300.0), {"mmHg": 5.0}),
}


@dataclass
class CanonicalVital:
    """One parsed vital value; fields in ``canonical_vitals.csv`` column order."""

    hadm_id: str
    variable: str
    value: float | None  # canonical units; None when unparseable
    original_text: str
    original_unit: str = ""
    status: str = "ok"  # ok | inconsistent | out_of_range | unparseable


def _unparseable(hadm_id, variable, text):
    return CanonicalVital(hadm_id, variable, None, text, status="unparseable")


_NUM = r"[-+]?\d+(?:\.\d+)?"
_NUM_RE = re.compile(_NUM)
_FEET_IN_RE = re.compile(rf"({_NUM})\s*(?:'|ft\.?|feet)\s*({_NUM})?\s*(?:\"|''|in\.?|inches)?")
_BP_RE = re.compile(rf"({_NUM})\s*/\s*({_NUM})")


def _first_number(text):
    m = _NUM_RE.search(text)
    return float(m.group()) if m else None


def _checked(hadm_id, variable, value, text, unit):
    lo, hi = VITALS[variable].plausible
    status = "ok" if lo <= value <= hi else "out_of_range"
    return CanonicalVital(hadm_id, variable, value, text, unit, status)


def _parse_temperature(hadm_id, text):
    m = re.search(rf"({_NUM})\s*(?:°\s*)?([FfCc])?\b", text)
    if not m:
        return [_unparseable(hadm_id, "temperature", text)]
    value = float(m.group(1))
    unit = (m.group(2) or "").upper()
    if not unit:
        unit = "F" if value > 45 else "C"
    celsius = f_to_c(value) if unit == "F" else value
    # Mixed forms like "98.6F (37C)": first token wins; log disagreement.
    rest = text[m.end():]
    m2 = re.search(rf"({_NUM})\s*(?:°\s*)?([FfCc])\b", rest)
    if m2:
        other = float(m2.group(1))
        other_c = f_to_c(other) if m2.group(2).upper() == "F" else other
        if abs(other_c - celsius) > 0.5:
            log.warning("temperature units disagree in %r", text)
    return [_checked(hadm_id, "temperature", celsius, text, "°" + unit)]


def _parse_height(hadm_id, text):
    m = _FEET_IN_RE.search(text)
    lowered = text.lower()
    if m and ("'" in text or "ft" in lowered or "feet" in lowered):
        feet = float(m.group(1))
        inches = float(m.group(2) or 0.0)
        cm = in_to_cm(feet * 12 + inches)
        return [_checked(hadm_id, "height", cm, text, "ft-in")]
    value = _first_number(text)
    if value is None:
        return [_unparseable(hadm_id, "height", text)]
    if "cm" in lowered:
        return [_checked(hadm_id, "height", value, text, "cm")]
    if re.search(r"\bin(?:ch(?:es)?)?\b|\"", lowered):
        return [_checked(hadm_id, "height", in_to_cm(value), text, "in")]
    if value > 90:
        return [_checked(hadm_id, "height", value, text, "cm")]
    return [_checked(hadm_id, "height", in_to_cm(value), text, "in")]


def _parse_weight(hadm_id, text):
    value = _first_number(text)
    if value is None:
        return [_unparseable(hadm_id, "weight", text)]
    lowered = text.lower()
    if re.search(r"\blbs?\b|pounds?|#", lowered):
        return [_checked(hadm_id, "weight", lb_to_kg(value), text, "lb")]
    if "kg" in lowered or "kilo" in lowered:
        return [_checked(hadm_id, "weight", value, text, "kg")]
    if value > 250:
        return [_checked(hadm_id, "weight", lb_to_kg(value), text, "lb")]
    return [_checked(hadm_id, "weight", value, text, "kg")]


def _parse_bp(hadm_id, text):
    m = _BP_RE.search(text)
    if not m:
        return [_unparseable(hadm_id, "bp_sys", text)]
    sys_v, dia_v = float(m.group(1)), float(m.group(2))
    out = [
        _checked(hadm_id, "bp_sys", sys_v, text, "mmHg"),
        _checked(hadm_id, "bp_dia", dia_v, text, "mmHg"),
    ]
    if sys_v < dia_v:
        for item in out:
            if item.status == "ok":
                item.status = "inconsistent"
    return out


def _parse_simple(variable):
    def parse(hadm_id, text):
        value = _first_number(text)
        if value is None:
            return [_unparseable(hadm_id, variable, text)]
        return [_checked(hadm_id, variable, value, text, VITALS[variable].unit)]

    return parse


_PARSERS = {  # one per extraction.VITALS_KEYS key
    "body_temperature": _parse_temperature,
    "heart_rate": _parse_simple("hr"),
    "respiration_rate": _parse_simple("rr"),
    "spo2": _parse_simple("spo2"),
    "height": _parse_height,
    "weight": _parse_weight,
    "blood_pressure": _parse_bp,
}


def parse_vital(variable, text, hadm_id=""):
    """Parse one free-text vital value.

    Returns a list of CanonicalVital outcomes (blood pressure yields two),
    each with a ``status``. Never drops silently.
    """
    if variable not in _PARSERS:
        raise InvalidInput(f"unknown vital variable: {variable}")
    return _PARSERS[variable](hadm_id, "" if text is None else str(text))


def canonicalize_record(record):
    """All vital outcomes for one ExtractionRecord."""
    out = []
    for raw_key in VITALS_KEYS:
        text = record.vitals_raw.get(raw_key)
        if text is None:
            continue
        out.extend(parse_vital(raw_key, text, hadm_id=record.hadm_id))
    return out
