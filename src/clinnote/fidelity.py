"""Extraction fidelity against structured ground truth.

Covers the four protocols: extraction coverage, tolerance-based
conditional accuracy (native units when aligned, canonical otherwise),
MAE/MAPE on canonical-unit medians, and the LLM-as-a-judge comparison of
extracted diagnoses against coded ICD-9 diagnoses.
"""

from __future__ import annotations

import csv
import logging
import re
import statistics
from dataclasses import dataclass
from importlib import resources

from .errors import JudgeFailed, ParseFailure, ReplyUnusable
from .gateway import chat_with_repair, find_json
from .prompts import load_prompt
from .vitals import c_to_f, cm_to_in, kg_to_lb

log = logging.getLogger(__name__)


@dataclass
class ToleranceRule:
    variable: str
    native_tolerances: dict  # unit -> +/- bound
    canonical_unit: str


TOLERANCE_RULES = {
    "temperature": ToleranceRule("temperature", {"F": 0.5, "C": 0.3}, "C"),
    "hr": ToleranceRule("hr", {"bpm": 5.0}, "bpm"),
    "rr": ToleranceRule("rr", {"breaths/min": 1.0}, "breaths/min"),
    "spo2": ToleranceRule("spo2", {"%": 1.0}, "%"),
    "height": ToleranceRule("height", {"cm": 2.0, "in": 1.0}, "cm"),
    "weight": ToleranceRule("weight", {"kg": 2.0, "lb": 5.0}, "kg"),
    "bp_sys": ToleranceRule("bp_sys", {"mmHg": 5.0}, "mmHg"),
    "bp_dia": ToleranceRule("bp_dia", {"mmHg": 5.0}, "mmHg"),
}

_UNIT_ALIASES = {
    "°f": "F", "f": "F", "deg f": "F", "fahrenheit": "F",
    "°c": "C", "c": "C", "deg c": "C", "celsius": "C",
    "bpm": "bpm", "beats/min": "bpm",
    "breaths/min": "breaths/min", "insp/min": "breaths/min",
    "%": "%", "percent": "%",
    "cm": "cm", "in": "in", "inch": "in", "inches": "in", "ft-in": "in",
    "kg": "kg", "lb": "lb", "lbs": "lb", "pounds": "lb",
    "mmhg": "mmHg",
}

# canonical value -> native unit
_FROM_CANONICAL = {
    ("temperature", "F"): c_to_f,
    ("height", "in"): cm_to_in,
    ("weight", "lb"): kg_to_lb,
}

# native truth value -> canonical
_TO_CANONICAL = {
    ("temperature", "F"): lambda v: (v - 32.0) * 5.0 / 9.0,
    ("height", "in"): lambda v: v * 2.54,
    ("weight", "lb"): lambda v: v * 0.45359237,
}


def normalize_unit(unit):
    return _UNIT_ALIASES.get(str(unit).strip().lower(), str(unit).strip())


def truth_to_canonical(variable, value, unit):
    fn = _TO_CANONICAL.get((variable, normalize_unit(unit)))
    return fn(value) if fn else value


def within_tolerance(variable, a, b, unit):
    """Symmetric: |a - b| <= the rule's bound for the given unit."""
    rule = TOLERANCE_RULES[variable]
    unit = normalize_unit(unit)
    if unit not in rule.native_tolerances:
        unit = rule.canonical_unit
    return abs(a - b) <= rule.native_tolerances[unit]


def evaluate_vital(variable, extracted, truth):
    """One agreement-report row for a numeric vital.

    ``extracted``: hadm_id -> CanonicalVital (or None). ``truth``:
    hadm_id -> list of (value, unit) measurement rows. Coverage counts
    non-null extractions over admissions with truth; conditional accuracy
    uses native units when the extracted and truth units align, canonical
    units otherwise; MAE/MAPE always compare canonical medians without
    tolerance.
    """
    rule = TOLERANCE_RULES[variable]
    truth = {h: rows for h, rows in truth.items() if rows}
    if not truth:
        log.warning("no truth rows for %s; row omitted", variable)
        return None
    n_truth = len(truth)
    hits = 0
    n_pairs = 0
    abs_errors = []
    pct_errors = []
    n_extracted = 0
    for hadm_id, rows in truth.items():
        vital = extracted.get(hadm_id)
        if vital is None:
            continue
        n_extracted += 1
        n_pairs += 1
        truth_canon = statistics.median(
            truth_to_canonical(variable, v, u) for v, u in rows
        )
        # native comparison when every truth row shares the extracted unit
        native_unit = normalize_unit(vital.original_unit)
        truth_units = {normalize_unit(u) for _, u in rows}
        if truth_units == {native_unit} and native_unit in rule.native_tolerances:
            convert = _FROM_CANONICAL.get((variable, native_unit), lambda v: v)
            extr_native = convert(vital.value)
            truth_native = statistics.median(v for v, _ in rows)
            hit = within_tolerance(variable, extr_native, truth_native, native_unit)
        else:
            hit = within_tolerance(
                variable, vital.value, truth_canon, rule.canonical_unit
            )
        if hit:
            hits += 1
        abs_errors.append(abs(vital.value - truth_canon))
        if truth_canon != 0:
            pct_errors.append(abs(vital.value - truth_canon) / abs(truth_canon) * 100.0)
    return {
        "variable": variable,
        "pct_extracted": 100.0 * n_extracted / n_truth,
        "cond_acc": (100.0 * hits / n_pairs) if n_pairs else None,
        "mae": statistics.mean(abs_errors) if abs_errors else None,
        "mape": statistics.mean(pct_errors) if pct_errors else None,
        "n_truth": n_truth,
        "n_pairs": n_pairs,
    }


# --- categorical agreement -------------------------------------------------

_GENDER_SYNONYMS = {
    "m": "m", "male": "m", "man": "m",
    "f": "f", "female": "f", "woman": "f",
}

_MARITAL_SYNONYMS = {
    "married": "married", "m": "married", "wife": "married", "husband": "married",
    "widowed": "widowed", "widow": "widowed", "widower": "widowed",
    "divorced": "divorced/separated", "separated": "divorced/separated",
    "divorced/separated": "divorced/separated",
    "single": "single", "never married": "single", "single/never married": "single",
}

_LANGUAGE_SYNONYMS = {
    "english": "english", "engl": "english", "en": "english",
    "spanish": "spanish", "span": "spanish", "es": "spanish",
    "portuguese": "portuguese", "port": "portuguese",
    "russian": "russian", "russ": "russian",
    "mandarin": "chinese", "cantonese": "chinese", "chinese": "chinese",
    "haitian creole": "haitian creole", "creole": "haitian creole",
}


def _canon_category(variable, value):
    v = str(value).strip().casefold()
    if variable == "gender":
        return _GENDER_SYNONYMS.get(v, v)
    if variable == "marital_status":
        return _MARITAL_SYNONYMS.get(v, v)
    if variable == "language":
        return _LANGUAGE_SYNONYMS.get(v, v)
    return v


def _age_years(value):
    m = re.search(r"\d+(?:\.\d+)?", str(value))
    return float(m.group()) if m else None


def evaluate_categorical(variable, extracted, truth):
    """Agreement row for a charted SDOH variable (coverage + cond acc only)."""
    truth = {h: v for h, v in truth.items() if v is not None and str(v).strip()}
    if not truth:
        log.warning("no truth values for %s; row omitted", variable)
        return None
    n_truth = len(truth)
    n_extracted = 0
    hits = 0
    for hadm_id, truth_val in truth.items():
        extr = extracted.get(hadm_id)
        if extr is None:
            continue
        n_extracted += 1
        if variable == "age":
            a, b = _age_years(extr), _age_years(truth_val)
            if a is not None and b is not None and abs(a - b) <= 1.0:
                hits += 1
        elif _canon_category(variable, extr) == _canon_category(variable, truth_val):
            hits += 1
    return {
        "variable": variable,
        "pct_extracted": 100.0 * n_extracted / n_truth,
        "cond_acc": (100.0 * hits / n_extracted) if n_extracted else None,
        "mae": None,
        "mape": None,
        "n_truth": n_truth,
        "n_pairs": n_extracted,
    }


# --- LLM-as-a-judge for diagnoses ------------------------------------------

@dataclass
class JudgeVerdict:
    hadm_id: str
    score: int
    matched_extracted: int
    matched_icd: int
    n_extracted: int
    n_icd: int

    def to_dict(self) -> dict:
        return {
            "hadm_id": self.hadm_id,
            "score": self.score,
            "matched_extracted": self.matched_extracted,
            "matched_icd": self.matched_icd,
            "n_extracted": self.n_extracted,
            "n_icd": self.n_icd,
        }


def icd9_descriptions() -> dict:
    """Bundled code -> description table, keyed by dot-stripped code."""
    path = resources.files("clinnote").joinpath("data", "icd9_descriptions.csv")
    table = {}
    with path.open() as fh:
        for row in csv.DictReader(fh):
            table[row["icd9_code"].strip()] = row["description"].strip()
    return table


def _parse_judge_reply(raw_text, n_extracted, n_icd):
    obj = find_json(raw_text, dict)
    score = obj.get("score")
    matches = obj.get("matches")
    if not isinstance(score, int) or not 0 <= score <= 5 or not isinstance(matches, list):
        raise ParseFailure("judge reply must carry integer score 0-5 and matches list")
    seen_e, seen_i = set(), set()
    for m in matches:
        if not isinstance(m, dict):
            raise ParseFailure("each match must be an object")
        e, i = m.get("extracted_index"), m.get("icd_index")
        if not isinstance(e, int) or not isinstance(i, int):
            raise ParseFailure("match indices must be integers")
        if not (0 <= e < n_extracted and 0 <= i < n_icd):
            raise ParseFailure("match index out of range")
        if e in seen_e or i in seen_i:
            raise ParseFailure("matches must be injective on both sides")
        seen_e.add(e)
        seen_i.add(i)
    return score, len(seen_e), len(seen_i)


def judge_diagnoses(gateway, hadm_id, extracted_dx, icd_codes, descriptions=None):
    """Score extracted diagnoses against ICD-9 descriptions via the judge."""
    if descriptions is None:
        descriptions = icd9_descriptions()
    icd_texts = [descriptions.get(code, code) for code in icd_codes]
    prompt = load_prompt("judge")
    extracted_lines = "\n".join(f"{i}. {d}" for i, d in enumerate(extracted_dx))
    icd_lines = "\n".join(f"{i}. {d}" for i, d in enumerate(icd_texts))
    user = (
        f"Extracted diagnoses:\n{extracted_lines or '(none)'}\n\n"
        f"ICD-9 diagnoses:\n{icd_lines or '(none)'}"
    )

    try:
        score, me, mi = chat_with_repair(
            gateway, prompt.text, user,
            lambda raw: _parse_judge_reply(raw, len(extracted_dx), len(icd_texts)),
            "Return only the JSON object described above.",
        )
    except ReplyUnusable as err:
        raise JudgeFailed(f"{hadm_id}: {err}") from err
    return JudgeVerdict(
        hadm_id=hadm_id,
        score=score,
        matched_extracted=me,
        matched_icd=mi,
        n_extracted=len(extracted_dx),
        n_icd=len(icd_texts),
    )


def corpus_judge_summary(verdicts, macro=False) -> dict:
    """Corpus-level judge metrics; micro-averaged accuracies by default."""
    if not verdicts:
        raise ParseFailure("need at least one verdict")
    scores = [v.score for v in verdicts]
    if macro:
        cond = [v.matched_extracted / v.n_extracted for v in verdicts if v.n_extracted]
        absr = [v.matched_icd / v.n_icd for v in verdicts if v.n_icd]
        cond_acc = statistics.mean(cond) if cond else None
        abs_acc = statistics.mean(absr) if absr else None
    else:
        tot_e = sum(v.n_extracted for v in verdicts)
        tot_i = sum(v.n_icd for v in verdicts)
        cond_acc = sum(v.matched_extracted for v in verdicts) / tot_e if tot_e else None
        abs_acc = sum(v.matched_icd for v in verdicts) / tot_i if tot_i else None
    return {
        "mean_score": statistics.mean(scores),
        "median_score": statistics.median(scores),
        "cond_acc": cond_acc,
        "abs_acc": abs_acc,
        "avg_n_icd": statistics.mean(v.n_icd for v in verdicts),
        "avg_n_extracted": statistics.mean(v.n_extracted for v in verdicts),
        "n_patients": len(verdicts),
    }


def load_truth_vitals(path) -> dict:
    """truth_vitals.csv -> variable -> hadm_id -> [(value, unit)]."""
    out: dict = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            var = row["variable"].strip()
            out.setdefault(var, {}).setdefault(row["hadm_id"].strip(), []).append(
                (float(row["value"]), row["unit"].strip())
            )
    return out


def load_truth_sdoh(path) -> dict:
    """truth_sdoh.csv -> variable -> hadm_id -> value."""
    out: dict = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            out.setdefault(row["variable"].strip(), {})[row["hadm_id"].strip()] = row[
                "value"
            ].strip()
    return out
