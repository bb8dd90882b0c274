"""Extraction fidelity against structured ground truth.

Covers the four protocols: extraction coverage, tolerance-based
conditional accuracy (native units when aligned, canonical otherwise),
MAE/MAPE on canonical-unit medians, and the LLM-as-a-judge comparison of
extracted diagnoses against coded ICD-9 diagnoses.
"""

from __future__ import annotations

import csv
import logging
import math
import re
import statistics
from dataclasses import dataclass
from importlib import resources

from .cohort import read_rows
from .errors import InvalidInput, JudgeFailed, ParseFailure, ReplyUnusable
from .gateway import chat_with_repair, find_json
from .prompts import load_prompt
from .vitals import VITALS

log = logging.getLogger(__name__)


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


def normalize_unit(unit):
    return _UNIT_ALIASES.get(str(unit).strip().lower(), str(unit).strip())


def truth_to_canonical(variable, value, unit):
    conversion = VITALS[variable].conversions.get(normalize_unit(unit))
    return conversion[0](value) if conversion else value


def within_tolerance(variable, a, b, unit):
    """Symmetric: |a - b| <= the bound for the given unit (else the canonical one)."""
    spec = VITALS[variable]
    unit = normalize_unit(unit)
    if unit not in spec.native_tolerances:
        unit = spec.unit
    return abs(a - b) <= spec.native_tolerances[unit]


def _row(variable, n_truth, n_pairs, hits, abs_errors=(), pct_errors=()):
    """One agreement-report row: coverage over admissions with truth,
    accuracy over admissions with both, and mean errors where measured."""
    return {
        "variable": variable,
        "pct_extracted": 100.0 * n_pairs / n_truth,
        "cond_acc": (100.0 * hits / n_pairs) if n_pairs else None,
        "mae": statistics.mean(abs_errors) if abs_errors else None,
        "mape": statistics.mean(pct_errors) if pct_errors else None,
        "n_truth": n_truth,
        "n_pairs": n_pairs,
    }


def evaluate_vital(variable, extracted, truth):
    """One agreement-report row for a numeric vital.

    ``extracted``: hadm_id -> CanonicalVital (or None). ``truth``:
    hadm_id -> list of (value, unit) measurement rows. Coverage counts
    non-null extractions over admissions with truth; conditional accuracy
    uses native units when the extracted and truth units align, canonical
    units otherwise; MAE/MAPE always compare canonical medians without
    tolerance.
    """
    spec = VITALS[variable]
    truth = {h: rows for h, rows in truth.items() if rows}
    if not truth:
        log.warning("no truth rows for %s; row omitted", variable)
        return None
    n_truth = len(truth)
    hits = 0
    n_pairs = 0  # admissions with both truth and an extraction
    abs_errors = []
    pct_errors = []
    for hadm_id, rows in truth.items():
        vital = extracted.get(hadm_id)
        if vital is None:
            continue
        n_pairs += 1
        truth_canon = statistics.median(
            truth_to_canonical(variable, v, u) for v, u in rows
        )
        # native comparison when every truth row shares the extracted unit
        native_unit = normalize_unit(vital.original_unit)
        truth_units = {normalize_unit(u) for _, u in rows}
        if truth_units == {native_unit} and native_unit in spec.native_tolerances:
            conversion = spec.conversions.get(native_unit)
            extr_native = conversion[1](vital.value) if conversion else vital.value
            truth_native = statistics.median(v for v, _ in rows)
            hit = within_tolerance(variable, extr_native, truth_native, native_unit)
        else:
            hit = within_tolerance(variable, vital.value, truth_canon, spec.unit)
        if hit:
            hits += 1
        abs_errors.append(abs(vital.value - truth_canon))
        if truth_canon != 0:
            pct_errors.append(abs(vital.value - truth_canon) / abs(truth_canon) * 100.0)
    return _row(variable, n_truth, n_pairs, hits, abs_errors, pct_errors)


# --- categorical agreement -------------------------------------------------

_SYNONYMS = {  # variable -> casefolded spelling -> canonical category
    "gender": {
        "m": "m", "male": "m", "man": "m",
        "f": "f", "female": "f", "woman": "f",
    },
    "marital_status": {
        "married": "married", "m": "married", "wife": "married", "husband": "married",
        "widowed": "widowed", "widow": "widowed", "widower": "widowed",
        "divorced": "divorced/separated", "separated": "divorced/separated",
        "divorced/separated": "divorced/separated",
        "single": "single", "never married": "single", "single/never married": "single",
    },
    "language": {
        "english": "english", "engl": "english", "en": "english",
        "spanish": "spanish", "span": "spanish", "es": "spanish",
        "portuguese": "portuguese", "port": "portuguese",
        "russian": "russian", "russ": "russian",
        "mandarin": "chinese", "cantonese": "chinese", "chinese": "chinese",
        "haitian creole": "haitian creole", "creole": "haitian creole",
    },
}


def _canon_category(variable, value):
    v = str(value).strip().casefold()
    return _SYNONYMS.get(variable, {}).get(v, v)


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
    n_pairs = 0
    hits = 0
    for hadm_id, truth_val in truth.items():
        extr = extracted.get(hadm_id)
        if extr is None:
            continue
        n_pairs += 1
        if variable == "age":
            a, b = _age_years(extr), _age_years(truth_val)
            if a is not None and b is not None and abs(a - b) <= 1.0:
                hits += 1
        elif _canon_category(variable, extr) == _canon_category(variable, truth_val):
            hits += 1
    return _row(variable, n_truth, n_pairs, hits)


# --- LLM-as-a-judge for diagnoses ------------------------------------------

@dataclass
class JudgeVerdict:
    hadm_id: str
    score: int
    matched_extracted: int
    matched_icd: int
    n_extracted: int
    n_icd: int


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
    # type(), not isinstance: a JSON true or false is a bool, a subclass of int
    if type(score) is not int or not 0 <= score <= 5 or not isinstance(matches, list):
        raise ParseFailure("judge reply must carry integer score 0-5 and matches list")
    seen_e, seen_i = set(), set()
    for m in matches:
        if not isinstance(m, dict):
            raise ParseFailure("each match must be an object")
        e, i = m.get("extracted_index"), m.get("icd_index")
        if type(e) is not int or type(i) is not int:
            raise ParseFailure("match indices must be integers")
        if not (0 <= e < n_extracted and 0 <= i < n_icd):
            raise ParseFailure("match index out of range")
        if e in seen_e or i in seen_i:
            raise ParseFailure("matches must be injective on both sides")
        seen_e.add(e)
        seen_i.add(i)
    return score, len(seen_e), len(seen_i)


def judge_diagnoses(gateway, hadm_id, extracted_dx, icd_codes, descriptions):
    """Score extracted diagnoses against ICD-9 descriptions via the judge;
    ``descriptions`` is the table ``icd9_descriptions`` returns."""
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


def corpus_judge_summary(verdicts) -> dict:
    """Corpus-level judge metrics, with micro-averaged accuracies."""
    if not verdicts:
        raise InvalidInput("need at least one verdict")
    scores = [v.score for v in verdicts]
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


def _warn_skipped(skipped):
    for reject in skipped:
        log.warning("%s line %d: %s; truth row skipped",
                    reject["file"], reject["line"], reject["error"])


def load_truth_vitals(path) -> dict:
    """truth_vitals.csv -> variable -> hadm_id -> [(value, unit)].

    A row with too few or too many fields, or whose value is blank or not
    a finite number, is skipped with a warning naming its file and line.
    """
    out: dict = {}
    skipped: list = []
    for lineno, row in read_rows(path, ["hadm_id", "variable", "value", "unit"], skipped):
        try:
            value = float(row["value"])
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            skipped.append({"file": path, "line": lineno,
                            "error": f"value {row['value']!r} is not a number"})
            continue
        out.setdefault(row["variable"].strip(), {}).setdefault(
            row["hadm_id"].strip(), []).append((value, row["unit"].strip()))
    _warn_skipped(skipped)
    return out


def load_truth_sdoh(path) -> dict:
    """truth_sdoh.csv -> variable -> hadm_id -> value.

    A row with too few or too many fields, or a blank value, is skipped
    with a warning naming its file and line.
    """
    out: dict = {}
    skipped: list = []
    for lineno, row in read_rows(path, ["hadm_id", "variable", "value"], skipped):
        value = row["value"].strip()
        if not value:
            skipped.append({"file": path, "line": lineno, "error": "value is blank"})
            continue
        out.setdefault(row["variable"].strip(), {})[row["hadm_id"].strip()] = value
    _warn_skipped(skipped)
    return out
