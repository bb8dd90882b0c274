"""Benchmark inputs: seeded generators for the admissions, diagnoses and
notes CSVs, plus the per-workload run configuration.

Every generator is a pure function of its seed. The program under test
receives only the CSV files written here.
"""

from __future__ import annotations

import csv
import os
from collections.abc import Callable
from dataclasses import dataclass
from datetime import datetime, timedelta

import numpy as np

from clinnote.fixture import build_fixture

ADMISSION_FIELDS = ["subject_id", "hadm_id", "admit_time", "discharge_time", "dob", "gender"]
DIAGNOSIS_FIELDS = ["subject_id", "hadm_id", "icd9_code"]
NOTE_FIELDS = ["subject_id", "hadm_id", "category", "chart_date", "text"]
TRUTH_VITAL_FIELDS = ["hadm_id", "variable", "value", "unit", "charttime"]
TRUTH_SDOH_FIELDS = ["hadm_id", "variable", "value"]


def generate(workload, seed, out_dir):
    """Write the workload's input CSVs into out_dir; returns the path map."""
    w = WORKLOADS[workload]
    return write_tables(w.generator(w.size, seed), out_dir)


def write_tables(tables, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    admissions, diagnoses, notes, truth_v, truth_s = tables
    paths = {}
    for name, rows, fields in (
        ("admissions.csv", admissions, ADMISSION_FIELDS),
        ("diagnoses.csv", diagnoses, DIAGNOSIS_FIELDS),
        ("notes.csv", notes, NOTE_FIELDS),
        ("truth_vitals.csv", truth_v, TRUTH_VITAL_FIELDS),
        ("truth_sdoh.csv", truth_s, TRUTH_SDOH_FIELDS),
    ):
        path = os.path.join(out_dir, name)
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=fields)
            writer.writeheader()
            writer.writerows(rows)
        paths[name] = path
    return paths


# --- scaled fixture ----------------------------------------------------------

def scaled_fixture(replicas, seed):
    """The bundled fixture built `replicas` times from seeds drawn from `seed`.

    Subject and hadm IDs carry a per-replica prefix so that replicas never
    collide; note texts carry no IDs, so equal draws still share requests.
    """
    replica_seeds = np.random.default_rng(seed).integers(0, 2**31, size=replicas)
    tables = ([], [], [], [], [])
    for r, replica_seed in enumerate(replica_seeds):
        prefix = f"R{r:03d}"
        for out, rows in zip(tables, build_fixture(seed=int(replica_seed))):
            for row in rows:
                row = dict(row)
                for key in ("subject_id", "hadm_id"):
                    if key in row:
                        row[key] = prefix + row[key]
                out.append(row)
    return tables


# --- diverse cohort ----------------------------------------------------------

VOCAB_SIZE = 20000
ZIPF_EXPONENT = 1.07
_SYLLABLES = ("ba", "ce", "di", "fo", "gu", "ha", "je", "ki", "lo", "mu", "na", "pe",
              "qui", "ro", "su", "ta", "ve", "wi", "xo", "yu", "za", "bre", "cla",
              "dro", "fle", "gri", "pla", "sto", "tri", "vel")


def synthetic_vocabulary(size=VOCAB_SIZE):
    """`size` distinct lowercase pseudo-words, the same on every call."""
    words = []
    n = len(_SYLLABLES)
    i = 0
    while len(words) < size:
        a, b, c = i % n, (i // n) % n, (i // (n * n)) % n
        words.append(_SYLLABLES[a] + _SYLLABLES[b] + _SYLLABLES[c] + ("" if i < n**3 else "x"))
        i += 1
    return words


class ZipfSampler:
    """Draws word indices with P(rank r) proportional to r**-s, vectorised."""

    def __init__(self, size=VOCAB_SIZE, exponent=ZIPF_EXPONENT):
        weights = np.arange(1, size + 1, dtype=float) ** -exponent
        self.cdf = np.cumsum(weights / weights.sum())
        self.cdf[-1] = 1.0

    def draw(self, rng, n):
        return np.searchsorted(self.cdf, rng.random(n), side="right")


_TOBACCO_STATUS = ("current smoker", "smokes", "quit", "former smoker", "ex-smoker",
                   "occasional smoker", "quit smoking", "smoked")
_TOBACCO_AMOUNT = ("1 ppd", "2 ppd", "half a pack per day", "10 cigarettes daily",
                   "a pack a day", "cigars on weekends", "a pipe nightly", "3 ppd")
_TOBACCO_SPAN = ("for 20 years", "x 35y", "since age 14", "for 40 years", "x 10y",
                 "for decades", "until 5 years ago", "until 3 months ago")
_ALCOHOL_DRINK = ("2 beers", "one glass of wine", "3 shots of vodka", "a six pack",
                  "4 drinks", "half a bottle of wine", "several cocktails",
                  "a pint of whiskey")
_ALCOHOL_FREQ = ("daily", "on weekends", "per week", "nightly", "socially",
                 "twice a month", "most days", "occasionally")
_ALCOHOL_NOTE = ("", ", heavy use in the past", ", quit 2 years ago",
                 ", former heavy drinker", ", denies binge drinking",
                 ", history of withdrawal")
_DRUGS = ("denies", "none", "marijuana occasionally", "remote cocaine use",
          "former heroin use, on methadone", "smokes marijuana daily",
          "history of IV drug use", "denies illicit drugs", "edibles on weekends",
          "remote amphetamine use")
_RELATIVES = ("wife", "husband", "daughter", "son", "sister", "brother", "partner",
              "granddaughter", "grandson", "niece")
_HOMES = ("in a second floor apartment", "in a house with stairs", "in senior housing",
          "in a trailer", "in a walk-up apartment", "in a one story home",
          "in public housing", "in a condo", "in an assisted living unit",
          "in a rented room")
_JOBS = ("school teacher", "truck driver", "nurse", "bank clerk", "carpenter",
         "machinist", "cashier", "electrician", "janitor", "postal worker",
         "accountant", "chef", "security guard", "mechanic", "librarian")
_SUPPORT_VERB = ("visits daily", "helps with medications", "checks in weekly",
                 "cooks meals", "manages finances", "lives nearby",
                 "calls every evening", "drives to appointments", "stays overnight",
                 "helps with bathing")
_TRANSPORT = ("drives own car", "no longer drives", "uses the senior van",
              "takes the bus", "relies on a shuttle service", "walks to appointments",
              "rides from church members", "uses arranged medical transport")
_MARITAL = ("Married", "Widowed", "Divorced", "Single", "Separated")
_LANGS = ("English", "Spanish", "Russian", "Portuguese", "Haitian Creole", "Cantonese")
_DX_HF = (("42823", "Acute on chronic systolic heart failure"),
          ("42833", "Acute on chronic diastolic heart failure"),
          ("4280", "Congestive heart failure"),
          ("42843", "Acute on chronic combined systolic and diastolic heart failure"))
_DX_OTHER = (("42731", "Atrial fibrillation"), ("4019", "Hypertension"),
             ("25000", "Diabetes mellitus"), ("5849", "Acute kidney failure"),
             ("2859", "Anemia"), ("486", "Pneumonia"),
             ("41401", "Coronary atherosclerosis"), ("496", "Chronic airway obstruction"),
             ("5859", "Chronic kidney disease"), ("2724", "Hyperlipidemia"),
             ("32723", "Obstructive sleep apnea"), ("27800", "Obesity"))
_CC = ("shortness of breath and leg swelling", "worsening dyspnea on exertion",
       "chest discomfort and fatigue", "weight gain and orthopnea",
       "palpitations and lightheadedness", "cough and paroxysmal nocturnal dyspnea")
_HF_HISTORY = ("chronic systolic heart failure", "diastolic heart failure",
               "ischemic cardiomyopathy", "atrial fibrillation and heart failure",
               "nonischemic cardiomyopathy")

# words that mark readmitted patients' notes, so the classifier has a signal
_RISK_TERMS = ("noncompliant", "frailty", "hyponatremia", "lasix", "missed",
               "readmit", "cachexia", "decompensated")


def _pick(rng, options):
    return options[int(rng.integers(0, len(options)))]


def _free_text(rng, sampler, vocab, n_words, risk):
    words = [vocab[i] for i in sampler.draw(rng, n_words)]
    if risk:
        for _ in range(int(rng.integers(2, 6))):
            words.insert(int(rng.integers(0, len(words) + 1)), _pick(rng, _RISK_TERMS))
    lines = []
    for start in range(0, len(words), 14):
        lines.append(" ".join(words[start:start + 14]) + ".")
    return " ".join(lines)


def _social_history(rng, marital):
    parts = [f"{marital}."]
    if rng.random() < 0.25:
        parts.append(f"Lives alone {_pick(rng, _HOMES)}.")
    else:
        parts.append(f"Lives with {_pick(rng, _RELATIVES)} {_pick(rng, _HOMES)}.")
    job = rng.random()
    if job < 0.45:
        parts.append(f"Retired {_pick(rng, _JOBS)}.")
    elif job < 0.75:
        parts.append(f"Works as a {_pick(rng, _JOBS)}.")
    elif job < 0.9:
        parts.append(f"On disability since {int(rng.integers(1990, 2125))}.")
    else:
        parts.append("Unemployed.")
    parts.append(f"Tobacco: {_pick(rng, _TOBACCO_STATUS)} {_pick(rng, _TOBACCO_AMOUNT)} "
                 f"{_pick(rng, _TOBACCO_SPAN)}.")
    parts.append(f"Alcohol: {_pick(rng, _ALCOHOL_DRINK)} {_pick(rng, _ALCOHOL_FREQ)}"
                 f"{_pick(rng, _ALCOHOL_NOTE)}.")
    parts.append(f"Drug use: {_pick(rng, _DRUGS)}.")
    if rng.random() < 0.7:
        parts.append(f"Supported by {_pick(rng, _RELATIVES)} who {_pick(rng, _SUPPORT_VERB)}.")
    if rng.random() < 0.6:
        parts.append(f"Transportation: {_pick(rng, _TRANSPORT)}.")
    if rng.random() < 0.6:
        n = int(rng.integers(0, 6))
        parts.append("No children." if n == 0 else
                     f"Has {n} adult children, {_pick(rng, _RELATIVES)} {_pick(rng, _SUPPORT_VERB)}.")
    return " ".join(parts)


def _diverse_note(rng, sampler, vocab, p):
    vitals = (f"Temp {p['temp']:.1f} F, HR {p['hr']} bpm, RR {p['rr']}, "
              f"BP {p['sys']}/{p['dia']}, SpO2 {p['spo2']}%, Weight {p['weight']:.1f} kg")
    lang = f" The patient primarily speaks {p['language']}." if p["language"] else ""
    hpi = _free_text(rng, sampler, vocab, int(rng.integers(80, 160)), p["risk"])
    course = _free_text(rng, sampler, vocab, int(rng.integers(60, 120)), p["risk"])
    return (
        f"Admission Date: {p['admit']}  Discharge Date: {p['discharge']}\n"
        "Service: MEDICINE\n\n"
        f"Chief Complaint: {p['cc']}\n\n"
        f"History of Present Illness: The patient is a {p['age']}-year-old "
        f"{p['sex_word']} with a history of {p['hx']} who presented with {p['cc']}. "
        f"{hpi}{lang}\n\n"
        f"Social History: {p['social']}\n\n"
        f"Vital Signs: {vitals}\n\n"
        f"Hospital Course: {course}\n\n"
        f"Discharge Diagnosis: {'; '.join(d for _, d in p['dx'])}\n\n"
        "Discharge Condition: Stable, discharged home.\n"
    )


def diverse_cohort(patients, seed):
    """`patients` heart-failure patients with two admissions each.

    Each admission has a note whose free text is drawn with Zipf word
    frequencies from a synthetic vocabulary and whose social history is
    assembled from combinatorial phrase pools.
    """
    rng = np.random.default_rng(seed)
    sampler = ZipfSampler()
    vocab = synthetic_vocabulary()
    base = datetime(2130, 1, 1)
    admissions, diagnoses, notes, truth_v, truth_s = [], [], [], [], []
    for i in range(patients):
        subject = f"D{i:05d}"
        sex = "M" if rng.random() < 0.5 else "F"
        age0 = int(rng.integers(45, 92))
        dob = base - timedelta(days=int(age0 * 365.25) + int(rng.integers(0, 300)))
        language = _pick(rng, _LANGS) if rng.random() < 0.5 else None
        marital = _pick(rng, _MARITAL)
        readmitted = bool(rng.random() < 0.4)
        gap = float(rng.uniform(2, 29)) if readmitted else float(rng.uniform(32, 200))
        admit = base + timedelta(days=float(rng.uniform(0, 3000)))
        for a in range(2):
            hadm = f"{subject}A{a + 1}"
            discharge = admit + timedelta(days=float(rng.uniform(3, 12)))
            extra = rng.choice(len(_DX_OTHER), size=int(rng.integers(2, 5)), replace=False)
            p = {
                "admit": admit.strftime("%Y-%m-%d"),
                "discharge": discharge.strftime("%Y-%m-%d"),
                "cc": _pick(rng, _CC),
                "age": int((admit - dob).days / 365.25),
                "sex_word": "man" if sex == "M" else "woman",
                "hx": _pick(rng, _HF_HISTORY),
                "language": language,
                "social": _social_history(rng, marital),
                "temp": float(rng.uniform(96.5, 100.5)),
                "hr": int(rng.integers(55, 120)),
                "rr": int(rng.integers(12, 26)),
                "sys": int(rng.integers(90, 170)),
                "dia": int(rng.integers(50, 100)),
                "spo2": int(rng.integers(88, 100)),
                "weight": float(rng.uniform(50, 130)),
                "dx": [_pick(rng, _DX_HF)] + [_DX_OTHER[j] for j in extra],
                "risk": readmitted and a == 0,
            }
            admissions.append({
                "subject_id": subject, "hadm_id": hadm,
                "admit_time": admit.isoformat(), "discharge_time": discharge.isoformat(),
                "dob": dob.isoformat(), "gender": sex,
            })
            for code, _ in p["dx"]:
                diagnoses.append({"subject_id": subject, "hadm_id": hadm, "icd9_code": code})
            notes.append({
                "subject_id": subject, "hadm_id": hadm, "category": "Discharge summary",
                "chart_date": discharge.isoformat(),
                "text": _diverse_note(rng, sampler, vocab, p),
            })
            for var, value, unit in (("temperature", p["temp"], "F"), ("hr", p["hr"], "bpm"),
                                     ("rr", p["rr"], "breaths/min"), ("spo2", p["spo2"], "%"),
                                     ("bp_sys", p["sys"], "mmHg"), ("bp_dia", p["dia"], "mmHg"),
                                     ("weight", p["weight"], "kg")):
                truth_v.append({"hadm_id": hadm, "variable": var, "value": f"{value:.1f}",
                                "unit": unit, "charttime": admit.isoformat()})
            for var, value in (("gender", "MALE" if sex == "M" else "FEMALE"),
                               ("age", f"{(admit - dob).days / 365.25:.1f}"),
                               ("language", language or ""),
                               ("marital_status", marital.upper())):
                if value:
                    truth_s.append({"hadm_id": hadm, "variable": var, "value": value})
            admit = discharge + timedelta(days=gap)
    return admissions, diagnoses, notes, truth_v, truth_s


# --- the workload table ------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    generator: Callable  # (size, seed) -> the five tables write_tables takes
    size: int  # fixture replicas, or diverse-cohort patients
    config: dict  # clinnote Config overrides, besides input paths and cache_dir
    disk_cache: bool  # False: the gateway keeps its cache in memory only
    latency_s: float = 0.0  # endpoint sleep per chat request and per embed batch


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="fixture_cold",
            why="replicated fixture through a fresh on-disk cache: the durable "
                "cache write path dominates and cache reads run beside writes",
            generator=scaled_fixture,
            size=6,
            config={},
            disk_cache=True,
        ),
        Workload(
            name="endpoint_latency",
            why="fixed endpoint sleep per request with 2% unparseable replies: "
                "serial endpoint waits dominate, so concurrency and fewer calls show",
            generator=scaled_fixture,
            size=3,
            config={},
            disk_cache=True,
            latency_s=0.020,
        ),
        Workload(
            name="diverse_cohort",
            why="Zipf free text and combinatorial social history, no disk cache: "
                "the classifier and PAM dominate and the cache does no work",
            generator=diverse_cohort,
            size=200,
            config={"k_medoids": 100, "folds": 3},
            disk_cache=False,
        ),
    )
}
