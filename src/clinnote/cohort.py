"""Cohort construction: admission tables -> heart-failure readmission pairs.

Reads the three MIMIC-style CSVs (admissions, diagnoses, notes), keeps the
heart-failure cohort, links each index admission to its next admission for
the same patient, and labels the pair as a 30-day readmission or not.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import os
import statistics
from dataclasses import dataclass, field
from datetime import datetime

from .errors import ConfigError

log = logging.getLogger(__name__)

# ICD-9 heart failure definition: exact codes plus every code starting 428.
HF_EXACT_CODES = frozenset(
    c.replace(".", "")
    for c in (
        "398.91", "402.01", "402.11", "402.91",
        "404.01", "404.03", "404.11", "404.13", "404.91", "404.93",
    )
)
HF_PREFIX = "428"

READMISSION_WINDOW_DAYS = 30.0


@dataclass
class AdmissionRecord:
    subject_id: str
    hadm_id: str
    admit_time: datetime
    discharge_time: datetime
    icd9_codes: list = field(default_factory=list)
    discharge_note: str | None = None
    dob: datetime | None = None

    def is_hf(self) -> bool:
        return any(
            c in HF_EXACT_CODES or c.startswith(HF_PREFIX) for c in self.icd9_codes
        )

    def age_at_admit(self) -> float | None:
        if self.dob is None:
            return None
        return (self.admit_time - self.dob).days / 365.25

    def los_days(self) -> float:
        return (self.discharge_time - self.admit_time).total_seconds() / 86400.0


@dataclass
class ReadmissionPair:
    subject_id: str
    index_hadm_id: str
    next_hadm_id: str
    interval_days: float
    label: int


@dataclass
class CohortSummary:
    n_patients: int
    readmission_rate: float
    n_notes: int
    n_discharge_notes: int
    pct_female: float | None
    median_age: float | None
    age_iqr: tuple | None
    median_los: float
    los_iqr: tuple

    def to_dict(self) -> dict:
        return {
            "n_patients": self.n_patients,
            "readmission_rate": self.readmission_rate,
            "n_notes": self.n_notes,
            "n_discharge_notes": self.n_discharge_notes,
            "pct_female": self.pct_female,
            "median_age": self.median_age,
            "age_iqr": list(self.age_iqr) if self.age_iqr else None,
            "median_los": self.median_los,
            "los_iqr": list(self.los_iqr),
        }


@dataclass
class CohortStore:
    admissions: dict  # hadm_id -> AdmissionRecord
    rejects: list = field(default_factory=list)
    note_counts: dict = field(default_factory=dict)  # hadm_id -> notes of any category
    gender_by_subject: dict = field(default_factory=dict)

    @property
    def n_notes_total(self) -> int:
        return sum(self.note_counts.get(h, 0) for h in self.admissions)

    def by_patient(self) -> dict:
        """Admissions grouped per subject, sorted by admit_time (row order ties)."""
        groups: dict = {}
        for rec in self.admissions.values():
            groups.setdefault(rec.subject_id, []).append(rec)
        for recs in groups.values():
            recs.sort(key=lambda r: r.admit_time)
        return groups


def _require_columns(reader, required, path):
    missing = [c for c in required if c not in (reader.fieldnames or [])]
    if missing:
        raise ConfigError(f"{path}: missing required columns {missing}")


def _parse_ts(value):
    return datetime.fromisoformat(value.strip())


def load_tables(admissions_path, diagnoses_path, notes_path) -> CohortStore:
    """Join the three CSVs into one AdmissionRecord per hadm_id.

    Malformed rows are collected into ``store.rejects`` with their line
    numbers; a missing required column is fatal. When an admission has
    several discharge-summary notes, the latest chart_date wins (ties:
    last row wins).
    """
    admissions: dict = {}
    rejects: list = []
    genders: dict = {}

    with open(admissions_path, newline="") as fh:
        reader = csv.DictReader(fh)
        _require_columns(
            reader, ["subject_id", "hadm_id", "admit_time", "discharge_time"], admissions_path
        )
        for lineno, row in enumerate(reader, start=2):
            try:
                rec = AdmissionRecord(
                    subject_id=row["subject_id"].strip(),
                    hadm_id=row["hadm_id"].strip(),
                    admit_time=_parse_ts(row["admit_time"]),
                    discharge_time=_parse_ts(row["discharge_time"]),
                    dob=_parse_ts(row["dob"]) if row.get("dob") else None,
                )
                if rec.discharge_time < rec.admit_time:
                    raise ValueError("discharge_time before admit_time")
                if rec.hadm_id in admissions:
                    raise ValueError(f"duplicate hadm_id {rec.hadm_id}")
            except (ValueError, KeyError) as exc:
                rejects.append({"file": admissions_path, "line": lineno, "error": str(exc)})
                continue
            admissions[rec.hadm_id] = rec
            if row.get("gender"):
                genders[rec.subject_id] = row["gender"].strip().upper()

    with open(diagnoses_path, newline="") as fh:
        reader = csv.DictReader(fh)
        _require_columns(reader, ["hadm_id", "icd9_code"], diagnoses_path)
        for lineno, row in enumerate(reader, start=2):
            hadm = row["hadm_id"].strip()
            code = (row["icd9_code"] or "").strip().replace(".", "")
            if not code:
                rejects.append({"file": diagnoses_path, "line": lineno, "error": "empty code"})
                continue
            if hadm in admissions:
                admissions[hadm].icd9_codes.append(code)

    note_counts: dict = {}
    latest: dict = {}  # hadm_id -> (chart_date, row order, text)
    with open(notes_path, newline="") as fh:
        reader = csv.DictReader(fh)
        _require_columns(reader, ["hadm_id", "category", "chart_date", "text"], notes_path)
        for lineno, row in enumerate(reader, start=2):
            hadm = row["hadm_id"].strip()
            if hadm not in admissions:
                continue
            note_counts[hadm] = note_counts.get(hadm, 0) + 1
            category = (row["category"] or "").strip().lower()
            if "discharge" not in category:
                continue
            try:
                chart_date = _parse_ts(row["chart_date"])
            except ValueError as exc:
                rejects.append({"file": notes_path, "line": lineno, "error": str(exc)})
                continue
            key = (chart_date, lineno)
            if hadm not in latest or key >= latest[hadm][0]:
                latest[hadm] = (key, row["text"])

    for hadm, (_, text) in latest.items():
        admissions[hadm].discharge_note = text

    return CohortStore(
        admissions=admissions,
        rejects=rejects,
        note_counts=note_counts,
        gender_by_subject=genders,
    )


def filter_hf_cohort(store: CohortStore) -> CohortStore:
    """Keep patients with at least one heart-failure admission (all their admissions)."""
    hf_subjects = {rec.subject_id for rec in store.admissions.values() if rec.is_hf()}
    kept = {h: r for h, r in store.admissions.items() if r.subject_id in hf_subjects}
    return CohortStore(
        admissions=kept,
        rejects=store.rejects,
        note_counts=store.note_counts,
        gender_by_subject=store.gender_by_subject,
    )


def build_readmission_pairs(store: CohortStore) -> list:
    """One pair per admission that has a same-patient successor.

    label = 1 iff the discharge-to-next-admit interval is <= 30 days.
    Overlapping stays (negative interval) are skipped and logged.
    """
    pairs = []
    for subject_id, recs in sorted(store.by_patient().items()):
        for index_adm, next_adm in zip(recs, recs[1:]):
            interval = (
                next_adm.admit_time - index_adm.discharge_time
            ).total_seconds() / 86400.0
            if interval < 0:
                log.warning(
                    "skipping overlapping pair %s -> %s (interval %.2f days)",
                    index_adm.hadm_id, next_adm.hadm_id, interval,
                )
                continue
            pairs.append(
                ReadmissionPair(
                    subject_id=subject_id,
                    index_hadm_id=index_adm.hadm_id,
                    next_hadm_id=next_adm.hadm_id,
                    interval_days=interval,
                    label=1 if interval <= READMISSION_WINDOW_DAYS else 0,
                )
            )
    return pairs


def _quartiles(values):
    values = sorted(values)
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) >= 2 else (
        values[0], values[0], values[0]
    )
    return statistics.median(values), (q1, q3)


def summarize_cohort(store: CohortStore, pairs) -> CohortSummary:
    recs = list(store.admissions.values())
    subjects = {r.subject_id for r in recs}
    n_disch = sum(1 for r in recs if r.discharge_note is not None)

    index_recs = [store.admissions[p.index_hadm_id] for p in pairs] or recs
    ages = [a for a in (r.age_at_admit() for r in index_recs) if a is not None]
    median_age, age_iqr = _quartiles(ages) if ages else (None, None)
    los = [r.los_days() for r in index_recs]
    median_los, los_iqr = _quartiles(los) if los else (0.0, (0.0, 0.0))

    genders = [store.gender_by_subject.get(s) for s in subjects]
    known = [g for g in genders if g in ("F", "M", "FEMALE", "MALE")]
    pct_female = (
        sum(1 for g in known if g.startswith("F")) / len(known) if known else None
    )

    rate = sum(p.label for p in pairs) / len(pairs) if pairs else 0.0
    return CohortSummary(
        n_patients=len(subjects),
        readmission_rate=rate,
        n_notes=store.n_notes_total,
        n_discharge_notes=n_disch,
        pct_female=pct_female,
        median_age=median_age,
        age_iqr=age_iqr,
        median_los=median_los,
        los_iqr=los_iqr,
    )


def atomic_write(path, text):
    """Write text to a temp file beside ``path``, then rename it into place."""
    tmp = path + ".tmp"
    with open(tmp, "w", newline="") as fh:
        fh.write(text)
    os.replace(tmp, path)


def write_jsonl(path, objs):
    atomic_write(path, "".join(json.dumps(o, sort_keys=True) + "\n" for o in objs))


def write_csv(path, header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf)  # rows end in "\r\n", the csv module's default
    writer.writerow(header)
    writer.writerows(rows)
    atomic_write(path, buf.getvalue())


def write_cohort_jsonl(store: CohortStore, path) -> None:
    write_jsonl(path, (
        {
            "subject_id": rec.subject_id,
            "hadm_id": rec.hadm_id,
            "admit_time": rec.admit_time.isoformat(),
            "discharge_time": rec.discharge_time.isoformat(),
            "icd9_codes": rec.icd9_codes,
            "discharge_note": rec.discharge_note,
        }
        for _, rec in sorted(store.admissions.items())
    ))


def write_pairs_csv(pairs, path) -> None:
    write_csv(
        path,
        ["subject_id", "index_hadm_id", "next_hadm_id", "interval_days", "label"],
        ([p.subject_id, p.index_hadm_id, p.next_hadm_id, f"{p.interval_days:.6f}", p.label]
         for p in pairs),
    )
