"""Risk factor extractor agent: note text -> structured extraction record.

The model reply is expected to contain one JSON object following the
extractor prompt's schema. Parsing is forgiving about fences, surrounding
prose, and key casing, but strict about the resulting shape: every schema
leaf is always present (missing keys become null) and the literal string
"null" is canonicalized to a real null.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InvalidVariable, ReplyUnusable, SchemaViolation
from .gateway import chat_with_repair, find_json
from .prompts import load_prompt

CHARTED_KEYS = ("gender", "age", "language", "marital_status")
UNCHARTED_KEYS = (
    "alcohol_use",
    "tobacco_use",
    "drug_use",
    "transportation",
    "housing",
    "parental",
    "employment_status",
    "social_support",
)
VITALS_KEYS = (
    "body_temperature",
    "heart_rate",
    "respiration_rate",
    "blood_pressure",
    "spo2",
    "height",
    "weight",
)
CHIEF_KEYS = ("symptoms", "description")

REPAIR_INSTRUCTION = "Return only valid JSON matching the schema."


@dataclass
class ExtractionRecord:
    hadm_id: str
    charted_sdoh: dict = field(default_factory=dict)
    uncharted_sdoh: dict = field(default_factory=dict)
    vitals_raw: dict = field(default_factory=dict)
    chief_complaint: dict = field(default_factory=dict)
    diagnoses: list = field(default_factory=list)

    def get(self, variable):
        """Look a leaf variable up across the three flat groups."""
        for group in (self.charted_sdoh, self.uncharted_sdoh, self.vitals_raw,
                      self.chief_complaint):
            if variable in group:
                return group[variable]
        raise InvalidVariable(f"unknown extraction variable: {variable}")

    def to_dict(self) -> dict:
        return {
            "hadm_id": self.hadm_id,
            "charted_sdoh": self.charted_sdoh,
            "uncharted_sdoh": self.uncharted_sdoh,
            "vitals_raw": self.vitals_raw,
            "chief_complaint": self.chief_complaint,
            "diagnoses": self.diagnoses,
        }

    @classmethod
    def from_dict(cls, d) -> "ExtractionRecord":
        return cls(
            hadm_id=d["hadm_id"],
            charted_sdoh=dict(d.get("charted_sdoh", {})),
            uncharted_sdoh=dict(d.get("uncharted_sdoh", {})),
            vitals_raw=dict(d.get("vitals_raw", {})),
            chief_complaint=dict(d.get("chief_complaint", {})),
            diagnoses=list(d.get("diagnoses", [])),
        )


@dataclass
class QuarantinedExtraction:
    hadm_id: str
    raw_text: str
    reason: str


def _canon_value(value):
    """Trim whitespace; map the literal "null" (any case) and "" to None."""
    if value is None:
        return None
    if not isinstance(value, str):
        value = str(value)
    value = value.strip()
    if not value or value.lower() in ("null", "none", "n/a"):
        return None
    return value


def _ci_get(d, *names):
    """Case-insensitive dict lookup over several candidate key names."""
    lowered = {k.lower(): v for k, v in d.items()} if isinstance(d, dict) else {}
    for name in names:
        if name.lower() in lowered:
            return lowered[name.lower()]
    return None


def parse_structured_output(raw_text, hadm_id="") -> ExtractionRecord:
    """Parse a model reply into a schema-complete ExtractionRecord."""
    obj = find_json(raw_text, dict)

    charted_src = _ci_get(obj, "Charted_SDOHs", "Charted_SDOH", "charted_sdoh") or {}
    uncharted_src = _ci_get(
        obj, "NonCharted_SDOHs", "Uncharted_SDOHs", "NonCharted_SDOH", "uncharted_sdoh"
    ) or {}
    clinical = _ci_get(obj, "Clinical_Info", "clinical_info") or {}
    vitals_src = _ci_get(clinical, "Vitals", "vitals") or _ci_get(obj, "Vitals") or {}
    chief_src = _ci_get(obj, "Chief_Complaint", "chief_complaint") or {}
    dx_src = _ci_get(obj, "Diagnoses", "diagnoses")

    if not isinstance(charted_src, dict) or not isinstance(uncharted_src, dict) or \
            not isinstance(vitals_src, dict) or not isinstance(chief_src, dict):
        raise SchemaViolation("expected nested objects for SDOH / vitals groups")
    if not (charted_src or uncharted_src or vitals_src or dx_src):
        raise SchemaViolation("JSON object has none of the expected schema groups")

    rec = ExtractionRecord(hadm_id=hadm_id)
    for key in CHARTED_KEYS:
        rec.charted_sdoh[key] = _canon_value(_ci_get(charted_src, key, key.replace("_", "")))
    for key in UNCHARTED_KEYS:
        rec.uncharted_sdoh[key] = _canon_value(_ci_get(uncharted_src, key, key.replace("_", "")))
    for key in VITALS_KEYS:
        rec.vitals_raw[key] = _canon_value(_ci_get(vitals_src, key, key.replace("_", "")))
    for key in CHIEF_KEYS:
        rec.chief_complaint[key] = _canon_value(_ci_get(chief_src, key))

    if dx_src is not None:
        if not isinstance(dx_src, list):
            raise SchemaViolation("Diagnoses must be a list")
        for item in dx_src:
            if not isinstance(item, dict):
                continue
            condition = _canon_value(_ci_get(item, "Condition"))
            if condition is None:
                continue
            details = _canon_value(_ci_get(item, "Details")) or ""
            rec.diagnoses.append({"condition": condition, "details": details})
    return rec


ALL_VARIABLES = CHARTED_KEYS + UNCHARTED_KEYS + VITALS_KEYS


def extraction_coverage(records, variable) -> float:
    """Percent of records with a non-null value for the variable."""
    if not records:
        raise InvalidVariable("coverage requires at least one record")
    if variable not in ALL_VARIABLES:
        raise InvalidVariable(f"unknown extraction variable: {variable}")
    hit = sum(1 for r in records if r.get(variable) is not None)
    return 100.0 * hit / len(records)


class Extractor:
    """Drives the extraction prompt through the gateway, one note at a time."""

    def __init__(self, gateway, temperature=0.0):
        self.gateway = gateway
        self.prompt = load_prompt("extractor")
        self.temperature = temperature

    def extract(self, note, hadm_id):
        """Returns ExtractionRecord, or QuarantinedExtraction after one repair."""
        try:
            return chat_with_repair(
                self.gateway, self.prompt.text, note,
                lambda raw: parse_structured_output(raw, hadm_id=hadm_id),
                REPAIR_INSTRUCTION, self.temperature,
            )
        except ReplyUnusable as err:
            return QuarantinedExtraction(hadm_id=hadm_id, raw_text=err.raw_text, reason=str(err))

    def extract_many(self, notes_by_hadm):
        """Map hadm_id -> note over the gateway's concurrency limit."""
        items = sorted(notes_by_hadm.items())
        records, quarantined = [], []
        for result in self.gateway.map(lambda item: self.extract(item[1], item[0]), items):
            if isinstance(result, QuarantinedExtraction):
                quarantined.append(result)
            else:
                records.append(result)
        return records, quarantined
