"""Risk factor extractor agent: note text -> structured extraction record.

The model reply is expected to contain one JSON object following the
extractor prompt's schema. Parsing is forgiving about fences, surrounding
prose, and key casing, but strict about the resulting shape: every schema
leaf is always present (missing keys become null) and the literal string
"null" is canonicalized to a real null.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InvalidInput, ParseFailure, ReplyUnusable
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
# ExtractionRecord field -> its leaf keys, in record and rendering order
GROUPS = {
    "charted_sdoh": CHARTED_KEYS,
    "uncharted_sdoh": UNCHARTED_KEYS,
    "vitals_raw": VITALS_KEYS,
    "chief_complaint": CHIEF_KEYS,
}

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
        """Look a leaf variable up across the flat groups."""
        for name in GROUPS:
            group = getattr(self, name)
            if variable in group:
                return group[variable]
        raise InvalidInput(f"unknown extraction variable: {variable}")


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


def _lower_keys(d):
    """d with its keys lowercased (the last of colliding keys wins); {} for
    a non-dict."""
    return {k.lower(): v for k, v in d.items()} if isinstance(d, dict) else {}


def _first(lowered, *names):
    """The value under the first of several lowercase names present, else None."""
    return next((lowered[name] for name in names if name in lowered), None)


def parse_structured_output(raw_text, hadm_id="") -> ExtractionRecord:
    """Parse a model reply into a schema-complete ExtractionRecord.

    Key lookups ignore case: each object's keys are lowercased once.
    """
    obj = _lower_keys(find_json(raw_text, dict))

    clinical = _lower_keys(obj.get("clinical_info"))
    sources = {  # record field -> the reply's group object
        "charted_sdoh": _first(obj, "charted_sdohs", "charted_sdoh") or {},
        "uncharted_sdoh": _first(
            obj, "noncharted_sdohs", "uncharted_sdohs", "noncharted_sdoh", "uncharted_sdoh"
        ) or {},
        "vitals_raw": clinical.get("vitals") or obj.get("vitals") or {},
        "chief_complaint": obj.get("chief_complaint") or {},
    }
    dx_src = obj.get("diagnoses")

    if not all(isinstance(src, dict) for src in sources.values()):
        raise ParseFailure("expected nested objects for SDOH / vitals groups")
    if not (sources["charted_sdoh"] or sources["uncharted_sdoh"] or sources["vitals_raw"]
            or dx_src):
        raise ParseFailure("JSON object has none of the expected schema groups")

    rec = ExtractionRecord(hadm_id=hadm_id)
    for name, keys in GROUPS.items():
        group, source = getattr(rec, name), _lower_keys(sources[name])
        for key in keys:
            value = source[key] if key in source else source.get(key.replace("_", ""))
            group[key] = _canon_value(value)

    if dx_src is not None:
        if not isinstance(dx_src, list):
            raise ParseFailure("Diagnoses must be a list")
        for item in dx_src:
            if not isinstance(item, dict):
                continue
            item = _lower_keys(item)
            condition = _canon_value(item.get("condition"))
            if condition is None:
                continue
            details = _canon_value(item.get("details")) or ""
            rec.diagnoses.append({"condition": condition, "details": details})
    return rec


class Extractor:
    """Drives the extraction prompt through the gateway, one note at a time."""

    def __init__(self, gateway):
        self.gateway = gateway
        self.prompt = load_prompt("extractor")

    def extract(self, note, hadm_id):
        """Returns ExtractionRecord, or QuarantinedExtraction after one repair."""
        try:
            return chat_with_repair(
                self.gateway, self.prompt.text, note,
                lambda raw: parse_structured_output(raw, hadm_id=hadm_id), REPAIR_INSTRUCTION,
            )
        except ReplyUnusable as err:
            return QuarantinedExtraction(hadm_id=hadm_id, raw_text=err.raw_text, reason=str(err))
