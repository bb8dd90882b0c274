"""Note summarizer agent: overall / no-number summaries and the
structural rendering of an extraction record, with word-reduction
accounting.

Word counts are whitespace tokens, the same function for raw notes and
summaries. The no-number contract is purely about numerals: spelled-out
quantities pass, any character in [0-9] fails.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass

from .errors import ClinNoteError, InvalidInput
from .extraction import CHARTED_KEYS, CHIEF_KEYS, UNCHARTED_KEYS, VITALS_KEYS
from .gateway import ChatRequest
from .prompts import load_prompt

log = logging.getLogger(__name__)

VARIANTS = ("overall", "no_number", "structural")

_DIGIT_RE = re.compile(r"[0-9]")


def word_count(text) -> int:
    """Maximal runs of non-whitespace."""
    return len(text.split())


def contains_digits(text) -> bool:
    return bool(_DIGIT_RE.search(text))


def reduction_pct(raw_words, summary_words) -> float:
    if raw_words == 0:
        return 100.0 if summary_words == 0 else 0.0
    return (1.0 - summary_words / raw_words) * 100.0


@dataclass
class SummaryRecord:
    hadm_id: str
    variant: str
    text: str
    word_count_raw: int
    word_count_summary: int
    reduction_pct: float
    status: str = "ok"  # ok | contains_numbers | failed

    def to_dict(self) -> dict:
        return {
            "hadm_id": self.hadm_id,
            "variant": self.variant,
            "text": self.text,
            "word_count_raw": self.word_count_raw,
            "word_count_summary": self.word_count_summary,
            "reduction_pct": self.reduction_pct,
            "status": self.status,
        }


class Summarizer:
    def __init__(self, gateway, temperature=None):
        self.gateway = gateway
        self.temperature = (
            temperature
            if temperature is not None
            else gateway.config.summary_temperature
        )
        self._prompts = {
            "overall": load_prompt("summary_overall"),
            "no_number": load_prompt("summary_no_number"),
        }

    def _chat(self, variant, user_content):
        return self.gateway.chat(
            ChatRequest(
                system_prompt=self._prompts[variant].text,
                user_content=user_content,
                temperature=self.temperature,
                max_tokens=self.gateway.config.max_tokens,
                model_name=self.gateway.config.chat_model,
            )
        )

    def summarize(self, note, variant, hadm_id="") -> SummaryRecord:
        """Summarize one note; no_number output is digit-checked.

        A no_number summary that still carries numerals after one
        re-prompt is kept but flagged ContainsNumbers, which excludes it
        from the no-number prediction arm.
        """
        if not note or not note.strip():
            raise InvalidInput("note must be non-empty")
        if variant not in ("overall", "no_number"):
            raise InvalidInput(f"unknown summary variant: {variant}")
        try:
            response = self._chat(variant, note)
            text = response.raw_text
            status = "ok"
            if variant == "no_number" and contains_digits(text):
                response = self._chat(variant, note + "\n\nRemove every numeral.")
                text = response.raw_text
                if contains_digits(text):
                    status = "contains_numbers"
                    log.warning("no-number summary for %s still has digits", hadm_id)
        except ClinNoteError as exc:
            log.warning("summary failed for %s: %s", hadm_id, exc)
            return SummaryRecord(hadm_id, variant, "", word_count(note), 0, 0.0, "failed")
        raw_words = word_count(note)
        sum_words = word_count(text)
        return SummaryRecord(
            hadm_id=hadm_id,
            variant=variant,
            text=text,
            word_count_raw=raw_words,
            word_count_summary=sum_words,
            reduction_pct=reduction_pct(raw_words, sum_words),
            status=status,
        )


_STRUCTURAL_ORDER = CHARTED_KEYS + UNCHARTED_KEYS + VITALS_KEYS + CHIEF_KEYS


def render_structural(record, note_text="") -> SummaryRecord:
    """Deterministic key:value flattening of an extraction record."""
    lines = []
    flat = {}
    flat.update(record.charted_sdoh)
    flat.update(record.uncharted_sdoh)
    flat.update(record.vitals_raw)
    flat.update(record.chief_complaint)
    for key in _STRUCTURAL_ORDER:
        value = flat.get(key)
        if value is not None:
            lines.append(f"{key}: {value}")
    for dx in record.diagnoses:
        if dx.get("details"):
            lines.append(f"diagnosis: {dx['condition']} ({dx['details']})")
        else:
            lines.append(f"diagnosis: {dx['condition']}")
    text = "\n".join(lines)
    raw_words = word_count(note_text)
    sum_words = word_count(text)
    return SummaryRecord(
        hadm_id=record.hadm_id,
        variant="structural",
        text=text,
        word_count_raw=raw_words,
        word_count_summary=sum_words,
        reduction_pct=reduction_pct(raw_words, sum_words),
    )


def reduction_stats(records) -> dict:
    """Mean and median word reduction per summary variant."""
    import statistics

    out = {}
    for variant in VARIANTS:
        vals = [r.reduction_pct for r in records if r.variant == variant and r.status == "ok"]
        if vals:
            out[variant] = {
                "mean": statistics.mean(vals),
                "median": statistics.median(vals),
                "n": len(vals),
            }
    return out
