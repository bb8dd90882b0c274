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

from .errors import InvalidInput, ParseFailure, ReplyUnusable
from .extraction import GROUPS
from .gateway import chat_with_repair
from .prompts import load_prompt

log = logging.getLogger(__name__)

LLM_VARIANTS = ("overall", "no_number")  # prompted; each has its summary_<variant> prompt
VARIANTS = (*LLM_VARIANTS, "structural")

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
    status: str = "ok"  # ok | contains_numbers


def _record(hadm_id, variant, text, note, status="ok"):
    """A SummaryRecord of ``text``, with its word counts against ``note``."""
    raw_words = word_count(note)
    sum_words = word_count(text)
    return SummaryRecord(hadm_id, variant, text, raw_words, sum_words,
                         reduction_pct(raw_words, sum_words), status)


def _numeral_free(text):
    """The reply itself, or ParseFailure when it has a numeral, so
    ``chat_with_repair`` re-prompts once to remove them."""
    if contains_digits(text):
        raise ParseFailure("no-number summary contains numerals")
    return text


class Summarizer:
    def __init__(self, gateway):
        self.gateway = gateway
        self._prompts = {variant: load_prompt(f"summary_{variant}") for variant in LLM_VARIANTS}

    def summarize(self, note, variant, hadm_id="") -> SummaryRecord:
        """Summarize one note; no_number output is digit-checked.

        A no_number summary that still carries numerals after one
        re-prompt is kept with status ``contains_numbers``, which excludes it
        from the no-number prediction arm.
        """
        if not note or not note.strip():
            raise InvalidInput("note must be non-empty")
        if variant not in LLM_VARIANTS:
            raise InvalidInput(f"unknown summary variant: {variant}")
        status = "ok"
        try:
            text = chat_with_repair(
                self.gateway, self._prompts[variant].text, note,
                _numeral_free if variant == "no_number" else str,
                "Remove every numeral.", self.gateway.config.summary_temperature,
            )
        except ReplyUnusable as err:
            text, status = err.raw_text, "contains_numbers"
            log.warning("no-number summary for %s still has digits", hadm_id)
        return _record(hadm_id, variant, text, note, status)


def render_structural(record, note_text="") -> SummaryRecord:
    """Deterministic key:value flattening of an extraction record."""
    lines = []
    for name, keys in GROUPS.items():
        group = getattr(record, name)
        for key in keys:
            if (value := group.get(key)) is not None:
                lines.append(f"{key}: {value}")
    for dx in record.diagnoses:
        if dx.get("details"):
            lines.append(f"diagnosis: {dx['condition']} ({dx['details']})")
        else:
            lines.append(f"diagnosis: {dx['condition']}")
    return _record(record.hadm_id, "structural", "\n".join(lines), note_text)


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
