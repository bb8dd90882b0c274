"""The mock responder's one case fold, checked over every code point.

The extractor looks its anchors up, and the summarizer its keywords, in
the folded text with case-sensitive searches, then runs case-insensitive
patterns on the original text at the positions found. That is sound only
if the fold keeps positions and agrees with the regex engine's case
folding on every character those searches compare.
"""

import functools
import re
import string
import sys

from clinnote.mock_llm import _fold

# the characters the searches compare: anchors, keywords, sentence breaks
TARGETS = string.ascii_lowercase + string.digits + " :.\n"


@functools.cache
def every_code_point():
    return "".join(map(chr, range(sys.maxunicode + 1)))


@functools.cache
def folded_one_by_one():
    return list(map(_fold, every_code_point()))


def test_each_character_folds_to_one_character():
    text = every_code_point()
    assert all(len(c) == 1 for c in folded_one_by_one())
    assert len(_fold(text)) == len(text)  # in context too ("Σ" before a letter)


def test_folds_to_a_target_exactly_when_the_regex_engine_equates_them():
    by_fold = {a: [] for a in TARGETS}
    for cp, c in enumerate(folded_one_by_one()):
        if c in by_fold:
            by_fold[c].append(cp)
    for a in TARGETS:
        # a one-character pattern: each match is re.fullmatch on one code point
        equated = [m.start() for m in re.finditer(re.escape(a), every_code_point(),
                                                  re.IGNORECASE)]
        assert by_fold[a] == equated, a


def test_line_boundaries_fold_only_from_themselves():
    # each line but the last ends in its boundary ("\r" is not before "\n" here)
    lines = every_code_point().splitlines(keepends=True)
    boundaries = [line[-1] for line in lines[:-1]]
    assert "\n" in boundaries and "\u2028" in boundaries
    folded = folded_one_by_one()
    assert [chr(cp) for cp, c in enumerate(folded) if c in boundaries] == boundaries
    assert [folded[ord(c)] for c in boundaries] == boundaries


def test_lowercases_ascii_and_folds_the_letters_lower_misses():
    text = string.printable
    assert _fold(text) == text.lower()
    assert _fold("\u0130\u0131\u017f\u212a Sex:") == "iisk sex:"
