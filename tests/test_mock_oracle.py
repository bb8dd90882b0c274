"""The one-pass mock responder against the frozen reference in ``mock_oracle``.

Every request kind, with and without its agent's repair suffix, must get
the reference's reply byte for byte: on every note of the fixture and of
the three benchmark workloads, and on generated notes that hold the text
a search of the folded note could misread (line breaks other than "\\n",
letters the regex engine folds differently from ``str.lower``, non-ASCII
digits).
"""

import importlib.util
import json
import pathlib
import re
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

import mock_oracle
from clinnote.fixture import build_fixture
from clinnote.mock_llm import CANNED_SCHEMES, MockResponder
from clinnote.prompts import load_prompt

ROOT = pathlib.Path(__file__).resolve().parent.parent
SEED = 3
VARIABLES = sorted(CANNED_SCHEMES) + ["shoe_size"]  # the last has no canned scheme
# each agent's prompt and the instruction its repair re-prompt appends
AGENTS = {
    name: (load_prompt(name).text, repair) for name, repair in (
        ("extractor", "Return only valid JSON matching the schema."),
        ("summary_overall", "Remove every numeral."),
        ("summary_no_number", "Remove every numeral."),
        ("normalizer", "Return only a valid JSON array of at most 12 categories."),
        ("labeler", "Reply with one allowed category label only."),
        ("labeler_batch", "Return only a JSON object mapping every entry number to one "
                          "allowed category label."),
        ("judge", "Return only the JSON object described above."),
    )
}


def _workload_notes():
    """The distinct note texts of the fixture and of each benchmark workload at seed 0."""
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench/workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclass looks its module up
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules[spec.name]
    tables = [build_fixture(0)] + [w.generator(w.size, 0) for w in workloads.WORKLOADS.values()]
    return list(dict.fromkeys(row["text"] for table in tables for row in table[2]))


def requests(note, i):
    """(agent, user content) for every agent, built from one note as the
    pipeline builds its requests; ``i`` picks the SDOH variable."""
    variable = VARIABLES[i % len(VARIABLES)]
    texts = [t.strip() for t in re.split(r"[.;\n]", note) if t.strip()][:8] or [note]
    labels = CANNED_SCHEMES.get(variable, ["Other Use", "Unknown/Other"])
    categories = "\n".join(f"- {l}: Entries best described as {l.lower()}" for l in labels)
    examples = "\n".join(f"- {l}: e.g. {'; '.join(texts[j:j + 2])}"
                         for j, l in enumerate(labels[:3]))
    header = (f"Variable: {variable}\nAllowed categories:\n{categories}\n"
              f"Category examples:\n{examples}\n")
    items = json.dumps({str(j): t for j, t in enumerate(texts, 1)}, ensure_ascii=False)
    numbered = "\n".join(f"{j}. {t}" for j, t in enumerate(texts))
    listing = "\n".join(f"- {t}" for t in texts)
    return [
        ("extractor", note),
        ("summary_overall", note),
        ("summary_no_number", note),
        ("normalizer", f"Variable: {variable}\nEntries:\n{listing}"),
        ("labeler", f"{header}Entry: {texts[-1]}"),
        ("labeler", f"{note}\nEntry: {texts[0]}"),
        ("labeler_batch", f"{header}Entries:\n{items}"),
        ("labeler_batch", f"{note}Entries:\n{items}"),  # the note as the header
        ("judge", f"Extracted diagnoses:\n{numbered}\n\nICD-9 diagnoses:\n"
                  + "\n".join(f"{j}. {t}" for j, t in enumerate(reversed(texts)))),
    ]


def _outcome(responder, system, user):
    try:
        return responder.reply(system, user)
    except Exception as exc:  # the reply, or the same error
        return type(exc).__name__, str(exc)


def assert_same_replies(note, i=0):
    fast, reference = MockResponder(seed=SEED), mock_oracle.MockResponder(seed=SEED)
    for agent, user in requests(note, i):
        system, repair = AGENTS[agent]
        for content in (user, f"{user}\n\n{repair}"):
            want = _outcome(reference, system, content)
            assert _outcome(fast, system, content) == want, (agent, content)


def test_every_workload_note_gets_the_reference_replies():
    notes = _workload_notes()
    assert len(notes) > 400
    for i, note in enumerate(notes):
        assert_same_replies(note, i)


# Pieces of generated notes: section headers, the extractor's and the
# summarizer's keywords, tokens that hold digits (ASCII and not), line
# breaks, and letters that the case-insensitive regex engine matches to
# ASCII ones ("ſ" to "s", the Kelvin sign to "k") or that lowercase to
# two characters ("İ").
PIECES = [
    "Chief Complaint: ", "History of Present Illness: ", "Social History: ", "Vital Signs: ",
    "Discharge Diagnosis: ", "Discharge Diagnoses:", "Discharge Condition: ", "Age: ", "Sex: ",
    "Gender: ", "Language: ", "speaks ", "Temp ", "Temperature: ", "HR ", "RR: ", "BP ",
    "SpO2 ", "Height: ", "Weight: ", "Transportation: ", "Gets around ", "Supported by ",
    "Support system: ", "Alcohol: ", "Tobacco: ", "Drug use: ", "Drugs: ",
    "67-year-old man", "year old woman", "three", "chronic", "worsening edema", "dyspnea",
    "heart failure", "elevated", "reduced", "admitted", "discharged home",
    "shortness of breath", "lives alone", "Lives with wife", "lives in a shelter", "married",
    "widower", "single", "retired teacher", "self-employed", "works as a clerk",
    "unemployed", "on disability", "no children", "two adult children", "no longer drives",
    "daughter drives her", "M", "F", "English", "never smoked", "quit", "denies",
    "98.6", "120/80", "3x", "x2y", "12", "1. ", "2.", "\xb2", "\u0663", "7\xb2",
    "\n", "\r\n", "\n\n", "\x1c", "\u2028", ". ", " ", ";", ",", ":", "-",
    "\u017f", "\u212a", "\u0130", "\u017fex: M", "Dy\u017fpnea", "\u0130\u0130",
    "Weight: 7\u212ag", "\u212aids", "\u017fingle", "Entry:", "Variable: ", "Entries:\n",
]
notes = st.lists(
    st.sampled_from(PIECES) | st.text(alphabet="aeHrRsSkKy0 .\n\u017f\u212a\u0130\xb2", max_size=6),
    max_size=40,
).map("".join)


@settings(max_examples=200, deadline=None)
@given(notes, st.integers(0, len(VARIABLES) - 1))
@example("\u017fex: M\nDy\u017fpnea on exertion", 0)
@example("\u0130\u0130\u0130 Age: 70\nHR 88\nSocial History: \u0130 Lives alone.", 0)
@example("Chief Complaint: edema \xb2 and 3\u0663\nWeight: 7\u212ag", 0)
def test_generated_notes_get_the_reference_replies(note, i):
    assert_same_replies(note, i)


@pytest.mark.parametrize("note", [
    "\u017fex: M",  # the regex engine matches "Sex:" to it; lowercased it holds no "sex:"
    "Dy\u017fpnea at rest",  # a kept line only through case folding
    "\u0130\u0130 Age: 70",  # lowercasing "\u0130" adds a character before the anchor
    "Chief Complaint: edema grade \xb2",  # "\xb2".isdigit(), but \d does not match it
    "Social History: \u017fingle. Dyspnea",  # the same in the social history alone
])
def test_non_ascii_notes_match_the_reference_replies(note):
    assert_same_replies(note)


@pytest.mark.parametrize("header", [
    "Variable: housing\nAllowed categories:\n- Living Alone: a\n- Unknown/Other: b",
    "Variable: housing\nEntry: x\nAllowed categories:\n- Living Alone: a\n",
    "Allowed categories:\n- Living Alone: a\n- Unknown/Other: b\n",
])
def test_batch_headers_that_reach_into_their_entries(header):
    """A batch header without a final line feed, holding "\nEntry:", or
    naming no variable makes each one-entry request read its entry otherwise."""
    items = json.dumps({"1": "Variable: housing. lives alone", "2": "Living with wife"})
    system, repair = AGENTS["labeler_batch"]
    for content in (f"{header}Entries:\n{items}", f"{header}Entries:\n{items}\n\n{repair}"):
        want = mock_oracle.MockResponder().reply(system, content)
        assert MockResponder().reply(system, content) == want
