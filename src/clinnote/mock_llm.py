"""Rule-based offline stand-in for the chat model.

Routes on distinctive phrases in the system prompt and produces
deterministic, schema-valid replies for each agent role, so the whole
pipeline runs byte-reproducibly without a model server.
"""

from __future__ import annotations

import hashlib
import json
import re

_QUALITATIVE = ("elevated", "reduced", "abnormal", "borderline", "stable")

CANNED_SCHEMES = {
    "marital_status": [
        "Married", "Widowed", "Divorced/Separated", "Single/Never Married",
        "Unknown/Other",
    ],
    "alcohol_use": [
        "Abstinent/No Use", "Current Heavy Use", "Current Moderate/Social Use",
        "Former Heavy Use", "Former Moderate Use", "Occasional/Rare Use",
        "Past Use, Not Current", "Unknown/Other",
    ],
    "tobacco_use": [
        "Never Smoker", "Current Smoker", "Former Smoker", "Remote Tobacco Use",
        "Occasional/Intermittent Use", "Past Tobacco Use",
        "High Pack-Year History", "Unknown/Other",
    ],
    "transportation": [
        "Self-Driven", "Non-Driver", "Arranged Transportation",
        "Assisted by Companion", "Transportation Limitations", "Unknown/Other",
    ],
    "housing": [
        "Living Alone", "Living with Family Members", "Institutional/Long-Term Care",
        "Homelessness/Sheltered Living", "Senior Housing/Retirement Communities",
        "Residential Housing Type", "Living with Non-Family Members",
        "Home with 24/7 Care Services", "Housing Instability/Unsafe Environment",
        "Unknown/Other",
    ],
    "employment_status": [
        "Retired", "Employed (Full-Time)", "Employed (Part-Time)", "Unemployed",
        "On Disability", "Self-Employed/Own Business", "Student/Other Education",
        "Unknown/Other",
    ],
    "social_support": [
        "Family Caregivers", "Professional Caregivers", "Social/Emotional Support",
        "Lack of Social Support", "Mixed Support Systems",
        "Community/Non-Family Resources", "Unknown/Other",
    ],
    "language": ["English", "Spanish", "Other Language", "Unknown/Other"],
    "drug_use": ["No Use", "Current Use", "Former Use", "Unknown/Other"],
    "parental": ["Has Children", "No Children", "Unknown/Other"],
}

# ordered (regex, label) rules per variable for the mock labeler
_LABEL_RULES = {
    "tobacco_use": [
        (r"never", "Never Smoker"),
        (r"quit|former|ex-?smoker", "Former Smoker"),
        (r"occasional", "Occasional/Intermittent Use"),
        (r"current|smokes|ppd|pack", "Current Smoker"),
        (r"\bno\b|denies", "Never Smoker"),
    ],
    "alcohol_use": [
        (r"\bno\b|denies|abstinent|none", "Abstinent/No Use"),
        (r"former|quit", "Former Moderate Use"),
        (r"heavy|daily", "Current Heavy Use"),
        (r"social|moderate|occasional|rare|glass|beer|wine", "Current Moderate/Social Use"),
    ],
    "drug_use": [
        (r"\bno\b|denies|none", "No Use"),
        (r"former|remote|history", "Former Use"),
        (r".", "Current Use"),
    ],
    "marital_status": [
        (r"married", "Married"),
        (r"widow", "Widowed"),
        (r"divorc|separat", "Divorced/Separated"),
        (r"single|never married", "Single/Never Married"),
    ],
    "housing": [
        (r"alone", "Living Alone"),
        (r"homeless|shelter", "Homelessness/Sheltered Living"),
        (r"nursing|facility|institution|long.?term", "Institutional/Long-Term Care"),
        (r"senior|retirement", "Senior Housing/Retirement Communities"),
        (r"wife|husband|family|daughter|son|spouse", "Living with Family Members"),
        (r"roommate|friend", "Living with Non-Family Members"),
    ],
    "employment_status": [
        (r"retired", "Retired"),
        (r"part.?time", "Employed (Part-Time)"),
        (r"unemployed|lost .*job", "Unemployed"),
        (r"disability", "On Disability"),
        (r"self.?employed|own business", "Self-Employed/Own Business"),
        (r"works|employed|full.?time|teacher|nurse|driver|clerk", "Employed (Full-Time)"),
    ],
    "transportation": [
        (r"drives|own car|self", "Self-Driven"),
        (r"does not drive|no longer drives|non.?driver", "Non-Driver"),
        (r"van|service|arranged|shuttle", "Arranged Transportation"),
        (r"daughter|son|wife|husband|family|companion", "Assisted by Companion"),
    ],
    "social_support": [
        (r"daughter|son|wife|husband|family|sister|brother", "Family Caregivers"),
        (r"aide|nurse|professional|vna", "Professional Caregivers"),
        (r"no support|lacks|isolated|alone", "Lack of Social Support"),
        (r"church|community|neighbor", "Community/Non-Family Resources"),
    ],
    "language": [
        (r"english", "English"),
        (r"spanish", "Spanish"),
        (r".", "Other Language"),
    ],
    "parental": [
        (r"no children|childless", "No Children"),
        (r"child|son|daughter|grandchild", "Has Children"),
    ],
}


def _norm(text):
    return re.sub(r"[^a-z0-9 ]+", " ", text.lower()).strip()


# The extractor's fields: name -> (anchors, case-insensitive pattern). Every
# match holds one of its field's lowercase anchors, and has no "." or line
# feed before it. Those down to "diagnoses" are searched in the whole note,
# the rest in its social history.
_FIELDS = {
    "age_phrase": (("year",),
                   r"\b(\d{1,3})[ -]year[ -]old (man|woman|male|female|gentleman|lady)"),
    "age": (("age:",), r"\bAge:\s*(\d{1,3})"),
    "gender": (("sex:", "gender:"), r"\b(?:Sex|Gender):\s*([MF])\b"),
    "language": (("language", "speaks"), r"(?:Language|speaks)[:\s]+([A-Za-z ]+?)(?:[.,\n]|$)"),
    "temperature": (("temp",), r"Temp(?:erature)?[:\s]+([\d.]+\s*[FC]?)"),
    "heart_rate": (("hr",), r"\bHR[:\s]+(\d+(?:\s*bpm)?)"),
    "respiration_rate": (("rr",), r"\bRR[:\s]+(\d+)"),
    "blood_pressure": (("bp",), r"\bBP[:\s]+(\d+\s*/\s*\d+)"),
    "spo2": (("spo2",), r"SpO2[:\s]+(\d+%?)"),
    "height": (("height",), r"Height[:\s]+([^\n,;]+)"),
    "weight": (("weight",), r"Weight[:\s]+([^\n,;]+)"),
    "chief_complaint": (("chief complaint",), r"Chief Complaint[:\s]+([^\n]+)"),
    "diagnoses": (("discharge diagnos",),
                  r"(?s)Discharge Diagnos[ie]s(?:is)?:\s*(.*?)(?:\n\s*\n|\n[A-Z][A-Za-z ]+:|\Z)"),
    "marital": (("married", "widow", "divorced", "separated", "single"),
                r"\b(married|widowed|widower|widow|divorced|separated|single)\b"),
    "lives_alone": (("lives alone",), r"lives alone"),
    "lives": (("lives ",), r"lives (?:at|in|with) ([^.\n]+)"),
    "employment": (("retired", "employed", "on disability", "works as"),
                   r"\b(retired[a-z ]*|unemployed|on disability|works as [^.\n]+|"
                   r"self-employed[^.\n]*|employed [^.\n]+)"),
    "parental": (("children",), r"((?:no children|(?:\w+ )?(?:adult )?children[^.\n]*))"),
    "transportation": (("transportation", "gets around"),
                       r"(?:Transportation|Gets around)[:\s]+([^.\n]+)"),
    "drives": (("drives",), r"((?:no longer )?drives[^.\n]*|daughter drives [^.\n]+)"),
    "support": (("support",), r"(?:Supported by|Support(?: system)?:)\s*([^.\n]+)"),
    "alcohol": (("alcohol",), r"Alcohol[:\s]+([^.\n]+)"),
    "tobacco": (("tobacco",), r"Tobacco[:\s]+([^.\n]+)"),
    "drug": (("drug",), r"(?:Drug use|Drugs)[:\s]+([^.\n]+)"),
}

# the summarizer keeps the lines that hold one of these, in any case
_KEEP = (r"chief complaint|vital signs|diagnos|worsening|edema|dyspnea|failure|"
         r"abnormal|elevated|reduced|shortness of breath|admitted|discharged home")


# the characters that the regex engine's case folding equates with an ASCII
# letter but ``str.lower`` does not send to it: U+0130 lowercases to two
# characters, U+0131 and U+017F to themselves
_FOLD = str.maketrans({"\u0130": "i", "\u0131": "i", "\u017f": "s"})


def _fold(text):
    """``text`` lowercased, one character for each. A character folds to an
    ASCII letter, a digit, space, ":", "." or line feed exactly when
    ``re.IGNORECASE`` equates it with that one, and to a line boundary of
    ``str.splitlines`` only from itself (checked over every code point). So
    a lowercase search of the folded text finds what a case-insensitive
    search of ``text`` finds, at the same positions, on the same lines."""
    return (text if text.isascii() else text.translate(_FOLD)).lower()


def _search(field, text, low):
    """The first match of an extractor field in text, or None: the search
    starts at the sentence of the field's first anchor in ``low``, text
    folded, or returns None at once when no anchor occurs."""
    anchors, pattern = _FIELDS[field]
    first = min((i for i in map(low.find, anchors) if i >= 0), default=-1)
    if first < 0:
        return None
    start = max(low.rfind(".", 0, first), low.rfind("\n", 0, first)) + 1
    return re.compile(pattern, re.IGNORECASE).search(text, start)


def _has_digit(token):
    # letters skip the search: no character is both a letter and a digit
    return not token.isalpha() and any(map(str.isdigit, token))


def _variable(text):
    m = re.search(r"Variable:\s*(\w+)", text)
    return m.group(1).lower() if m else ""


def _label_header(header, variable):
    """What labeling an entry needs from a labeler request's header: each
    category example's label, the variable's rules whose label is allowed,
    each allowed label's tokens, and the fallback label."""
    allowed_block, _, example_block = header.partition("\nCategory examples:\n")
    allowed_block = allowed_block.partition("\nAllowed categories:\n")[2]
    allowed = re.findall(r"^- ([^:]+):", allowed_block, re.MULTILINE)
    examples = {}  # the first listed category wins
    for xm in re.finditer(r"^- ([^:]+): e\.g\. (.+)$", example_block, re.MULTILINE):
        for example in xm.group(2).split(";"):
            examples.setdefault(example.strip(), xm.group(1).strip())
    rules = [(pattern, label) for pattern, label in _LABEL_RULES.get(variable, [])
             if label in allowed]
    tokens = [(label, set(_norm(label).split())) for label in allowed]
    fallback = next((l for l in allowed if "Unknown/Other" in l), "Unknown/Other")
    return examples, rules, tokens, fallback


def _label_entry(header, entry):
    examples, rules, tokens, fallback = header
    # exact match against listed category examples first
    if entry in examples:
        return examples[entry]
    lowered = entry.lower()
    for pattern, label in rules:
        if re.search(pattern, lowered):
            return label
    # token overlap with category labels
    entry_tokens = set(_norm(entry).split())
    best, best_overlap = None, 0
    for label, label_tokens in tokens:
        overlap = len(entry_tokens & label_tokens)
        if overlap > best_overlap:
            best, best_overlap = label, overlap
    return best or fallback


class MockResponder:
    """Answers each request in one pass over its text. Patterns compile on
    first use (through ``re``'s cache), not at import."""

    def __init__(self, seed=0):
        self.seed = seed

    def reply(self, system_prompt, user_content):
        if "extracting structured information" in system_prompt:
            return self._extract(user_content)
        if "abstracting information from EHR discharge summaries" in system_prompt:
            no_number = "removing numbers" in system_prompt
            return self._summarize(user_content, no_number)
        if "Propose a concise set of normalized categories" in system_prompt:
            return self._scheme(user_content)
        if "Assign each numbered entry to exactly one" in system_prompt:
            return self._label_batch(user_content)
        if "Assign the entry to exactly one" in system_prompt:
            return self._label(user_content)
        if "acting as a judge" in system_prompt:
            return self._judge(user_content)
        return "OK"

    # -- extraction --------------------------------------------------------

    def _extract(self, note):
        low = _fold(note)

        def find(field):
            m = _search(field, note, low)
            return m.group(1).strip() if m else "null"

        m = _search("age_phrase", note, low)
        if m:
            age = m.group(1)
            gender = "M" if m.group(2).lower() in ("man", "male", "gentleman") else "F"
        else:
            age, gender = find("age"), find("gender")

        ms = re.search(r"Social History:\s*(.*?)(?:\n\s*\n|\n[A-Z][A-Za-z ]+:|\Z)",
                       note, re.DOTALL)
        social = ms.group(1) if ms else ""
        social_low = _fold(social)

        def social_search(field):
            return _search(field, social, social_low)

        def social_find(field):
            m = social_search(field)
            return m.group(1).strip().rstrip(".") if m else "null"

        mm = social_search("marital")
        marital = mm.group(1).capitalize() if mm else "null"

        housing = "null"
        if social_search("lives_alone"):
            housing = "lives alone"
        else:
            hm = social_search("lives")
            if hm:
                housing = "lives with " + hm.group(1).strip() \
                    if "with" in hm.group(0).lower() else hm.group(0).strip()

        em = social_search("employment")
        employment = em.group(1).strip() if em else "null"

        parental = social_find("parental")
        transport = social_find("transportation")
        if transport == "null":
            transport = social_find("drives")
        support = social_find("support")

        payload = {
            "Charted_SDOHs": {
                "Gender": gender,
                "Age": age,
                "Language": find("language"),
                "Marital_Status": marital,
            },
            "NonCharted_SDOHs": {
                "Alcohol_use": social_find("alcohol"),
                "Tobacco_use": social_find("tobacco"),
                "Drug_use": social_find("drug"),
                "Transportation": transport,
                "Housing": housing,
                "Parental": parental,
                "Employment_Status": employment,
                "Social_Support": support,
            },
            "Clinical_Info": {
                "Vitals": {
                    "Body_Temperature": find("temperature"),
                    "Heart_Rate": find("heart_rate"),
                    "Respiration_Rate": find("respiration_rate"),
                    "Blood_Pressure": find("blood_pressure"),
                    "SpO2": find("spo2"),
                    "Height": find("height"),
                    "Weight": find("weight"),
                }
            },
            "Chief_Complaint": {
                "Symptoms": find("chief_complaint"),
                "Description": "null",
            },
            "Diagnoses": self._diagnoses(_search("diagnoses", note, low)),
        }
        return json.dumps(payload, indent=2)

    def _diagnoses(self, m):
        if not m:
            return []
        parts = re.split(r"[;\n]|\d+\.\s*", m.group(1))
        out = []
        for part in parts:
            cond = part.strip().strip(",").strip()
            if cond:
                out.append({"Condition": cond, "Details": ""})
        return out

    # -- summaries ---------------------------------------------------------

    def _summarize(self, note, no_number):
        lines = note.splitlines()
        keep = re.compile(_KEEP).search  # on each folded line
        kept = [ln.strip() for ln, low in zip(lines, _fold(note).splitlines()) if keep(low)]
        if not kept:
            kept = [ln.strip() for ln in lines if ln.strip()][:3]
        text = " ".join(kept)
        if no_number:
            text = " ".join([self._qualitative(tok) if _has_digit(tok) else tok
                             for tok in text.split()])
        return text

    def _qualitative(self, token):
        """The qualitative word that stands in for a token holding digits."""
        digest = hashlib.sha256(f"{self.seed}:{token}".encode()).digest()
        return _QUALITATIVE[int.from_bytes(digest, "big") % len(_QUALITATIVE)]

    # -- scheme synthesis --------------------------------------------------

    def _scheme(self, user_content):
        variable = _variable(user_content)
        labels = CANNED_SCHEMES.get(variable)
        if labels is None:
            entries = re.findall(r"^- (.+)$", user_content, re.MULTILINE)
            labels = []
            for e in entries[:5]:
                label = " ".join(_norm(e).split()[:3]).title()
                if label and label not in labels:
                    labels.append(label)
            labels.append("Unknown/Other")
        cats = [{"label": l, "description": f"Entries best described as {l.lower()}"}
                for l in labels]
        return json.dumps(cats)

    # -- labeling ----------------------------------------------------------

    def _label(self, user_content):
        # categories and examples come from their header blocks, never the entry
        header, _, entry = user_content.partition("\nEntry:")
        return _label_entry(_label_header(header, _variable(user_content)), entry.strip())

    def _label_batch(self, user_content):
        """Label each numbered entry as its own one-entry request would be."""
        start = user_content.rindex("Entries:\n")
        header = user_content[:start]
        # raw_decode: a repair re-prompt appends text after the JSON object
        items, _ = json.JSONDecoder().raw_decode(user_content, start + len("Entries:\n"))
        variable = _variable(header)
        if not (variable and header.endswith("\n") and "\nEntry:" not in header):
            # the one-entry request's header or variable would reach into its entry
            return json.dumps({n: self._label(f"{header}Entry: {text}")
                               for n, text in items.items()})
        parsed = _label_header(header[:-1], variable)
        return json.dumps({n: _label_entry(parsed, str(text).strip()) for n, text in items.items()})

    # -- judging -----------------------------------------------------------

    def _judge(self, user_content):
        def section(title):
            m = re.search(rf"{title}:\n(.*?)(?:\n\n|\Z)", user_content, re.DOTALL)
            if not m:
                return []
            items = re.findall(r"^\d+\.\s*(.+)$", m.group(1), re.MULTILINE)
            return [i.strip() for i in items]

        extracted = section("Extracted diagnoses")
        icd = section(r"ICD-9 diagnoses")
        used_icd = set()
        matches = []
        for ei, etext in enumerate(extracted):
            en = _norm(etext)
            for ii, itext in enumerate(icd):
                if ii in used_icd:
                    continue
                inorm = _norm(itext)
                if en == inorm or (len(en) > 6 and en in inorm) or (
                    len(inorm) > 6 and inorm in en
                ):
                    matches.append({"extracted_index": ei, "icd_index": ii})
                    used_icd.add(ii)
                    break
        score = round(5 * len(matches) / len(extracted)) if extracted else 0
        return json.dumps({"score": score, "matches": matches})
