"""The rule-based mock responder as it was before its one-pass rewrite.

Every request kind scanned its whole text case-insensitively: the
extractor once per field, the summarizer once per line, and the batch
labeler re-parsed its header for every entry. It is kept only as the
reference the differential tests compare against: ``clinnote.mock_llm``
must give the same reply, byte for byte, to every request.
"""

import hashlib
import json
import re

from clinnote.mock_llm import _LABEL_RULES, _QUALITATIVE, CANNED_SCHEMES, _norm


class MockResponder:
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
        def find(pattern, group=1, flags=re.IGNORECASE):
            m = re.search(pattern, note, flags)
            return m.group(group).strip() if m else "null"

        gender = "null"
        m = re.search(r"\b(\d{1,3})[ -]year[ -]old (man|woman|male|female|gentleman|lady)",
                      note, re.IGNORECASE)
        age = m.group(1) if m else find(r"\bAge:\s*(\d{1,3})")
        if m:
            gender = "M" if m.group(2).lower() in ("man", "male", "gentleman") else "F"
        else:
            g = find(r"\b(?:Sex|Gender):\s*([MF])\b")
            gender = g if g != "null" else "null"

        social = ""
        ms = re.search(r"Social History:\s*(.*?)(?:\n\s*\n|\n[A-Z][A-Za-z ]+:|\Z)",
                       note, re.DOTALL)
        if ms:
            social = ms.group(1)

        def social_find(pattern):
            m = re.search(pattern, social, re.IGNORECASE)
            return m.group(1).strip().rstrip(".") if m else "null"

        marital = "null"
        mm = re.search(r"\b(married|widowed|widower|widow|divorced|separated|single)\b",
                       social, re.IGNORECASE)
        if mm:
            marital = mm.group(1).capitalize()

        housing = "null"
        if re.search(r"lives alone", social, re.IGNORECASE):
            housing = "lives alone"
        else:
            hm = re.search(r"lives (?:at|in|with) ([^.\n]+)", social, re.IGNORECASE)
            if hm:
                housing = "lives with " + hm.group(1).strip() \
                    if "with" in hm.group(0).lower() else hm.group(0).strip()

        employment = "null"
        em = re.search(
            r"\b(retired[a-z ]*|unemployed|on disability|works as [^.\n]+|"
            r"self-employed[^.\n]*|employed [^.\n]+)", social, re.IGNORECASE)
        if em:
            employment = em.group(1).strip()

        parental = social_find(r"((?:no children|(?:\w+ )?(?:adult )?children[^.\n]*))")
        transport = social_find(r"(?:Transportation|Gets around)[:\s]+([^.\n]+)")
        if transport == "null":
            tm = re.search(r"((?:no longer )?drives[^.\n]*|daughter drives [^.\n]+)",
                           social, re.IGNORECASE)
            if tm:
                transport = tm.group(1).strip().rstrip(".")
        support = social_find(r"(?:Supported by|Support(?: system)?:)\s*([^.\n]+)")

        payload = {
            "Charted_SDOHs": {
                "Gender": gender,
                "Age": age,
                "Language": find(r"(?:Language|speaks)[:\s]+([A-Za-z ]+?)(?:[.,\n]|$)"),
                "Marital_Status": marital,
            },
            "NonCharted_SDOHs": {
                "Alcohol_use": social_find(r"Alcohol[:\s]+([^.\n]+)"),
                "Tobacco_use": social_find(r"Tobacco[:\s]+([^.\n]+)"),
                "Drug_use": social_find(r"(?:Drug use|Drugs)[:\s]+([^.\n]+)"),
                "Transportation": transport,
                "Housing": housing,
                "Parental": parental,
                "Employment_Status": employment,
                "Social_Support": support,
            },
            "Clinical_Info": {
                "Vitals": {
                    "Body_Temperature": find(r"Temp(?:erature)?[:\s]+([\d.]+\s*[FC]?)"),
                    "Heart_Rate": find(r"\bHR[:\s]+(\d+(?:\s*bpm)?)"),
                    "Respiration_Rate": find(r"\bRR[:\s]+(\d+)"),
                    "Blood_Pressure": find(r"\bBP[:\s]+(\d+\s*/\s*\d+)"),
                    "SpO2": find(r"SpO2[:\s]+(\d+%?)"),
                    "Height": find(r"Height[:\s]+([^\n,;]+)"),
                    "Weight": find(r"Weight[:\s]+([^\n,;]+)"),
                }
            },
            "Chief_Complaint": {
                "Symptoms": find(r"Chief Complaint[:\s]+([^\n]+)"),
                "Description": "null",
            },
            "Diagnoses": self._diagnoses(note),
        }
        return json.dumps(payload, indent=2)

    def _diagnoses(self, note):
        m = re.search(
            r"Discharge Diagnos[ie]s(?:is)?:\s*(.*?)(?:\n\s*\n|\n[A-Z][A-Za-z ]+:|\Z)",
            note, re.DOTALL | re.IGNORECASE,
        )
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

    _KEEP_RE = re.compile(
        r"chief complaint|vital signs|diagnos|worsening|edema|dyspnea|failure|"
        r"abnormal|elevated|reduced|shortness of breath|admitted|discharged home",
        re.IGNORECASE,
    )

    def _summarize(self, note, no_number):
        kept = [ln.strip() for ln in note.splitlines() if ln.strip() and
                self._KEEP_RE.search(ln)]
        if not kept:
            kept = [ln.strip() for ln in note.splitlines() if ln.strip()][:3]
        text = " ".join(kept)
        if no_number:
            tokens = []
            for tok in text.split():
                if any(ch.isdigit() for ch in tok):
                    h = int(hashlib.sha256(f"{self.seed}:{tok}".encode()).hexdigest(), 16)
                    tokens.append(_QUALITATIVE[h % len(_QUALITATIVE)])
                else:
                    tokens.append(tok)
            text = " ".join(tokens)
        return text

    # -- scheme synthesis --------------------------------------------------

    def _scheme(self, user_content):
        m = re.search(r"Variable:\s*(\w+)", user_content)
        variable = (m.group(1).lower() if m else "")
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
        m = re.search(r"Variable:\s*(\w+)", user_content)
        variable = m.group(1).lower() if m else ""
        # categories and examples come from their header blocks, never the entry
        header, _, entry = user_content.partition("\nEntry:")
        entry = entry.strip()
        allowed_block, _, example_block = header.partition("\nCategory examples:\n")
        allowed_block = allowed_block.partition("\nAllowed categories:\n")[2]
        allowed = re.findall(r"^- ([^:]+):", allowed_block, re.MULTILINE)
        # exact match against listed category examples first
        for xm in re.finditer(r"^- ([^:]+): e\.g\. (.+)$", example_block, re.MULTILINE):
            examples = [e.strip() for e in xm.group(2).split(";")]
            if entry in examples:
                return xm.group(1).strip()
        lowered = entry.lower()
        for pattern, label in _LABEL_RULES.get(variable, []):
            if re.search(pattern, lowered) and label in allowed:
                return label
        # token overlap with category labels
        entry_tokens = set(_norm(entry).split())
        best, best_overlap = None, 0
        for label in allowed:
            overlap = len(entry_tokens & set(_norm(label).split()))
            if overlap > best_overlap:
                best, best_overlap = label, overlap
        if best:
            return best
        return next((l for l in allowed if "Unknown/Other" in l), "Unknown/Other")

    def _label_batch(self, user_content):
        """Label each numbered entry as its own one-entry request would be."""
        start = user_content.rindex("Entries:\n")
        header = user_content[:start]
        # raw_decode: a repair re-prompt appends text after the JSON object
        items, _ = json.JSONDecoder().raw_decode(user_content, start + len("Entries:\n"))
        return json.dumps({n: self._label(f"{header}Entry: {text}") for n, text in items.items()})

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
