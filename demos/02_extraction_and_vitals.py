"""Extract structured risk factors from one note (offline mock gateway),
then canonicalize the free-text vitals into standard units.

Run: python3 demos/02_extraction_and_vitals.py
"""

import json
import tempfile
from dataclasses import asdict

from clinnote.config import Config
from clinnote.extraction import Extractor
from clinnote.fixture import build_fixture
from clinnote.gateway import LLMGateway
from clinnote.vitals import canonicalize_record

def main():
    _, _, notes, _, _ = build_fixture(seed=0)
    note = notes[0]["text"]
    print("--- discharge note ---")
    print(note)

    with tempfile.TemporaryDirectory() as tmp:
        gateway = LLMGateway(Config(mock_mode=True, cache_dir=tmp))
        extractor = Extractor(gateway)
        record = extractor.extract(note, hadm_id=notes[0]["hadm_id"])

    print("--- extraction record ---")
    print(json.dumps(asdict(record), indent=2))

    print("--- canonical vitals ---")
    for outcome in canonicalize_record(record):
        if outcome.status == "ok":
            print(f"  {outcome.variable:12s} {outcome.value:8.2f} "
                  f"(from {outcome.original_text!r}, {outcome.original_unit})")
        else:
            print(f"  {outcome.variable:12s} {outcome.status}: "
                  f"{outcome.original_text!r}")


if __name__ == "__main__":
    main()
