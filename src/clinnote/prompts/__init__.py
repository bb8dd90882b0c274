"""Versioned prompt templates, referenced by content hash in run manifests."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from importlib import resources


@dataclass(frozen=True)
class PromptTemplate:
    name: str
    text: str

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.text.encode()).hexdigest()


def load_prompt(name: str) -> PromptTemplate:
    path = resources.files("clinnote.prompts").joinpath(f"{name}.txt")
    return PromptTemplate(name=name, text=path.read_text())

