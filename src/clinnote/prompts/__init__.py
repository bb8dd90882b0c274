"""Versioned prompt templates, referenced by content hash in category schemes."""

from __future__ import annotations

import functools
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


@functools.cache
def load_prompt(name: str) -> PromptTemplate:
    """The template ``name``, read from the package once per process."""
    path = resources.files("clinnote.prompts").joinpath(f"{name}.txt")
    return PromptTemplate(name=name, text=path.read_text())

