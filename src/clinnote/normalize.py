"""SDOH normalization: cluster free-text entries, synthesize a category
scheme with the LLM, and label every entry with one category.

Clustering is exact PAM (greedy BUILD, then steepest-descent SWAP) on
cosine distances between text embeddings. Duplicate entries are collapsed
before clustering and their multiplicity weights the medoid cost.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ClinNoteError,
    InvalidInput,
    ParseFailure,
    ReplyUnusable,
    SchemeSynthesisFailed,
)
from .extraction import UNCHARTED_KEYS
from .gateway import ChatRequest, chat_with_repair, find_json
from .prompts import load_prompt

log = logging.getLogger(__name__)

# gender and age are already standardized and bypass normalization
NORMALIZED_VARIABLES = ("language", "marital_status") + UNCHARTED_KEYS

FALLBACK_LABEL = "Unknown/Other"
MIN_CATEGORIES = 2
MAX_CATEGORIES = 12
MAX_SWAP_ITER = 100


@dataclass
class MedoidClustering:
    k: int
    assignments: np.ndarray  # entry index -> position in medoid_indices
    medoid_indices: list
    total_cost: float
    cost_path: list = field(default_factory=list)

    def cluster_sizes(self) -> list:
        return np.bincount(self.assignments, minlength=self.k).tolist()


def cosine_distance_matrix(embeddings) -> np.ndarray:
    E = np.asarray(embeddings, dtype=float)
    norms = np.linalg.norm(E, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    En = E / norms
    D = 1.0 - En @ En.T
    np.fill_diagonal(D, 0.0)
    return np.clip(D, 0.0, 2.0)


def _pam_build(D, k, w):
    """Greedy BUILD phase: add the medoid that lowers weighted cost most."""
    n = D.shape[0]
    first = int(np.argmin(D @ w))
    medoids = [first]
    nearest = D[:, first].copy()
    while len(medoids) < k:
        # gain of adding candidate c: sum of w * max(0, nearest - D[:, c])
        gains = (w[:, None] * np.maximum(nearest[:, None] - D, 0.0)).sum(axis=0)
        gains[medoids] = -np.inf
        c = int(np.argmax(gains))
        medoids.append(c)
        nearest = np.minimum(nearest, D[:, c])
    return medoids


def _pam_swap(D, medoids, w, cost_path):
    """Steepest-descent SWAP until no improving swap or the iteration cap."""
    n = D.shape[0]
    medoids = list(medoids)
    for _ in range(MAX_SWAP_ITER):
        cols = D[:, medoids]
        order = np.argsort(cols, axis=1, kind="stable")
        d1 = cols[np.arange(n), order[:, 0]]
        d2 = cols[np.arange(n), order[:, 1]] if len(medoids) > 1 else np.full(n, np.inf)
        n1 = order[:, 0]  # index into medoids list

        best_delta, best_swap = -1e-12, None
        for mi, m_out in enumerate(medoids):
            in_cluster = n1 == mi
            # delta for replacing m_out with each candidate x (vector over x)
            reassigned = np.minimum(d2[in_cluster, None], D[in_cluster, :])
            delta = (w[in_cluster, None] * (reassigned - d1[in_cluster, None])).sum(axis=0)
            delta += (
                w[~in_cluster, None]
                * np.minimum(D[~in_cluster, :] - d1[~in_cluster, None], 0.0)
            ).sum(axis=0)
            delta[medoids] = np.inf
            x = int(np.argmin(delta))
            if delta[x] < best_delta:
                best_delta, best_swap = delta[x], (mi, x)
        if best_swap is None:
            break
        mi, x = best_swap
        medoids[mi] = x
        cols = D[:, medoids]
        cost_path.append(float((w * cols.min(axis=1)).sum()))
    return medoids


def cluster_entries(entries, k, seed=0, embeddings=None, gateway=None, weights=None):
    """PAM k-medoids over deduplicated entry texts.

    Embeddings come from the gateway unless supplied directly. Result is
    deterministic given the inputs; ``seed`` only feeds the mock embedder
    through the gateway config.
    """
    if k <= 0:
        raise InvalidInput("k must be positive")
    if not entries:
        raise InvalidInput("no entries to cluster")
    if len(set(entries)) != len(entries):
        raise InvalidInput("entries must be deduplicated before clustering")
    n = len(entries)
    if k > n:
        log.warning("k=%d exceeds %d distinct entries; lowering", k, n)
        k = n
    if embeddings is None:
        embeddings = np.array([v.values for v in gateway.embed(list(entries))])
    w = np.asarray(weights if weights is not None else np.ones(n), dtype=float)

    D = cosine_distance_matrix(embeddings)
    medoids = _pam_build(D, k, w)
    cost_path = [float((w * D[:, medoids].min(axis=1)).sum())]
    medoids = _pam_swap(D, medoids, w, cost_path)

    cols = D[:, medoids]
    assignments = cols.argmin(axis=1)
    total_cost = float((w * cols.min(axis=1)).sum())
    return MedoidClustering(
        k=k,
        assignments=assignments,
        medoid_indices=medoids,
        total_cost=total_cost,
        cost_path=cost_path,
    )


@dataclass
class CategoryScheme:
    variable: str
    categories: list  # [{label, description}]
    medoid_examples: dict = field(default_factory=dict)  # label -> [entry texts]
    provenance: dict = field(default_factory=dict)

    def labels(self) -> list:
        return [c["label"] for c in self.categories]

    def validate(self):
        labels = self.labels()
        if not MIN_CATEGORIES <= len(labels) <= MAX_CATEGORIES:
            raise SchemeSynthesisFailed(
                f"{self.variable}: {len(labels)} categories outside "
                f"[{MIN_CATEGORIES}, {MAX_CATEGORIES}]"
            )
        if len(set(labels)) != len(labels):
            raise SchemeSynthesisFailed(f"{self.variable}: duplicate category labels")
        fallbacks = [l for l in labels if FALLBACK_LABEL in l]
        if len(fallbacks) != 1:
            raise SchemeSynthesisFailed(
                f"{self.variable}: expected exactly one fallback category"
            )

    def fallback(self) -> str:
        return next(l for l in self.labels() if FALLBACK_LABEL in l)

    def to_dict(self) -> dict:
        return {
            "variable": self.variable,
            "categories": self.categories,
            "medoid_examples": self.medoid_examples,
            "provenance": self.provenance,
        }


@dataclass
class LabeledEntry:
    hadm_id: str
    variable: str
    raw_text: str
    assigned_category: str | None
    status: str = "ok"  # ok | fallback | unlabeled


def _parse_categories(raw_text):
    cats = []
    for item in find_json(raw_text, list):
        if not isinstance(item, dict) or "label" not in item:
            raise ParseFailure("scheme entries need 'label' and 'description'")
        cats.append(
            {"label": str(item["label"]).strip(),
             "description": str(item.get("description", "")).strip()}
        )
    return cats


def synthesize_scheme(gateway, variable, medoid_texts) -> CategoryScheme:
    """Ask the LLM for a category scheme covering the medoid texts."""
    prompt = load_prompt("normalizer")
    listing = "\n".join(f"- {t}" for t in medoid_texts)
    user = f"Variable: {variable}\nEntries:\n{listing}"

    def parse(raw_text):
        cats = _parse_categories(raw_text)
        if not any(FALLBACK_LABEL in c["label"] for c in cats):
            cats.append(
                {"label": FALLBACK_LABEL,
                 "description": "Entry does not fit any category or is unclear"}
            )
        scheme = CategoryScheme(
            variable=variable,
            categories=cats,
            provenance={
                "model": gateway.config.chat_model,
                "prompt_sha256": prompt.sha256,
            },
        )
        scheme.validate()
        return scheme

    try:
        return chat_with_repair(
            gateway, prompt.text, user, parse,
            "Return only a valid JSON array of at most 12 categories.",
        )
    except ReplyUnusable as err:
        raise SchemeSynthesisFailed(f"{variable}: {err}") from err


def label_entries(gateway, scheme, entries) -> list:
    """Assign each (hadm_id, raw_text) entry to one scheme category."""
    prompt = load_prompt("labeler")
    cat_lines = "\n".join(
        f"- {c['label']}: {c['description']}" for c in scheme.categories
    )
    example_lines = "\n".join(
        f"- {label}: e.g. {'; '.join(examples[:3])}"
        for label, examples in scheme.medoid_examples.items()
        if examples
    )
    labels = set(scheme.labels())

    def label(raw_text):
        """The stripped reply for one entry text, or None if the gateway failed."""
        user = (
            f"Variable: {scheme.variable}\n"
            f"Allowed categories:\n{cat_lines}\n"
            + (f"Category examples:\n{example_lines}\n" if example_lines else "")
            + f"Entry: {raw_text}"
        )
        try:
            response = gateway.chat(
                ChatRequest(
                    system_prompt=prompt.text,
                    user_content=user,
                    max_tokens=gateway.config.max_tokens,
                    model_name=gateway.config.chat_model,
                )
            )
        except ClinNoteError as exc:  # gateway failure: the text stays unlabeled
            log.warning("labeling failed for a %s entry: %s", scheme.variable, exc)
            return None
        return response.raw_text.strip().strip('"')

    # each distinct text is asked once; entries that share it share the reply
    texts = list(dict.fromkeys(text for _, text in entries))
    replies = dict(zip(texts, gateway.map(label, texts)))
    out = []
    off_scheme = 0
    for hadm_id, raw_text in entries:
        reply = replies[raw_text]
        if reply is None:
            out.append(LabeledEntry(hadm_id, scheme.variable, raw_text, None, "unlabeled"))
        elif reply in labels:
            out.append(LabeledEntry(hadm_id, scheme.variable, raw_text, reply))
        else:
            off_scheme += 1
            out.append(
                LabeledEntry(hadm_id, scheme.variable, raw_text, scheme.fallback(), "fallback")
            )
    if off_scheme:
        log.warning(
            "%d off-scheme replies mapped to %s for %s",
            off_scheme, FALLBACK_LABEL, scheme.variable,
        )
    return out


def normalize_variable(gateway, variable, entries, k=200, seed=0):
    """Full pipeline for one variable: cluster, synthesize, label.

    ``entries`` is a list of (hadm_id, raw_text) with possible duplicate
    texts; duplicates weight the clustering and every entry gets labeled.
    """
    texts = [t for _, t in entries]
    uniq = sorted(set(texts))
    weights = np.array([texts.count(t) for t in uniq], dtype=float)
    clustering = cluster_entries(uniq, min(k, len(uniq)), seed=seed,
                                 gateway=gateway, weights=weights)
    medoid_texts = [uniq[i] for i in clustering.medoid_indices]
    scheme = synthesize_scheme(gateway, variable, medoid_texts)
    # attach medoid examples per category by labeling the medoids first
    medoid_labels = label_entries(
        gateway, scheme, [("", t) for t in medoid_texts]
    )
    for entry in medoid_labels:
        if entry.assigned_category:
            scheme.medoid_examples.setdefault(entry.assigned_category, []).append(
                entry.raw_text
            )
    labeled = label_entries(gateway, scheme, entries)
    return scheme, labeled, clustering
