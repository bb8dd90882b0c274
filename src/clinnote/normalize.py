"""SDOH normalization: cluster free-text entries, synthesize a category
scheme with the LLM, and label every entry with one category.

Clustering is exact PAM (greedy BUILD, then steepest-descent SWAP with
each sweep priced by FastPAM1) on cosine distances between text
embeddings. Duplicate entries are collapsed before clustering and their
multiplicity weights the medoid cost.
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
    first = int(np.argmin(D @ w))
    medoids = [first]
    nearest = D[:, first].copy()
    buf = np.empty_like(D)  # one n x n buffer for every addition
    while len(medoids) < k:
        # gain of adding candidate c: sum of w * max(0, nearest - D[:, c])
        np.subtract(nearest[:, None], D, out=buf)
        np.maximum(buf, 0.0, out=buf)
        buf *= w[:, None]
        gains = buf.sum(axis=0)
        gains[medoids] = -np.inf
        c = int(np.argmax(gains))
        medoids.append(c)
        np.minimum(nearest, D[:, c], out=nearest)
    return medoids


def _pam_swap(D, medoids, w, cost_path):
    """Steepest-descent SWAP until no improving swap or the iteration cap.

    FastPAM1 (Schubert & Rousseeuw, SISAP 2019): one O(n^2) pass per sweep
    gives the cost change of all k x n swaps. With d1 and d2 a point's
    distances to its nearest and second-nearest medoid, replacing medoid
    ``mi`` by candidate ``x`` changes the cost by a gain shared by every
    medoid, the sum over all points of w * min(D[:, x] - d1, 0), plus the
    removal loss of ``mi``, the sum over its cluster of
    w * min(max(D[:, x] - d1, 0), d2 - d1). The best swap has the lowest
    change, ties going to the lowest medoid position, then candidate.
    """
    n, k = D.shape[0], len(medoids)
    medoids = list(medoids)
    rows = np.arange(n)
    work = np.empty_like(D)  # rows of D grouped by cluster, minus d1
    terms = np.empty_like(D)  # gain terms, then the k x n swap deltas
    for _ in range(MAX_SWAP_ITER):
        cols = D[:, medoids]
        n1 = cols.argmin(axis=1)  # position in medoids of the nearest one
        # each medoid in its own cluster (it is at distance 0 from itself),
        # so no cluster is empty; a tie has a zero removal loss either way
        n1[medoids] = np.arange(k)
        d1 = cols[rows, n1]
        cols[rows, n1] = np.inf
        d2 = cols.min(axis=1) if k > 1 else cols[:, 0]

        order = np.argsort(n1, kind="stable")
        sizes = np.bincount(n1, minlength=k)
        starts = np.cumsum(sizes) - sizes  # first row of each cluster in order
        wo = w[order, None]
        np.take(D, order, axis=0, out=work, mode="clip")  # "raise" would buffer a copy
        work -= d1[order, None]
        np.minimum(work, 0.0, out=terms)
        terms *= wo
        gain = terms.sum(axis=0)
        np.maximum(work, 0.0, out=work)
        np.minimum(work, (d2 - d1)[order, None], out=work)
        work *= wo
        delta = np.add.reduceat(work, starts, axis=0, out=terms[:k])
        delta += gain
        delta[:, medoids] = np.inf
        mi, x = divmod(int(np.argmin(delta)), n)
        if not delta[mi, x] < -1e-12:
            break
        medoids[mi] = x
        cost_path.append(float((w * D[:, medoids].min(axis=1)).sum()))
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
