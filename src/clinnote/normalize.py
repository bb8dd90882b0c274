"""SDOH normalization: cluster free-text entries, synthesize a category
scheme with the LLM, and label every entry with one category.

Clustering is exact PAM (greedy BUILD, then steepest-descent SWAP with
each sweep priced by FastPAM1) on cosine distances between text
embeddings. Duplicate entries are collapsed before clustering and their
multiplicity weights the medoid cost.
"""

from __future__ import annotations

import json
import logging
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInput, ParseFailure, ReplyUnusable, SchemeSynthesisFailed
from .extraction import UNCHARTED_KEYS
from .gateway import chat_with_repair, find_json
from .prompts import load_prompt

log = logging.getLogger(__name__)

# gender and age are already standardized and bypass normalization
NORMALIZED_VARIABLES = ("language", "marital_status") + UNCHARTED_KEYS

FALLBACK_LABEL = "Unknown/Other"
MIN_CATEGORIES = 2
MAX_CATEGORIES = 12
MAX_SWAP_ITER = 100
# distinct SDOH texts per labeler request
LABEL_BATCH = 20
# bytes of one PAM work block: BUILD and SWAP compute their work arrays
# B = PAM_BLOCK_BYTES / (8 n) rows at a time, so a clustering holds D plus
# O(B n) floats. A block this size stays in cache, which halves BUILD's time
# at n = 2 000, and up to n = 256 one block holds all n rows.
PAM_BLOCK_BYTES = 1 << 19


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
    D = En @ En.T  # the one n x n array: the steps below work in place
    np.subtract(1.0, D, out=D)
    np.fill_diagonal(D, 0.0)
    return np.clip(D, 0.0, 2.0, out=D)


def _block_rows(n):
    """Rows of an n-column work block that fit in PAM_BLOCK_BYTES, at least 1."""
    return max(1, PAM_BLOCK_BYTES // (8 * n))


def _sum_rows(block, total, running):
    """Set ``total`` to the column sums of ``block``, added to it if ``running``.

    numpy sums axis 0 of a C-ordered array of two or more columns one row
    at a time, so blocks that each start from the running total add every
    row in the order of one sum over all of them: the result is bit-equal.
    """
    if running:
        block[0] += total
    block.sum(axis=0, out=total)


def _column_strips(n, rows, step):
    """Column ranges for a block of ``rows`` rows: all n columns if the block
    fits in ``step`` rows, else strips of at least 2 columns (numpy sums a
    single column pairwise, not row after row) holding about step * n values.
    """
    if rows <= step:
        return [(0, n)]
    count = max(1, n // max(2, step * n // rows))
    edges = [n * i // count for i in range(count + 1)]
    return list(zip(edges, edges[1:]))


def _build_gains(D, nearest, w):
    """Each candidate's BUILD gain, the sum of w * max(0, nearest - D[:, c]).

    A cache-sized block of rows at a time, so D is read once per call.
    """
    n = D.shape[0]
    step = _block_rows(n)
    buf = np.empty((min(step, n), n))
    gains = np.empty(n)
    for r0 in range(0, n, step):
        r1 = min(r0 + step, n)
        block = buf[:r1 - r0]
        np.subtract(nearest[r0:r1, None], D[r0:r1], out=block)
        np.maximum(block, 0.0, out=block)
        block *= w[r0:r1, None]
        _sum_rows(block, gains, r0 > 0)
    return gains


def _pam_build(D, k, w):
    """Greedy BUILD phase: add the medoid that lowers weighted cost most."""
    first = int(np.argmin(D @ w))
    medoids = [first]
    nearest = D[:, first].copy()
    while len(medoids) < k:
        gains = _build_gains(D, nearest, w)
        gains[medoids] = -np.inf
        c = int(np.argmax(gains))
        medoids.append(c)
        np.minimum(nearest, D[:, c], out=nearest)
    return medoids


def _swap_deltas(D, medoids, w):
    """The k x n cost changes of replacing each medoid by each candidate.

    FastPAM1 (Schubert & Rousseeuw, SISAP 2019): one O(n^2) pass gives the
    cost change of all k x n swaps. With d1 and d2 a point's distances to
    its nearest and second-nearest medoid, replacing medoid ``mi`` by
    candidate ``x`` changes the cost by a gain shared by every medoid, the
    sum over all points of w * min(D[:, x] - d1, 0), plus the removal loss
    of ``mi``, the sum over its cluster of w * min(max(D[:, x] - d1, 0),
    d2 - d1).

    The rows of D, grouped by cluster, are read in blocks of whole clusters
    of at most ``_block_rows(n)`` rows. A cluster's removal loss comes from
    one ``np.add.reduceat`` call over all its rows, since reduceat does not
    add rows in sequence; a larger cluster is a block of its own, read in
    column strips.
    """
    n, k = D.shape[0], len(medoids)
    rows = np.arange(n)
    cols = D[:, medoids]
    n1 = cols.argmin(axis=1)  # position in medoids of the nearest one
    # each medoid in its own cluster (it is at distance 0 from itself),
    # so no cluster is empty; a tie has a zero removal loss either way
    n1[medoids] = np.arange(k)
    d1 = cols[rows, n1]
    cols[rows, n1] = np.inf
    d2 = cols.min(axis=1) if k > 1 else cols[:, 0]
    gap = d2 - d1

    order = np.argsort(n1, kind="stable")
    sizes = np.bincount(n1, minlength=k)
    ends = np.cumsum(sizes)
    starts = ends - sizes  # first row of each cluster in order
    step = _block_rows(n)
    gain = np.empty(n)
    delta = np.empty((k, n))
    wbuf = tbuf = np.empty(0)  # work arrays reused by every block: fresh ones cost 40%
    c0 = 0
    while c0 < k:  # blocks of whole clusters [c0, c1), rows [r0, r1) of order
        r0 = starts[c0]
        c1 = max(c0 + 1, int(np.searchsorted(ends, r0 + step, side="right")))
        r1 = ends[c1 - 1]
        idx = order[r0:r1]
        wo = w[idx, None]
        for x0, x1 in _column_strips(n, r1 - r0, step):
            shape = (r1 - r0, x1 - x0)
            size = shape[0] * shape[1]
            if shape[1] < n:  # np.take would first copy all n rows of the strip
                work = D[idx, x0:x1]
            else:
                if wbuf.size < size:
                    wbuf = np.empty(size)
                # mode "raise" would buffer a copy
                work = np.take(D, idx, axis=0, out=wbuf[:size].reshape(shape), mode="clip")
            if tbuf.size < size:
                tbuf = np.empty(size)
            terms = tbuf[:size].reshape(shape)
            work -= d1[idx, None]
            np.minimum(work, 0.0, out=terms)
            terms *= wo
            _sum_rows(terms, gain[x0:x1], r0 > 0)
            np.maximum(work, 0.0, out=work)
            np.minimum(work, gap[idx, None], out=work)
            work *= wo
            np.add.reduceat(work, starts[c0:c1] - r0, axis=0, out=delta[c0:c1, x0:x1])
        c0 = c1
    delta += gain
    return delta


def _pam_swap(D, medoids, w, cost_path):
    """Steepest-descent SWAP until no improving swap or the iteration cap.

    Each sweep prices every swap with ``_swap_deltas``. The best swap has
    the lowest change, ties going to the lowest medoid position, then
    candidate.
    """
    n = D.shape[0]
    medoids = list(medoids)
    for _ in range(MAX_SWAP_ITER):
        delta = _swap_deltas(D, medoids, w)
        delta[:, medoids] = np.inf
        mi, x = divmod(int(np.argmin(delta)), n)
        if not delta[mi, x] < -1e-12:
            break
        medoids[mi] = x
        cost_path.append(float((w * D[:, medoids].min(axis=1)).sum()))
    return medoids


def cluster_entries(entries, k, embeddings, weights=None):
    """PAM k-medoids over deduplicated entry texts, one embedding row each.

    Result is deterministic given the inputs.
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
    w = np.asarray(weights if weights is not None else np.ones(n), dtype=float)

    D = cosine_distance_matrix(embeddings)
    medoids = _pam_build(D, k, w)
    cost_path = [float((w * D[:, medoids].min(axis=1)).sum())]
    medoids = _pam_swap(D, medoids, w, cost_path)

    return MedoidClustering(
        k=k,
        assignments=D[:, medoids].argmin(axis=1),
        medoid_indices=medoids,
        total_cost=cost_path[-1],  # the final medoids' cost
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
        if not all(label.strip() for label in labels):
            raise SchemeSynthesisFailed(f"{self.variable}: blank category label")
        fallbacks = [l for l in labels if FALLBACK_LABEL in l]
        if len(fallbacks) != 1:
            raise SchemeSynthesisFailed(
                f"{self.variable}: expected exactly one fallback category"
            )

    def fallback(self) -> str:
        return next(l for l in self.labels() if FALLBACK_LABEL in l)


@dataclass
class LabeledEntry:
    hadm_id: str
    variable: str
    raw_text: str
    assigned_category: str
    status: str = "ok"  # ok | fallback


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
    """Assign each (hadm_id, raw_text) entry to one scheme category.

    Each distinct text is asked once; entries that share it share the
    reply. The texts go ``LABEL_BATCH`` to a request, as one JSON object of
    numbered entries (batch prompting: Cheng, Kasai & Yu, EMNLP 2023). A
    text is asked alone, in the one-entry request, when its chunk holds one
    text, when the batch reply is unusable, or when the batch reply gives
    it no allowed label. The requests sent and the texts asked alone after a
    batch are added to ``scheme.provenance``.
    """
    single = load_prompt("labeler")
    batch = load_prompt("labeler_batch")
    cat_lines = "\n".join(
        f"- {c['label']}: {c['description']}" for c in scheme.categories
    )
    example_lines = "\n".join(
        f"- {label}: e.g. {'; '.join(examples[:3])}"
        for label, examples in scheme.medoid_examples.items()
        if examples
    )
    header = (
        f"Variable: {scheme.variable}\n"
        f"Allowed categories:\n{cat_lines}\n"
        + (f"Category examples:\n{example_lines}\n" if example_lines else "")
    )
    labels = set(scheme.labels())

    def label(raw_text):
        """The stripped reply for one entry text."""
        # every reply parses; off-scheme ones map to the fallback below
        return chat_with_repair(
            gateway, single.text, f"{header}Entry: {raw_text}",
            lambda raw: raw.strip().strip('"'),
            "Reply with one allowed category label only.",
        )

    def label_chunk(chunk):
        """The batch reply for a chunk of texts, or {} if it is unusable."""
        items = json.dumps({str(i): t for i, t in enumerate(chunk, 1)}, ensure_ascii=False)
        try:
            return chat_with_repair(
                gateway, batch.text, f"{header}Entries:\n{items}",
                lambda raw: find_json(raw, dict),
                "Return only a JSON object mapping every entry number to one allowed "
                "category label.",
            )
        except ReplyUnusable as exc:  # every text of the chunk is asked alone
            log.warning("batch labeling reply unusable for %s: %s", scheme.variable, exc)
            return {}

    texts = list(dict.fromkeys(text for _, text in entries))
    chunks = [texts[i:i + LABEL_BATCH] for i in range(0, len(texts), LABEL_BATCH)]
    batched = [chunk for chunk in chunks if len(chunk) > 1]
    replies = {}
    for chunk, got in zip(batched, gateway.map(label_chunk, batched)):
        for i, text in enumerate(chunk, 1):
            reply = got.get(str(i))
            if isinstance(reply, str) and reply.strip() in labels:
                replies[text] = reply.strip()
    # one-text chunks, and texts the batch reply gave no allowed label
    alone = [text for text in texts if text not in replies]
    replies.update(zip(alone, gateway.map(label, alone)))
    retried = len(alone) - (len(chunks) - len(batched))  # less the one-text chunks
    provenance = scheme.provenance
    provenance["label_requests"] = provenance.get("label_requests", 0) + len(batched) + len(alone)
    provenance["label_retried_alone"] = provenance.get("label_retried_alone", 0) + retried
    out = []
    off_scheme = 0
    for hadm_id, raw_text in entries:
        reply = replies[raw_text]
        if reply in labels:
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


def cluster_variable(gateway, entries, k=200):
    """PAM over one variable's distinct entry texts, in sorted order, each
    weighted by how many entries share it; the embeddings come through the
    gateway (the normalize stage has cached them all)."""
    counts = Counter(t for _, t in entries)
    uniq = sorted(counts)
    weights = np.array([counts[t] for t in uniq], dtype=float)
    return cluster_entries(uniq, min(k, len(uniq)), gateway.embed(uniq), weights=weights)


def normalize_variable(gateway, variable, entries, clustering):
    """Scheme synthesis and labeling for one variable clustered by
    ``cluster_variable``.

    ``entries`` is a list of (hadm_id, raw_text) with possible duplicate
    texts; every entry gets labeled.
    """
    uniq = sorted({t for _, t in entries})
    medoid_texts = [uniq[i] for i in clustering.medoid_indices]
    scheme = synthesize_scheme(gateway, variable, medoid_texts)
    # attach medoid examples per category by labeling the medoids first
    medoid_labels = label_entries(
        gateway, scheme, [("", t) for t in medoid_texts]
    )
    for entry in medoid_labels:
        scheme.medoid_examples.setdefault(entry.assigned_category, []).append(entry.raw_text)
    labeled = label_entries(gateway, scheme, entries)
    return scheme, labeled
