"""The per-fold TF-IDF that ``clinnote.predict``'s count matrix replaced.

Each fold counted its training notes' term sets again in ``fit_vectorizer``
and looked every token up in the vocabulary again in ``transform``. It is
kept only as the reference the differential tests compare against: the
count-matrix features must equal its CSR arrays in dtype and value.
"""

import hashlib
import math
import re
from collections import Counter
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from clinnote.errors import InvalidInput, NoEstimate
from clinnote.predict import MIN_DF, CsrMatrix

_TOKEN_RE = re.compile(r"[a-z0-9]+")
MIN_TOKEN_LEN = 2
TRANSFORM_CHUNK = 8  # documents whose token keys are sorted together


def tokenize(text):
    """Lowercased maximal alphanumeric runs of length >= 2."""
    return [t for t in _TOKEN_RE.findall(text.lower()) if len(t) >= MIN_TOKEN_LEN]


def _as_tokens(docs):
    """Vectorizer documents are token lists, or texts that are tokenized here."""
    return [tokenize(doc) if isinstance(doc, str) else doc for doc in docs]


@dataclass
class Vectorizer:
    vocabulary: dict  # term -> column index
    idf: np.ndarray

    @property
    def vocabulary_hash(self) -> str:
        terms = sorted(self.vocabulary, key=self.vocabulary.get)
        return hashlib.sha256("\x00".join(terms).encode()).hexdigest()

    def transform(self, docs) -> CsrMatrix:
        """tf * idf rows, L2-normalized (rows with no known term stay empty)."""
        n, d = len(docs), len(self.vocabulary)
        counts, indices, data = [], [], []
        for start in range(0, max(n, 1), TRANSFORM_CHUNK):  # one pass when n == 0
            chunk = _as_tokens(docs[start:start + TRANSFORM_CHUNK])
            # one key per token, row * (d + 1) + column, where column d stands
            # for every out-of-vocabulary token; sorting runs equal keys together
            keys = np.repeat(np.arange(len(chunk)) * (d + 1), [len(tokens) for tokens in chunk])
            keys += np.fromiter(map(self.vocabulary.get, chain.from_iterable(chunk), repeat(d)),
                                dtype=np.int64, count=len(keys))
            keys.sort(kind="stable")
            starts = np.flatnonzero(np.diff(keys, prepend=-1))
            rows, cols = np.divmod(keys[starts], d + 1)
            known = cols < d
            rows, cols = rows[known], cols[known]
            vals = np.diff(starts, append=len(keys))[known] * self.idf[cols]
            vals /= np.sqrt(np.bincount(rows, weights=vals * vals, minlength=len(chunk)))[rows]
            counts.append(np.bincount(rows, minlength=len(chunk)))
            indices.append(cols)
            data.append(vals)
        indptr = np.concatenate(([0], np.cumsum(np.concatenate(counts))))
        return CsrMatrix(indptr, np.concatenate(indices), np.concatenate(data), (n, d))


def fit_vectorizer(train_docs) -> Vectorizer:
    """Vocabulary = tokens in >= 2 training docs; idf = ln((1+N)/(1+df)) + 1."""
    if len(train_docs) < 2:
        raise InvalidInput("need at least 2 training documents")
    df = Counter()
    for tokens in _as_tokens(train_docs):
        df.update(set(tokens))
    terms = sorted(t for t, c in df.items() if c >= MIN_DF)
    if not terms:
        raise NoEstimate("no token appears in >= 2 training documents")
    n = len(train_docs)
    vocabulary = {t: i for i, t in enumerate(terms)}
    idf = np.array([math.log((1 + n) / (1 + df[t])) + 1.0 for t in terms])
    return Vectorizer(vocabulary=vocabulary, idf=idf)
