"""The straightforward PAM that FastPAM1 in ``clinnote.normalize`` replaced.

BUILD allocates n x n per added medoid and SWAP evaluates every medoid's
removal against every candidate separately, O(k n^2) per sweep. It is kept
only as the reference the differential tests compare against.
"""

import numpy as np

from clinnote.normalize import MAX_SWAP_ITER


def pam_build(D, k, w):
    """Greedy BUILD phase: add the medoid that lowers weighted cost most."""
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


def pam_swap(D, medoids, w, cost_path):
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
