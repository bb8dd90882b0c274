"""PAM k-medoids wall times at n in {500, 1000, 2000}, k = n/10.

    PYTHONPATH=src python3 bench/pam.py --label after [--sizes 500,1000,2000]

Random 64-dimensional Gaussian embeddings and integer multiplicity weights
from a fixed seed, clustered by the BUILD and SWAP phases of
``clinnote.normalize``. The results are stored under ``--label`` in
BENCH_pam.json (other labels in the file are kept), so numbers for two
versions of the code can sit side by side: run the script once per
checkout, with PYTHONPATH pointing at that checkout's ``src``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import time

import numpy as np

from clinnote import normalize

DIM = 64
SEED = 0


def instance(n, seed=SEED):
    rng = np.random.default_rng([seed, n])
    return rng.standard_normal((n, DIM)), rng.integers(1, 4, size=n).astype(float)


def run(n, k):
    E, w = instance(n)
    D = normalize.cosine_distance_matrix(E)
    start = time.perf_counter()
    medoids = normalize._pam_build(D, k, w)
    built = time.perf_counter()
    cost_path = [float((w * D[:, medoids].min(axis=1)).sum())]
    medoids = normalize._pam_swap(D, medoids, w, cost_path)
    done = time.perf_counter()
    return {
        "n": n,
        "k": k,
        "build_s": round(built - start, 3),
        "swap_s": round(done - built, 3),
        "total_s": round(done - start, 3),
        "swaps": len(cost_path) - 1,
        "final_cost": cost_path[-1],
        # equal digests mean equal medoids and a bit-equal cost path
        "result_sha256": hashlib.sha256(json.dumps([medoids, cost_path]).encode()).hexdigest(),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True, help="key the results are stored under")
    ap.add_argument("--sizes", default="500,1000,2000")
    ap.add_argument("--out", default="BENCH_pam.json")
    args = ap.parse_args()

    rows = []
    for n in map(int, args.sizes.split(",")):
        rows.append(run(n, n // 10))
        print(json.dumps(rows[-1]), flush=True)

    bench = {}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            bench = json.load(fh)
    bench.update({
        "what": "PAM BUILD + SWAP wall time, random 64-d embeddings, weights 1-3, k = n/10",
        "seed": SEED,
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs, numpy {np.__version__}",
    })
    bench.setdefault("results", {})[args.label] = rows
    with open(args.out, "w") as fh:
        json.dump(bench, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
