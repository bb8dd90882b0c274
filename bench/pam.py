"""PAM k-medoids wall time and peak RSS at several n, k = n/10 unless --k.

    PYTHONPATH=src python3 bench/pam.py --tree before=../parent/src --tree after=src
        [--sizes 500,1000,2000] [--k 200]

Random 64-dimensional Gaussian embeddings and integer multiplicity weights
from a fixed seed, clustered by the BUILD and SWAP phases of
``clinnote.normalize``. Each size runs in its own process, so its peak RSS
is that of one clustering: the interpreter and numpy, the embeddings, the
distance matrix D and the work arrays. Each ``--tree LABEL=SRC`` names a
source tree whose rows are stored under LABEL in BENCH_pam.json, replacing
that label's rows of the same n and k (other labels and rows in the file
are kept). Every size runs the trees alternately, one process each, so a
shift in the machine's load between sittings does not read as a code
change.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time

import numpy as np

from clinnote import normalize

DIM = 64
SEED = 0


def instance(n, seed=SEED):
    rng = np.random.default_rng([seed, n])
    return rng.standard_normal((n, DIM)), rng.integers(1, 4, size=n).astype(float)


def run(n, k):
    """One clustering in this process; returns its measurements."""
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
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
        "swaps": len(cost_path) - 1,
        "final_cost": cost_path[-1],
        # equal digests mean equal medoids and a bit-equal cost path
        "result_sha256": hashlib.sha256(json.dumps([medoids, cost_path]).encode()).hexdigest(),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--tree", action="append", default=[], metavar="LABEL=SRC",
                    help="a source tree to run, alternately with the other --tree ones, "
                         "and the key its results are stored under")
    ap.add_argument("--sizes", default="500,1000,2000")
    ap.add_argument("--k", type=int, help="medoids at every size (default n/10)")
    ap.add_argument("--out", default="BENCH_pam.json")
    ap.add_argument("--cell", nargs=2, type=int, metavar=("N", "K"),
                    help=argparse.SUPPRESS)  # one measured clustering, started by main
    args = ap.parse_args()
    if args.cell:
        print(json.dumps(run(*args.cell)))
        return
    if not args.tree:
        ap.error("give one --tree LABEL=SRC per source tree")
    trees = [tree.split("=", 1) for tree in args.tree]

    rows = {label: [] for label, _ in trees}
    for n in map(int, args.sizes.split(",")):
        k = args.k or n // 10
        for label, src in trees:
            done = subprocess.run([sys.executable, __file__, "--cell", str(n), str(k)],
                                  check=True, capture_output=True, text=True,
                                  env=dict(os.environ, PYTHONPATH=os.path.abspath(src)))
            rows[label].append(json.loads(done.stdout))
            print(label, json.dumps(rows[label][-1]), flush=True)

    bench = {}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            bench = json.load(fh)
    bench.update({
        "what": "PAM BUILD + SWAP wall time and peak RSS, one process per row, random "
                "64-d embeddings, weights 1-3, k = n/10 unless stated",
        "seed": SEED,
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs, numpy {np.__version__}",
    })
    results = bench.setdefault("results", {})
    for label, measured in rows.items():
        new = {(row["n"], row["k"]) for row in measured}
        kept = [row for row in results.get(label, []) if (row["n"], row["k"]) not in new]
        results[label] = sorted(kept + measured, key=lambda row: (row["n"], row["k"]))
    with open(args.out, "w") as fh:
        json.dump(bench, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
