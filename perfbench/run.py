"""clinnote benchmark: full mock pipeline runs on generated cohorts.

    python3 perfbench/run.py --workload fixture_cold --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from its
`src/` directory. Each run is closed-loop: one pipeline at a time, each in
a fresh process (`worker.py`), with a fresh run dir and cache, until
`--seconds` have passed. Set-up (generating the input CSVs from `--seed`)
is repeated and timed separately.

With `--trace 0` the end-to-end metrics are medians over the runs. With
`--trace 1` every other run is traced and the per-layer metrics are
medians over the traced runs; their spans are written under
`.perfbench_out/traces/`. The last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`; the exit code is 1 when
any correctness check fails and 2 when the checkout has no program.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

END_TO_END = (("run_s", "s"), ("peak_rss_mb", "MB"), ("llm_calls", "count"),
              ("disk_mb", "MB"), ("ok_ops_ratio", "ratio"), ("setup_s", "s"))
SETUP_REPEATS = 5
RUN_TIMEOUT_S = 150
# stop starting runs once one more could end past this many seconds
PROCESS_BUDGET_S = 165


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def set_up(workloads, name, seed, work):
    """Set up SETUP_REPEATS times; returns (input dir, seconds each).

    One set-up generates the input CSVs and starts a fresh interpreter that
    imports the program, the fixed cost every measured run pays before its
    clock starts. Every repeat must write byte-identical inputs, since they
    depend on the seed alone.
    """
    times, dirs = [], []
    for i in range(SETUP_REPEATS):
        d = work / f"inputs-{i}"
        start = time.perf_counter()
        workloads.generate(name, seed, str(d))
        subprocess.run([sys.executable, "-c", "import clinnote.pipeline"],
                       env=worker_env(), check=True, timeout=RUN_TIMEOUT_S)
        times.append(time.perf_counter() - start)
        dirs.append(d)
    names = sorted(os.listdir(dirs[0]))
    for d in dirs[1:]:
        _, mismatch, errors = filecmp.cmpfiles(dirs[0], d, names, shallow=False)
        if mismatch or errors:
            raise SystemExit(f"input generation is not deterministic: {mismatch + errors}")
        shutil.rmtree(d)
    return dirs[0], times


def run_once(spec):
    """One pipeline run in a fresh interpreter; returns its result dict."""
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
            capture_output=True, text=True, env=worker_env(), timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"errors": [f"pipeline run took over {RUN_TIMEOUT_S} s"]}
    if proc.returncode != 0:
        return {"errors": [f"pipeline run exited with {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}"]}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def expected_hash(name, seed):
    with open(HERE / "expected_hashes.json") as fh:
        return json.load(fh).get(name, {}).get(str(seed))


def bench_workload(name, args, started):
    """Set up and measure one workload; returns (attempted, failed, errors, metrics)."""
    import layers
    import workloads

    work = OUT / f"work-{os.getpid()}-{name}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        inputs, setup_times = set_up(workloads, name, args.seed, work)
        results, longest, i = [], 0.0, 0
        measure_start = time.perf_counter()
        while True:
            traced = bool(args.trace) and i % 2 == 0
            spec = {
                "workload": name, "seed": args.seed, "index": i, "trace": traced,
                "inputs": str(inputs), "work_dir": str(work / f"run-{i}"),
                "spans_path": str(OUT / "traces" / f"{name}-seed{args.seed}.jsonl"),
            }
            if traced:
                (OUT / "traces").mkdir(parents=True, exist_ok=True)
            t0 = time.perf_counter()
            res = run_once(spec)
            longest = max(longest, time.perf_counter() - t0)
            shutil.rmtree(work / f"run-{i}", ignore_errors=True)
            res["traced"] = traced
            results.append(res)
            label = f"{name}: run {i}" + (" traced" if traced else "")
            print(f"{label}: run_s {res['run_s']:.4f} s" if "run_s" in res else f"{label}: failed")
            i += 1
            kinds_done = not args.trace or len({r["traced"] for r in results}) == 2
            if time.perf_counter() - measure_start >= args.seconds and kinds_done:
                break
            if time.perf_counter() - started + longest > PROCESS_BUDGET_S and kinds_done:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    errors = [e for r in results for e in r["errors"]]
    ok = [r for r in results if not r["errors"]]
    failed = len(results) - len(ok)
    hashes = {r["report_hash"] for r in ok}
    if len(hashes) > 1:
        errors.append(f"report_hash differs between runs of one seed: {sorted(hashes)}")
    want = expected_hash(name, args.seed)
    if want and hashes and hashes != {want}:
        errors.append(f"report_hash {sorted(hashes)} differs from the recorded {want}")
    print(f"{name}: report_hash {' '.join(sorted(hashes)) or '-'} "
          f"(recorded: {want or 'none for this seed'})")

    metrics = {}
    plain = [r for r in ok if not r["traced"]]
    if args.trace:
        traced = [r for r in ok if r["traced"]]
        if traced and plain:
            for metric, unit, _ in layers.METRICS:
                if metric == "trace.overhead_s":
                    value = (statistics.median(r["run_s"] for r in traced)
                             - statistics.median(r["run_s"] for r in plain))
                else:
                    value = statistics.median(r["layers"][metric] for r in traced)
                metrics[metric] = {"value": value, "unit": unit}
    elif plain:
        for metric, unit in END_TO_END:
            values = setup_times if metric == "setup_s" else [r[metric] for r in plain]
            metrics[metric] = {"value": statistics.median(values), "unit": unit}
    for metric, m in metrics.items():
        print(f"{name}: {metric} = {m['value']:.6g} {m['unit']}")
    return len(results), failed, errors, metrics


def main(argv=None):
    args = parse_args(argv)
    started = time.perf_counter()
    if not (SRC / "clinnote" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'clinnote'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        print(f"error: unknown workload {unknown[0]!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2

    attempted = failed = 0
    errors, metrics = [], {}
    for name in names:
        a, f, e, m = bench_workload(name, args, started if len(names) == 1 else time.perf_counter())
        attempted, failed, errors = attempted + a, failed + f, errors + e
        prefix = "" if len(names) == 1 else name + "."
        metrics.update({prefix + k: v for k, v in m.items()})
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    correct = not errors and failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
