"""crcalc benchmark: one command, named workloads, checked outputs.

    python3 bench/run.py --workload lsq-fit --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload lsq-fit --seed 1 --seconds 35 --trace 1
    python3 bench/run.py --self-test

With ``--trace 0`` the workload runs untraced and the end-to-end
metrics are reported; with ``--trace 1`` a separate traced pass reports
the per-layer metrics.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; ``--out PATH`` also writes the full record (machine,
failures, per-op-kind breakdown) for ``compare.py``.

The ops run in a child process whose environment pins the BLAS thread
pools to one thread and leaves ``CRCALC_THREADS`` unset, so the library
runs with the thread pool its users get by default.  See README.md in
this directory for the workloads and what each metric predicts.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKDIR = BENCH / "_work"
WORKLOADS = ("lsq-fit", "field-solve", "lms-stream")

#: Fresh processes timed for ``setup_s``; the median is reported.
SETUP_SAMPLES = 7

#: Every invocation must end within this many seconds.
DEADLINE_S = 170.0

#: Benchmark-side call counts and the tracer counts they must equal.
CROSS_CHECKS = (
    ("bench jacobian", "span wirtinger.cogradients:jacobian"),
    ("bench field", "span wirtinger.ScalarField.__call__"),
)


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("CRCALC_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(BENCH)])
    return env


def run_worker(mode: str, workload: str, seed: int, seconds: float, timeout: float) -> dict:
    cmd = [
        sys.executable,
        str(BENCH / "worker.py"),
        f"--mode={mode}",
        f"--workload={workload}",
        f"--seed={seed}",
        f"--seconds={seconds}",
        f"--workdir={WORKDIR}",
    ]
    proc = subprocess.run(
        cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=max(timeout, 1.0)
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {mode} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_seconds(workload: str, seed: int, deadline: float) -> tuple[float, list[float]]:
    """Fresh process start through ``import crcalc`` and input generation."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.monotonic()
        ready = run_worker("setup", workload, seed, 0, deadline - time.monotonic())["ready"]
        samples.append(ready - t0)
    return statistics.median(samples), samples


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def result_line(record: dict, specs: list[dict]) -> dict:
    metrics = {}
    for spec in specs:
        metrics[spec["name"]] = {"value": record["metrics"][spec["name"]], "unit": spec["unit"]}
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }


def self_test(seed: int, deadline: float) -> int:
    """Two traced passes per workload on one seed must give equal counts.

    Also checks that the two ways of counting agree: the Jacobian and
    field calls the benchmark counts in the callables it builds equal
    the calls the tracer sees at the ``crcalc`` boundary.
    """
    ok = True
    for workload in WORKLOADS:
        first = run_worker("counts", workload, seed, 0, deadline - time.monotonic())
        second = run_worker("counts", workload, seed, 0, deadline - time.monotonic())
        a, b = first["exact_counts"], second["exact_counts"]
        diff = sorted(
            f"{kind}: {key} {a.get(kind, {}).get(key)} vs {b.get(kind, {}).get(key)}"
            for kind in set(a) | set(b)
            for key in set(a.get(kind, {})) | set(b.get(kind, {}))
            if a.get(kind, {}).get(key) != b.get(kind, {}).get(key)
        )
        cross = []
        for kind, counts in sorted(a.items()):
            for mine, seen in CROSS_CHECKS:
                if counts.get(mine) and counts[mine] != counts.get(seen):
                    cross.append(f"{kind}: {mine} {counts[mine]} != {seen} {counts.get(seen)}")
        failed = first["failed"] + second["failed"]
        status = "PASS" if not diff and not cross and not failed else "FAIL"
        ok &= status == "PASS"
        n_counts = sum(len(c) for c in a.values())
        print(f"self-test {workload}: {n_counts} counts, {len(diff)} differ, "
              f"{len(cross)} cross-check mismatches, {failed} failed ops: {status}")
        for line in diff[:10] + cross + first["failures"] + second["failures"]:
            print(f"  {line}")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="also write the full record to this JSON file")
    ap.add_argument("--self-test", action="store_true", help="check that traced counts repeat exactly")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "crcalc" / "__init__.py").is_file():
        print(f"error: no crcalc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload is None and not args.self_test:
        ap.error("--workload is required")

    try:
        if args.self_test:
            return self_test(args.seed, deadline)
        spec = load_spec()
        if args.trace:
            record = run_worker("trace", args.workload, args.seed, args.seconds, deadline - time.monotonic())
            specs = spec["per_layer"]
        else:
            setup, samples = setup_seconds(args.workload, args.seed, deadline)
            record = run_worker("run", args.workload, args.seed, args.seconds, deadline - time.monotonic())
            record["metrics"]["setup_s"] = setup
            record["setup_samples"] = samples
            specs = spec["end_to_end"]
        line = result_line(record, specs)
    except (OSError, RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
    print(f"machine: {json.dumps(record['machine'])}")
    print(f"{args.workload}: {record['attempted']} ops, {record['failed']} failed, "
          f"error_rate {record['failed'] / record['attempted']:.4g}")
    for failure in record["failures"]:
        print(f"  failure: {failure}")
    if "window" in record:
        print(f"  {record['passes']} passes over {record['attempted'] // record['passes']} ops; whole window: "
              + ", ".join(f"{k} {v:.6g}" for k, v in record["window"].items()))
    for kind, seconds in record.get("op_s_p50_by_kind", {}).items():
        print(f"  {kind}: op_s.p50 {seconds:.6g}")
    picks = ("lsq.model_jacobian_evals_per_op", "lsq.newton_hessian_calls_per_op",
             "optim.iterations_per_op", "wirtinger.field_evals_per_op")
    for kind, metrics in sorted(record.get("by_kind", {}).items()):
        print(f"  {kind}: " + ", ".join(f"{k} {metrics[k]:.6g}" for k in picks))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
