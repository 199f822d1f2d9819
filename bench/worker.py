"""Benchmark worker: runs one workload in this process and prints one JSON record.

Started by ``run.py`` with the BLAS thread pins in its environment and
``src`` on its path.  Modes:

- ``setup``: import, generate the inputs, print the monotonic clock.
- ``run``: warm up, then run passes over the workload's rotation in a
  closed loop until the summed op time reaches ``--seconds``.  Each op
  is timed once per pass; the metrics take each op's best pass.
- ``trace``: alternate untraced and traced cycles of the workload's
  first ops until ``--seconds`` pass, and report per-layer numbers.
- ``counts``: one traced cycle, reporting only the exact counts.

The record is the last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from collections import Counter

import numpy as np

import crcalc
import tracer as tracing
import workloads

def _run_op(op):
    if op.prepare is not None:
        op.prepare()
    t0 = time.perf_counter()
    try:
        out, exc = op.run(), None
    except Exception as err:  # a failed op is counted, not fatal
        out, exc = None, err
    return out, exc, time.perf_counter() - t0


def _verdict(op, out, exc) -> str | None:
    if exc is not None:
        return f"{type(exc).__name__}: {exc}"
    try:
        return op.check(out)
    except Exception:
        return "check raised: " + traceback.format_exc(limit=2)


def _quantiles(times: list[float]) -> tuple[float, float]:
    if len(times) < 2:
        return times[0], times[0]
    return statistics.median(times), statistics.quantiles(times, n=10)[8]


def timed_window(wl, seconds: float) -> dict:
    """Whole passes over the rotation until the summed op time reaches ``seconds``.

    On a shared host, interference from other tenants only ever adds
    time to an op, in phases of seconds to tens of seconds.  So each op
    of the rotation is summarised by its best pass, and the metrics are
    taken over those best times: ``op_s.p50`` and ``op_s.p90`` over the
    rotation's ops, ``ops_per_s`` as the rotation's length over their
    sum.  The raw per-op figures of the whole window are kept in the
    record as ``window``.
    """
    ops = wl.ops
    passes: list[list[float]] = []
    failures: list[str] = []
    busy = 0.0
    while busy < seconds:
        times = []
        for slot, op in enumerate(ops):
            out, exc, dt = _run_op(op)
            busy += dt
            times.append(dt)
            reason = _verdict(op, out, exc)
            if reason:
                failures.append(f"pass {len(passes)} op {slot} {op.kind}: {reason}")
        passes.append(times)
    best = [min(column) for column in zip(*passes)]
    p50, p90 = _quantiles(best)
    every = [t for times in passes for t in times]
    raw_p50, raw_p90 = _quantiles(every)
    kinds = sorted({op.kind for op in ops})
    return {
        "attempted": len(every),
        "failed": len(failures),
        "failures": failures[:20],
        "passes": len(passes),
        "op_s_p50_by_kind": {
            kind: statistics.median(t for t, op in zip(best, ops) if op.kind == kind) for kind in kinds
        },
        "op_times": [[op.kind, t] for times in passes for op, t in zip(ops, times)],
        "window": {"op_s.p50": raw_p50, "op_s.p90": raw_p90, "ops_per_s": len(every) / busy},
        "metrics": {
            "op_s.p50": p50,
            "op_s.p90": p90,
            "ops_per_s": len(best) / sum(best),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
    }


def _merge(into: dict, part: dict) -> None:
    for key, (calls, incl, self_) in part["spans"].items():
        span = into["spans"][key]
        span[0] += calls
        span[1] += incl
        span[2] += self_
    for key, (calls, incl) in part["edges"].items():
        edge = into["edges"][key]
        edge[0] += calls
        edge[1] += incl
    for key, value in part["counters"].items():
        if key.endswith(".peak_bytes"):
            into["counters"][key] = max(into["counters"][key], value)
        else:
            into["counters"][key] += value


def layer_metrics(stats: dict, n_ops: int) -> dict:
    """The per-layer metrics of BENCHMARK.json from merged span statistics."""
    spans, edges, counters = stats["spans"], stats["edges"], stats["counters"]

    def calls(*keys):
        return sum(spans[k][0] for k in keys if k in spans) / n_ops

    def incl(*keys):
        return sum(spans[k][1] for k in keys if k in spans) / n_ops

    def edge(field, parent, *keys):
        return sum(edges[(parent, k)][field] for k in keys if (parent, k) in edges)

    out = {}
    for layer in tracing.LAYERS:
        keys = [k for k in spans if k.split(".", 1)[0] == layer]
        out[f"{layer}.self_s_per_op"] = sum(spans[k][2] for k in keys) / n_ops
        out[f"{layer}.calls_per_op"] = sum(spans[k][0] for k in keys) / n_ops
    steps = counters.get("lms.steps", 0.0)
    loop_s = sum(spans[k][1] for k in ("lms.simulate",) if k in spans) - edge(
        1, "lms.simulate", "lms.draw_signals"
    )
    out.update(
        {
            "lsq.problem_build_s": incl("lsq.LsqProblem.__init__"),
            "lsq.problem_build_peak_mb": counters.get("lsq.LsqProblem.__init__.peak_bytes", 0.0) / 2**20,
            "lsq.newton_hessian_s": incl("lsq.newton_hessian"),
            "lsq.newton_hessian_calls_per_op": calls("lsq.newton_hessian"),
            "lsq.model_jacobian_evals_per_op": calls("wirtinger.cogradients:jacobian"),
            "optim.descent_step_s": incl("optim.descent_step"),
            "optim.check_minimum_s": incl("optim.check_minimum"),
            "optim.iterations_per_op": counters.get("optim.iterations", 0.0) / n_ops,
            "optim.loss_evals_per_op": edge(
                0, "optim.minimize", "lsq.loss", "wirtinger.ScalarField.__call__"
            )
            / n_ops,
            "wirtinger.cogradient_evals_per_op": calls(
                "wirtinger.cogradients", "wirtinger.cogradients:jacobian"
            ),
            "wirtinger.field_evals_per_op": calls(
                "wirtinger.ScalarField.__call__", "wirtinger.VectorField.__call__"
            ),
            "hessian.hessian_quad_fd_s": incl("hessian.hessian_quad:fd"),
            "coords.project_admissible_s": incl("coords.project_admissible"),
            "lms.step_us": loop_s / steps * 1e6 if steps else 0.0,
            "lms.draw_signals_s": incl("lms.draw_signals"),
            "cli.config_s": incl("cli.load_config", "cli.build_run_config"),
            "cli.trace_write_s": incl("cli._write_lms_trace", "cli._write_optimize_trace"),
        }
    )
    return out


def _exact_counts(stats: dict, ops: int, bench_calls: dict) -> dict:
    """Every count of a traced pass that must repeat exactly for one seed."""
    counts = {"ops": ops}
    counts.update({f"span {k}": v[0] for k, v in stats["spans"].items()})
    counts.update({f"edge {a}->{b}": v[0] for (a, b), v in stats["edges"].items()})
    counts.update(
        {f"counter {k}": v for k, v in stats["counters"].items() if not k.endswith(".peak_bytes")}
    )
    counts.update({f"bench {k}": v for k, v in bench_calls.items()})
    return counts


def traced_cycles(wl, seconds: float, only_once: bool) -> dict:
    """Alternate untraced and traced cycles over ``wl.ops[:wl.cycle]``."""
    tracer = tracing.Tracer(crcalc)
    cycle = wl.ops[: wl.cycle]
    per_kind: dict[str, dict] = {}
    kind_ops: dict[str, int] = {}
    bench_calls: dict[str, Counter] = {}
    plain_times: list[float] = []
    traced_times: list[float] = []
    failures: list[str] = []
    attempted = 0
    discard = tracing.new_stats()
    start = time.perf_counter()
    while True:
        if not only_once:
            for op in cycle:
                out, exc, dt = _run_op(op)
                plain_times.append(dt)
                reason = _verdict(op, out, exc)
                if reason:
                    failures.append(f"untraced {op.kind}: {reason}")
                attempted += 1
        tracer.install()
        try:
            for op in cycle:
                stats = per_kind.setdefault(op.kind, tracing.new_stats())
                tracer.stats = stats
                before = dict(wl.calls)
                if op.prepare is not None:
                    op.prepare()
                t0 = time.perf_counter()
                out, exc = tracer.root(op.run)
                traced_times.append(time.perf_counter() - t0)
                kind_calls = bench_calls.setdefault(op.kind, Counter())
                for name, value in wl.calls.items():
                    kind_calls[name] += value - before.get(name, 0)
                kind_ops[op.kind] = kind_ops.get(op.kind, 0) + 1
                # Checks may call crcalc; keep their spans out of the op's.
                tracer.stats = discard
                reason = _verdict(op, out, exc)
                if reason:
                    failures.append(f"traced {op.kind}: {reason}")
                attempted += 1
        finally:
            tracer.uninstall()
        if only_once or time.perf_counter() - start >= seconds:
            break

    merged = tracing.new_stats()
    for stats in per_kind.values():
        _merge(merged, stats)
    n_traced = len(traced_times)
    metrics = layer_metrics(merged, n_traced)
    if plain_times:
        metrics["trace.overhead"] = statistics.median(traced_times) / statistics.median(plain_times)
    by_kind = {kind: layer_metrics(per_kind[kind], kind_ops[kind]) for kind in per_kind}
    return {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "metrics": metrics,
        "by_kind": by_kind,
        "traced_ops": n_traced,
        "exact_counts": {
            kind: _exact_counts(per_kind[kind], kind_ops[kind], bench_calls[kind]) for kind in per_kind
        },
    }


def machine() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        blas = {k: {f: v.get(f) for f in ("name", "version", "openblas configuration")} for k, v in deps.items()}
    except TypeError:  # numpy before 1.26 has no mode argument
        blas = "unavailable"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "CRCALC_THREADS")},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "run", "trace", "counts"), required=True)
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)

    os.makedirs(args.workdir, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=args.workdir)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        if args.mode == "setup":
            record = {"ready": time.monotonic()}
        else:
            if args.mode in ("run", "trace"):
                for op in wl.ops[: wl.cycle]:  # warm-up, untimed and unchecked
                    _run_op(op)
            if args.mode == "run":
                record = timed_window(wl, args.seconds)
            else:
                record = traced_cycles(wl, args.seconds, only_once=args.mode == "counts")
        if args.mode != "setup":
            record["machine"] = machine()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
