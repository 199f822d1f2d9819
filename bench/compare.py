"""Compare two sets of benchmark records, metric by metric.

    python3 bench/compare.py BASE CHANGE

BASE and CHANGE are directories (or single files) of records written by
``run.py --out``; typically ten seeds per workload on each side, run in
pairs that alternate which side goes first.  For every workload and
metric the report gives each side's median and quartiles, the ratio of
the medians with its base, and the pair-win fraction: the share of seeds
run on both sides where the change reads better, ties counting for
neither.

The verdict follows the claim rule of this benchmark:

- ``gain``: the change wins at least 9 of 10 pairs and the medians
  differ by more than the base's quartile spread;
- ``regression``: the change's median is worse than the base's by more
  than the metric's bound in BENCHMARK.json;
- ``unresolved``: the base's own spread is wider than the bound, and
  not every change run beats every base run;
- ``same``: none of these.  Per-layer metrics have no bound, so they
  get only ``gain``, ``worse`` or ``same``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: str) -> list[dict]:
    p = Path(path)
    files = sorted(p.glob("*.json")) if p.is_dir() else [p]
    records = []
    for f in files:
        with open(f, encoding="utf-8") as fh:
            rec = json.load(fh)
        if "workload" in rec and "metrics" in rec:
            records.append(rec)
    return records


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(spec: dict, base: list[float], change: list[float], wins: int, pairs: int) -> str:
    lower = spec["better"] == "lower"
    q1, med, q3 = quartiles(base)
    _, med_c, _ = quartiles(change)
    if pairs and wins >= 0.9 * pairs and abs(med_c - med) > q3 - q1:
        return "gain"
    worse = (med_c - med) / med if lower else (med - med_c) / med
    bound = spec.get("bound")
    if bound is None:
        return "worse" if pairs and wins <= 0.1 * pairs and abs(med_c - med) > q3 - q1 else "same"
    if worse > bound:
        return "regression"
    all_better = max(change) < min(base) if lower else min(change) > max(base)
    if (q3 - q1) / med > bound and not all_better:
        return "unresolved"
    return "same"


def compare(base: list[dict], change: list[dict], specs: dict) -> list[str]:
    lines = []
    workloads = sorted({(r["workload"], r["trace"]) for r in base} & {(r["workload"], r["trace"]) for r in change})
    for workload, trace in workloads:
        b = {r["seed"]: r for r in base if (r["workload"], r["trace"]) == (workload, trace)}
        c = {r["seed"]: r for r in change if (r["workload"], r["trace"]) == (workload, trace)}
        seeds = sorted(set(b) & set(c))
        failed_b = sum(r["failed"] for r in b.values())
        failed_c = sum(r["failed"] for r in c.values())
        lines.append(
            f"\n{workload} ({'traced' if trace else 'untraced'}): {len(b)} base runs, "
            f"{len(c)} change runs, {len(seeds)} seed pairs; failed ops {failed_b} base, {failed_c} change"
        )
        lines.append(
            f"  {'metric':36} {'base median [q1, q3]':34} {'change median [q1, q3]':34} "
            f"{'change/base (base)':30} {'wins':>6}  verdict"
        )
        for name, spec in specs.items():
            bv = [r["metrics"][name] for r in b.values() if name in r["metrics"]]
            cv = [r["metrics"][name] for r in c.values() if name in r["metrics"]]
            if not bv or not cv:
                continue
            lower = spec["better"] == "lower"
            wins = sum(
                1
                for s in seeds
                if (c[s]["metrics"][name] < b[s]["metrics"][name]) == lower
                and c[s]["metrics"][name] != b[s]["metrics"][name]
            )
            qb, qc = quartiles(bv), quartiles(cv)
            unit = spec["unit"]
            ratio = f"{qc[1] / qb[1]:.4f} of {qb[1]:.6g} {unit}" if qb[1] else f"base is 0 {unit}"
            lines.append(
                f"  {name:36} {qb[1]:<11.6g}[{qb[0]:.5g}, {qb[2]:.5g}]".ljust(73)
                + f" {qc[1]:<11.6g}[{qc[0]:.5g}, {qc[2]:.5g}]".ljust(35)
                + f" {ratio:30} {wins:>2}/{len(seeds):<3}  {verdict(spec, bv, cv, wins, len(seeds))}"
            )
        if failed_c > failed_b:
            lines.append("  more ops failed on the change side: no gain counts")
    return lines


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    specs = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, change = load(args[0]), load(args[1])
    if not base or not change:
        print("error: no benchmark records found", file=sys.stderr)
        return 2
    print(f"base machine: {json.dumps(base[0].get('machine'))}")
    print(f"change machine: {json.dumps(change[0].get('machine'))}")
    print("\n".join(compare(base, change, specs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
