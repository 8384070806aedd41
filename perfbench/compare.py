"""Compare two files of runs written by `run.py --record`.

For each workload and end-to-end metric it prints each side's median and
quartiles, the ratio of the medians (after / before), and a verdict against
the metric's bound in BENCHMARK.json: `within bound`, `worse`, `better`, or
`unresolved` when either side's quartile spread, as a share of its median, is
wider than the bound and the runs of the two sides overlap.  Traced runs give
per-layer medians and their deltas.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict


def _load(path):
    runs = defaultdict(list)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                runs[(rec["workload"], rec["trace"])].append(rec)
    return runs


def _stats(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def verdict(before, after, better: str, bound: float) -> str:
    """Classify `after` against `before` for one metric."""
    sign = 1.0 if better == "lower" else -1.0
    (mb, qb1, qb3), (ma, qa1, qa3) = _stats(before), _stats(after)
    spread = max((qb3 - qb1) / abs(mb) if mb else 0.0, (qa3 - qa1) / abs(ma) if ma else 0.0)
    if spread > bound:
        if all(sign * a < sign * b for a in after for b in before):
            return "better"
        if all(sign * a > sign * b for a in after for b in before):
            return "worse"
        return "unresolved"
    if not ma or not mb:
        return "unresolved"
    change = ma / mb - 1.0 if better == "lower" else mb / ma - 1.0
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "within bound"


def _fmt(x):
    return f"{x:.6g}"


def compare(before_path, after_path, benchmark_path) -> int:
    with open(benchmark_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    before, after = _load(before_path), _load(after_path)
    workloads = [w["name"] for w in spec["workloads"]]
    for name in workloads:
        a, b = before.get((name, 0), []), after.get((name, 0), [])
        if not a or not b:
            continue
        print(f"== {name}: {len(a)} runs before, {len(b)} after; failed/attempted "
              f"{sum(r['failed'] for r in a)}/{sum(r['attempted'] for r in a)} before, "
              f"{sum(r['failed'] for r in b)}/{sum(r['attempted'] for r in b)} after")
        print(f"  {'metric':24} {'before median [q1, q3]':36} {'after median [q1, q3]':36} "
              f"{'ratio':>9}  verdict")
        for m in spec["end_to_end"]:
            xa = [r["metrics"][m["name"]]["value"] for r in a]
            xb = [r["metrics"][m["name"]]["value"] for r in b]
            sa, sb = _stats(xa), _stats(xb)
            ratio = sb[0] / sa[0] if sa[0] else float("nan")
            cell = lambda s: f"{_fmt(s[0])} [{_fmt(s[1])}, {_fmt(s[2])}]"
            print(f"  {m['name']:24} {cell(sa):36} {cell(sb):36} {ratio:9.4f}  "
                  f"{verdict(xa, xb, m['better'], m['bound'])} (bound {m['bound']:g})")
    for name in workloads:
        a, b = before.get((name, 1), []), after.get((name, 1), [])
        if not a or not b:
            continue
        print(f"== {name} per layer: {len(a)} traced runs before, {len(b)} after")
        print(f"  {'metric':32} {'before':>14} {'after':>14} {'delta':>14} {'ratio':>9}")
        for m in spec["per_layer"]:
            ma = statistics.median(r["metrics"][m["name"]]["value"] for r in a)
            mb = statistics.median(r["metrics"][m["name"]]["value"] for r in b)
            ratio = f"{mb / ma:9.4f}" if ma else f"{'-':>9}"
            print(f"  {m['name']:32} {_fmt(ma):>14} {_fmt(mb):>14} {_fmt(mb - ma):>14} {ratio}")
    return 0
