"""Compare benchmark runs of a parent commit and a change.

Usage::

    python3 benchmarks/e2e/run.py compare PARENT.jsonl CHANGE.jsonl

Each file holds the records ``run.py --json`` appended, one per workload run.
Runs pair up in file order per workload and trace mode: the i-th parent run
of a workload with the i-th change run.  Run the pairs alternating which side
goes first, at least ten of them, on a seed not used while writing the
change.

For each (workload, metric) row the table gives both sides' median and
quartiles, the share of pairs the change won (ties count for neither) and a
verdict:

* host-time and memory metrics (``end_to_end`` in ``BENCHMARK.json``):
  ``improved`` when the change wins at least 9/10 of at least ten pairs and
  the medians differ by more than the parent's quartile spread; else
  ``unresolved`` when the parent's spread is wider than the bound, unless
  every change run beats every parent run; else ``regressed`` when the
  change's median is worse by more than the bound; else ``within bound``;
* simulated outcomes and ``.calls`` counts repeat exactly for a seed, so a
  pair with equal seeds must agree bit for bit: ``identical`` or ``changed``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parents[2]
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(path: str) -> List[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


#: Metrics measured on the host clock or allocator; every other metric is
#: a count or a simulated outcome and repeats exactly for a seed.
HOST_METRICS = ("setup_s", "setup_wall_s", "pass_s", "wall_s", "host_speed",
                "peak_rss_mb", "cmds_per_s", "trace.overhead_pct")


def is_exact(name: str) -> bool:
    return name not in HOST_METRICS and not name.endswith(".self_share")


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: List[float], change: List[float], better: str,
            bound: float) -> Tuple[str, float]:
    """(verdict, win share) for one bounded metric over paired runs."""
    sign = 1.0 if better == "lower" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (p - c) > 0)
    share = wins / len(pairs)
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    spread = p3 - p1
    if len(pairs) >= MIN_PAIRS and share >= WIN_SHARE and abs(cm - pm) > spread:
        return "improved", share
    if better == "lower":
        all_better = max(change) < min(parent)
    else:
        all_better = min(change) > max(parent)
    if spread / abs(pm) > bound and not all_better:
        return "unresolved", share
    if sign * (cm - pm) / abs(pm) > bound:
        return "regressed", share
    return "within bound", share


def compare(parent: List[dict], change: List[dict], spec: dict) -> List[dict]:
    bounded = {m["name"]: m for m in spec["end_to_end"]}
    groups: Dict[Tuple[str, int], Tuple[List[dict], List[dict]]] = {}
    for side, records in ((0, parent), (1, change)):
        for rec in records:
            key = (rec["workload"], rec["trace"])
            groups.setdefault(key, ([], []))[side].append(rec)
    rows = []
    for (workload, trace), (ps, cs) in sorted(groups.items()):
        n = min(len(ps), len(cs))
        ps, cs = ps[:n], cs[:n]
        if not n:
            continue
        names = sorted(set(ps[0]["metrics"]) & set(cs[0]["metrics"]))
        for name in names:
            pv = [r["metrics"][name] for r in ps]
            cv = [r["metrics"][name] for r in cs]
            row = {"workload": workload, "trace": trace, "metric": name,
                   "pairs": n, "parent": quartiles(pv), "change": quartiles(cv)}
            if name in bounded and not trace:
                m = bounded[name]
                row["verdict"], row["wins"] = verdict(pv, cv, m["better"],
                                                      m["bound"])
            elif is_exact(name):
                same_seed = [(p, c) for p, c, rp, rc in zip(pv, cv, ps, cs)
                             if rp["seed"] == rc["seed"]]
                if not same_seed:
                    continue
                row["verdict"] = ("identical" if all(p == c for p, c in same_seed)
                                  else "changed")
            else:
                continue
            rows.append(row)
        checks = [(p["checksum"], c["checksum"]) for p, c in zip(ps, cs)
                  if p["seed"] == c["seed"]]
        if checks:
            rows.append({
                "workload": workload, "trace": trace, "metric": "checksum",
                "pairs": len(checks),
                "verdict": ("identical" if all(p == c for p, c in checks)
                            else "changed"),
            })
    return rows


def render(rows: List[dict]) -> str:
    lines = [f"{'workload':18s} {'metric':32s} {'n':>3s}  "
             f"{'parent median [q1, q3]':>34s}  {'change median [q1, q3]':>34s}"
             f"  {'wins':>5s}  verdict"]

    def cell(q) -> str:
        return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"

    for r in rows:
        parent = cell(r["parent"]) if "parent" in r else ""
        change = cell(r["change"]) if "change" in r else ""
        wins = f"{r['wins']:.2f}" if "wins" in r else ""
        lines.append(f"{r['workload']:18s} {r['metric']:32s} {r['pairs']:3d}  "
                     f"{parent:>34s}  {change:>34s}  {wins:>5s}  {r['verdict']}")
    return "\n".join(lines)


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print("usage: run.py compare PARENT.jsonl CHANGE.jsonl", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    rows = compare(load(argv[0]), load(argv[1]), spec)
    print(render(rows))
    short = [r for r in rows if r["pairs"] < MIN_PAIRS]
    if short:
        print(f"note: {len(short)} rows have fewer than {MIN_PAIRS} pairs; "
              f"no gain can be claimed from them")
    bad = [r for r in rows if r["verdict"] in ("regressed", "changed")]
    return 1 if bad else 0
