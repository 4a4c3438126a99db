"""Compare two result files written by run.py --out, or summarise one.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl
    python3 perfbench/compare.py RESULTS.jsonl

A result file holds one JSON record per run; collect several seeds of
every workload on each side, for example

    for s in 1 2 3 4 5 6 7 8 9 10; do for w in queries verify cli bulk; do
      python3 perfbench/run.py --workload $w --seed $s --seconds 20 --trace 0 \
          --out perfbench/out/base.jsonl | tail -1 >/dev/null; done; done

Each row is one workload and metric: the median and quartiles (Python's
statistics.quantiles, n=4) of each side, and the ratio of the new median to
the base median, with the base named.  The verdict column applies the
metric's direction and bound from BENCHMARK.json: "worse" means the new
median is worse than the base median by more than the bound.  With one file
the spread column is the interquartile distance as a share of the median.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path):
    """{(workload, trace): {metric: (unit, [values])}} from a JSON-lines file."""
    groups = {}
    with open(path) as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            metrics = groups.setdefault((rec["workload"], rec["trace"]), {})
            for name, m in rec["metrics"].items():
                metrics.setdefault(name, (m["unit"], []))[1].append(m["value"])
    return groups


def summary(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def directions():
    if not BENCHMARK.is_file():
        return {}
    spec = json.loads(BENCHMARK.read_text())
    return {m["name"]: (m["better"], m.get("bound")) for m in
            spec.get("end_to_end", []) + spec.get("per_layer", [])}


def verdict(better, bound, base, new):
    if better is None or base == 0:
        return ""
    change = (new - base) / abs(base) * (1 if better == "higher" else -1)
    if bound is not None and change < -bound:
        return "worse"
    return "better" if change > 0 else "same" if change == 0 else "not worse"


def fmt(x):
    return f"{x:.6g}"


def main(argv):
    if len(argv) not in (1, 2):
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    sides = [load(p) for p in argv]
    rules = directions()
    rows = []
    for key in sorted(set().union(*sides)):
        names = sorted(set().union(*(s.get(key, {}) for s in sides)))
        for name in names:
            if any(name not in s.get(key, {}) for s in sides):
                continue
            unit = sides[0][key][name][0]
            stats = [summary(s[key][name][1]) for s in sides]
            row = [key[0] + (" (traced)" if key[1] else ""), name, unit]
            for (med, q1, q3), s in zip(stats, sides):
                row.append(f"{fmt(med)} [{fmt(q1)}, {fmt(q3)}] n={len(s[key][name][1])}")
            if len(sides) == 1:
                med, q1, q3 = stats[0]
                row.append(f"spread {fmt((q3 - q1) / med)}" if med else "spread -")
            else:
                base, new = stats[0][0], stats[1][0]
                ratio = f"{fmt(new / base)} of base {fmt(base)}" if base else "base 0"
                row += [ratio, verdict(*rules.get(name, (None, None)), base, new)]
            rows.append(row)
    header = ["workload", "metric", "unit"] + (
        ["median [q1, q3]", "spread"] if len(sides) == 1 else
        ["base median [q1, q3]", "new median [q1, q3]", "new/base", "verdict"])
    widths = [max(len(str(r[i])) for r in rows + [header]) for i in range(len(header))]
    for r in [header] + rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(r, widths)).rstrip())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
