#!/usr/bin/env python3
"""Compares two benchmark result files (build-bench/results/*.json) row by
row: one verdict per (workload, end-to-end metric).

  compare.py A.json B.json

A is the baseline, B the candidate. Verdicts, with `bound` the metric's
bound from run.py / BENCHMARK.json and `spread` the larger of the two
quartile spreads (q3 - q1) / median:
  regressed   B's median is worse than A's by more than the bound;
  improved    B's median is better than A's by more than the bound;
  unresolved  spread exceeds the bound, unless every B sample reads better
              (improved) or worse (regressed) than every A sample;
  no worse    otherwise.
Exits 1 when any row regressed or is unresolved.
"""

import json
import sys

from run import END_TO_END, FAILED_FRACTION

BOUNDS = dict({n: (b, bound) for n, (_, b, bound) in END_TO_END.items()},
              **{FAILED_FRACTION[0]: (FAILED_FRACTION[2], FAILED_FRACTION[3])})


def relative(delta, base):
    return delta / abs(base) if base else (0.0 if delta == 0 else float("inf"))


def verdict(a, b, better, bound):
    """Verdict for one row; a and b are summarize() dicts."""
    sign = 1.0 if better == "lower" else -1.0
    # Positive worsening means B is worse than A.
    worsening = relative(sign * (b["median"] - a["median"]), a["median"])
    spread = max(relative(m["q3"] - m["q1"], m["median"]) for m in (a, b))
    if spread > bound:
        if all(sign * (y - x) < 0 for x in a["samples"] for y in b["samples"]):
            return "improved", worsening, spread
        if all(sign * (y - x) > 0 for x in a["samples"] for y in b["samples"]):
            return "regressed", worsening, spread
        return "unresolved", worsening, spread
    if worsening > bound:
        return "regressed", worsening, spread
    if worsening < -bound:
        return "improved", worsening, spread
    return "no worse", worsening, spread


def compare(a, b):
    rows = []
    for workload, rec_a in a["workloads"].items():
        rec_b = b["workloads"].get(workload)
        if rec_b is None:
            continue
        for metric, (better, bound) in BOUNDS.items():
            ma, mb = rec_a["end_to_end"][metric], rec_b["end_to_end"][metric]
            v, worsening, spread = verdict(ma, mb, better, bound)
            rows.append({"workload": workload, "metric": metric, "unit": ma["unit"],
                         "bound": bound, "a": ma, "b": mb, "worsening": worsening,
                         "spread": spread, "verdict": v})
    return rows


def print_rows(rows):
    def q(m):
        return f"{m['median']:.4g} [{m['q1']:.4g}, {m['q3']:.4g}] n={m['n']}"

    print(f"{'workload':24s} {'metric':24s} {'A median [q1, q3]':34s} "
          f"{'B median [q1, q3]':34s} {'worse by':>9s} {'spread':>7s} {'bound':>6s}  verdict")
    for r in rows:
        print(f"{r['workload']:24s} {r['metric']:24s} {q(r['a']):34s} {q(r['b']):34s} "
              f"{100 * r['worsening']:8.2f}% {100 * r['spread']:6.2f}% {100 * r['bound']:5.0f}%"
              f"  {r['verdict']}")


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(open(path).read()) for path in argv)
    rows = compare(a, b)
    print_rows(rows)
    return 0 if all(r["verdict"] in ("no worse", "improved") for r in rows) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
