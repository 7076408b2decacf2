#!/usr/bin/env python3
"""Run the benchmark over many seeds and summarise, for one checkout or two.

    python3 perfbench/compare.py run --checkout DIR [--checkout DIR2] \\
        --workload sweep [--workload ...] --seeds 1-10 [--trace 1] --out runs.jsonl
    python3 perfbench/compare.py report runs.jsonl

`run` executes `python3 perfbench/run.py` inside each checkout (each must hold
the same perfbench/ copy) and appends one JSON line per run.  With two
checkouts it alternates which runs first from seed to seed.  `report` prints,
per workload and metric, the median, the quartiles and their spread as a
share of the median (statistics.quantiles, n=4).  With two checkouts it adds
the change of the second median against the first, the metric's bound from
BENCHMARK.json, how many seeds the second checkout won, and a verdict:
`REGRESSION` when the second median is worse by more than the bound, `ok`
when it is not, and `unresolved` when either side's spread exceeds the bound
and the two sides' runs overlap (neither side beats every run of the other).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def run(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    with open(args.out, "a", encoding="utf-8") as out:
        for i, seed in enumerate(_seeds(args.seeds)):
            order = args.checkout if i % 2 == 0 else args.checkout[::-1]
            for workload in args.workload:
                for checkout in order:
                    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(args.trace)]
                    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                                          timeout=900)
                    lines = proc.stdout.strip().splitlines()
                    if proc.returncode != 0 or not lines:
                        print(f"{checkout} {workload} seed {seed}: exit {proc.returncode}\n"
                              f"{proc.stderr[-500:]}", file=sys.stderr)
                        return 1
                    row = {"checkout": checkout, "workload": workload, "seed": seed,
                           "trace": args.trace, "result": json.loads(lines[-1]),
                           "detail": json.loads(lines[-2])["perfbench"]}
                    out.write(json.dumps(row) + "\n")
                    out.flush()
                    print(checkout, workload, seed, json.dumps(row["result"]["metrics"]))
    return 0


def report(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    values = defaultdict(dict)  # (workload, metric) -> checkout -> {seed: value}
    checkouts = []
    for line in Path(args.results).read_text(encoding="utf-8").splitlines():
        row = json.loads(line)
        if row["checkout"] not in checkouts:
            checkouts.append(row["checkout"])
        if not row["result"]["correct"]:
            print(f"INCORRECT: {row['checkout']} {row['workload']} seed {row['seed']}")
        for name, metric in row["result"]["metrics"].items():
            values[(row["workload"], name)].setdefault(row["checkout"], {})[row["seed"]] = \
                metric["value"]
    print("workload metric checkout n median q1 q3 spread [change bound wins]")
    for (workload, name), by_checkout in sorted(values.items()):
        meta = declared.get(name, {})
        medians, wide = [], False
        for checkout in checkouts:
            vals = list(by_checkout.get(checkout, {}).values())
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            medians.append(med)
            spread = (q3 - q1) / med if med else float("nan")
            flag = ""
            if "bound" in meta and not spread <= meta["bound"]:
                flag, wide = " > bound", True
            print(f"{workload} {name} {checkout} {len(vals)} {med:.6g} {q1:.6g} {q3:.6g} "
                  f"{spread:.3f}{flag}")
        if len(medians) == 2 and medians[0] and "better" in meta:
            change = medians[1] / medians[0] - 1.0
            worse = change if meta["better"] == "lower" else -change
            a, b = (by_checkout.get(c, {}) for c in checkouts)
            shared = sorted(set(a) & set(b))
            wins = sum((b[s] < a[s]) == (meta["better"] == "lower") and b[s] != a[s] for s in shared)
            bound = meta.get("bound")
            separated = max(a.values()) < min(b.values()) or max(b.values()) < min(a.values())
            if bound is None:
                verdict = ""
            elif wide and not separated:
                verdict = " unresolved"
            else:
                verdict = " REGRESSION" if worse > bound else " ok"
            print(f"  change {change:+.3f} bound {bound} wins {wins}/{len(shared)}{verdict}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    r = sub.add_parser("run")
    r.add_argument("--checkout", action="append", required=True)
    r.add_argument("--workload", action="append", required=True)
    r.add_argument("--seeds", default="1-10")
    r.add_argument("--trace", type=int, choices=(0, 1), default=0)
    r.add_argument("--out", required=True)
    p = sub.add_parser("report")
    p.add_argument("results")
    args = parser.parse_args(argv)
    return run(args) if args.command == "run" else report(args)


if __name__ == "__main__":
    sys.exit(main())
