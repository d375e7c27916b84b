#!/usr/bin/env python3
"""Run perfbench workloads and write BENCH_<workload>.json, or A/B two revisions.

Each run is `python3 perfbench/run.py --workload W --seed S --seconds T`,
unchanged, in the root of a source tree, with T the run_seconds of
BENCHMARK.json.  Its last stdout line is the JSON
result (correct, attempted, failed, metrics); the line before the metrics
that starts with "machine speed:" says how fast the machine ran; the
report lines give each series' median scaled to the reference speed and,
for times, the raw median beside it.

Without --ab, one run of every workload in this checkout, written to
BENCH_<workload>.json in --out: the result line, the git rev (with
"-dirty" when the tree has uncommitted changes), the seed and seconds, the
machine-speed line, and the scaled and raw medians.

With --ab REV, REV is unpacked by `git archive` into a fresh directory and
every workload runs PAIRS pairs of (REV, this checkout), alternating which
side runs first.  For every end-to-end metric of BENCHMARK.json it writes
BENCH_ab_<workload>.json in --out: each side's runs, median and quartiles,
and how many pairs each side won by the metric's `better` direction (ties
count for neither); it prints the same as a Markdown table.

    python3 scripts/bench.py [--seed S] [--ab REV] [--out DIR]
"""

from __future__ import annotations

import argparse
import json
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SECONDS = SPEC["run_seconds"]
PAIRS = 10  # run pairs per workload with --ab

# A report line of one series: name.p50, scaled median, unit, sample count,
# then for times the raw median.
_SERIES = re.compile(r"^\s+(\S+)\.p50\s+(\S+)\s+\S+\s+n=\d+(?:\s+raw p50=(\S+))?")


def run_once(tree, workload, seed):
    """One perfbench run in `tree`: its parsed result with the report's medians."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", f"{SECONDS:g}"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    speed = next(line for line in lines if line.startswith("machine speed:"))
    scaled, raw = {}, {}
    for line in lines:
        if m := _SERIES.match(line):
            scaled[m[1] + ".p50"] = float(m[2])
            if m[3] is not None:
                raw[m[1] + ".p50"] = float(m[3])
    scaled.update((name, m["value"]) for name, m in result["metrics"].items())
    return {"result": result, "machine_speed": speed, "scaled_medians": scaled,
            "raw_medians": raw}


def git_rev(tree):
    rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=tree, capture_output=True,
                         text=True, check=True).stdout.strip()
    dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"], cwd=tree,
                           capture_output=True, text=True, check=True).stdout.strip()
    return rev + ("-dirty" if dirty else "")


def quartiles(values):
    """(q1, median, q3) of the values; one value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def compare(base_runs, head_runs):
    """Per end-to-end metric: both sides' runs, quartiles and pair wins."""
    out = {}
    for metric in SPEC["end_to_end"]:
        name, sign = metric["name"], (1 if metric["better"] == "lower" else -1)
        base = [r["scaled_medians"][name] for r in base_runs if name in r["scaled_medians"]]
        head = [r["scaled_medians"][name] for r in head_runs if name in r["scaled_medians"]]
        if not base or len(base) != len(head):
            continue
        wins = sum(sign * (h - b) < 0 for b, h in zip(base, head))
        losses = sum(sign * (h - b) > 0 for b, h in zip(base, head))
        (bq1, bmed, bq3), (hq1, hmed, hq3) = quartiles(base), quartiles(head)
        out[name] = {"unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
                     "base": {"runs": base, "median": bmed, "q1": bq1, "q3": bq3},
                     "head": {"runs": head, "median": hmed, "q1": hq1, "q3": hq3},
                     "head_wins": wins, "base_wins": losses,
                     "change": hmed / bmed - 1 if bmed else None}
    return out


def table(workload, rows):
    """A Markdown table of compare()'s rows for one workload."""
    lines = [f"{workload}, {PAIRS} pairs:", "",
             "| metric | base median [q1, q3] | head median [q1, q3] | change | head wins |",
             "| --- | --- | --- | --- | --- |"]
    for name, r in rows.items():
        b, h = r["base"], r["head"]
        change = "n/a" if r["change"] is None else f"{r['change']:+.1%}"
        lines.append(f"| {name} | {b['median']:.4g} [{b['q1']:.4g}, {b['q3']:.4g}] | "
                     f"{h['median']:.4g} [{h['q1']:.4g}, {h['q3']:.4g}] | {change} | "
                     f"{r['head_wins']}/{PAIRS} |")
    return lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--ab", metavar="REV", help="compare this checkout against revision REV")
    ap.add_argument("--out", default=str(ROOT), help="directory for the JSON files")
    args = ap.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    if args.ab is None:
        rev = git_rev(ROOT)
        for w in WORKLOADS:
            run = run_once(ROOT, w, args.seed)
            record = {"workload": w, "rev": rev, "seed": args.seed, "seconds": SECONDS,
                      "command": f"python3 perfbench/run.py --workload {w} --seed {args.seed} "
                                 f"--seconds {SECONDS:g}", **run}
            (out / f"BENCH_{w}.json").write_text(json.dumps(record, indent=1) + "\n")
            print(f"{w}: {json.dumps(run['scaled_medians'])}")
        return 0

    base_tree = Path(tempfile.mkdtemp(prefix="bench-ab-"))
    try:
        archive = subprocess.run(["git", "archive", args.ab], cwd=ROOT, capture_output=True,
                                 check=True).stdout
        subprocess.run(["tar", "-x", "-C", str(base_tree)], input=archive, check=True)
        base_rev = subprocess.run(["git", "rev-parse", args.ab], cwd=ROOT, capture_output=True,
                                  text=True, check=True).stdout.strip()
        head_rev = git_rev(ROOT)
        for w in WORKLOADS:
            runs = {"base": [], "head": []}
            for i in range(PAIRS):
                sides = [("base", base_tree), ("head", ROOT)]
                for side, tree in sides if i % 2 == 0 else sides[::-1]:
                    runs[side].append(run_once(tree, w, args.seed))
            rows = compare(runs["base"], runs["head"])
            record = {"workload": w, "seed": args.seed, "seconds": SECONDS,
                      "pairs": PAIRS, "base_rev": base_rev, "head_rev": head_rev,
                      "failed": {side: [r["result"]["failed"] for r in rs]
                                 for side, rs in runs.items()},
                      "metrics": rows}
            (out / f"BENCH_ab_{w}.json").write_text(json.dumps(record, indent=1) + "\n")
            print("\n".join(table(w, rows)), flush=True)
    finally:
        shutil.rmtree(base_tree)
    return 0


if __name__ == "__main__":
    sys.exit(main())
