"""Steadiness check: two sets of runs of the same code must agree.

Run from the root of the repository:

    python3 perfbench/steady.py

It reads ``BENCHMARK.json`` and runs the benchmark's command ten times per
workload and set, for two sets, one run at a time and each with its own
seed (set 1 uses seeds 1..10, set 2 seeds 11..20), at ``run_seconds``.  It
prints for every end-to-end metric each set's median and quartiles, the
spread (quartile distance over the median) and the drift of the second
median from the first, either way, against the metric's bound.  It also
checks that the share of failed operations is the same in both sets.  It
exits with 1 if anything is out of bounds; the table also goes to
``perfbench/out/steady.md``.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETS = 2
RUNS = 10


def run_once(command, workload, seed, seconds):
    proc = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} gave wrong results:\n{proc.stderr}")
    return result


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]

    results = {w: [] for w in workloads}  # per workload: one list of results per set
    for k in range(SETS):
        for w in workloads:
            seeds = range(k * RUNS + 1, (k + 1) * RUNS + 1)
            results[w].append([run_once(spec["command"], w, s, seconds) for s in seeds])
            print(f"set {k + 1} {w}: {RUNS} runs done", file=sys.stderr, flush=True)

    lines = ["| workload | metric | set | median | q1 | q3 | spread | bound | drift | ok |",
             "|---|---|---|---|---|---|---|---|---|---|"]
    all_ok = True
    for w in workloads:
        shares = {r["failed"] / r["attempted"] for s in results[w] for r in s}
        if len(shares) != 1:
            all_ok = False
            lines.append(f"| {w} | failed share | all | {sorted(shares)} | | | | | | NO |")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            first = None
            for k, runs in enumerate(results[w]):
                values = [r["metrics"][name]["value"] for r in runs]
                q1, med, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med
                ok = spread <= bound
                drift = ""
                if first is None:
                    first = med
                else:
                    change = (med - first) / first
                    drift = f"{change:+.1%}"
                    ok = ok and abs(change) <= bound
                all_ok = all_ok and ok
                lines.append(f"| {w} | {name} | {k + 1} | {med:.5g} | {q1:.5g} | {q3:.5g} | "
                             f"{spread:.1%} | {bound:.0%} | {drift} | {'yes' if ok else 'NO'} |")
    table = "\n".join(lines)
    print(table)
    out = ROOT / "perfbench" / "out"
    out.mkdir(exist_ok=True)
    (out / "steady.md").write_text(table + "\n")
    (out / "steady.json").write_text(json.dumps(results) + "\n")
    sys.exit(0 if all_ok else 1)


if __name__ == "__main__":
    main()
