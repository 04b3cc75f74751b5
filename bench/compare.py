"""Steadiness check: two sets of ten seeded runs of every workload, compared
with the bounds in BENCHMARK.json.

    python3 bench/compare.py [--out FILE]

The two sets are interleaved: for each i, seed i of one set and seed i of the
other run back to back over every workload, and the set that goes first
alternates with i.  So a slow stretch of the machine falls into the spread of
both sets instead of into the gap between them.  For each metric it prints
each set's median and the distance between the first and third quartile as a
share of the median.  Every check must hold for exit status 0:

- each spread is within the metric's bound;
- the two medians differ by at most the bound, in either direction;
- every run is correct, and the share of failed operations is exactly the
  same in every run.
"""

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10
SETS = 2
SEED_BASE = 1000


def run_once(spec, workload, seed, trace=0, extra=()):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
                             *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="write every run's result here as JSON")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    results = {name: [[] for _ in range(SETS)] for name in names}
    for i in range(RUNS):
        order = range(SETS) if i % 2 == 0 else reversed(range(SETS))
        for s in order:
            seed = SEED_BASE + s * RUNS + i
            for name in names:
                res = run_once(spec, name, seed)
                results[name][s].append(res)
                print(f"set {s + 1} seed {seed} {name}: "
                      + " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items())
                      + f" attempted={res['attempted']} failed={res['failed']}",
                      flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=1))

    ok = True
    print()
    for name in names:
        runs = [r for runs in results[name] for r in runs]
        shares = {Fraction(r["failed"], r["attempted"]) for r in runs}
        correct = all(r["correct"] for r in runs)
        same = len(shares) == 1
        ok &= correct and same
        print(f"{name}: correct in every run: {correct}; failed share "
              f"{'identical' if same else 'DIFFERS'}: "
              + ", ".join(str(x) for x in sorted(shares)))
        for metric in spec["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            line = f"  {key:16s}"
            medians, spreads = [], []
            for runs_of_set in results[name]:
                median, sp = spread([r["metrics"][key]["value"] for r in runs_of_set])
                medians.append(median)
                spreads.append(sp)
                line += f" median {median:10.4f} spread {sp:6.3f}"
            change = (medians[1] - medians[0]) / medians[0]
            line += f" second set differs by {change:+.3f}"
            good = max(spreads) <= bound and abs(change) <= bound
            ok &= good
            line += f" bound {bound} {'ok' if good else 'FAIL'}"
            if good and max(max(spreads), abs(change)) > bound / 3:
                line += " (above a third of the bound)"
            print(line)
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
