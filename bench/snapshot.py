"""Snapshot of the program's canonical JSON on the benchmark's requests.

    python3 bench/snapshot.py [--seed 1] [--out bench-snapshot.jsonl]

Runs rounds 0 and 1 of every workload (the same requests a run with
this seed measures first) under the request budget and writes one line per
request that finishes: workload, round, CLI line, exit code and the report
exactly as printed.  A refactor that must keep reports byte-identical can
diff two snapshots; the benchmark itself does not read them.
"""

import argparse
import json
import sys

import run
import workloads

ROUNDS = 2


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", default="bench-snapshot.jsonl")
    args = parser.parse_args(argv)

    client = run.Client(run.load_program())
    written = skipped = 0
    with open(args.out, "w") as out:
        for workload in workloads.ROUNDS:
            for index in range(ROUNDS):
                reqs, faults = workloads.make_round(workload, args.seed, index)
                for req in reqs + faults:
                    status, code, text, _seconds = client.call(req["argv"])
                    if status != "ok":
                        skipped += 1
                        continue
                    out.write(json.dumps({"workload": workload, "round": index,
                                          "request": " ".join(req["argv"]),
                                          "exit": code, "output": text}) + "\n")
                    written += 1
    print(f"wrote {written} reports to {args.out}; {skipped} requests did not finish")
    return 0


if __name__ == "__main__":
    sys.exit(main())
