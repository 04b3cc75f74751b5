"""Per-layer report: one traced run of every workload.

    python3 bench/layers.py [--seed 1] [--out FILE]

Prints, per workload, every per-layer metric of the traced run, the self
time of each module as a share of all self time, and the tracing overhead
(untraced against traced ops_per_s, over rounds run both ways).
--out writes the same figures as JSON, and every span of workload W to
FILE.W.spans.jsonl.
"""

import argparse
import json
import sys
from pathlib import Path

from compare import run_once
from tracer import MODULES

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    report = {}
    for workload in [w["name"] for w in spec["workloads"]]:
        extra = ["--spans", f"{args.out}.{workload}.spans.jsonl"] if args.out else []
        traced = run_once(spec, workload, args.seed, trace=1, extra=extra)
        layers = {k: v["value"] for k, v in traced["metrics"].items()}
        self_total = sum(layers[f"{m}.self_s"] for m in MODULES)
        shares = {m: layers[f"{m}.self_s"] / self_total for m in MODULES}
        report[workload] = {"attempted": traced["attempted"], "failed": traced["failed"],
                            "layers": layers, "self_share": shares}
        print(f"\n{workload}: attempted {traced['attempted']}, failed {traced['failed']}, "
              f"tracing overhead {layers['trace.overhead']:+.1%}")
        for name, value in layers.items():
            print(f"  {name:40s} {value:12.6g} {traced['metrics'][name]['unit']}")
        print("  self time by module:")
        for m, share in sorted(shares.items(), key=lambda kv: -kv[1]):
            print(f"    {m:14s} {share:6.1%}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
