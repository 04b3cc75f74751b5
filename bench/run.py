"""Benchmark of toricdescent through its public entry point, `cli.run_line`.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  One process, one client in a closed loop:
each request starts when the previous one has been answered.  A run makes a
warm-up round, then measured rounds of the workload (see workloads.py) until
the round boundary nearest to --seconds, and at least 100 requests completed.
Every answer is checked by checker.py, which never calls the program.  The
last line of stdout is one JSON object: correct, attempted, failed and the
metrics.  With --trace 0 the metrics are the end-to-end ones; with --trace 1
they are the per-layer ones named in BENCHMARK.json.  A traced run makes
every round twice, once under tracer.py and once without, so that the
tracing overhead compares the same requests.
"""

import argparse
import importlib
import io
import json
import resource
import select
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import checker  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

#: setup_s is the median of interpreter spawns made every SETUP_EVERY_S
#: seconds between requests, so that they sample the whole run, and at
#: least SETUP_SPAWNS of them
SETUP_EVERY_S = 3.0
SETUP_SPAWNS = 9
#: a run goes on past --seconds until this many requests completed, so that
#: at least 10 of them lie beyond the 90th percentile
MIN_COMPLETED = 100
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "from toricdescent import cli; cli.build_parser(); print('ready', flush=True)")


class BudgetExceeded(BaseException):
    """Raised by the interval timer.  Not an Exception, so no handler in the
    program can swallow it."""


class Client:
    """Sends one request at a time through cli.run_line under the budget."""

    def __init__(self, cli):
        self.cli = cli
        self._armed = False
        signal.signal(signal.SIGALRM, self._expire)

    def _expire(self, _signum, _frame):
        if self._armed:
            raise BudgetExceeded()

    def call(self, argv):
        """(status, exit code, stdout text, seconds); status is "ok" or the
        reason the request failed before it could be checked."""
        out = io.StringIO()
        code = None
        status = "ok"
        self._armed = True
        signal.setitimer(signal.ITIMER_REAL, workloads.BUDGET_S)
        start = time.perf_counter()
        try:
            code = self.cli.run_line(list(argv), stream=out)
            self._armed = False
        except BudgetExceeded:
            status = f"over the {workloads.BUDGET_S} s budget"
        except Exception as exc:  # a crash of the program is a failed request
            where = traceback.extract_tb(exc.__traceback__)[-1]
            status = (f"raised {type(exc).__name__}: {exc} "
                      f"at {Path(where.filename).name}:{where.lineno}")
        finally:
            self._armed = False
            elapsed = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
        return status, code, out.getvalue(), elapsed


def load_program():
    if not (SRC / "toricdescent" / "cli.py").is_file():
        sys.exit(f"bench: no program sources at {SRC}")
    sys.path.insert(0, str(SRC))
    from toricdescent import cli
    if Path(cli.__file__).resolve().parent != SRC / "toricdescent":
        sys.exit(f"bench: imported toricdescent from {cli.__file__}, not {SRC}")
    return cli


def setup_seconds():
    """Seconds from spawning a fresh interpreter until it has imported
    toricdescent.cli, built its parser and said so on stdout.  -I keeps the
    user's environment out.  The ready line is awaited with select, which
    returns as soon as it arrives (Popen.wait with a timeout polls in steps
    of up to 50 ms)."""
    cmd = [sys.executable, "-I", "-c", SETUP_CODE, str(SRC)]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE) as proc:
        ready, _, _ = select.select([proc.stdout], [], [], 120)
        line = proc.stdout.readline() if ready else b""
        elapsed = time.perf_counter() - start
        proc.stdout.close()
        if proc.wait(timeout=120) != 0 or line.strip() != b"ready":
            sys.exit("bench: a fresh interpreter could not import toricdescent.cli")
    return elapsed


def program_caches():
    """The functools caches of the program's modules, taken before the tracer
    wraps anything (a wrapper has no cache_clear)."""
    caches = []
    for name in tracing.MODULES:
        module = importlib.import_module(f"toricdescent.{name}")
        caches += [obj for obj in vars(module).values() if hasattr(obj, "cache_clear")]
    return caches


def judge(req, status, code, text):
    """Problems with one answer; empty when it is correct."""
    if status != "ok":
        return [status]
    report = None
    if text:
        try:
            report = json.loads(text)
        except json.JSONDecodeError as exc:
            return [f"output is not JSON: {exc}"]
    return checker.check(req, code, report)


class Run:
    def __init__(self, client, workload, seed, tracer=None):
        self.client = client
        self.workload = workload
        self.seed = seed
        self.tracer = tracer
        self.caches = program_caches() if workload in workloads.COLD else []
        self.attempted = 0
        self.failed = 0
        self.unexpected = []      # failures outside the fault rows
        self.samples = []         # (seconds, completed, traced, request id)
        self.warm = []            # (argv, output) of the warm-up round
        self.faults = {}          # fault row -> [failed, attempted]
        self.setup = []           # setup_s samples, with --trace 0
        self.setup_due = None     # when the next one is due, with --trace 0

    def warm_up(self):
        reqs, _faults = workloads.make_round(self.workload, self.seed, -1)
        for req in reqs:
            status, code, text, _ = self._call(req["argv"])
            problems = judge(req, status, code, text)
            if problems:
                self.unexpected.append((req["argv"], problems))
            self.warm.append((req["argv"], text))

    def _call(self, argv):
        for cache in self.caches:
            cache.cache_clear()
        return self.client.call(argv)

    def round(self, index, traced=False):
        reqs, faults = workloads.make_round(self.workload, self.seed, index)
        repeat_argv, repeat_text = self.warm[index % len(self.warm)]
        # (argv, generated request or None for the repeat, fault row)
        ops = ([(req["argv"], req, False) for req in reqs]
               + [(req["argv"], req, True) for req in faults]
               + [(repeat_argv, None, False)])
        if traced:
            self.tracer.install()
        try:
            for slot, (argv, req, fault) in enumerate(ops):
                if traced:
                    self.tracer.request = (index, slot)
                status, code, text, seconds = self._call(argv)
                if req is None:
                    problems = [] if status == "ok" and text == repeat_text else [
                        f"repeated request gave different output ({status})"]
                else:
                    problems = judge(req, status, code, text)
                self._record(argv, fault, problems)
                self.samples.append((seconds, not problems, traced, (index, slot)))
                if self.setup_due is not None and time.perf_counter() >= self.setup_due:
                    self.setup.append(setup_seconds())
                    self.setup_due += SETUP_EVERY_S
        finally:
            if traced:
                self.tracer.remove()

    def _record(self, argv, fault, problems):
        self.attempted += 1
        self.failed += bool(problems)
        if fault:
            tally = self.faults.setdefault(" ".join(argv), [0, 0])
            tally[0] += bool(problems)
            tally[1] += 1
        elif problems:
            self.unexpected.append((argv, problems))

    def measure(self, seconds, setup=False):
        """Whole rounds until the round boundary nearest to the deadline,
        and until at least MIN_COMPLETED requests completed.  With a tracer every round
        index runs twice, untraced and traced, the order switching with the
        index.  With setup, fresh interpreters are timed along the way."""
        deadline = time.perf_counter() + seconds
        if setup:
            self.setup_due = time.perf_counter() + SETUP_EVERY_S
        passes = (False, True) if self.tracer else (False,)
        index = 0
        durations = []
        while True:
            start = time.perf_counter()
            order = passes if index % 2 == 0 else passes[::-1]
            for traced in order:
                self.round(index, traced)
            durations.append(time.perf_counter() - start)
            index += 1
            completed = sum(ok for _s, ok, traced, _r in self.samples if not traced)
            if (completed >= MIN_COMPLETED
                    and time.perf_counter() + statistics.mean(durations) / 2 >= deadline):
                break
        while setup and len(self.setup) < SETUP_SPAWNS:
            self.setup.append(setup_seconds())


def end_to_end(run):
    done = [s for s, ok, _t, _r in run.samples if ok]
    if len(done) < 2:
        sys.exit(f"bench: only {len(done)} of {run.attempted} requests completed")
    busy = sum(s for s, _ok, _t, _r in run.samples)
    return {
        "setup_s": (statistics.median(run.setup), "s"),
        "ops_per_s": (len(done) / busy, "ops/s"),
        "latency_p50_ms": (1000 * statistics.median(done), "ms"),
        "latency_p90_ms": (1000 * statistics.quantiles(done, n=10)[8], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(run, tracer, names):
    """Per-layer metrics of the traced rounds, and the tracing overhead:
    untraced against traced ops_per_s over the requests that completed in
    both runs of their round."""
    seconds = {(traced, r): s for s, ok, traced, r in run.samples if ok}
    both = [r for traced, r in seconds if traced and (False, r) in seconds]
    values = tracer.layer_metrics(both)
    values["trace.overhead"] = (sum(seconds[True, r] for r in both)
                                / sum(seconds[False, r] for r in both) - 1)
    return {name: (values[name], unit) for name, unit in names}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.ROUNDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="with --trace 1, also write every span "
                        "(name, start, end, parent, request) here as JSON lines")
    args = parser.parse_args(argv)

    cli = load_program()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    tracer = tracing.Tracer() if args.trace else None
    run = Run(Client(cli), args.workload, args.seed, tracer)
    if not args.trace:
        setup_seconds()  # fills the bytecode cache; not timed
    run.warm_up()
    run.measure(args.seconds, setup=not args.trace)

    if args.trace:
        names = [(m["name"], m["unit"]) for m in spec["per_layer"]]
        metrics = per_layer(run, tracer, names)
        if args.spans:
            with open(args.spans, "w") as out:
                for span in tracer.spans:
                    out.write(json.dumps(span) + "\n")
    else:
        metrics = end_to_end(run)
    for argv_, problems in run.unexpected:
        print(f"FAILED {' '.join(argv_)}: {'; '.join(problems)}", file=sys.stderr)
    print(f"{args.workload}: attempted {run.attempted}, failed {run.failed} "
          f"({len(run.unexpected)} outside the fault rows)")
    for row, (failed, attempted) in run.faults.items():
        print(f"  fault row, failed {failed} of {attempted}: {row}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    result = {
        "correct": not run.unexpected,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
