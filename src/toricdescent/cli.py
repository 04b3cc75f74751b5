"""Command-line front end: family solvers, raw machinery, and the oracle.

Exit codes: 0 success; 2 invalid input syntax; 3 hypothesis violated by the
input; 4 undetermined verdict.  Reports go to stdout as text or, with
--json, as canonical JSON (sorted keys, no whitespace), so identical inputs
produce byte-identical output.  `batch` writes exactly one line per request
line: the report, or an error record naming the line.
"""

import argparse
import contextlib
import io
import json
import random
import shlex
import sys

from . import descent, families, oracle
from .dual_graph import (GraphError, NotSupported, component_group,
                         phi_torsion_representatives)
from .families import (CubicForm, FamilyError, genus4_report,
                       hyperelliptic_report, validate_genus4,
                       validate_hyperelliptic)
from .finite_field import FieldError, Poly, SizeLimitExceeded, field_limit, make_field
from .parsing import (DegreeLimitExceeded, ParseError, format_univariate, parse_cubic_form,
                      parse_int_matrix, parse_lattice, parse_univariate)
from .torus import (CharacterLattice, TorusError, enumerate_rational_points,
                    mu_group, prime_power, torus_order,
                    verify_principal_decomposition, EnumerationLimitExceeded)

EXIT_OK = 0
EXIT_SYNTAX = 2
EXIT_HYPOTHESIS = 3
EXIT_UNDETERMINED = 4
#: a batch line that raised an unexpected exception: the status a Python
#: process exits with on an uncaught exception
EXIT_INTERNAL = 1

#: typed refusals: (exception classes, kind, exit code, message prefix),
#: the first matching row wins.  Other engine and oracle errors are
#: internal-consistency failures, not refusals of the input.
REFUSALS = [
    ((ParseError,), "syntax", EXIT_SYNTAX, "syntax error"),
    ((FamilyError, descent.UnsupportedTorus, descent.DivisorMeetsNode),
     "hypothesis", EXIT_HYPOTHESIS, "hypothesis violated"),
    # a valid curve whose graph no decomposition rule covers (the oracle
    # builds the engine's frame first): the same verdict as hyperelliptic's
    ((NotSupported,), "undetermined", EXIT_UNDETERMINED, "undetermined"),
    ((FieldError, TorusError, GraphError, EnumerationLimitExceeded,
      oracle.TooLarge, oracle.TrialsOutOfRange, DegreeLimitExceeded),
     "invalid-input", EXIT_SYNTAX, "invalid input"),
]
REFUSAL_TYPES = tuple(cls for classes, *_ in REFUSALS for cls in classes)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="toricdescent",
        description="Divisor-class divisibility and rational torsion for curves "
                    "with totally degenerate reduction.")
    sub = parser.add_subparsers(dest="command", required=True)

    hyp = sub.add_parser("hyperelliptic",
                         help="two-line family y^2 = g^2 + pi*h")
    group = hyp.add_mutually_exclusive_group(required=True)
    group.add_argument("--q", type=int, help="residue field size (prime power)")
    group.add_argument("--p", type=int, help="prime: base field Q_p")
    hyp.add_argument("--g", required=True, help="monic polynomial in x")
    hyp.add_argument("--h", required=True, help="polynomial in x")
    hyp.add_argument("--r", type=int, default=2, help="divisibility target (default 2)")
    hyp.add_argument("--no-engine-check", action="store_true",
                     help="skip the generic-engine cross-check")
    hyp.add_argument("--json", action="store_true")

    g4 = sub.add_parser("genus4", help="quadric-cubic genus-4 family")
    group = g4.add_mutually_exclusive_group(required=True)
    group.add_argument("--q", type=int)
    group.add_argument("--p", type=int)
    g4.add_argument("--eps", required=True, help="homogeneous cubic in X,Y,Z,W")
    g4.add_argument("--r", type=int, default=2, choices=(2, 3))
    g4.add_argument("--no-engine-check", action="store_true")
    g4.add_argument("--json", action="store_true")

    cg = sub.add_parser("component-group",
                        help="component group of an intersection matrix")
    cg.add_argument("--matrix", required=True, help="JSON rows, e.g. [[-3,3],[3,-3]]")
    cg.add_argument("--r", type=int, help="also list the r-torsion representatives")
    cg.add_argument("--json", action="store_true")

    tor = sub.add_parser("torus", help="character-lattice computations")
    tor.add_argument("--lattice", required=True,
                     help='JSON {"rank": g, "frobenius": rows, "components": [chi...]}')
    tor.add_argument("--q", type=int, required=True)
    tor.add_argument("--enumerate", action="store_true",
                     help="enumerate the rational points")
    tor.add_argument("--json", action="store_true")

    orc = sub.add_parser("oracle",
                         help="exhaustive cross-check of the descent engine")
    orc.add_argument("--q", type=int, required=True)
    orc.add_argument("--g", required=True)
    orc.add_argument("--h", required=True)
    orc.add_argument("--r", type=int, default=2)
    orc.add_argument("--trials", type=int, default=20,
                     help=f"random divisors to check, 0 to {oracle.TRIALS_LIMIT} "
                          "(default 20)")
    orc.add_argument("--seed", type=int, default=0)
    orc.add_argument("--json", action="store_true")

    bat = sub.add_parser("batch", help="process one request per line of a file")
    bat.add_argument("path")
    return parser


#: the parser every request of this process is parsed with, built on first use
_PARSER = None


def _parser():
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    return _PARSER


def _field_from_args(args):
    """The residue field of --p or --q; the size limit is checked before any
    factoring or primality test."""
    p = getattr(args, "p", None)
    if p is not None:
        return make_field(p), True
    q = args.q
    bound = field_limit()
    if q > bound:
        raise SizeLimitExceeded(f"{q} exceeds the field-size limit {bound}")
    return make_field(*prime_power(q)), False


def _poly_from_text(field, text):
    return Poly(field, parse_univariate(text))


def run_hyperelliptic(args):
    k, qp_mode = _field_from_args(args)
    g = _poly_from_text(k, args.g)
    h = _poly_from_text(k, args.h)
    inp = validate_hyperelliptic(k, g, h, r=args.r, qp_mode=qp_mode)
    report = hyperelliptic_report(inp, engine_check=not args.no_engine_check)
    code = EXIT_OK
    if report["verdicts"]["theta"] == descent.UNDETERMINED or report["torsion"] is None:
        code = EXIT_UNDETERMINED
    return code, report


def run_genus4(args):
    k, qp_mode = _field_from_args(args)
    eps = CubicForm(k, parse_cubic_form(args.eps))
    inp = validate_genus4(k, eps, r=args.r, qp_mode=qp_mode)
    report = genus4_report(inp, engine_check=not args.no_engine_check)
    return EXIT_OK, report


def run_component_group(args):
    rows = parse_int_matrix(args.matrix)
    phi = component_group(rows)
    report = {
        "schema_version": 1,
        "command": "component-group",
        "matrix": rows,
        "phi": phi.invariant_factors,
        "order": phi.order,
    }
    if args.r is not None:
        reps = phi_torsion_representatives(phi, args.r)
        report["torsion"] = {
            "r": args.r,
            "elements": [{"element": list(el), "multidegree": list(rep)}
                         for el, rep in reps],
        }
    return EXIT_OK, report


def run_torus(args):
    prime_power(args.q)
    rows, components = parse_lattice(args.lattice)
    lattice = CharacterLattice(rows)
    q = args.q
    report = {
        "schema_version": 1,
        "command": "torus",
        "q": q,
        "rank": lattice.rank,
        "char_poly": format_univariate(lattice.char_poly),
        "order": torus_order(lattice, q),
    }
    if components:
        ok, cert, principal = verify_principal_decomposition(lattice, components)
        report["decomposition"] = {"valid": ok, "certificate": cert}
        if ok:
            comps = []
            for comp in principal:
                mg = mu_group(comp, q)
                comps.append({
                    "generator": list(comp.generator),
                    "char_poly": format_univariate(comp.char_poly),
                    "order": mg.order,
                    "host": mg.host,
                })
            report["decomposition"]["components"] = comps
    if args.enumerate:
        points = enumerate_rational_points(lattice, q)
        report["points"] = {
            "count": len(points),
            "invariants": points.invariants,
        }
    return EXIT_OK, report


def run_oracle(args):
    oracle.check_trials(args.trials)
    k, _ = _field_from_args(args)
    g = _poly_from_text(k, args.g)
    h = _poly_from_text(k, args.h)
    inp = validate_hyperelliptic(k, g, h, r=args.r)
    fiber, frame, phi, gens = inp.fiber_data
    degree, ofiber, torus, subgroup = oracle.prepare(inp, phi, gens, args.r)
    rng = random.Random(args.seed)
    agreements = 0
    for _ in range(args.trials):
        div = oracle.random_divisor(fiber, args.r, rng, degree)
        verdict = descent.divisibility_verdict(div, args.r, frame, phi, gens)
        truth = oracle.exhaustive_divisibility(div, args.r, ofiber, torus, subgroup)
        if (verdict.outcome == descent.DIVISIBLE) == truth:
            agreements += 1
    report = {
        "schema_version": 1,
        "command": "oracle",
        "q": k.q,
        "r": args.r,
        "trials": args.trials,
        "agreements": agreements,
        "torus_points": len(torus),
        "torus_order": frame.torus_order(),
    }
    code = EXIT_OK if agreements == args.trials else 1
    return code, report


def _render_text(report):
    lines = []

    def emit(key, value, indent=0):
        pad = "  " * indent
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            for k2 in sorted(value):
                emit(k2, value[k2], indent + 1)
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            lines.append(f"{pad}{key}:")
            for item in value:
                emit("-", item, indent + 1)
        else:
            lines.append(f"{pad}{key}: {value}")

    for key in sorted(report):
        emit(key, report[key])
    return "\n".join(lines)


def _emit(code, report, as_json, stream=None):
    stream = stream or sys.stdout
    if as_json:
        stream.write(json.dumps(report, sort_keys=True, separators=(",", ":")))
        stream.write("\n")
    else:
        stream.write(_render_text(report))
        stream.write("\n")
    return code


RUNNERS = {
    "hyperelliptic": run_hyperelliptic,
    "genus4": run_genus4,
    "component-group": run_component_group,
    "torus": run_torus,
    "oracle": run_oracle,
}


def run_line(argv, stream=None):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_SYNTAX if exc.code else EXIT_OK
    return dispatch(args, stream=stream)


def _refusal(exc):
    """(kind, exit code, message prefix) of a typed refusal."""
    for classes, kind, code, prefix in REFUSALS:
        if isinstance(exc, classes):
            return kind, code, prefix
    raise TypeError(f"{type(exc).__name__} is not a refusal")


def dispatch(args, stream=None):
    if args.command == "batch":
        return run_batch(args.path, stream=stream)
    runner = RUNNERS[args.command]
    try:
        code, report = runner(args)
    except REFUSAL_TYPES as exc:
        _kind, code, prefix = _refusal(exc)
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code
    return _emit(code, report, getattr(args, "json", False), stream=stream)


def run_batch(path, stream=None):
    """One request per line of the file; blank lines and lines starting with
    # are skipped.  Writes exactly one JSON line per request line, the report
    or an error record, and returns the largest exit code of the lines."""
    stream = stream or sys.stdout
    worst = EXIT_OK
    with open(path) as handle:
        for number, line in enumerate(handle, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            worst = max(worst, _batch_line(number, line, stream))
    return worst


def _batch_line(number, line, stream):
    def error(kind, code, message):
        print(f"line {number}: {message}", file=sys.stderr)
        record = {"schema_version": 1, "line": number,
                  "error": {"kind": kind, "exit_code": code, "message": message}}
        return _emit(code, record, True, stream=stream)

    try:
        argv = shlex.split(line)
    except ValueError as exc:
        return error("syntax", EXIT_SYNTAX, f"syntax error: {exc}")
    if argv[0] == "batch":
        return error("syntax", EXIT_SYNTAX, "syntax error: batch requests do not nest")
    if "--json" not in argv and argv[0] in RUNNERS:
        argv.append("--json")
    captured = io.StringIO()
    try:
        with contextlib.redirect_stderr(captured), contextlib.redirect_stdout(captured):
            args = _parser().parse_args(argv)
    except SystemExit:
        lines = captured.getvalue().strip().splitlines()
        return error("syntax", EXIT_SYNTAX,
                     lines[-1] if lines else "syntax error: not a request")
    try:
        code, report = RUNNERS[args.command](args)
    except REFUSAL_TYPES as exc:
        kind, code, prefix = _refusal(exc)
        return error(kind, code, f"{prefix}: {exc}")
    except Exception as exc:  # contained per line; the other lines still run
        import traceback  # only here: importing it costs startup time
        traceback.print_exc()
        return error("internal", EXIT_INTERNAL,
                     f"internal error: {type(exc).__name__}: {exc}")
    return _emit(code, report, True, stream=stream)


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        raise SystemExit(EXIT_SYNTAX if exc.code else EXIT_OK)
    raise SystemExit(dispatch(args))


if __name__ == "__main__":
    main()
