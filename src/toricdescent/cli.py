"""Command-line front end: family solvers, raw machinery, and the oracle.

Exit codes: 0 success; 2 invalid input syntax; 3 hypothesis violated by the
input; 4 undetermined verdict.  Reports go to stdout as text or, with
--json, as canonical JSON (sorted keys, no whitespace), so identical inputs
produce byte-identical output.  `batch` writes exactly one line per request
line: the report, or an error record naming the line.  A reader that closes
stdout or stderr early (`| head`, `2>&1 | head`) gets no traceback: the rest
of that stream goes to the null device and the exit code stays the
request's own.
"""

import argparse
import contextlib
import io
import json
import os
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
from .parsing import (DegreeLimitExceeded, MatrixLimitExceeded, ParseError,
                      format_univariate, parse_cubic_form, parse_int_matrix,
                      parse_lattice, parse_univariate)
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
      oracle.TooLarge, oracle.TrialsOutOfRange, DegreeLimitExceeded,
      MatrixLimitExceeded),
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
    # the subcommand parsers by name, which _parse calls directly
    parser.commands = sub.choices
    return parser


#: the parser every request of this process is parsed with, built on first use
_PARSER = None


def _parser():
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    return _PARSER


def _parse(argv):
    """_parser().parse_args(argv), with the subcommand's parser called
    directly when argv[0] names one: 40-44 us in place of 75-81 us for a
    hyperelliptic line (fastest of 5 x 2000 parses).  Its leftover arguments
    go to the top-level parser's error, as parse_args sends them, so every
    message stays the same."""
    parser = _parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extra = command.parse_known_args(argv[1:])
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    args.command = argv[0]
    return args


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
    text = (json.dumps(report, sort_keys=True, separators=(",", ":")) if as_json
            else _render_text(report))
    _write(stream or sys.stdout, text)
    return code


def _write(stream, text):
    """Write a line to stdout or stderr, silencing a stream whose reader has
    gone (_silence)."""
    try:
        stream.write(text + "\n")
    except BrokenPipeError:
        _silence(stream)


def _silence(stream):
    """Point a stream whose reader has gone (`| head`) at the null device:
    the rest of the output, and the flush at exit, go nowhere, and the
    process exits with the request's own code, not with a traceback."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, stream.fileno())
    os.close(devnull)


RUNNERS = {
    "hyperelliptic": run_hyperelliptic,
    "genus4": run_genus4,
    "component-group": run_component_group,
    "torus": run_torus,
    "oracle": run_oracle,
}


def run_line(argv, stream=None):
    try:
        args = _parse(argv)
    except SystemExit as exc:
        return EXIT_SYNTAX if exc.code else EXIT_OK
    return dispatch(args, stream=stream)


def _refuse(exc, number=None, stream=None):
    """Report a typed refusal, the first matching row of REFUSALS (_error)."""
    for classes, kind, code, prefix in REFUSALS:
        if isinstance(exc, classes):
            return _error(kind, code, f"{prefix}: {exc}", number, stream)
    raise TypeError(f"{type(exc).__name__} is not a refusal")


def _error(kind, code, message, number=None, stream=None):
    """Report a request that gave no report and return code: the message on
    stderr, and for line `number` of a batch, prefixed with the line, with
    an error record on stream in place of the report."""
    if number is None:
        _write(sys.stderr, message)
        return code
    _write(sys.stderr, f"line {number}: {message}")
    record = {"schema_version": 1, "line": number,
              "error": {"kind": kind, "exit_code": code, "message": message}}
    return _emit(code, record, True, stream=stream)


def dispatch(args, stream=None):
    if args.command == "batch":
        return run_batch(args.path, stream=stream)
    try:
        code, report = RUNNERS[args.command](args)
    except REFUSAL_TYPES as exc:
        return _refuse(exc)
    return _emit(code, report, getattr(args, "json", False), stream=stream)


def run_batch(path, stream=None):
    """One request per line of the file; blank lines and lines starting with
    # are skipped.  Writes exactly one JSON line per request line, the report
    or an error record, and returns the largest exit code of the lines.
    Bytes that are not UTF-8 spoil only their own line (_batch_line), and a
    file that cannot be opened is refused as invalid input."""
    stream = stream or sys.stdout
    try:
        handle = open(path, encoding="utf-8", errors="surrogateescape")
    except OSError as exc:
        return _error("invalid-input", EXIT_SYNTAX,
                      f"invalid input: cannot read batch file {path}: {exc.strerror}")
    worst = EXIT_OK
    with handle:
        for number, line in enumerate(handle, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            worst = max(worst, _batch_line(number, line, stream))
    return worst


def _batch_line(number, line, stream):
    def error(kind, code, message):
        return _error(kind, code, message, number, stream)

    try:
        line.encode("utf-8")  # the undecodable bytes, kept as surrogates
    except UnicodeEncodeError as exc:
        return error("syntax", EXIT_SYNTAX,
                     f"syntax error: the line is not UTF-8 text (column {exc.start + 1})")
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
            args = _parse(argv)
    except SystemExit:
        lines = captured.getvalue().strip().splitlines()
        return error("syntax", EXIT_SYNTAX,
                     lines[-1] if lines else "syntax error: not a request")
    try:
        code, report = RUNNERS[args.command](args)
    except REFUSAL_TYPES as exc:
        return _refuse(exc, number, stream)
    except Exception as exc:  # contained per line; the other lines still run
        import traceback  # only here: importing it costs startup time
        _write(sys.stderr, traceback.format_exc().rstrip("\n"))
        return error("internal", EXIT_INTERNAL,
                     f"internal error: {type(exc).__name__}: {exc}")
    return _emit(code, report, True, stream=stream)


def main(argv=None):
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        raise SystemExit(EXIT_SYNTAX if exc.code else EXIT_OK)
    code = dispatch(args)
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        _silence(sys.stdout)
    raise SystemExit(code)


if __name__ == "__main__":
    main()
