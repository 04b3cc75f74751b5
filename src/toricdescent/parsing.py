"""Shared text grammar for polynomial input.

Univariate: integer coefficients, variable x, operators + - * ^; e.g.
"x^3-x" or "2*x^2+3".  Multivariate forms use the variables X, Y, Z, W with
the same operators, e.g. "X^3+Y^3+W*Z^2".  Juxtaposition ("2x") and
parentheses are not part of the grammar.

A polynomial in x may have degree at most DEGREE_LIMIT; a higher degree is
refused before its coefficient list is allocated.

Integer matrices (intersection matrices, character lattices) are JSON whose
shape is checked here: a malformed one is a ParseError.  An intersection
matrix may have at most MATRIX_ROW_LIMIT rows; more are refused before any
arithmetic.
"""

import json
import re

#: Largest degree parse_univariate accepts.  Every hyperelliptic and oracle
#: request starts by factoring g; at degree 64 that takes about 0.7 s over
#: GF(p) with p near 2^20 (0.07 s over GF(23)), and at degree 128 about 5 s.
DEGREE_LIMIT = 64

#: Most rows parse_int_matrix accepts.  The component group of the cycle
#: Laplacian took 0.26-0.56 s at 200 rows, 0.7-0.8 s at 256, 3.4 s at 400
#: and 27.5 s at 800.
MATRIX_ROW_LIMIT = 200


class ParseError(Exception):
    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class DegreeLimitExceeded(Exception):
    """A polynomial in x of degree above DEGREE_LIMIT: well formed, but
    refused as input."""


class MatrixLimitExceeded(Exception):
    """An integer matrix of more than MATRIX_ROW_LIMIT rows: well formed,
    but refused as input."""


_TOKEN = re.compile(r"\s*(?:(\d+)|([a-zA-Z])|([+\-*^]))")


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip() == "":
                break
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.group(1) is not None:
            try:
                value = int(m.group(1))
            except ValueError:  # beyond the interpreter's int string limit
                raise ParseError("integer literal too long", pos) from None
            tokens.append(("int", value, pos))
        elif m.group(2) is not None:
            tokens.append(("var", m.group(2), pos))
        else:
            tokens.append(("op", m.group(3), pos))
        pos = m.end()
    return tokens


def parse_polynomial(text, variables):
    """Parse into a dict: exponent tuple (one slot per variable) -> int.

    Terms are separated by + or -; a term is a * product of factors; a factor
    is an integer or a variable with an optional ^ exponent.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty polynomial", 0)
    var_index = {v: i for i, v in enumerate(variables)}
    result = {}
    i = 0
    sign = 1
    # optional leading sign
    if tokens[0][:2] == ("op", "-"):
        sign = -1
        i = 1
    elif tokens[0][:2] == ("op", "+"):
        i = 1
    while True:
        coeff = sign
        expo = [0] * len(variables)
        expect_factor = True
        while True:
            if i >= len(tokens):
                if expect_factor:
                    raise ParseError("term ends without a factor",
                                     tokens[-1][2] if tokens else 0)
                break
            kind, value, pos = tokens[i]
            if expect_factor:
                if kind == "int":
                    coeff *= value
                    i += 1
                elif kind == "var":
                    if value not in var_index:
                        raise ParseError(f"unknown variable {value!r}", pos)
                    power = 1
                    i += 1
                    if i < len(tokens) and tokens[i][:2] == ("op", "^"):
                        i += 1
                        if i >= len(tokens) or tokens[i][0] != "int":
                            raise ParseError("exponent must be an integer",
                                             tokens[i - 1][2])
                        power = tokens[i][1]
                        i += 1
                    expo[var_index[value]] += power
                else:
                    raise ParseError(f"unexpected operator {value!r}", pos)
                expect_factor = False
            else:
                if kind == "op" and value == "*":
                    i += 1
                    expect_factor = True
                elif kind == "op" and value in "+-":
                    break
                else:
                    raise ParseError(
                        f"unexpected token {value!r} (juxtaposition is not allowed)",
                        pos)
        key = tuple(expo)
        result[key] = result.get(key, 0) + coeff
        if i >= len(tokens):
            break
        # the term loop stops early only at a + or - after a factor:
        # consume that separator
        _kind, value, pos = tokens[i]
        sign = 1 if value == "+" else -1
        i += 1
        if i >= len(tokens):
            raise ParseError("dangling sign", pos)
    return {k: v for k, v in result.items() if v != 0}


def parse_univariate(text):
    """Coefficient list (low degree first) of a polynomial in x."""
    terms = parse_polynomial(text, ["x"])
    if not terms:
        return [0]
    degree = max(e[0] for e in terms)
    if degree > DEGREE_LIMIT:
        raise DegreeLimitExceeded(
            f"degree {degree} exceeds the degree limit {DEGREE_LIMIT}")
    out = [0] * (degree + 1)
    for (e,), c in terms.items():
        out[e] = c
    return out


def parse_cubic_form(text):
    """Exponent dict of a homogeneous cubic in X, Y, Z, W."""
    terms = parse_polynomial(text, ["X", "Y", "Z", "W"])
    for expo in terms:
        if sum(expo) != 3:
            raise ParseError(
                f"monomial of degree {sum(expo)} in a cubic form", 0)
    return terms


def _json(text, what):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{what} is not valid JSON: {exc.msg}", exc.pos) from None


def _int_rows(value, what, width=None):
    """value if it is a list of integer lists (of width entries each, if
    given); ParseError otherwise.  JSON true and 1.0 are not integers."""
    if not (isinstance(value, list) and all(
            isinstance(row, list) and width in (None, len(row))
            and all(type(x) is int for x in row) for row in value)):
        raise ParseError(f"{what} must be a list of integer rows"
                         + (f" of length {width}" if width is not None else ""), 0)
    return value


def parse_int_matrix(text):
    """The rows of a JSON integer matrix, e.g. [[-3,3],[3,-3]], at most
    MATRIX_ROW_LIMIT of them."""
    value = _json(text, "matrix")
    if isinstance(value, list) and len(value) > MATRIX_ROW_LIMIT:
        raise MatrixLimitExceeded(f"matrix has {len(value)} rows, more than the "
                                  f"row limit {MATRIX_ROW_LIMIT}")
    return _int_rows(value, "matrix")


def parse_lattice(text):
    """(frobenius rows, components) of a JSON lattice {"rank": g, "frobenius":
    rows or a flat row-major list of g^2 integers, "components": [chi...]}."""
    data = _json(text, "lattice")
    if not isinstance(data, dict) or "frobenius" not in data:
        raise ParseError('lattice must be a JSON object with a "frobenius" entry', 0)
    rows = data["frobenius"]
    if isinstance(rows, list) and rows and type(rows[0]) is int:
        rank = data.get("rank", len(rows))
        if type(rank) is not int or rank < 1 or len(rows) != rank * rank:
            raise ParseError("flat frobenius needs a rank >= 1 and rank^2 entries", 0)
        rows = [rows[i * rank:(i + 1) * rank] for i in range(rank)]
    _int_rows(rows, "frobenius")
    if data.get("rank", len(rows)) != len(rows):
        raise ParseError("rank differs from the number of frobenius rows", 0)
    return rows, _int_rows(data.get("components", []), "components", width=len(rows))


def format_univariate(coeffs, var="x"):
    """Render integer coefficients (low first) in the shared grammar."""
    parts = []
    for e in range(len(coeffs) - 1, -1, -1):
        c = int(coeffs[e])
        if c == 0:
            continue
        mag = abs(c)
        if e == 0:
            body = str(mag)
        elif e == 1:
            body = f"{var}" if mag == 1 else f"{mag}*{var}"
        else:
            body = f"{var}^{e}" if mag == 1 else f"{mag}*{var}^{e}"
        parts.append(("-" if c < 0 else "+", body))
    if not parts:
        return "0"
    first_sign, first_body = parts[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        out += sign + body
    return out
