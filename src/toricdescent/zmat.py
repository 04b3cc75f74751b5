"""Exact integer matrix kernel: one Smith normal form with unimodular
certificates, which answers every linear question (integer solutions,
congruences, unimodular inverses); Bareiss determinants; characteristic
polynomials by Faddeev-LeVerrier.

All matrices are lists of lists of Python ints.  Everything here is exact
and stays in the integers, with no rational arithmetic; sizes are tiny (at
most ~10x10), so clarity beats asymptotics.  gcd and lcm are math's,
imported here for the modules that take them from zmat.
"""

from math import gcd, lcm


class ZmatError(ValueError):
    """Arguments outside a function's contract: matrices of the wrong shape,
    a modulus or an integer to factor below 1, an inexact division, a
    matrix to invert that is not unimodular."""


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_copy(A):
    return [row[:] for row in A]


def mat_mul(A, B):
    k = len(B)
    m = len(B[0]) if B else 0
    if any(len(row) != k for row in A):
        raise ZmatError(f"A has a row whose length is not {k}, the row count of B")
    # row by row, adding a multiple of row t of B for each nonzero entry of
    # A: a permutation matrix costs one row per row, not n dot products
    out = []
    for row in A:
        acc = [0] * m
        for a, brow in zip(row, B):
            if a:
                for j, b in enumerate(brow):
                    acc[j] += a * b
        out.append(acc)
    return out


def mat_vec(A, v):
    if any(len(row) != len(v) for row in A):
        raise ZmatError(f"A has a row whose length is not {len(v)}, the length of v")
    return [sum(row[j] * v[j] for j in range(len(v))) for row in A]


def det(A):
    """Determinant by fraction-free Bareiss elimination."""
    n = len(A)
    if n == 0:
        return 1
    M = mat_copy(A)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            for i in range(k + 1, n):
                if M[i][k] != 0:
                    M[k], M[i] = M[i], M[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
            M[i][k] = 0
        prev = M[k][k]
    return sign * M[n - 1][n - 1]


def charpoly(A):
    """Coefficients (low degree first, monic) of det(x*I - A), by
    Faddeev-LeVerrier: M_1 = I, c_(n-k) = -tr(A M_k) / k and
    M_(k+1) = A M_k + c_(n-k) I, all in integers."""
    n = len(A)
    coeffs = [0] * n + [1]
    M = identity(n)
    for k in range(1, n + 1):
        AM = mat_mul(A, M)
        # -tr(A M_k) / k is the coefficient c_(n-k) of the integer
        # polynomial det(x*I - A), so k divides the trace exactly
        c = -sum(AM[i][i] for i in range(n)) // k
        coeffs[n - k] = c
        M = [[v + c if i == j else v for j, v in enumerate(row)]
             for i, row in enumerate(AM)]
    return coeffs


def poly_eval_int(coeffs, x):
    """Evaluate an integer polynomial (coefficients low to high) at integer x."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def mat_inverse_unimodular(A):
    """Exact inverse of an integer matrix with determinant +-1: V U, from
    the Smith form U A V = I.  ZmatError for any other matrix."""
    n = len(A)
    if any(len(row) != n for row in A):
        raise ZmatError(f"A is not square: it has {n} rows and a row of another length")
    U, D, V = smith_normal_form(A)
    diagonal = [D[i][i] for i in range(n)]
    if any(d != 1 for d in diagonal):
        raise ZmatError(f"A is not unimodular: its Smith diagonal is {diagonal}")
    return mat_mul(V, U)


def smith_normal_form(A):
    """Return (U, D, V) with U*A*V = D, U and V unimodular, D diagonal with
    d_1 | d_2 | ... | d_r and all diagonal entries nonnegative."""
    rows = len(A)
    cols = len(A[0]) if rows else 0
    D = mat_copy(A)
    U = identity(rows)
    V = identity(cols)

    def row_op(i, j, q):  # row_i -= q * row_j
        D[i] = [a - q * b for a, b in zip(D[i], D[j])]
        U[i] = [a - q * b for a, b in zip(U[i], U[j])]

    def col_op(i, j, q):  # col_i -= q * col_j
        for r in range(rows):
            D[r][i] -= q * D[r][j]
        for r in range(cols):
            V[r][i] -= q * V[r][j]

    def swap_rows(i, j):
        D[i], D[j] = D[j], D[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for r in range(rows):
            D[r][i], D[r][j] = D[r][j], D[r][i]
        for r in range(cols):
            V[r][i], V[r][j] = V[r][j], V[r][i]

    t = 0
    while t < min(rows, cols):
        # locate smallest nonzero entry in trailing block
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                if D[i][j] != 0 and (best is None or abs(D[i][j]) < abs(D[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, rows):
                if D[i][t] != 0:
                    q = D[i][t] // D[t][t]
                    row_op(i, t, q)
                    if D[i][t] != 0:  # remainder smaller than pivot: promote it
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, cols):
                if D[t][j] != 0:
                    q = D[t][j] // D[t][t]
                    col_op(j, t, q)
                    if D[t][j] != 0:
                        swap_cols(t, j)
                        dirty = True
        # pivot must divide the whole trailing block
        offender = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if D[i][j] % D[t][t] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            row_op(t, offender, -1)  # fold offending row into pivot row, redo
            continue
        t += 1

    for i in range(min(rows, cols)):
        if D[i][i] < 0:
            D[i] = [-v for v in D[i]]
            U[i] = [-v for v in U[i]]
    return U, D, V


def snf_diagonal(A):
    U, D, V = smith_normal_form(A)
    return [D[i][i] for i in range(min(len(D), len(D[0]) if D else 0))]


def solve_int(A, b):
    """Solve A x = b over the integers, through the Smith form U A V = D.

    Returns (in_span, x): in_span tells whether b lies in the rational
    column span of A, and x is an integer solution, or None when b lies
    there only with non-integer coefficients.  Free coordinates of V^-1 x
    are 0, so x is the unique solution when the columns are independent."""
    rows = len(A)
    cols = len(A[0]) if rows else 0
    if len(b) != rows:
        raise ZmatError(f"b has {len(b)} entries, A has {rows} rows")
    U, D, V = smith_normal_form(A)
    y = [0] * cols
    integral = True
    for i, c in enumerate(mat_vec(U, b)):
        d = D[i][i] if i < cols else 0
        if d == 0:
            if c:
                return False, None
        elif c % d:
            integral = False
        else:
            y[i] = c // d
    return True, mat_vec(V, y) if integral else None


def solve_mod(A, b, n):
    """One solution x of A x = b (mod n), or None.  A is rows x cols.
    The Smith form U A V = D turns A x = b into D y = U b with x = V y, one
    congruence per diagonal entry."""
    rows = len(A)
    if len(b) != rows:
        raise ZmatError(f"b has {len(b)} entries, A has {rows} rows")
    if n < 1:
        raise ZmatError(f"modulus {n} is below 1")
    U, D, V = smith_normal_form(A)
    cols = len(V)
    c = [v % n for v in mat_vec(U, b)]
    y = [0] * cols
    for i in range(rows):
        ci = c[i]
        if i >= cols:
            if ci:
                return None
            continue
        d = D[i][i] % n
        g = gcd(d, n)
        if ci % g != 0:
            return None
        # solve d * y = ci mod n
        dd, cc, nn = d // g, ci // g, n // g
        y[i] = (cc * pow(dd, -1, nn)) % nn if nn > 1 else 0
    x = mat_vec(V, y)
    return [v % n for v in x]


def factorize(n):
    """Prime factorization by trial division; n is small here."""
    if n < 1:
        raise ZmatError(f"cannot factor {n}")
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def poly_mul_int(a, b):
    """Product of integer polynomials (coefficients low degree first)."""
    out = [0] * (len(a) + len(b) - 1)
    for i, av in enumerate(a):
        if av:
            for j, bv in enumerate(b):
                out[i + j] += av * bv
    return out


def poly_divexact_int(a, b):
    """Exact quotient of integer polynomials; ZmatError unless b divides a."""
    r = list(a)
    out = [0] * (len(a) - len(b) + 1)
    for i in range(len(r) - 1, len(b) - 2, -1):
        c, rem = divmod(r[i], b[-1])
        if rem:
            raise ZmatError(f"{b} does not divide {a}")
        out[i - len(b) + 1] = c
        for j in range(len(b)):
            r[i - len(b) + 1 + j] -= c * b[j]
    if any(r):
        raise ZmatError(f"{b} does not divide {a}")
    return out


def group_invariants(orders):
    """Invariant factors d_1 | d_2 | ... of a direct sum of cyclic groups
    of the given orders (order 1 summands are dropped).

    The gcd/lcm normal form of the diagonal: replacing a pair (a, b) by
    (gcd, lcm) keeps the group, and after every pair i < j has been replaced
    in order, each entry divides the next.  No order is factored."""
    d = list(orders)
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            g = gcd(d[i], d[j])
            d[i], d[j] = g, d[i] // g * d[j]
    return [n for n in d if n > 1]
