"""Dual graphs of totally degenerate special fibers with Galois action:
cycle space, induced Frobenius matrix, component groups of intersection
matrices, and fibral-lattice membership.

Edges are oriented (tail, head, label) triples; labels must be unique and
sortable, and fix every deterministic choice (spanning tree, basis order).
A 1-cycle is an integer vector indexed by edges, +1 meaning traversal from
tail to head; its boundary must vanish at every vertex.
"""

import math
from functools import cached_property
from itertools import product

from . import zmat
from .torus import FROBENIUS_ORDER_BOUND, CharacterLattice
from .zmat import factorize, gcd, lcm, mat_vec, smith_normal_form


class GraphError(Exception):
    pass


class Disconnected(GraphError):
    pass


class NotSupported(GraphError):
    pass


class FrobeniusOrderTooLarge(NotSupported):
    """The Galois generator's order on the cycle space exceeds
    FROBENIUS_ORDER_BOUND, the bound every character lattice keeps."""


class DualGraph:
    """Vertices are components of the special fiber, edges are nodes; the
    Galois action is a permutation pair respecting incidence."""

    def __init__(self, num_vertices, edges, vertex_perm=None, edge_perm=None):
        self.num_vertices = num_vertices
        self.edges = [(int(t), int(h), label) for (t, h, label) in edges]
        labels = [e[2] for e in self.edges]
        if len(set(labels)) != len(labels):
            raise GraphError("edge labels must be unique")
        for t, h, _ in self.edges:
            if not (0 <= t < num_vertices and 0 <= h < num_vertices):
                raise GraphError("edge endpoint out of range")
        self.vertex_perm = tuple(vertex_perm) if vertex_perm else tuple(range(num_vertices))
        self.edge_perm = tuple(edge_perm) if edge_perm else tuple(range(len(self.edges)))
        if sorted(self.vertex_perm) != list(range(num_vertices)):
            raise GraphError("vertex permutation is not a permutation")
        if sorted(self.edge_perm) != list(range(len(self.edges))):
            raise GraphError("edge permutation is not a permutation")
        # orientation sign of each edge under the Galois generator
        self.edge_sign = []
        for i, (t, h, _) in enumerate(self.edges):
            t2, h2 = self.vertex_perm[t], self.vertex_perm[h]
            it, ih, _ = self.edges[self.edge_perm[i]]
            if (it, ih) == (t2, h2):
                self.edge_sign.append(1)
            elif (it, ih) == (h2, t2):
                self.edge_sign.append(-1)
            else:
                raise GraphError(f"galois action breaks incidence at edge {i}")
        if not self._connected():
            raise Disconnected("dual graph must be connected")

    def _connected(self):
        if self.num_vertices == 0:
            return False
        seen = {0}
        frontier = [0]
        while frontier:
            v = frontier.pop()
            for t, h, _ in self.edges:
                for a, b in ((t, h), (h, t)):
                    if a == v and b not in seen:
                        seen.add(b)
                        frontier.append(b)
        return len(seen) == self.num_vertices

    @cached_property
    def cycle_basis(self):
        """(basis, coords) of h1_basis, without the Frobenius matrix."""
        parent = list(range(self.num_vertices))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        order = sorted(range(self.num_edges), key=lambda i: self.edges[i][2])
        tree = []
        cotree = []
        for i in order:
            t, h, _ = self.edges[i]
            rt, rh = find(t), find(h)
            if rt != rh and t != h:
                parent[rt] = rh
                tree.append(i)
            else:
                cotree.append(i)
        # adjacency restricted to the tree, for path finding
        adj = {v: [] for v in range(self.num_vertices)}
        for i in tree:
            t, h, _ = self.edges[i]
            adj[t].append((h, i, 1))
            adj[h].append((t, i, -1))

        def tree_path(a, b):
            """Edge steps (index, direction) along the tree from a to b."""
            prev = {a: None}
            frontier = [a]
            while frontier:
                v = frontier.pop(0)
                if v == b:
                    break
                for w, i, d in adj[v]:
                    if w not in prev:
                        prev[w] = (v, i, d)
                        frontier.append(w)
            steps = []
            v = b
            while v != a:
                u, i, d = prev[v]
                steps.append((i, d))
                v = u
            steps.reverse()
            return steps

        basis = []
        for e in cotree:
            t, h, _ = self.edges[e]
            vec = [0] * self.num_edges
            vec[e] = 1
            for i, d in tree_path(h, t):
                vec[i] += d
            basis.append(Cycle(self, vec))

        def coords(cycle):
            return tuple(cycle.vector[e] for e in cotree)

        return basis, coords

    @property
    def num_edges(self):
        return len(self.edges)

    def h1_rank(self):
        return self.num_edges - self.num_vertices + 1

    def sigma_cycle(self, cycle):
        """Image of a cycle under the Galois generator."""
        vec = list(cycle.vector) if isinstance(cycle, Cycle) else list(cycle)
        out = [0] * self.num_edges
        for i, c in enumerate(vec):
            if c:
                out[self.edge_perm[i]] += self.edge_sign[i] * c
        return Cycle(self, out)

    def edge_orbits(self):
        """Galois orbits of edge indices, each listed in sigma order starting
        from its smallest-label edge; orbits sorted by that label."""
        seen = set()
        orbits = []
        order = sorted(range(self.num_edges), key=lambda i: self.edges[i][2])
        for i in order:
            if i in seen:
                continue
            orbit = [i]
            seen.add(i)
            j = self.edge_perm[i]
            while j != i:
                orbit.append(j)
                seen.add(j)
                j = self.edge_perm[j]
            orbits.append(orbit)
        return orbits


class Cycle:
    """Closed oriented 1-cycle: integer vector over the edges."""

    __slots__ = ("graph", "vector")

    def __init__(self, graph, vector):
        vec = tuple(int(v) for v in vector)
        if len(vec) != graph.num_edges:
            raise GraphError("cycle vector length mismatch")
        boundary = [0] * graph.num_vertices
        for i, c in enumerate(vec):
            t, h, _ = graph.edges[i]
            boundary[t] -= c
            boundary[h] += c
        if any(boundary):
            raise GraphError(f"vector has nonzero boundary {boundary}")
        self.graph = graph
        self.vector = vec

    def __add__(self, other):
        return Cycle(self.graph, [a + b for a, b in zip(self.vector, other.vector)])

    def __sub__(self, other):
        return Cycle(self.graph, [a - b for a, b in zip(self.vector, other.vector)])

    def __neg__(self):
        return Cycle(self.graph, [-a for a in self.vector])

    def scale(self, k):
        return Cycle(self.graph, [k * a for a in self.vector])

    def __eq__(self, other):
        return isinstance(other, Cycle) and self.graph is other.graph and self.vector == other.vector

    def __hash__(self):
        return hash(self.vector)

    def is_zero(self):
        return not any(self.vector)

    def __repr__(self):
        return f"Cycle{self.vector}"


def _signed_power(graph, n):
    """sigma^n on the edges, as (image, sign) lists: sigma^n sends edge i to
    sign[i] times edge image[i]; by repeated squaring."""
    count = graph.num_edges
    image, sign = list(range(count)), [1] * count
    base, base_sign = list(graph.edge_perm), list(graph.edge_sign)
    while n:
        if n & 1:
            image, sign = ([base[j] for j in image],
                           [s * base_sign[j] for s, j in zip(sign, image)])
        n >>= 1
        if n:
            base, base_sign = ([base[j] for j in base],
                               [s * base_sign[j] for s, j in zip(base_sign, base)])
    return image, sign


def frobenius_order(graph):
    """Order of the Galois generator on the cycle space, read off the signed
    edge permutation with no matrix product: it divides the permutation's
    order (the lcm of its cycle lengths, a cycle doubled when its signs
    multiply to -1), and each prime is stripped while sigma^(n/l) still
    fixes every basis cycle."""
    basis, _coords = graph.cycle_basis
    n = 1
    seen = set()
    for i in range(graph.num_edges):
        length, sign, j = 0, 1, i
        while j not in seen:
            seen.add(j)
            sign *= graph.edge_sign[j]
            j = graph.edge_perm[j]
            length += 1
        if length:
            n = lcm(n, length if sign == 1 else 2 * length)

    def fixes(e):
        image, sign = _signed_power(graph, e)
        for b in basis:
            out = [0] * graph.num_edges
            for i, c in enumerate(b.vector):
                if c:
                    out[image[i]] += sign[i] * c
            if tuple(out) != b.vector:
                return False
        return True

    for ell in factorize(n):
        while n % ell == 0 and fixes(n // ell):
            n //= ell
    return n


def h1_basis(graph):
    """Basis of the cycle space from the deterministic spanning tree, plus the
    matrix of the Galois generator on that basis.

    Tree edges are chosen greedily in label order.  Each remaining edge e
    yields the fundamental cycle that traverses e tail-to-head and returns
    through the tree; basis order follows the labels of the non-tree edges.
    The coordinate of any cycle along basis element i is its entry at the
    i-th non-tree edge.

    FrobeniusOrderTooLarge, before any matrix is built, when the Galois
    generator's order (frobenius_order) exceeds FROBENIUS_ORDER_BOUND.
    """
    basis, coords = graph.cycle_basis
    order = frobenius_order(graph)
    if order > FROBENIUS_ORDER_BOUND:
        raise FrobeniusOrderTooLarge(
            f"frobenius order {order} exceeds the bound {FROBENIUS_ORDER_BOUND}")
    # DualGraph refuses a disconnected graph, so the tree spans all v vertices
    # with v - 1 edges and the e - v + 1 cotree edges give exactly h1_rank
    # basis cycles
    rank = graph.h1_rank()
    F = [[0] * rank for _ in range(rank)]
    for j, b in enumerate(basis):
        image = graph.sigma_cycle(b)
        for i, c in enumerate(coords(image)):
            F[i][j] = c
    return basis, CharacterLattice(F, label="H1", order=order), coords


class ComponentGroup:
    """Finite group of components of the special fiber of the Neron model,
    computed as homology at the degree-zero level.

    The group owns its intersection matrix: symmetric, with zero row sums,
    nonnegative off-diagonal entries and negative diagonal, validated here
    and reduced to one Smith form U N V = D.  Elements are tuples of
    residues in the Smith coordinates; projection is defined for
    multidegree vectors of total degree zero.
    """

    def __init__(self, rows):
        M = [list(map(int, row)) for row in rows]
        v = len(M)
        if not v:
            raise GraphError("intersection matrix must not be empty")
        if any(len(row) != v for row in M):
            raise GraphError("intersection matrix must be square")
        for i in range(v):
            for j in range(v):
                if M[i][j] != M[j][i]:
                    raise GraphError("intersection matrix must be symmetric")
                if i != j and M[i][j] < 0:
                    raise GraphError("off-diagonal entries must be nonnegative")
            if M[i][i] >= 0:
                raise GraphError("diagonal entries must be negative")
            if sum(M[i]) != 0:
                raise GraphError("rows must sum to zero")
        self.matrix = M
        # N = the first v - 1 rows: its columns are those of M, written in
        # the basis e_i - e_v of the degree-0 sublattice
        U, D, _V = smith_normal_form(M[:-1])
        self.diag = [D[i][i] for i in range(v - 1)]
        if any(d == 0 for d in self.diag):
            raise GraphError("special fiber is not connected (infinite group)")
        self.U = U
        self.invariant_factors = sorted(d for d in self.diag if d > 1)
        self.order = math.prod(self.diag)

    @cached_property
    def Uinv(self):
        """U^-1, which only representative needs."""
        return zmat.mat_inverse_unimodular(self.U)

    def smith_coordinates(self, multidegree):
        """U applied to the first v - 1 entries: the Smith coordinates of
        the multidegree moved to total degree zero at the last component."""
        deg = list(map(int, multidegree))
        if len(deg) != len(self.matrix):
            raise GraphError("multidegree length mismatch")
        return deg, mat_vec(self.U, deg[:-1])

    def project(self, multidegree):
        """Class of a total-degree-zero multidegree vector."""
        deg, y = self.smith_coordinates(multidegree)
        if sum(deg) != 0:
            raise GraphError("projection needs total degree zero")
        return tuple(c % d for c, d in zip(y, self.diag))

    def identity(self):
        return tuple(0 for _ in self.diag)

    def add(self, x, y):
        return tuple((a + b) % d for a, b, d in zip(x, y, self.diag))

    def scale(self, x, k):
        return tuple((a * k) % d for a, d in zip(x, self.diag))

    def element_order(self, x):
        return lcm(*(d // gcd(a, d) for a, d in zip(x, self.diag)))

    def representative(self, element):
        """A total-degree-zero multidegree vector projecting to the element."""
        y = [int(a) for a in element]
        x = mat_vec(self.Uinv, y)
        return tuple(x + [-sum(x)])

    def elements(self):
        return list(product(*map(range, self.diag)))

    def torsion_elements(self, r):
        """All elements killed by r: the multiples of d / gcd(r, d) in each
        coordinate."""
        return list(product(*(range(0, d, d // gcd(r, d)) for d in self.diag)))

    def __repr__(self):
        return f"ComponentGroup({self.invariant_factors or [1]})"


def component_group(matrix):
    return ComponentGroup(matrix)


#: component-group --r lists at most this many elements of Phi[r]: 10^4 of
#: them take about 0.1 s and 0.5 MB of JSON, where Z/10^6 at r = 10^6 took
#: 13 s and 51 MB
TORSION_LISTING_LIMIT = 10 ** 4


def phi_torsion_representatives(phi, r):
    """One total-degree-zero multidegree representative per element of the
    r-torsion subgroup.  GraphError, before anything is listed, when the
    subgroup has more than TORSION_LISTING_LIMIT elements."""
    if r < 1:
        raise GraphError("torsion order must be positive")
    size = math.prod(gcd(r, d) for d in phi.diag)
    if size > TORSION_LISTING_LIMIT:
        raise GraphError(f"the {r}-torsion has {size} elements, more than the "
                         f"listing limit {TORSION_LISTING_LIMIT}")
    return [(el, phi.representative(el)) for el in phi.torsion_elements(r)]


def fibral_lattice_membership(deg, r, phi):
    """True iff deg lies in r*Z^v + (row span of the intersection matrix),
    the obstruction in the component group: the total degree must be
    divisible by r (the rows have total degree 0), and deg moved to total
    degree zero at the last component must have its class in r*Phi, that is
    gcd(r, d_i) divides each Smith coordinate y_i."""
    if r < 1:
        raise GraphError("r must be positive")
    deg, y = phi.smith_coordinates(deg)
    return sum(deg) % r == 0 and all(c % gcd(r, d) == 0 for c, d in zip(y, phi.diag))


# ---------------------------------------------------------------------------
# principal generators for the supported graph shapes


def principal_cycle_generators(graph):
    """Generator cycles of a principal decomposition of the cycle lattice.

    Supported shapes: trivial Galois action on the cycle space (split torus,
    one generator per basis cycle); two-vertex graphs with either a rational
    node or a single full edge orbit.  Anything else raises NotSupported,
    mirroring the open gap for graphs without a distinguished rational node.
    """
    basis, _coords = graph.cycle_basis
    if not basis:
        return []
    if all(graph.sigma_cycle(b) == b for b in basis):
        return list(basis)
    if graph.num_vertices == 2:
        return _banana_generators(graph)
    raise NotSupported("no principal decomposition rule for this graph")


def _banana_generators(graph):
    orbits = graph.edge_orbits()
    if any(graph.edges[i][0] == graph.edges[i][1] for i in range(graph.num_edges)):
        raise NotSupported("self-nodes are outside the supported families")
    # normalize orientation bookkeeping: cycles are differences of edges
    fixed = [orb[0] for orb in orbits if len(orb) == 1]
    if fixed:
        base = min(fixed, key=lambda i: graph.edges[i][2])
        generators = []
        for orb in orbits:
            rep = orb[0]
            if rep == base and len(orb) == 1:
                continue
            generators.append(_edge_difference(graph, rep, base))
        return generators
    if len(orbits) == 1 and len(orbits[0]) == graph.num_edges:
        orb = orbits[0]
        return [_edge_difference(graph, orb[1], orb[0])]
    raise NotSupported("no rational node and several edge orbits")


def _edge_difference(graph, e1, e0):
    """The cycle e1 - e0 for two edges joining the same vertex pair."""
    vec = [0] * graph.num_edges
    t1, h1, _ = graph.edges[e1]
    t0, h0, _ = graph.edges[e0]
    vec[e1] += 1
    if (t0, h0) == (t1, h1):
        vec[e0] -= 1
    elif (t0, h0) == (h1, t1):
        vec[e0] += 1
    else:
        raise NotSupported("edges do not join the same component pair")
    return Cycle(graph, vec)


def chain_decomposition(cycle):
    """Decompose a cycle into closed walks.

    Each walk is a list of (vertex, enter_edge, leave_edge) occurrences; a
    walk through vertices v0 -> v1 -> ... -> v0 records, for every visited
    vertex, the node by which the walk arrives and the node by which it
    leaves.  Arcs are consumed deterministically in (label, direction) order.
    """
    graph = cycle.graph
    arcs = []  # (from_vertex, to_vertex, edge_index)
    for i, c in enumerate(cycle.vector):
        t, h, _ = graph.edges[i]
        if c > 0:
            arcs.extend([(t, h, i)] * c)
        elif c < 0:
            arcs.extend([(h, t, i)] * (-c))
    arcs.sort(key=lambda a: (graph.edges[a[2]][2], a[0]))
    unused = list(range(len(arcs)))
    walks = []
    while unused:
        start = unused[0]
        path = [arcs[start]]
        unused.remove(start)
        while path[-1][1] != path[0][0]:
            v = path[-1][1]
            nxt = next((k for k in unused if arcs[k][0] == v), None)
            if nxt is None:
                raise GraphError("cycle vector does not decompose into closed walks")
            path.append(arcs[nxt])
            unused.remove(nxt)
        # path is a closed arc sequence; record per-vertex occurrences
        walk = []
        n = len(path)
        for idx in range(n):
            enter_edge = path[idx - 1][2]
            vertex = path[idx][0]
            leave_edge = path[idx][2]
            walk.append((vertex, enter_edge, leave_edge))
        walks.append(walk)
    return walks
