import itertools
import math

import pytest

from conftest import project_with_base, rng_for
from toricdescent import zmat
from toricdescent.dual_graph import (
    Cycle, Disconnected, DualGraph, GraphError, NotSupported,
    chain_decomposition, component_group, fibral_lattice_membership, h1_basis,
    phi_torsion_representatives, principal_cycle_generators)

GENUS4_M = [[-4, 2, 2], [2, -4, 2], [2, 2, -4]]


def banana(d, edge_perm=None):
    return DualGraph(2, [(0, 1, i) for i in range(d)], edge_perm=edge_perm)


def test_h1_rank_and_tree():
    basis, lattice, _ = h1_basis(banana(3))
    assert lattice.rank == 2
    tree = DualGraph(3, [(0, 1, 0), (1, 2, 1)])
    assert h1_basis(tree)[1].rank == 0
    for d in range(2, 7):
        g = banana(d)
        assert h1_basis(g)[1].rank == g.num_edges - g.num_vertices + 1


def test_galois_action_char_poly():
    g = banana(3, edge_perm=[1, 2, 0])
    _, lattice, _ = h1_basis(g)
    assert lattice.char_poly == [1, 1, 1]
    # full d-orbit on B_d: cyclotomic-like quotient polynomial
    for d in (3, 4, 5, 6):
        g = banana(d, edge_perm=[(i + 1) % d for i in range(d)])
        _, lattice, _ = h1_basis(g)
        assert lattice.char_poly == [1] * d


def test_graph_validation():
    with pytest.raises(Disconnected):
        DualGraph(3, [(0, 1, 0)])
    with pytest.raises(GraphError):
        DualGraph(2, [(0, 1, 0), (0, 1, 0)])  # duplicate labels
    with pytest.raises(GraphError):
        DualGraph(2, [(0, 1, 0), (0, 1, 1)], edge_perm=[0, 0])
    # the Galois action fixes every component, so it keeps each edge's ends:
    # refused are a reversed parallel edge, a triangle's edges rotated, two
    # edges with one tail and different heads swapped, and two loops at
    # different vertices swapped
    for v, edges, perm in [
            (2, [(0, 1, 0), (1, 0, 1)], [1, 0]),
            (3, [(0, 1, 0), (1, 2, 1), (2, 0, 2)], [1, 2, 0]),
            (3, [(0, 1, 0), (0, 2, 1), (1, 2, 2)], [1, 0, 2]),
            (2, [(0, 0, 0), (1, 1, 1), (0, 1, 2)], [1, 0, 2])]:
        with pytest.raises(GraphError, match="galois action moves the ends of edge 0"):
            DualGraph(v, edges, edge_perm=perm)
    assert DualGraph(2, [(0, 1, 0), (1, 1, 1), (1, 1, 2)], edge_perm=[0, 2, 1]).edge_perm == (0, 2, 1)
    with pytest.raises(GraphError):
        Cycle(banana(3), [1, 0, 0])  # nonzero boundary


def test_component_group_examples():
    assert component_group([[-3, 3], [3, -3]]).invariant_factors == [3]
    assert component_group(GENUS4_M).invariant_factors == [2, 6]
    assert component_group([[-1, 1], [1, -1]]).invariant_factors == []
    for d in range(3, 9):
        phi = component_group([[-d, d], [d, -d]])
        assert phi.invariant_factors == [d] and phi.order == d


def test_component_group_rows_project_to_identity():
    for M in ([[-3, 3], [3, -3]], GENUS4_M, [[-5, 5], [5, -5]]):
        phi = component_group(M)
        for row in M:
            assert phi.project(row) == phi.identity()


def test_genus4_generators_realizable():
    phi = component_group(GENUS4_M)
    d1 = phi.project((0, 1, -1))
    d2 = project_with_base(phi, (1, -1, 2), 0)
    assert phi.element_order(d1) == 6
    assert phi.element_order(d2) == 2
    span = {phi.add(phi.scale(d1, a), phi.scale(d2, b))
            for a in range(6) for b in range(2)}
    assert len(span) == 12


def test_representatives_project_back():
    rng = rng_for("phi-reps")
    for M in ([[-3, 3], [3, -3]], GENUS4_M):
        phi = component_group(M)
        for el in phi.elements():
            rep = phi.representative(el)
            assert sum(rep) == 0
            assert phi.project(rep) == el


def test_torsion_representatives():
    phi4 = component_group(GENUS4_M)
    assert len(phi_torsion_representatives(phi4, 2)) == 4
    phi3 = component_group([[-3, 3], [3, -3]])
    assert len(phi_torsion_representatives(phi3, 2)) == 1
    assert len(phi_torsion_representatives(phi3, 3)) == 3


def test_fibral_membership_examples():
    phi = component_group([[-3, 3], [3, -3]])
    assert fibral_lattice_membership((1, 1), 2, phi)
    assert not fibral_lattice_membership((1, 0), 2, phi)
    assert fibral_lattice_membership((0, 0), 5, phi)
    assert fibral_lattice_membership((1, 0), 1, phi)
    with pytest.raises(GraphError, match="multidegree length mismatch"):
        fibral_lattice_membership((1, 0, 0), 2, phi)
    with pytest.raises(GraphError, match="r must be positive"):
        fibral_lattice_membership((1, 1), 0, phi)


def in_fibral_lattice(deg, r, M):
    """deg in r*Z^v + (row span of M), by search: deg - t M = 0 mod r for
    some t in [0, r)^v, since r times a row lies in r*Z^v."""
    v = len(M)
    return any(all((deg[i] - sum(t[j] * M[j][i] for j in range(v))) % r == 0
                   for i in range(v))
               for t in itertools.product(range(r), repeat=v))


def random_laplacian(v, rng, weight=4):
    """Minus the weighted Laplacian of a random connected graph on v
    vertices: a random spanning tree with positive weights, the other pairs
    with weights in [0, weight]."""
    M = [[0] * v for _ in range(v)]
    for j in range(1, v):
        i = rng.randrange(j)
        M[i][j] = M[j][i] = rng.randint(1, weight)
    for i in range(v):
        for j in range(i + 1, v):
            if not M[i][j]:
                M[i][j] = M[j][i] = rng.randint(0, weight)
    for i in range(v):
        M[i][i] = -sum(M[i])
    return M


def test_fibral_membership_against_box_search():
    rng = rng_for("fibral-box")
    mats = [[[-3, 3], [3, -3]], [[-2, 2], [2, -2]], GENUS4_M]
    mats += [random_laplacian(rng.randint(2, 4), rng) for _ in range(12)]
    off_total = 0
    for M in mats:
        phi = component_group(M)
        v = len(M)
        for r in range(2, 7):
            for _ in range(20):
                # any total degree: those not divisible by r are never members
                deg = [rng.randrange(-6, 7) for _ in range(v)]
                off_total += sum(deg) % r != 0
                expected = in_fibral_lattice(deg, r, M)
                assert fibral_lattice_membership(deg, r, phi) == expected, (M, r, deg)
    assert off_total > 500


def test_membership_equivalent_to_phi_divisibility():
    # for total-degree-zero vectors: membership in r Z^v + rows is the same
    # as the class being divisible by r in the component group
    rng = rng_for("fibral-phi")
    for M in ([[-3, 3], [3, -3]], GENUS4_M):
        phi = component_group(M)
        v = len(M)
        for r in (2, 3, 4, 6):
            for _ in range(60):
                deg = [rng.randrange(-6, 7) for _ in range(v - 1)]
                deg.append(-sum(deg))
                cls = phi.project(deg)
                divisible = any(phi.scale(other, r) == cls for other in phi.elements())
                assert fibral_lattice_membership(deg, r, phi) == divisible


def norm_cycle(cycle, graph):
    """Sum of the Galois orbit of the cycle."""
    acc = cur = cycle
    while (cur := graph.sigma_cycle(cur)) != cycle:
        acc = acc + cur
    return acc


def test_norm_cycle():
    g = banana(3, edge_perm=[1, 2, 0])
    basis, _, _ = h1_basis(g)
    nm = norm_cycle(basis[0], g)
    assert g.sigma_cycle(nm) == nm
    fixed = banana(3)
    assert norm_cycle(h1_basis(fixed)[0][0], fixed) == h1_basis(fixed)[0][0]
    # orbit of length 2 sums both elements
    g4edges = [(0, 1, 0), (0, 1, 1), (0, 2, 2), (0, 2, 3), (1, 2, 4), (1, 2, 5)]
    g4 = DualGraph(3, g4edges, edge_perm=[0, 1, 3, 2, 4, 5])
    gamma3 = Cycle(g4, [1, 0, -1, 0, 0, 1])
    gamma4 = Cycle(g4, [1, 0, 0, -1, 0, 1])
    assert g4.sigma_cycle(gamma3) == gamma4
    assert norm_cycle(gamma3, g4) == gamma3 + gamma4


@pytest.mark.parametrize("rows, message", [
    ([], "intersection matrix must not be empty"),
    ([[-1, 1, 0], [1, -1]], "intersection matrix must be square"),
    ([[-2, 1], [2, -2]], "intersection matrix must be symmetric"),
    ([[1, -1], [-1, 1]], "off-diagonal entries must be nonnegative"),
    ([[0, 0], [0, 0]], "diagonal entries must be negative"),
    ([[-1, 2], [2, -1]], "rows must sum to zero"),
    ([[-1, 1, 0, 0], [1, -1, 0, 0], [0, 0, -1, 1], [0, 0, 1, -1]],
     "special fiber is not connected"),
])
def test_component_group_validates_the_matrix(rows, message):
    with pytest.raises(GraphError, match=message):
        component_group(rows)


def test_component_group_keeps_the_rows():
    # two lines crossing four times
    assert component_group([[-4, 4], [4, -4]]).matrix == [[-4, 4], [4, -4]]


def test_principal_generators():
    gens = principal_cycle_generators(banana(3))
    assert [g.vector for g in gens] == [(-1, 1, 0), (-1, 0, 1)]
    gens = principal_cycle_generators(banana(3, edge_perm=[1, 2, 0]))
    assert len(gens) == 1
    # rational node present: one generator per other orbit
    g = banana(3, edge_perm=[0, 2, 1])
    gens = principal_cycle_generators(g)
    assert len(gens) == 1 and gens[0].vector == (-1, 1, 0)
    # no rational node, two orbits
    g = banana(4, edge_perm=[1, 0, 3, 2])
    with pytest.raises(NotSupported):
        principal_cycle_generators(g)


def test_chain_decomposition_consumes_cycle():
    rng = rng_for("chains")
    g = banana(4)
    basis, _, _ = h1_basis(g)
    for _ in range(50):
        vec = [0] * g.num_edges
        cyc = Cycle(g, vec)
        for b in basis:
            cyc = cyc + b.scale(rng.randrange(-2, 3))
        if cyc.is_zero():
            continue
        walks = chain_decomposition(cyc)
        recon = [0] * g.num_edges
        for walk in walks:
            for comp, enter, leave in walk:
                # the leave edge is traversed away from comp
                t, h, _ = g.edges[leave]
                recon[leave] += 1 if t == comp else -1
        assert tuple(recon) == cyc.vector


def test_smith_certificates():
    rng = rng_for("snf-cert")
    for _ in range(200):
        n, m = rng.randrange(1, 5), rng.randrange(1, 5)
        A = [[rng.randrange(-9, 10) for _ in range(m)] for _ in range(n)]
        U, D, V = zmat.smith_normal_form(A)
        assert abs(zmat.det(U)) == 1 and abs(zmat.det(V)) == 1
        assert zmat.mat_mul(zmat.mat_mul(U, A), V) == D
        diag = [D[i][i] for i in range(min(n, m))]
        for i in range(n):
            for j in range(m):
                if i != j:
                    assert D[i][j] == 0
        for a, b in zip(diag, diag[1:]):
            if b:
                assert a != 0 and b % a == 0


def test_principal_generators_build_no_lattice(monkeypatch):
    """principal_cycle_generators needs the cycle basis only, not the
    Frobenius matrix on it."""
    from toricdescent import dual_graph
    built = []

    def counting(*args, **kwargs):
        built.append(args)
        return original(*args, **kwargs)

    original = dual_graph.CharacterLattice
    monkeypatch.setattr(dual_graph, "CharacterLattice", counting)
    principal_cycle_generators(banana(4, edge_perm=[0, 2, 3, 1]))
    assert built == []


def _matrix_order(F):
    """The order of an integer matrix of finite order, by its powers."""
    ident = zmat.identity(len(F))
    power, n = F, 1
    while power != ident:
        power, n = zmat.mat_mul(power, F), n + 1
    return n


def _component_fixing_multigraph(rng):
    """A random connected multigraph with loops and parallel edges, and a
    random Galois permutation inside each class of edges with one tail and
    head.  At most five edges share their ends, so the order stays at most
    60, under FROBENIUS_ORDER_BOUND."""
    v = rng.randrange(1, 5)
    ends = [(rng.randrange(i), i) for i in range(1, v)]  # a spanning tree
    for _ in range(rng.randrange(1, 9)):
        t = rng.randrange(v)
        ends.append((t, t) if rng.random() < 0.3 else (t, rng.randrange(v)))
    classes = {}
    for i, pair in enumerate(ends):
        classes.setdefault(pair, []).append(i)
    classes = [members[:5] for members in classes.values()]
    kept = sorted(i for members in classes for i in members)
    index = {i: n for n, i in enumerate(kept)}
    perm = [0] * len(kept)
    for members in classes:
        images = members[:]
        rng.shuffle(images)
        for i, j in zip(members, images):
            perm[index[i]] = index[j]
    edges = [(*ends[i], n) for n, i in enumerate(kept)]
    return DualGraph(v, edges, edge_perm=perm)


def test_frobenius_order_from_the_edge_permutation():
    from toricdescent.dual_graph import frobenius_order
    rng = rng_for("frobenius-order")
    graphs = [
        # the genus-4 triangle with the edges of +-i swapped
        DualGraph(3, [(0, 1, 0), (0, 1, 1), (0, 2, 2), (0, 2, 3), (1, 2, 4), (1, 2, 5)],
                  edge_perm=[0, 1, 3, 2, 4, 5]),
        # two parallel pairs swapped on either side of a fixed bridge
        DualGraph(4, [(0, 1, 0), (0, 1, 1), (1, 2, 2), (2, 3, 3), (2, 3, 4)],
                  edge_perm=[1, 0, 2, 4, 3]),
    ]
    graphs += [_component_fixing_multigraph(rng) for _ in range(200)]
    for g in graphs:
        order = frobenius_order(g)
        orbit_lcm = math.lcm(*(len(orbit) for orbit in g.edge_orbits()))
        lattice = h1_basis(g)[1]
        assert order == orbit_lcm == _matrix_order(lattice.frobenius) == lattice.order
    # the order is the permutation's
    assert frobenius_order(graphs[1]) == 2
    assert max(map(frobenius_order, graphs)) > 2


def test_frobenius_order_past_the_bound_is_refused_before_the_matrix():
    # orbits of lengths 5 and 13 next to a rational node: order 65 > 64
    from toricdescent.dual_graph import FrobeniusOrderTooLarge
    perm = [0] + [1 + (j + 1) % 5 for j in range(5)] + [6 + (j + 1) % 13 for j in range(13)]
    g = banana(19, edge_perm=perm)
    with pytest.raises(FrobeniusOrderTooLarge, match="frobenius order 65 exceeds the bound 64"):
        h1_basis(g)
    assert issubclass(FrobeniusOrderTooLarge, NotSupported)
    # the decomposition rule needs no lattice
    assert len(principal_cycle_generators(g)) == 2
