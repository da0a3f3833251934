"""Independent reference implementations used only to check the package.

Nothing here is imported by the package itself: the Wootters closed form,
brute-force effect-polytope enumeration, scipy's LP solver (hull
membership, and measurement-polytope vertices on random objectives), Qhull
(the facets of a polytope), an exact enumeration of no-signalling boxes
over supports, and a brute-force search for local exchanges of a box
provide the second route for the dual-route tests.
"""

import itertools
from fractions import Fraction

import numpy as np
from scipy.optimize import linprog
from scipy.spatial import ConvexHull

_SY2 = np.kron(np.array([[0, -1j], [1j, 0]]), np.array([[0, -1j], [1j, 0]])).real


def binary_entropy(x: float) -> float:
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return float(-x * np.log2(x) - (1 - x) * np.log2(1 - x))


def wootters_eof(rho: np.ndarray) -> float:
    """Closed-form two-qubit entanglement of formation via the concurrence."""
    rho = np.asarray(rho, dtype=complex)
    rho_tilde = _SY2 @ rho.conj() @ _SY2
    ev = np.linalg.eigvals(rho @ rho_tilde)
    lam = np.sort(np.sqrt(np.clip(ev.real, 0.0, None)))[::-1]
    c = max(0.0, lam[0] - lam[1] - lam[2] - lam[3])
    return binary_entropy((1.0 + np.sqrt(1.0 - c * c)) / 2.0)


def hull_membership_scipy(generators, target) -> bool:
    """Convex-hull membership via scipy's LP, as an independent check."""
    g = np.column_stack([np.asarray(v, dtype=float) for v in generators])
    a_eq = np.vstack([g, np.ones(g.shape[1])])
    b_eq = np.concatenate([np.asarray(target, dtype=float), [1.0]])
    res = linprog(np.zeros(g.shape[1]), A_eq=a_eq, b_eq=b_eq,
                  bounds=[(0, None)] * g.shape[1], method="highs")
    return bool(res.success)


def qhull_facets(vertices) -> tuple:
    """The facets of the hull of ``vertices`` (rows), by Qhull.

    Qhull needs a full-dimensional input, so the vertices are first written
    in an orthonormal basis of their affine hull (through their mean).
    Returns each facet as the set of vertex indices on its plane, once
    (Qhull splits a facet into simplices, one plane each), the planes as
    rows (n, c) with n.y + c <= 0 inside, and the map x -> y into those
    coordinates.
    """
    verts = np.asarray(vertices, dtype=float)
    mean = verts.mean(axis=0)
    _, s, vh = np.linalg.svd(verts - mean)
    basis = vh[:int(np.sum(s > 1e-9 * s[0]))].T

    def coords(x):
        return (np.asarray(x, dtype=float) - mean) @ basis

    planes = ConvexHull(coords(verts)).equations
    values = coords(verts) @ planes[:, :-1].T + planes[:, -1]
    facets = list(dict.fromkeys(frozenset(np.flatnonzero(np.abs(col) <= 1e-9).tolist())
                                for col in values.T))
    return facets, planes, coords


def effect_polytope_vertices(system) -> list[np.ndarray]:
    """Enumerate the vertices of {a : 0 <= a(v) <= 1 on all pure states}.

    Brute force over dim-subsets of the active hyperplanes, from the pure
    states alone.  Production takes the other route: it maximizes over the
    pure measurements built from the listed extremal effects, so agreement
    also checks that the effect list is complete.
    """
    dim = system.dim
    rows, rhs = [], []
    for v in system.pure_states:
        rows.append(v)
        rhs.append(0.0)
        rows.append(v)
        rhs.append(1.0)
    vertices = []
    idx = range(len(rows))
    for combo in itertools.combinations(idx, dim):
        a_mat = np.array([rows[i] for i in combo])
        b_vec = np.array([rhs[i] for i in combo])
        if abs(np.linalg.det(a_mat)) < 1e-12:
            continue
        cand = np.linalg.solve(a_mat, b_vec)
        vals = np.array([cand @ v for v in system.pure_states])
        if vals.min() < -1e-9 or vals.max() > 1 + 1e-9:
            continue
        if not any(np.max(np.abs(cand - w)) < 1e-9 for w in vertices):
            vertices.append(cand)
    return vertices


def op_norm_bruteforce(system, delta: np.ndarray) -> float:
    """sup minus inf of effect values on delta, by vertex enumeration."""
    values = [float(a @ delta) for a in effect_polytope_vertices(system)]
    return max(values) - min(values)


def measurement_polytope_vertices(system, seed: int, objectives: int = 400
                                  ) -> list[list[np.ndarray]]:
    """Vertices of the measurement polytope {c >= 0 : sum_i c_i a_i = u}.

    ``a_i`` runs over the extremal effects other than the zero and unit
    effects.  Each vertex is the HiGHS optimum of a seeded random linear
    objective; it is returned as its scaled effects c_i a_i, and repeats
    are dropped.  A vertex with a small normal cone may be missed.
    """
    u = system.unit_effect
    effects = [a for a in system.extremal_effects
               if np.max(np.abs(a)) > 1e-9 and np.max(np.abs(a - u)) > 1e-9]
    a_eq = np.column_stack(effects)
    rng = np.random.default_rng(seed)
    found: dict[tuple, list[np.ndarray]] = {}
    for _ in range(objectives):
        res = linprog(rng.normal(size=len(effects)), A_eq=a_eq, b_eq=u,
                      bounds=[(0, None)] * len(effects), method="highs")
        assert res.status == 0, res.message
        vertex = [w * a for w, a in zip(res.x, effects) if w > 1e-9]
        found.setdefault(measurement_key(vertex), vertex)
    return list(found.values())


def measurement_key(effects) -> tuple:
    """An order-free key of a list of effects, equal up to rounding at 1e-8."""
    return tuple(sorted(tuple(np.round(np.asarray(a, dtype=float), 8)) for a in effects))


def shannon_bits(p) -> float:
    p = np.asarray(p, dtype=float)
    nz = p[p > 1e-15]
    return float(-np.sum(nz * np.log2(nz)))


def random_rank1_povm_entropy(rho: np.ndarray, rng: np.random.Generator,
                              n_outcomes: int, samples: int) -> float:
    """Smallest Shannon entropy over sampled rank-1 POVMs.

    POVMs are built by conjugating a partition of the identity into scaled
    rank-1 projectors with Haar-ish unitaries.
    """
    d = rho.shape[0]
    best = np.inf
    for _ in range(samples):
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        q, _ = np.linalg.qr(g)
        # random refinement: split each basis projector across outcomes
        split = rng.dirichlet(np.ones(max(1, n_outcomes - d + 1)), size=d)
        probs = []
        for i in range(d):
            p_i = float((q[:, i].conj() @ rho @ q[:, i]).real)
            probs.extend(p_i * split[i])
        best = min(best, shannon_bits(np.array(probs)))
    return best


def _eliminate(basis, vec, comb):
    """Clear the pivots of ``basis`` from ``vec`` in integer arithmetic.

    ``comb`` follows ``vec`` as an integer combination of the original
    vectors; each basis entry is (pivot, vector, combination).
    """
    for pivot, w, w_comb in basis:
        if vec[pivot]:
            s, t = w[pivot], vec[pivot]
            vec = [s * v - t * u for v, u in zip(vec, w)]
            comb = {k: s * comb.get(k, 0) - t * w_comb.get(k, 0)
                    for k in comb.keys() | w_comb.keys()}
    return vec, comb


def _extend_basis(basis, vec, comb):
    """``basis`` with ``vec`` added, or None when ``vec`` depends on it."""
    vec, comb = _eliminate(basis, vec, comb)
    pivot = next((i for i, v in enumerate(vec) if v), None)
    return None if pivot is None else basis + [(pivot, vec, comb)]


def no_signalling_vertices(n: int, d: int) -> set:
    """Vertices of the no-signalling polytope with n settings and d outcomes
    per party, exactly, by brute force over supports.

    The polytope is {p >= 0 : A p = b}: normalization per sector and
    equality of marginals.  A point of it is a vertex iff the columns of A
    on its support are linearly independent; it is then the unique solution
    on that support.  Supports grow one entry at a time, in sector order,
    with an exact echelon form of their columns.  A support is dropped
    when its columns become dependent (so do those of every larger one),
    when it would exceed rank(A) entries, or when it leaves a sector empty:
    every vertex avoids all three.  Each vertex is returned as the sorted
    tuple of its nonzero ((a, b, x, y), p) pairs.
    """
    cells = [(a, b, x, y) for x in range(n) for y in range(n)
             for a in range(d) for b in range(d)]
    constraints = [({(a, b, x, y): 1 for a in range(d) for b in range(d)}, 1)
                   for x in range(n) for y in range(n)]
    for a, x, y in itertools.product(range(d), range(n), range(n - 1)):
        row = {(a, b, x, y): 1 for b in range(d)}
        row.update({(a, b, x, y + 1): -1 for b in range(d)})
        constraints.append((row, 0))
    for b, y, x in itertools.product(range(d), range(n), range(n - 1)):
        row = {(a, b, x, y): 1 for a in range(d)}
        row.update({(a, b, x + 1, y): -1 for a in range(d)})
        constraints.append((row, 0))
    columns = [[row.get(cell, 0) for row, _ in constraints] for cell in cells]
    rhs = [value for _, value in constraints]
    basis: list = []
    for col in columns:
        basis = _extend_basis(basis, col, {}) or basis
    rank, sector = len(basis), d * d
    vertices = set()

    def grow(k, basis, support, residual):
        # residual: b with the pivots of basis cleared, as a combination of b and columns
        if k and k % sector == 0 and not any(j >= k - sector for j in support):
            return
        if k == len(cells):
            vec, comb = residual
            if any(vec):
                return
            # scale * b + sum_j c_j A_j = 0, so p_j = -c_j / scale
            point = {cells[j]: Fraction(-comb.get(j, 0), comb["rhs"]) for j in support}
            if all(v > 0 for v in point.values()):
                vertices.add(tuple(sorted(point.items())))
            return
        if len(support) < rank:
            grown = _extend_basis(basis, columns[k], {k: 1})
            if grown is not None:
                grow(k + 1, grown, support + [k], _eliminate(grown[-1:], *residual))
        grow(k + 1, basis, support, residual)

    grow(0, [], [], (rhs, {"rhs": 1}))
    return vertices


def local_exchange_exists(table) -> bool:
    """Whether local relabelings map a box onto its party swap, by brute force.

    ``table`` is indexed [a][b][x][y].  As a matrix m with rows (x, a) and
    columns (y, b), the swapped box is the transpose of m, and a pair of
    relabelings permutes rows and columns, keeping setting blocks together.
    Every relabeling r of Alice's (a setting permutation and one outcome
    permutation per setting) is tried.  Bob's then exists iff column (y, b)
    of m equals, on every row i, column c of the transpose at row r(i), for
    a bijection (y, b) -> c that keeps blocks together: iff the columns of m
    and of the row-permuted transpose agree as multisets of blocks.
    """
    d_a, d_b, n_x, n_y = len(table), len(table[0]), len(table[0][0]), len(table[0][0][0])
    if (n_x, d_a) != (n_y, d_b):
        return False
    n, d = n_x, d_a
    m = [[table[a][b][x][y] for y in range(n) for b in range(d)]
         for x in range(n) for a in range(d)]

    def block_multiset(column) -> list:
        return sorted(tuple(sorted(column(j) for j in range(s * d, (s + 1) * d)))
                      for s in range(n))

    wanted = block_multiset(lambda j: tuple(row[j] for row in m))
    for settings in itertools.permutations(range(n)):
        for outcomes in itertools.product(itertools.permutations(range(d)), repeat=n):
            r = [settings[x] * d + outcomes[x][a] for x in range(n) for a in range(d)]
            # column c of the transpose at row r(i) is m[c][r(i)]
            if block_multiset(lambda c: tuple(m[c][r_i] for r_i in r)) == wanted:
                return True
    return False
