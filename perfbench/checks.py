"""Independent output checks for the benchmark workloads.

Nothing here calls into gptpurity or imports the repository's tests: each
check recomputes the answer, or verifies the returned witness, with plain
numpy, scipy's HiGHS LP solver or exact Fraction arithmetic.  A check
raises ``CheckFailed`` with a one-line reason when the output is wrong.
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy.optimize import linprog

#: EoF gate against the Wootters closed form, as in acceptance criterion 6
EOF_GATE = 1e-3
#: witness tolerances of the duality suite (criterion 1)
MIX_TOL = 1e-9
PROTOCOL_TOL = 1e-8
#: more_mixed weights must rebuild sigma to this (the solver's own promise)
WEIGHTS_TOL = 1e-8
#: closed-form monotone values and Birkhoff channels
VALUE_TOL = 1e-9


class CheckFailed(AssertionError):
    """An operation's output disagrees with the independent check."""


def require(ok: bool, reason: str) -> None:
    if not ok:
        raise CheckFailed(reason)


# ---------------------------------------------------------------------------
# quantum: Wootters EoF, marginal majorization, duality witnesses
# ---------------------------------------------------------------------------

_YY = np.kron(np.array([[0, -1j], [1j, 0]]), np.array([[0, -1j], [1j, 0]]))


def _h2(x: float) -> float:
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return float(-x * np.log2(x) - (1.0 - x) * np.log2(1.0 - x))


def wootters_eof(rho: np.ndarray) -> float:
    """Two-qubit entanglement of formation from the Wootters concurrence."""
    rho = np.asarray(rho, dtype=complex)
    r = rho @ (_YY @ rho.conj() @ _YY)
    lam = np.sort(np.sqrt(np.clip(np.linalg.eigvals(r).real, 0.0, None)))[::-1]
    c = max(0.0, lam[0] - lam[1] - lam[2] - lam[3])
    return _h2((1.0 + np.sqrt(1.0 - c * c)) / 2.0)


def check_eof(rho: np.ndarray, value: float) -> float:
    """Gate an EoF value against Wootters; return the gap."""
    gap = abs(float(value) - wootters_eof(rho))
    require(gap <= EOF_GATE, f"EoF off by {gap:.2e} from the Wootters value")
    return gap


def majorizes(p, q, atol: float = 1e-10) -> bool:
    """Partial sums of sorted p dominate those of sorted q."""
    ps = np.cumsum(np.sort(np.asarray(p, dtype=float))[::-1])
    qs = np.cumsum(np.sort(np.asarray(q, dtype=float))[::-1])
    return bool(np.all(ps >= qs - atol))


def reduced_a(vec: np.ndarray, d: int) -> np.ndarray:
    """Partial trace over B of |vec><vec| on d x d, with B fastest."""
    m = np.asarray(vec, dtype=complex).reshape(d, d)
    return np.einsum("ij,kj->ik", m, m.conj())


def check_direction(psi: np.ndarray, target: np.ndarray, d: int, out) -> None:
    """One direction of the duality: verdict, RaRe witness and protocol.

    ``out`` is ``(convertible, rare, protocol, verified)`` where the last
    three are None when the direction is not convertible.
    """
    convertible, rare, protocol, verified = out
    rho, rho_t = reduced_a(psi, d), reduced_a(target, d)
    expected = majorizes(np.linalg.eigvalsh(rho_t), np.linalg.eigvalsh(rho))
    require(bool(convertible) == expected,
            f"Nielsen verdict {convertible} but marginal majorization says {expected}")
    if not convertible:
        return
    require(verified is True, "protocol.verify rejected its own protocol")
    weights = np.array([w for w, _ in rare])
    require(weights.min() >= -1e-12 and abs(weights.sum() - 1.0) <= MIX_TOL,
            "RaRe weights are not a probability vector")
    mix = sum(w * u @ rho_t @ u.conj().T for w, u in rare)
    miss = float(np.max(np.abs(mix - rho)))
    require(miss <= MIX_TOL, f"RaRe mixture misses the marginal by {miss:.2e}")
    bob = [np.asarray(b) for b in protocol.bob_instrument]
    total = sum(b.conj().T @ b for b in bob)
    completeness = float(np.max(np.abs(total - np.eye(d))))
    require(completeness <= PROTOCOL_TOL, f"Bob's instrument misses completeness by {completeness:.2e}")
    probs = np.asarray(protocol.outcome_probs, dtype=float)
    require(abs(probs.sum() - 1.0) <= PROTOCOL_TOL, "outcome probabilities do not sum to 1")
    for a, b, p in zip(protocol.alice_corrections, bob, probs):
        branch = np.kron(np.asarray(a), b) @ psi
        overlap = np.vdot(target, branch)
        phase = overlap / abs(overlap) if abs(overlap) > 1e-14 else 1.0
        residual = float(np.linalg.norm(branch - np.sqrt(p) * phase * target))
        require(residual <= PROTOCOL_TOL, f"protocol outcome residual {residual:.2e}")


# ---------------------------------------------------------------------------
# polytope systems: mixedness verdicts, hulls, monotones
# ---------------------------------------------------------------------------

def hull_contains(points, target) -> bool:
    """Convex-hull membership of ``target`` by HiGHS."""
    g = np.column_stack([np.asarray(v, dtype=float) for v in points])
    a_eq = np.vstack([g, np.ones(g.shape[1])])
    b_eq = np.concatenate([np.asarray(target, dtype=float), [1.0]])
    res = linprog(np.zeros(g.shape[1]), A_eq=a_eq, b_eq=b_eq,
                  bounds=[(0, None)] * g.shape[1], method="highs")
    return bool(res.status == 0)


def check_weights(group, rho, sigma, cert) -> None:
    """A feasible verdict's weights over the group images of rho rebuild sigma."""
    w = np.asarray(cert.weights, dtype=float)
    require(w.min() >= -1e-12 and abs(w.sum() - 1.0) <= WEIGHTS_TOL,
            "mixing weights are not a probability vector")
    miss = float(np.max(np.abs(sum(wk * (np.asarray(u) @ rho) for wk, u in zip(w, group)) - sigma)))
    require(miss <= WEIGHTS_TOL, f"mixing weights rebuild sigma only to {miss:.2e}")


def check_more_mixed(group, rho, sigma, cert, classical: bool) -> None:
    """Verdict against majorization (classical) or HiGHS, weights rebuild sigma."""
    if classical:
        expected = majorizes(rho, sigma)
    else:
        expected = hull_contains([np.asarray(u) @ rho for u in group], sigma)
    require(cert.feasible == expected,
            f"more_mixed says {cert.status}, independent check says feasible={expected}")
    if cert.feasible:
        check_weights(group, rho, sigma, cert)


def distinct_points(points, atol: float = 1e-9) -> list[np.ndarray]:
    out: list[np.ndarray] = []
    for p in points:
        if all(np.max(np.abs(p - q)) > atol for q in out):
            out.append(p)
    return out


def check_orbit_hull(group, rho, vertices) -> None:
    """Every group here acts orthogonally, so its orbits lie on a sphere and
    every distinct orbit point is a hull vertex."""
    orbit = distinct_points([np.asarray(u) @ rho for u in group])
    require(len(vertices) == len(orbit),
            f"orbit hull has {len(vertices)} vertices, expected {len(orbit)}")
    for v in vertices:
        require(any(np.max(np.abs(v - w)) <= VALUE_TOL for w in orbit),
                "orbit hull vertex is not an orbit point")


def check_close(value: float, expected: float, what: str) -> None:
    require(abs(float(value) - expected) <= VALUE_TOL,
            f"{what} = {float(value):.12g}, expected {expected:.12g}")


def shannon_bits(p) -> float:
    p = np.asarray(p, dtype=float)
    p = p[p > 1e-15]
    return float(-np.sum(p * np.log2(p)))


def witness_probs(measurement, vertices, unit, state) -> np.ndarray:
    """Outcome probabilities of a returned measurement, after checking that it
    is one: effects sum to the unit effect and lie in [0, 1] on the vertices."""
    effects = [np.asarray(e.covec, dtype=float) for e in measurement.effects]
    require(np.max(np.abs(sum(effects) - unit)) <= VALUE_TOL,
            "witness effects do not sum to the unit effect")
    for e in effects:
        vals = np.array([e @ v for v in vertices])
        require(vals.min() >= -VALUE_TOL and vals.max() <= 1 + VALUE_TOL,
                "witness effect leaves [0, 1] on the state space")
    return np.array([e @ state for e in effects])


def op_norm_lp(vertices, delta) -> float:
    """Half of sup - inf of a(delta) over effects 0 <= a(v) <= 1, by HiGHS."""
    v = np.array(vertices, dtype=float)
    a_ub = np.vstack([v, -v])
    b_ub = np.concatenate([np.ones(len(v)), np.zeros(len(v))])
    free = [(None, None)] * v.shape[1]
    hi = linprog(-np.asarray(delta), A_ub=a_ub, b_ub=b_ub, bounds=free, method="highs")
    lo = linprog(np.asarray(delta), A_ub=a_ub, b_ub=b_ub, bounds=free, method="highs")
    require(hi.status == 0 and lo.status == 0, "reference effect LP did not solve")
    return 0.5 * (-hi.fun - lo.fun)


def permutations(n: int) -> list[tuple[int, ...]]:
    """S_n in the order of the classical group: (P x)[i] = x[perm[i]]."""
    return list(itertools.permutations(range(n)))


def check_birkhoff(p, q, channel) -> None:
    perms = permutations(len(p))
    weights = np.array([w for w, _ in channel.entries])
    require(weights.min() >= 0.0 and abs(weights.sum() - 1.0) <= VALUE_TOL,
            "Birkhoff weights are not a probability vector")
    image = sum(w * np.asarray(p)[list(perms[k])] for w, k in channel.entries)
    miss = float(np.max(np.abs(image - q)))
    require(miss <= VALUE_TOL, f"Birkhoff channel misses q by {miss:.2e}")


# ---------------------------------------------------------------------------
# box world, exactly
# ---------------------------------------------------------------------------
# Tables are nested lists t[a][b][x][y] of Fractions, the layout of BoxState.

def shape(t) -> tuple[int, int, int, int]:
    return len(t[0][0]), len(t[0][0][0]), len(t), len(t[0])   # n_x, n_y, d_a, d_b


def table_of(box) -> list:
    return [[[list(row) for row in bx] for bx in ab] for ab in box.table]


def is_no_signalling(t) -> bool:
    n_x, n_y, d_a, d_b = shape(t)
    for x, y in itertools.product(range(n_x), range(n_y)):
        if any(t[a][b][x][y] < 0 for a in range(d_a) for b in range(d_b)):
            return False
        if sum(t[a][b][x][y] for a in range(d_a) for b in range(d_b)) != 1:
            return False
    for a, x in itertools.product(range(d_a), range(n_x)):
        if len({sum(t[a][b][x][y] for b in range(d_b)) for y in range(n_y)}) > 1:
            return False
    for b, y in itertools.product(range(d_b), range(n_y)):
        if len({sum(t[a][b][x][y] for a in range(d_a)) for x in range(n_x)}) > 1:
            return False
    return True


def is_extreme(t) -> bool:
    """Vertex test: the constraints tight at the box fix it uniquely, i.e. the
    normalization and no-signalling rows restricted to its support have full
    column rank (floating-point rank of a small 0/+-1 matrix)."""
    n_x, n_y, d_a, d_b = shape(t)
    support = [(a, b, x, y) for a in range(d_a) for b in range(d_b)
               for x in range(n_x) for y in range(n_y) if t[a][b][x][y] != 0]
    col = {key: i for i, key in enumerate(support)}
    rows = []

    def row(coeffs):
        r = np.zeros(len(support))
        for key, c in coeffs:
            if key in col:
                r[col[key]] += c
        rows.append(r)

    for x, y in itertools.product(range(n_x), range(n_y)):
        row([((a, b, x, y), 1) for a in range(d_a) for b in range(d_b)])
    for a, x, y in itertools.product(range(d_a), range(n_x), range(n_y - 1)):
        row([((a, b, x, y), 1) for b in range(d_b)] + [((a, b, x, y + 1), -1) for b in range(d_b)])
    for b, y, x in itertools.product(range(d_b), range(n_y), range(n_x - 1)):
        row([((a, b, x, y), 1) for a in range(d_a)] + [((a, b, x + 1, y), -1) for a in range(d_a)])
    return int(np.linalg.matrix_rank(np.array(rows))) == len(support)


def relabel(t, side: str, setting_perm, outcome_perms) -> list:
    """Apply one side's relabeling: outcome_perms[x] acts on outcomes at the
    original setting x, whose new label is setting_perm[x]."""
    n_x, n_y, d_a, d_b = shape(t)
    out = [[[[None] * n_y for _ in range(n_x)] for _ in range(d_b)] for _ in range(d_a)]
    for a, b, x, y in itertools.product(range(d_a), range(d_b), range(n_x), range(n_y)):
        if side == "A":
            out[outcome_perms[x][a]][b][setting_perm[x]][y] = t[a][b][x][y]
        else:
            out[a][outcome_perms[y][b]][x][setting_perm[y]] = t[a][b][x][y]
    return out


def swap(t) -> list:
    n_x, n_y, d_a, d_b = shape(t)
    return [[[[t[b][a][y][x] for y in range(n_x)] for x in range(n_y)]
             for b in range(d_a)] for a in range(d_b)]


def _signature(t):
    """A relabeling invariant: per A-setting, the multiset over B-settings of
    (nonzero outcome rows, nonzero outcome columns, sorted entries)."""
    n_x, n_y, d_a, d_b = shape(t)

    def sector(x, y):
        m = [[t[a][b][x][y] for b in range(d_b)] for a in range(d_a)]
        rows = sum(any(v != 0 for v in r) for r in m)
        cols = sum(any(m[a][b] != 0 for a in range(d_a)) for b in range(d_b))
        return rows, cols, tuple(sorted(v for r in m for v in r))

    return sorted(tuple(sorted(sector(x, y) for y in range(n_y))) for x in range(n_x))


def check_exchange(t, result) -> None:
    """A returned pair must map the box exactly onto its party swap; a None
    must be backed by a relabeling invariant that tells box and swap apart."""
    target = swap(t)
    if result is None:
        require(_signature(t) != _signature(target),
                "no relabeling returned, but the invariant cannot rule one out")
        return
    r_a, r_b = result
    mapped = relabel(relabel(t, "A", r_a.setting_perm, r_a.outcome_perms),
                     "B", r_b.setting_perm, r_b.outcome_perms)
    require(mapped == target, "returned relabelings do not realize the party swap")
