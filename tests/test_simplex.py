import functools

import numpy as np
import pytest

from gptpurity import core, monotones, simplex

from oracles import hull_membership_scipy
from test_user_system import _pentagon_dict


def test_phase1_simple_feasible():
    a = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    b = np.array([0.5, 0.5, 1.0])
    feasible, x, _ = simplex.phase1(a, b)
    assert feasible
    np.testing.assert_allclose(a @ x, b, atol=1e-10)


def test_phase1_simple_infeasible():
    # x1 = 2 with x1 + x2 = 1, x >= 0 has no solution
    a = np.array([[1.0, 0.0], [1.0, 1.0]])
    b = np.array([2.0, 1.0])
    feasible, _, y = simplex.phase1(a, b)
    assert not feasible
    # Farkas: y.A <= 0 while y.b > 0
    assert np.max(y @ a) <= 1e-9
    assert y @ b > 1e-9


def test_phase1_agrees_with_scipy_on_random_hulls():
    rng = np.random.default_rng(42)
    for _ in range(200):
        dim = rng.integers(2, 5)
        n_gen = rng.integers(dim, 3 * dim)
        gens = rng.normal(size=(dim, n_gen))
        if rng.random() < 0.5:
            weights = rng.dirichlet(np.ones(n_gen))
            target = gens @ weights  # inside by construction
        else:
            target = rng.normal(size=dim)
        a = np.vstack([gens, np.ones(n_gen)])
        b = np.concatenate([target, [1.0]])
        feasible, x, _ = simplex.phase1(a, b)
        assert feasible == hull_membership_scipy(gens.T.tolist(), target)
        if feasible:
            np.testing.assert_allclose(a @ x, b, atol=1e-8)


def test_degenerate_pivoting_terminates():
    # many redundant constraints through the origin; Bland's rule must not cycle
    rng = np.random.default_rng(1)
    for _ in range(50):
        a = np.vstack([rng.normal(size=(3, 6)), rng.normal(size=(2, 6))])
        a[:, -1] = 0.0
        b = np.zeros(5)
        feasible, x, _ = simplex.phase1(a, b)
        assert feasible
        np.testing.assert_allclose(a @ x, b, atol=1e-9)


# -- vectorized kernel against the row-by-row reference ------------------------

def _pivot_loop(tableau, basis, row, col):
    """Reference pivot: one row update at a time."""
    tableau[row] /= tableau[row, col]
    piv = tableau[row]
    for i in range(tableau.shape[0]):
        if i != row and abs(tableau[i, col]) > 0.0:
            tableau[i] -= tableau[i, col] * piv
    basis[row] = col


def _run_loop(tableau, basis, cost, ties=None):
    """Reference Bland run: column scan for the entering index, isclose ties.

    Each ratio test with more than one minimizing row is appended to ``ties``."""
    m = tableau.shape[0]
    for _ in range(simplex.MAX_ITER):
        cb = cost[basis]
        reduced = cost[:-1] - cb @ tableau[:, :-1]
        entering = -1
        for j in range(reduced.shape[0]):
            if reduced[j] < -simplex.PIVOT_TOL:
                entering = j
                break
        if entering < 0:
            return
        ratios = np.full(m, np.inf)
        col = tableau[:, entering]
        ok = col > simplex.PIVOT_TOL
        ratios[ok] = tableau[ok, -1] / col[ok]
        best = np.min(ratios)
        if not np.isfinite(best):
            raise simplex.SimplexError("no leaving row for the entering column")
        rows = np.flatnonzero(np.isclose(ratios, best, rtol=0.0, atol=simplex.PIVOT_TOL))
        if ties is not None and rows.size > 1:
            ties.append(rows.size)
        leave = rows[np.argmin([basis[r] for r in rows])]
        _pivot_loop(tableau, basis, int(leave), int(entering))
    raise simplex.SimplexError("simplex iteration cap exceeded")


def _with_reference(monkeypatch, fn, *args, ties=None):
    with monkeypatch.context() as patch:
        patch.setattr(simplex, "_run", functools.partial(_run_loop, ties=ties))
        return fn(*args)


def _assert_phase1_matches_reference(monkeypatch, a, b, ties=None):
    feasible, x, y = simplex.phase1(a, b)
    ref_feasible, ref_x, ref_y = _with_reference(monkeypatch, simplex.phase1, a, b, ties=ties)
    assert feasible == ref_feasible
    assert x.tobytes() == ref_x.tobytes()
    assert y.tobytes() == ref_y.tobytes()
    return feasible


def _orbit_lp(system, rho, sigma):
    """The phase-1 system of more_mixed(rho, sigma), scaled as the caller does."""
    orbit = system.group @ rho
    scale = max(np.abs(orbit).max(), np.abs(sigma).max(), 1.0)
    a = np.vstack([np.ascontiguousarray(orbit.T), np.ones(len(orbit))]) / scale
    return a, np.append(sigma, 1.0) / scale


def _orbit_systems():
    return [core.make_classical(n) for n in (3, 4, 5, 6)] + [
        core.make_square_bit(), core.system_from_dict(_pentagon_dict())]


@pytest.mark.parametrize("system", _orbit_systems(), ids=lambda s: s.name)
def test_phase1_matches_reference_on_orbit_lps(system, monkeypatch):
    rng = np.random.default_rng(70)
    verts = np.asarray(system.pure_states)
    verdicts = []
    for _ in range(6):
        rho = rng.dirichlet(np.ones(len(verts))) @ verts
        picks = rng.choice(len(system.group), size=min(4, len(system.group)), replace=False)
        rare = rng.dirichlet(np.ones(len(picks))) @ (system.group[picks] @ rho)
        sharper = 0.5 * (rho + verts[rng.integers(len(verts))])
        for sigma in (rare, rng.dirichlet(np.ones(len(verts))) @ verts, sharper):
            verdicts.append(_assert_phase1_matches_reference(
                monkeypatch, *_orbit_lp(system, rho, sigma)))
    assert any(verdicts) and not all(verdicts)   # feasible and Farkas cases both seen


def test_phase1_matches_reference_on_degenerate_orbits(monkeypatch):
    rng = np.random.default_rng(71)
    cases = []
    for n in (4, 5, 6):
        system = core.make_classical(n)
        for _ in range(4):
            vals = rng.dirichlet(np.ones(n // 2))
            rho = rng.permutation(np.resize(np.repeat(vals / 2, 2), n))
            rho /= rho.sum()
            cases += [(system, rho, system.group[k] @ rho)
                      for k in rng.choice(len(system.group), 2)]
            cases.append((system, rho, np.full(n, 1.0 / n)))
            cases.append((system, rho, rng.dirichlet(np.ones(n))))
    four = core.make_classical(4)
    cases.append((four, np.array([0.4, 0.4, 0.1, 0.1]), np.array([0.4, 0.1, 0.4, 0.1])))
    for system, rho, sigma in cases:
        _assert_phase1_matches_reference(monkeypatch, *_orbit_lp(system, rho, sigma))


def test_phase1_matches_reference_on_random_and_degenerate_lps(monkeypatch):
    rng = np.random.default_rng(42)
    for _ in range(100):
        dim = rng.integers(2, 5)
        n_gen = rng.integers(dim, 3 * dim)
        gens = rng.normal(size=(dim, n_gen))
        target = (gens @ rng.dirichlet(np.ones(n_gen)) if rng.random() < 0.5
                  else rng.normal(size=dim))
        _assert_phase1_matches_reference(monkeypatch, np.vstack([gens, np.ones(n_gen)]),
                                         np.append(target, 1.0))
    rng = np.random.default_rng(1)                 # test_degenerate_pivoting_terminates
    for _ in range(50):
        a = np.vstack([rng.normal(size=(3, 6)), rng.normal(size=(2, 6))])
        a[:, -1] = 0.0
        _assert_phase1_matches_reference(monkeypatch, a, np.zeros(5))


def _effect_lp(system, delta, target):
    """Phase-1 form of {a : 0 <= a(v) <= 1 on every pure state v, a(delta) = target}.

    Variables are [a+, a-, s, t] with a = a+ - a-; the right-hand sides are
    ones and zeros, so the ratio test meets exact ties.
    """
    verts = np.asarray(system.pure_states)
    nv, d = verts.shape
    a = np.zeros((2 * nv + 1, 2 * d + 2 * nv))
    a[:nv, :d], a[:nv, d:2 * d], a[:nv, 2 * d:2 * d + nv] = verts, -verts, np.eye(nv)
    a[nv:2 * nv, :d], a[nv:2 * nv, d:2 * d], a[nv:2 * nv, 2 * d + nv:] = -verts, verts, np.eye(nv)
    a[-1, :d], a[-1, d:2 * d] = delta, -delta
    return a, np.concatenate([np.ones(nv), np.zeros(nv), [target]])


@pytest.mark.parametrize("system", _orbit_systems(), ids=lambda s: s.name)
def test_solve_matches_reference_on_effect_lps(system, monkeypatch):
    # phase 1 on the effect polytope cut by a(delta) = target, for targets
    # inside, on and beyond the largest value sup_effect(delta)
    rng = np.random.default_rng(72)
    verts = np.asarray(system.pure_states)
    verdicts, ties = {0.5: [], 1.0: [], 2.0: []}, []
    for _ in range(6):
        rho = system.state(rng.dirichlet(np.ones(len(verts))) @ verts)
        delta = rho.vec - system.invariant_vector
        top = np.array(monotones.op_norm_report(rho).witness["sup_effect"]) @ delta
        for scale, seen in verdicts.items():
            seen.append(_assert_phase1_matches_reference(
                monkeypatch, *_effect_lp(system, delta, scale * top), ties=ties))
    assert all(verdicts[0.5]) and not any(verdicts[2.0])
    assert ties                                    # the Bland tie-break was exercised


@pytest.mark.parametrize("gap", [0.0, 1e-12, 1e-11, 1e-9, 1e-8, 1e-6])
def test_ratio_near_ties_match_reference(gap, monkeypatch):
    # x0 + x1 = 1 + gap and x0 = 1: x0 enters first, and its two ratios tie
    # within PIVOT_TOL only for the small gaps.  Then the first artificial
    # leaves (Bland) and x1 stays at zero; otherwise x1 enters and takes the gap
    a = np.array([[1.0, 1.0], [1.0, 0.0]])
    b = np.array([1.0 + gap, 1.0])
    ties = []
    _assert_phase1_matches_reference(monkeypatch, a, b, ties=ties)
    _, x, _ = simplex.phase1(a, b)
    assert (x[1] == 0.0) == (gap <= simplex.PIVOT_TOL) == bool(ties)
