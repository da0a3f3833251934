"""End-to-end check on a user-defined polytope system (pentagon bit).

Exercises the theory-definition loader, validation, the invariant state,
orbit hulls, and the monotone machinery on a system that ships with
neither backend shortcut.
"""

import json
import math

import numpy as np
import pytest

from gptpurity import cli, core, mixedness, monotones


def _pentagon_dict() -> dict:
    angles = 2 * np.pi * np.arange(5) / 5
    vertices = [[np.cos(t), np.sin(t), 1.0] for t in angles]

    # edge effects: affine functionals attaining 1 on one edge, 0 on the
    # opposite vertex; vertex effects are their unit complements
    effects = []
    for k in range(5):
        mid = (angles[k] + angles[(k + 1) % 5]) / 2
        raw = np.array([np.cos(mid), np.sin(mid), 0.0])
        values = [raw @ v for v in vertices]
        lo, hi = min(values), max(values)
        edge = (raw + np.array([0.0, 0.0, -lo])) / (hi - lo)
        effects.append(edge.tolist())
        effects.append((np.array([0.0, 0.0, 1.0]) - edge).tolist())
    effects.append([0.0, 0.0, 0.0])
    effects.append([0.0, 0.0, 1.0])

    group = []
    for k in range(5):
        c, s = np.cos(angles[k]), np.sin(angles[k])
        rot = np.array([[c, -s, 0], [s, c, 0], [0, 0, 1.0]])
        group.append(rot.tolist())
        refl = rot @ np.diag([1.0, -1.0, 1.0])
        group.append(refl.tolist())

    return {"dim": 3, "unit_effect": [0.0, 0.0, 1.0], "pure_states": vertices,
            "extremal_effects": effects, "group": group, "name": "pentagon-bit"}


@pytest.fixture(scope="module")
def pentagon():
    return core.system_from_dict(_pentagon_dict())


def test_pentagon_loads_and_validates(pentagon):
    assert core.validate_system(pentagon) == []
    assert len(pentagon.group) == 10


def test_pentagon_invariant_state_is_center(pentagon):
    chi = mixedness.invariant_state(pentagon)
    np.testing.assert_allclose(chi.vec, [0.0, 0.0, 1.0], atol=1e-9)


def test_pentagon_orbit_hull_is_decagon(pentagon):
    hull = mixedness.orbit_hull(pentagon.state([0.5, 0.1, 1.0]))
    assert len(hull) == 10


def test_pentagon_monotones_behave(pentagon):
    table = monotones.builtin_monotones()
    for name, fn in table.items():
        base = fn(pentagon.state(pentagon.pure_states[0]))
        for u in pentagon.group:
            moved = fn(pentagon.state(u @ pentagon.pure_states[0]))
            assert abs(moved - base) <= 1e-9, name
        check = monotones.schur_convexity_check(fn, pentagon, trials=25,
                                                seed=19, name=name)
        assert check.ok, name


def test_pentagon_entropy_of_center(pentagon):
    # every edge/vertex effect pair gives outcome probabilities strictly
    # inside (0, 1) at the center, so the minimum entropy is positive
    center = pentagon.state([0.0, 0.0, 1.0])
    report = monotones.f_purity(center, monotones.ConvexScalarFn.xlogx())
    entropy = -report.value
    assert entropy > 0.5
    probs = report.witness.outcome_probs(center)
    from oracles import shannon_bits
    assert abs(shannon_bits(probs) - entropy) < 1e-10


def test_pentagon_monotone_cli(tmp_path, capsys):
    path = tmp_path / "pentagon.json"
    path.write_text(json.dumps(_pentagon_dict()))
    code = cli.main(["monotone", "--system", str(path), "--name", "xlogx-purity",
                     "--rho", "0.1,0.2,1"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["name"] == "xlogx-purity" and math.isfinite(payload["value"])
