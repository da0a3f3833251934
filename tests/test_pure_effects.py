"""The pure effects derived from the vertices, and the one state check built on them.

``TheorySystem.extremal_effects`` is computed from the pure states (the
facet functionals of their hull); Qhull, run on the same vertices, is the
independent route to the facets.  ``mixedness.validate_state`` reads those
effects, so a state outside the state space is refused, never scored, even
when a theory file lists an incomplete set of effects of its own.
"""

import json

import numpy as np
import pytest

from gptpurity import cli, core, mixedness, monotones
from oracles import qhull_facets
from test_core import _seeded_systems
from test_user_system import _pentagon_dict


def _polygon(n: int) -> core.TheorySystem:
    """The regular n-gon bit: vertices on the unit circle, its dihedral group of order 2n."""
    angles = 2 * np.pi * np.arange(n) / n
    group = []
    for t in angles:
        rot = np.array([[np.cos(t), -np.sin(t), 0.0], [np.sin(t), np.cos(t), 0.0], [0.0, 0.0, 1.0]])
        group += [rot, rot @ np.diag([1.0, -1.0, 1.0])]
    return core.TheorySystem(dim=3, unit_effect=[0.0, 0.0, 1.0],
                             pure_states=np.column_stack([np.cos(angles), np.sin(angles),
                                                          np.ones(n)]),
                             group=group, name=f"polygon-{n}")


def _systems() -> dict:
    systems = {f"classical-{n}": core.make_classical(n) for n in range(3, 7)}
    systems["square-bit"] = core.make_square_bit()
    systems["pentagon"] = core.system_from_dict(_pentagon_dict())
    systems |= {f"polygon-{n}": _polygon(n) for n in (5, 8, 64)}
    systems |= {f"user-{name}": system for name, system in _seeded_systems(0).items()}
    return systems


SYSTEMS = _systems()
SHIPPED = ("classical-3", "classical-4", "classical-5", "classical-6", "square-bit", "pentagon")


def _zero_sets(system) -> list[frozenset[int]]:
    values = system.extremal_effects @ system.pure_states.T
    return [frozenset(np.flatnonzero(row <= core.ATOL).tolist()) for row in values]


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_pure_effects_are_the_qhull_facets(name):
    system = SYSTEMS[name]
    effects, verts = system.extremal_effects, system.pure_states
    values = effects @ verts.T
    assert values.min() >= -core.ATOL
    np.testing.assert_allclose(values.max(axis=1), 1.0, rtol=0.0, atol=1e-15)
    zero_sets = _zero_sets(system)
    assert len(set(zero_sets)) == len(zero_sets), "one effect per facet"
    assert set(zero_sets) == set(qhull_facets(verts)[0])
    for zero in zero_sets:
        assert np.linalg.matrix_rank(verts[sorted(zero)]) == system.dim - 1


def test_dyadic_systems_get_exact_effects():
    for n in range(2, 7):
        np.testing.assert_array_equal(core.make_classical(n).extremal_effects, np.eye(n))
    square = core.make_square_bit().extremal_effects
    assert sorted(map(tuple, square)) == [(-0.5, 0.0, 0.5), (0.0, -0.5, 0.5),
                                          (0.0, 0.5, 0.5), (0.5, 0.0, 0.5)]


# -- a theory file's own effect list is not trusted ------------------------------------------

def _beyond_first_edge(system, share=0.05):
    """The point ``share`` beyond the midpoint of the edge through vertices 0 and 1, away from
    the invariant state."""
    mid = system.pure_states[:2].mean(axis=0)
    return mid + share * (mid - system.invariant_vector)


def test_a_file_missing_a_facet_effect_still_refuses_the_point_beyond_it(tmp_path, capsys):
    data = _pentagon_dict()
    del data["extremal_effects"][1]         # the listed effect that vanishes on vertices 0 and 1
    path = tmp_path / "pentagon.json"
    path.write_text(json.dumps(data))
    pentagon = core.load_system(str(path))
    outside = _beyond_first_edge(pentagon)
    rho = pentagon.state(outside)
    for check in (mixedness.validate_state, monotones.op_norm_distance,
                  monotones.measurement_entropy):
        with pytest.raises(core.StructuralError, match="outside the state space"):
            check(rho)
    for name in ("op-norm-distance", "xlogx-purity"):
        code = cli.main(["monotone", "--system", str(path), "--name", name,
                         "--rho", ",".join(map(repr, outside.tolist()))])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("error: --rho lies outside the state space")
    # the point 5 % inside the same edge is scored
    assert monotones.op_norm_distance(pentagon.state(_beyond_first_edge(pentagon, -0.05))) > 0


@pytest.mark.parametrize("listed", ["full", "one-short", "null"])
def test_an_effect_list_in_a_file_changes_nothing(tmp_path, listed):
    data = _pentagon_dict()
    keyless = {key: value for key, value in data.items() if key != "extremal_effects"}
    data["extremal_effects"] = {"full": data["extremal_effects"],
                                "one-short": data["extremal_effects"][1:],
                                "null": None}[listed]
    loaded = []
    for i, content in enumerate((data, keyless)):
        path = tmp_path / f"{i}.json"
        path.write_text(json.dumps(content))
        loaded.append(core.load_system(str(path)))
    with_key, without = loaded
    assert with_key.dim == without.dim and with_key.name == without.name
    for field in ("unit_effect", "pure_states", "group", "extremal_effects"):
        np.testing.assert_array_equal(getattr(with_key, field), getattr(without, field))
    assert "extremal_effects" not in core.system_to_dict(with_key)


# -- the state check at each facet ------------------------------------------------------------

@pytest.mark.parametrize("name", SHIPPED)
def test_state_check_near_each_facet_agrees_with_the_oracle_hull(name):
    # points 1e-13..1e-6 inside and outside each facet; below 1e-8 the verdict may go
    # either way within ATOL, but nothing other than the check's StructuralError is raised
    system = SYSTEMS[name]
    _, planes, coords = qhull_facets(system.pure_states)
    rng = np.random.default_rng(sum(map(ord, name)))
    chi = system.invariant_vector
    for zero in _zero_sets(system):
        face = system.pure_states[sorted(zero)]
        for _ in range(20):
            on_facet = rng.dirichlet(np.ones(len(face))) @ face
            gap, side = 10.0 ** rng.uniform(-13, -6), rng.choice([-1.0, 1.0])
            point = on_facet + side * gap * (on_facet - chi)
            try:
                mixedness.validate_state(system.state(point))
                refused = False
            except core.StructuralError:
                refused = True
            if side < 0:
                assert not refused, (name, gap)
            if gap >= 1e-8:
                y = coords(point)
                assert refused == bool(np.max(planes[:, :-1] @ y + planes[:, -1]) > 0), (name, gap)
