import re

import numpy as np
import pytest

from gptpurity import core, mixedness, monotones, quantum


def _match_vertex(sys, vec, atol):
    """Index of the pure state equal to ``vec`` within ``atol`` (max-norm), else None."""
    for j, w in enumerate(sys.pure_states):
        if np.max(np.abs(vec - w)) <= atol:
            return j
    return None


@pytest.fixture(scope="module")
def square_bit():
    return core.make_square_bit()


def test_square_bit_shape(square_bit):
    assert len(square_bit.pure_states) == 4
    assert len(square_bit.group) == 8
    for a in square_bit.extremal_effects[:4]:
        assert abs(a @ np.array([0.0, 0.0, 1.0]) - 0.5) < 1e-12


def test_square_bit_validates(square_bit):
    assert core.validate_system(square_bit) == []


def test_classical_trit_validates():
    assert core.validate_system(core.make_classical(3)) == []


def test_validation_catches_scaled_group_element(square_bit):
    group = list(square_bit.group)
    group[3] = 2.0 * np.eye(3)
    broken = core.TheorySystem(
        dim=3, unit_effect=square_bit.unit_effect,
        pure_states=square_bit.pure_states,
        group=tuple(group))
    report = core.validate_system(broken)
    assert any("unit effect" in line for line in report)


def test_validation_structural_error_names_field(square_bit):
    with pytest.raises(core.StructuralError, match="pure_states"):
        core.TheorySystem(dim=3, unit_effect=[0, 0, 1],
                          pure_states=([1.0, 1.0],),
                          group=square_bit.group)


def test_make_classical_sizes():
    bit = core.make_classical(2)
    assert len(bit.group) == 2
    trit = core.make_classical(3)
    assert len(trit.group) == 6
    with pytest.raises(core.CapacityError):
        core.make_classical(7)


def test_group_acts_as_bijection_on_vertices(square_bit):
    for sys in (square_bit, core.make_classical(4)):
        for u in sys.group:
            images = []
            for v in sys.pure_states:
                match = _match_vertex(sys, u @ v, 1e-9)
                assert match is not None
                images.append(match)
            assert sorted(images) == list(range(len(sys.pure_states)))


def test_measurement_probabilities_sum_to_one(square_bit):
    # a complementary facet pair: each vanishes where the other does not
    zero = square_bit.extremal_effects @ square_bit.pure_states.T <= core.ATOL
    pair = [0, int(np.flatnonzero((zero == ~zero[0]).all(axis=1))[0])]
    effects = tuple(core.Effect(square_bit, a) for a in square_bit.extremal_effects[pair])
    meas = core.Measurement(effects)
    assert len(meas.effects) == 2
    rng = np.random.default_rng(0)
    for _ in range(50):
        mix = rng.dirichlet(np.ones(4))
        rho = square_bit.state(sum(w * v for w, v in zip(mix, square_bit.pure_states)))
        probs = meas.outcome_probs(rho)
        assert probs.min() >= -1e-10
        assert abs(probs.sum() - 1.0) < 1e-10


def test_measurement_must_sum_to_unit(square_bit):
    with pytest.raises(core.StructuralError):
        core.Measurement((core.Effect(square_bit, square_bit.extremal_effects[0]),))


def test_system_json_roundtrip(tmp_path, square_bit):
    path = tmp_path / "square.json"
    core.save_system(square_bit, str(path))
    loaded = core.load_system(str(path))
    assert loaded.dim == square_bit.dim
    np.testing.assert_allclose(loaded.unit_effect, square_bit.unit_effect)
    for a, b in zip(loaded.group, square_bit.group):
        np.testing.assert_allclose(a, b)


def test_loader_rejects_invalid_theory(tmp_path, square_bit):
    data = core.system_to_dict(square_bit)
    data["group"][0] = (2.0 * np.eye(3)).tolist()
    import json
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(core.StructuralError):
        core.load_system(str(path))


def test_constructors_copy_caller_arrays(square_bit):
    u, unit = np.eye(3), np.array([0.0, 0.0, 1.0])
    system = core.TheorySystem(dim=3, unit_effect=unit, pure_states=square_bit.pure_states,
                               group=(u,))
    u[0, 0] = 2.0          # the caller's arrays stay writeable ...
    unit[2] = 5.0
    assert system.group[0][0, 0] == 1.0    # ... and the system keeps its own copy
    assert system.unit_effect[2] == 1.0
    with pytest.raises(ValueError):
        system.group[0][0, 0] = 2.0


def test_fields_are_single_read_only_arrays(tmp_path):
    import json
    from test_user_system import _pentagon_dict

    path = tmp_path / "pentagon.json"
    path.write_text(json.dumps(_pentagon_dict()))
    for system, n_vertices, n_effects, n_group in ((core.make_classical(3), 3, 3, 6),
                                                   (core.make_square_bit(), 4, 4, 8),
                                                   (core.load_system(str(path)), 5, 5, 10)):
        d = system.dim
        for field, shape in (("pure_states", (n_vertices, d)),
                             ("extremal_effects", (n_effects, d)),
                             ("group", (n_group, d, d))):
            stored = getattr(system, field)
            assert type(stored) is np.ndarray and stored.dtype == float, (system.name, field)
            assert stored.shape == shape, (system.name, field)
            with pytest.raises(ValueError, match="read-only"):
                stored[0] = 0.0
    empty = core.make_classical(1).extremal_effects      # derived, and empty in dim 1
    assert empty.shape == (0, 1)
    assert not empty.flags.writeable


def test_measurement_sum_has_no_relative_slack():
    # the old default rtol=1e-5 accepted these and gave probabilities [1.000009, 0]
    c2 = core.make_classical(2)
    loose = (core.Effect(c2, [1.000009, 0.0]), core.Effect(c2, [0.0, 1.000009]))
    with pytest.raises(core.StructuralError):
        core.Measurement(loose)
    within = (core.Effect(c2, [1.0 + 0.5 * core.ATOL, 0.0]), core.Effect(c2, [0.0, 1.0]))
    core.Measurement(within)


# -- validate_system against the float-lookup implementation it replaced ------

def _reference_group_lookup(sys, mat, atol):
    for k, u in enumerate(sys.group):
        if np.max(np.abs(mat - u)) <= atol:
            return k
    return None


def _reference_validate_system(sys, atol=core.ATOL):
    """The previous validate_system: closure by rounded-bytes and tolerance lookups."""
    report = []
    n_vertices = len(sys.pure_states)
    for i, u in enumerate(sys.group):
        if abs(np.linalg.det(u)) < 1e-12:
            report.append(f"group[{i}] is singular (det ~ 0)")
            continue
        hit = [_match_vertex(sys, u @ v, atol) for v in sys.pure_states]
        if None in hit:
            j = hit.index(None)
            residual = min(np.max(np.abs(u @ sys.pure_states[j] - w)) for w in sys.pure_states)
            report.append(f"group[{i}] maps pure_states[{j}] outside the vertex list "
                          f"(residual {residual:.3e})")
        elif len(set(hit)) != n_vertices:
            report.append(f"group[{i}] does not act injectively on the vertex list")
        residual = np.max(np.abs(sys.unit_effect @ u - sys.unit_effect))
        if residual > atol:
            report.append(f"group[{i}] does not preserve the unit effect (residual {residual:.3e})")
    stacked = sys.group
    key_of = {np.round(u, 6).tobytes(): k for k, u in enumerate(sys.group)}

    def lookup(mat):
        hit = key_of.get(np.round(mat, 6).tobytes())
        return hit if hit is not None else _reference_group_lookup(sys, mat, atol)

    for i, u in enumerate(sys.group):
        products = np.matmul(u, stacked)
        for j in range(len(sys.group)):
            if lookup(products[j]) is None:
                report.append(f"group is not closed: group[{i}] @ group[{j}] not in list")
        try:
            inv = np.linalg.inv(u)
        except np.linalg.LinAlgError:
            continue
        if lookup(inv) is None:
            report.append(f"group[{i}] has no inverse in the list")
    return report


def _with(sys, **fields):
    data = {"dim": sys.dim, "unit_effect": sys.unit_effect, "pure_states": sys.pure_states,
            "group": sys.group, **fields}
    return core.TheorySystem(**data)


def _seeded_systems(seed):
    from test_user_system import _pentagon_dict

    rng = np.random.default_rng(seed)
    trit, square = core.make_classical(3), core.make_square_bit()
    pentagon = core.system_from_dict(_pentagon_dict())
    transpositions = [k for k, u in enumerate(trit.group) if np.trace(u) == 1.0]
    dropped = int(rng.choice(transpositions))
    c, s = np.cos(np.pi / 5), np.sin(np.pi / 5)
    tenth = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    at = int(rng.integers(0, len(pentagon.group) + 1))
    twice = int(rng.integers(0, len(square.group)))
    scaled = list(square.group)
    scaled[int(rng.integers(0, len(scaled)))] = 2.0 * np.eye(3)
    return {
        "classical-4": core.make_classical(4),
        "square": square,
        "pentagon": pentagon,
        "s3-minus-transposition":
            _with(trit, group=np.delete(trit.group, dropped, axis=0)),
        "pentagon-tenth-turn":
            _with(pentagon, group=np.insert(pentagon.group, at, tenth, axis=0)),
        "duplicated-element": _with(square, group=square.group[np.r_[:len(square.group), twice]]),
        "scaled-element": _with(square, group=tuple(scaled)),
    }


def _lines(report, *markers):
    return [line for line in report if any(m in line for m in markers)]


@pytest.mark.parametrize("seed", range(3))
def test_validate_system_matches_reference(seed):
    for name, sys in _seeded_systems(seed).items():
        new, old = core.validate_system(sys), _reference_validate_system(sys)
        # the reference accepted a repeated element; only the new validator reports it
        repeats = _lines(new, "repeats")
        assert (repeats != []) == (name == "duplicated-element"), name
        assert ([line for line in new if line not in repeats] == []) == (old == []), name
        for marker in ("vertex list", "unit effect"):
            assert _lines(new, marker) == _lines(old, marker), (name, marker)
        if name == "s3-minus-transposition":     # every element permutes the vertices
            closure = ("not closed", "no inverse")
            assert _lines(new, *closure) == _lines(old, *closure)


def test_validate_system_reports_repeated_element(square_bit):
    repeated = _with(square_bit, group=square_bit.group[np.r_[:8, 1]])
    assert core.validate_system(repeated) == ["group[8] repeats group[1]"]


def test_validate_system_refuses_non_spanning_vertices():
    # a segment inside a 3-dimensional space: permutations do not fix matrices
    segment = core.TheorySystem(
        dim=3, unit_effect=[0.0, 0.0, 1.0],
        pure_states=([1.0, 0.0, 1.0], [-1.0, 0.0, 1.0]),
        group=(np.eye(3), np.diag([-1.0, 1.0, 1.0])))
    assert core.validate_system(segment) == ["pure_states do not span the state space"]


def test_validate_system_refuses_unkeyable_permutations():
    eye = np.eye(16)       # 16 vertices keyed in base 16 need 64 bits
    simplex16 = core.TheorySystem(dim=16, unit_effect=np.ones(16), pure_states=tuple(eye),
                                  group=(eye,))
    with pytest.raises(core.CapacityError):
        core.validate_system(simplex16)


def test_validate_system_refuses_unnormalized_pure_states():
    # the swap permutes the doubled vertices, so only the norm check reports
    # this system
    doubled = core.TheorySystem(dim=2, unit_effect=[1.0, 1.0],
                                pure_states=([2.0, 0.0], [0.0, 2.0]),
                                group=(np.eye(2), np.eye(2)[[1, 0]]))
    assert core.validate_system(doubled) == [
        "pure_states[0] is not normalized (norm 2.000000)",
        "pure_states[1] is not normalized (norm 2.000000)"]


# -- the one sum-to-one check ---------------------------------------------------

def _sum_sites():
    """Every check routed through ``core.sums_to_one``, each on a two-entry weight vector w.

    A site refuses w by raising ``StructuralError`` or by returning False.
    """
    bit, eye = core.make_classical(2), np.eye(2, dtype=complex)
    bell = quantum.maximally_entangled(2)

    def density(w):
        return quantum.DensityMatrix.diagonal([np.sum(w), 0, 0, 0])

    return {
        "GptState.is_normalized": lambda w: bit.state(w).is_normalized(),
        "RaReChannel": lambda w: mixedness.RaReChannel(bit, ((w[0], 0), (w[1], 1))),
        "majorizes-p": lambda w: mixedness.majorizes(w, [0.5, 0.5]),
        "majorizes-q": lambda w: mixedness.majorizes([1.0, 0.0], w),
        "more_mixed": lambda w: mixedness.more_mixed(bit.state(w), bit.state([0.5, 0.5])),
        "SchmidtData": lambda w: quantum.SchmidtData(np.sqrt(w), eye, eye),
        "PureBipartiteState": lambda w: quantum.PureBipartiteState((1, 2), np.sqrt(w)),
        "one_way_locc_from_rare": lambda w: quantum.one_way_locc_from_rare(
            bell, bell, [(w[0], eye), (w[1], eye)]),
        "purify": lambda w: quantum.purify(density(w)),
        "symmetric_purify": lambda w: quantum.symmetric_purify(density(w)),
        "entanglement_of_formation": lambda w: quantum.entanglement_of_formation(density(w)),
        "catalytic_erasure_possible": lambda w: quantum.catalytic_erasure_possible(density(w)),
        "measurement_entropy": lambda w: monotones.measurement_entropy(density(w)),
    }


def _refused(site, w) -> bool:
    try:
        return site(w) is False
    except core.StructuralError:
        return True


@pytest.mark.parametrize("name", sorted(_sum_sites()))
def test_every_sum_to_one_site_shares_one_boundary(name):
    # 1 +- 0.5 SUM_TOL passes and 1 +- 2 SUM_TOL fails at every site, and a
    # NaN entry, which fails any comparison, is refused rather than scored
    site = _sum_sites()[name]
    for sign in (1, -1):
        assert not _refused(site, [0.7 + 0.5 * sign * core.SUM_TOL, 0.3])
        assert _refused(site, [0.7 + 2 * sign * core.SUM_TOL, 0.3])
    assert _refused(site, [float("nan"), 1.0])


def test_validate_system_and_density_matrix_share_the_sum_boundary():
    def report(w):
        return core.validate_system(core.TheorySystem(
            2, np.ones(2), (np.asarray(w), np.asarray(w)[::-1]), (np.eye(2),)))

    assert report([0.7 + 0.5 * core.SUM_TOL, 0.3]) == []
    assert len(report([0.7 + 2 * core.SUM_TOL, 0.3])) == 2
    # a density matrix may be subnormalized: its trace lies in [0, 1] within SUM_TOL
    for trace in (1 + 0.5 * core.SUM_TOL, 0.5, 0.0):
        quantum.DensityMatrix.diagonal([trace, 0])
    for trace in (1 + 2 * core.SUM_TOL, float("nan")):
        with pytest.raises(core.StructuralError):
            quantum.DensityMatrix.diagonal([trace, 0])


def test_array_fields_refuse_non_finite_entries_by_name():
    c2 = core.make_classical(2)
    nan, inf = float("nan"), float("inf")
    cases = {
        "unit_effect": lambda: core.TheorySystem(2, [1, nan], tuple(np.eye(2)), (np.eye(2),)),
        "pure_states[1]": lambda: core.TheorySystem(2, np.ones(2), ([1, 0], [0, inf]),
                                                    (np.eye(2),)),
        "group[1]": lambda: core.TheorySystem(2, np.ones(2), tuple(np.eye(2)),
                                              (np.eye(2), [[0, inf], [1, 0]])),
        "state vec": lambda: c2.state([nan, 1]),
    }
    for name, case in cases.items():
        with pytest.raises(core.StructuralError, match=rf"^{re.escape(name)} has a non-finite"):
            case()
    # entries that are not numbers at all are refused by name too
    for group in ((np.eye(2), [[0, "x"], [1, 0]]), (np.eye(2), [[0, {}], [1, 0]])):
        with pytest.raises(core.StructuralError, match=r"^group\[1\] is not an array of numbers"):
            core.TheorySystem(2, np.ones(2), tuple(np.eye(2)), group)
    with pytest.raises(core.StructuralError, match=r"^pure_states\[0\] is not an array of numbers"):
        core.TheorySystem(2, np.ones(2), ([[1], 0], [0, 1]), (np.eye(2),))
    # and so are group entries of the wrong shape
    for group, message in (
            ((np.eye(2), [1, 0]), r"^group\[1\] must be 2-dimensional, got shape \(2,\)$"),
            ((np.eye(3),), r"^group\[0\] has shape \(3, 3\), expected \(2, 2\)$")):
        with pytest.raises(core.StructuralError, match=message):
            core.TheorySystem(2, np.ones(2), tuple(np.eye(2)), group)


def test_sum_checks_refuse_empty_and_non_finite_weights():
    eye = np.eye(2, dtype=complex)
    bell = quantum.maximally_entangled(2)
    inf = float("inf")
    for weights in ([], float("nan"), [inf, 0], [inf, -inf], [-inf, 2]):
        assert not core.sums_to_one(weights)
    cases = [
        lambda: mixedness.RaReChannel(core.make_classical(2), ()),
        lambda: mixedness.majorizes([], []),
        lambda: quantum.SchmidtData([], eye, eye),
        lambda: quantum.one_way_locc_from_rare(bell, bell, []),
    ]
    for case in cases:
        with pytest.raises(core.StructuralError):
            case()


def test_dim_must_be_a_positive_integer():
    for dim in (2.5, 2.0, "2", True, None, 0, -1):
        with pytest.raises(core.StructuralError, match="dim must be a positive integer"):
            core.TheorySystem(dim, np.ones(2), tuple(np.eye(2)), (np.eye(2),))
    # a numpy integer is an integer, stored as a Python int
    system = core.TheorySystem(np.int64(2), np.ones(2), tuple(np.eye(2)), (np.eye(2),))
    assert type(system.dim) is int
