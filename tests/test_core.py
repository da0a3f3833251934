import numpy as np
import pytest

from gptpurity import core


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
        extremal_effects=square_bit.extremal_effects,
        group=tuple(group))
    report = core.validate_system(broken)
    assert any("unit effect" in line for line in report)


def test_validation_structural_error_names_field(square_bit):
    with pytest.raises(core.StructuralError, match="pure_states"):
        core.TheorySystem(dim=3, unit_effect=[0, 0, 1],
                          pure_states=([1.0, 1.0],),
                          extremal_effects=square_bit.extremal_effects,
                          group=square_bit.group)


def test_make_classical_sizes():
    bit = core.make_classical(2)
    assert len(bit.group) == 2
    trit = core.make_classical(3)
    assert len(trit.group) == 6
    with pytest.raises(core.CapacityError):
        core.make_classical(7)


def test_apply_channel_identity(square_bit):
    ident = core.group_channel(square_bit, 0)
    rho = square_bit.state([0.3, -0.2, 1.0])
    out = core.apply_channel(ident, rho)
    np.testing.assert_allclose(out.vec, rho.vec, atol=1e-12)


def test_apply_channel_reflection_moves_vertex(square_bit):
    # find the x-reflection and check it maps (1,1) to (-1,1)
    target = None
    for u in square_bit.group:
        if np.allclose(u[:2, :2], np.diag([-1.0, 1.0])):
            target = u
    assert target is not None
    ch = core.GptChannel(square_bit, square_bit, target)
    out = core.apply_channel(ch, square_bit.state([1.0, 1.0, 1.0]))
    np.testing.assert_allclose(out.vec, [-1.0, 1.0, 1.0], atol=1e-12)


def test_instrument_coarse_graining_preserves_norm(square_bit):
    # split the identity channel into two halves: a valid two-branch test
    ident = np.eye(3)
    inst = core.Instrument(square_bit, square_bit, (0.5 * ident, 0.5 * ident))
    ch = inst.coarse_grained()
    assert ch.preserves_unit()
    for v in square_bit.pure_states:
        out = core.apply_channel(ch, square_bit.state(v))
        assert abs(out.norm - 1.0) < 1e-10


def test_group_acts_as_bijection_on_vertices(square_bit):
    for sys in (square_bit, core.make_classical(4)):
        for u in sys.group:
            images = []
            for v in sys.pure_states:
                match = core._match_vertex(sys, u @ v, 1e-9)
                assert match is not None
                images.append(match)
            assert sorted(images) == list(range(len(sys.pure_states)))


def test_measurement_probabilities_sum_to_one(square_bit):
    effects = tuple(core.Effect(square_bit, a)
                    for a in square_bit.extremal_effects[:1] + square_bit.extremal_effects[2:3])
    meas = core.Measurement(effects)
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


def test_channel_norm_preservation_on_vertices():
    trit = core.make_classical(3)
    for u in trit.group:
        ch = core.GptChannel(trit, trit, u)
        for v in trit.pure_states:
            out = core.apply_channel(ch, trit.state(v))
            assert abs(out.norm - 1.0) < 1e-10


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


def test_is_classical_structure():
    assert core.is_classical_structure(core.make_classical(3))
    assert not core.is_classical_structure(core.make_square_bit())


def test_constructors_copy_caller_arrays(square_bit):
    u, unit, m = np.eye(3), np.array([0.0, 0.0, 1.0]), np.eye(3)
    system = core.TheorySystem(dim=3, unit_effect=unit, pure_states=square_bit.pure_states,
                               extremal_effects=square_bit.extremal_effects, group=(u,))
    channel = core.GptChannel(system, system, m)
    u[0, 0] = 2.0          # the caller's arrays stay writeable ...
    unit[2] = 5.0
    m[1, 1] = 3.0
    assert system.group[0][0, 0] == 1.0    # ... and the objects keep their own copy
    assert system.unit_effect[2] == 1.0
    assert channel.matrix[1, 1] == 1.0
    with pytest.raises(ValueError):
        system.group[0][0, 0] = 2.0
