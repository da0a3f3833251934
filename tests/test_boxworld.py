import itertools
import math
import random
from fractions import Fraction

import numpy as np

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gptpurity import boxworld
from gptpurity.boxworld import (BoxInvariantError, BoxState, LocalRelabeling,
                                apply_relabeling, check_local_exchangeability,
                                is_extreme, pr_box_k, standard_pr_box, swap_parties)
from gptpurity.core import StructuralError
from oracles import local_exchange_exists, no_signalling_vertices

HALF = Fraction(1, 2)


def signalling_box() -> BoxState:
    # Alice's marginal depends on y: p(a=0|x) is 1 when y=0 but 1/2 when y=1
    def fn(a, b, x, y):
        if y == 0:
            return Fraction(1, 2) if a == 0 else Fraction(0)
        return Fraction(1, 4)
    return BoxState.from_function(2, 2, 2, 2, fn)


def test_standard_pr_entries():
    box = standard_pr_box()
    assert box.prob(0, 0, 0, 0) == HALF
    assert box.prob(0, 1, 0, 0) == 0
    assert box.prob(0, 1, 1, 1) == HALF


def test_pr_boxes_no_signalling():
    assert standard_pr_box().validate() == []
    for k in (2, 3, 4, 5):
        assert pr_box_k(k, k, k).validate() == []
        assert pr_box_k(k, k + 1, k).validate() == []


def test_pr_box_k_entries():
    box = pr_box_k(3, 3, 3)
    for a in range(3):
        assert box.prob(a, a, 0, 0) == Fraction(1, 3)
    assert box.prob(1, 2, 1, 1) == Fraction(1, 3)
    assert box.prob(0, 0, 1, 1) == 0


def test_pr_box_k_range_errors():
    with pytest.raises(StructuralError):
        pr_box_k(1, 2, 2)
    with pytest.raises(StructuralError):
        pr_box_k(4, 3, 3)


def test_pr_box_swap_invariant():
    box = standard_pr_box()
    assert swap_parties(box) == box


def test_k2_family_reproduces_standard_box():
    # b - a and a + b agree mod 2, so k=2 is the standard correlation itself
    assert pr_box_k(2, 2, 2) == standard_pr_box()


def test_relabeling_changes_table_but_keeps_ns():
    box = standard_pr_box()
    flip = LocalRelabeling("A", (0, 1), ((1, 0), (1, 0)))
    moved = apply_relabeling(box, flip)
    assert moved != box
    assert moved.validate() == []


def test_k3_negation_relabeling_restores_swap():
    box = pr_box_k(3, 3, 3)
    swapped = swap_parties(box)
    neg = tuple((3 - a) % 3 for a in range(3))
    relabel_a = LocalRelabeling("A", (0, 1), (neg, neg))
    relabel_b = LocalRelabeling("B", (0, 1), (neg, neg))
    assert apply_relabeling(apply_relabeling(swapped, relabel_a), relabel_b) == box


def test_relabelings_preserve_extremality():
    box = pr_box_k(3, 3, 3)
    relabel = LocalRelabeling("B", (1, 0), ((2, 0, 1), (1, 2, 0)))
    assert is_extreme(apply_relabeling(box, relabel))
    assert is_extreme(swap_parties(box))


def test_extremality_verdicts():
    assert is_extreme(standard_pr_box())
    uniform = BoxState.from_function(2, 2, 2, 2, lambda a, b, x, y: Fraction(1, 4))
    assert not is_extreme(uniform)
    assert is_extreme(pr_box_k(3, 3, 3))


def test_local_deterministic_box_is_extreme():
    box = BoxState.from_function(
        2, 2, 2, 2, lambda a, b, x, y: Fraction(int(a == x and b == 0)))
    assert box.validate() == []
    assert is_extreme(box)


def test_locex_standard_pr_identity_witness():
    witness = check_local_exchangeability(standard_pr_box())
    assert witness is not None
    r_a, r_b = witness
    assert r_a.is_identity and r_b.is_identity


def test_locex_all_k_boxes():
    for k in (2, 3, 4, 5):
        witness = check_local_exchangeability(pr_box_k(k, k, k))
        assert witness is not None


def test_locex_with_unused_outcomes():
    # d > k leaves all-zero outcome rows/columns; the witness still exists
    for k, d in ((2, 4), (3, 5), (4, 5)):
        box = pr_box_k(k, d, d)
        assert is_extreme(box)
        assert check_local_exchangeability(box) is not None


def test_locex_closed_under_relabelings():
    box = pr_box_k(3, 3, 3)
    relabel = LocalRelabeling("A", (1, 0), ((1, 0, 2), (2, 1, 0)))
    moved = apply_relabeling(box, relabel)
    assert is_extreme(moved)
    assert check_local_exchangeability(moved) is not None


def test_locex_rejects_signalling_box():
    with pytest.raises(BoxInvariantError):
        check_local_exchangeability(signalling_box())


def test_locex_requires_extremality_unless_waived():
    uniform = BoxState.from_function(2, 2, 2, 2, lambda a, b, x, y: Fraction(1, 4))
    with pytest.raises(StructuralError):
        check_local_exchangeability(uniform)
    witness = check_local_exchangeability(uniform, require_extreme=False)
    assert witness is not None  # the uniform box is trivially swap-invariant


def _prk(n: int, k: int) -> BoxState:
    """b - a = xy mod k on n settings per party and k outcomes."""
    return BoxState.from_function(
        n, n, k, k, lambda a, b, x, y: Fraction(int((b - a) % k == x * y % k), k))


def _assert_exchange_witness(box, witness):
    assert witness is not None
    r_a, r_b = witness
    assert apply_relabeling(apply_relabeling(box, r_a), r_b) == swap_parties(box)


def test_locex_has_no_shape_bound():
    uniform6 = BoxState.from_function(2, 2, 6, 6, lambda a, b, x, y: Fraction(1, 36))
    _assert_exchange_witness(uniform6, check_local_exchangeability(uniform6,
                                                                   require_extreme=False))
    moved = apply_relabeling(pr_box_k(7, 7, 7),
                             LocalRelabeling("B", (1, 0), ((3, 1, 4, 0, 6, 5, 2), tuple(range(7)))))
    _assert_exchange_witness(moved, check_local_exchangeability(moved))
    _assert_exchange_witness(_prk(4, 3), check_local_exchangeability(_prk(4, 3)))


@pytest.mark.parametrize("setting_perm, outcome_perms", [
    ((True, False), ((0, 1), (1, 0))),
    ((0, 1), ((0, 1), (1.0, 0.0))),
    ((0, 1), ((np.bool_(False), 1), (0, 1))),
    ((0, 1), (("0", "1"), (0, 1))),
])
def test_relabeling_refuses_labels_that_are_not_integers(setting_perm, outcome_perms):
    with pytest.raises(StructuralError, match="integers"):
        LocalRelabeling("A", setting_perm, outcome_perms)


@pytest.mark.parametrize("setting_perm, outcome_perms", [(5, ((0,),)), ((0,), 3), ((0,), (None,))])
def test_relabeling_refuses_labels_that_are_not_sequences(setting_perm, outcome_perms):
    with pytest.raises(StructuralError, match="sequences"):
        LocalRelabeling("A", setting_perm, outcome_perms)


def test_relabeling_keeps_numpy_integer_labels_as_int():
    r = LocalRelabeling("B", np.array([1, 0]), (np.arange(2), [np.int32(1), np.int64(0)]))
    assert r == LocalRelabeling("B", (1, 0), ((0, 1), (1, 0)))
    assert all(type(v) is int for perm in (r.setting_perm, *r.outcome_perms) for v in perm)
    assert r.to_dict() == {"side": "B", "setting_perm": [1, 0], "outcome_perms": [[0, 1], [1, 0]]}


def test_box_json_roundtrip():
    box = pr_box_k(3, 4, 3)
    again = BoxState.from_dict(box.to_dict())
    assert again == box


def test_from_dict_validates():
    data = signalling_box().to_dict()
    with pytest.raises(BoxInvariantError):
        BoxState.from_dict(data)
    assert BoxState.from_dict(data, validate=False) == signalling_box()


@pytest.mark.parametrize("data, message", [
    ([1, 2], "keys"),
    ({"settings": [2, 2], "table": []}, "keys"),
    ({"settings": [2, 2], "outcomes": [2], "table": []}, "pair of integers"),
    ({"settings": [2, 2], "outcomes": [2, 2], "table": [[1, 2]]}, "shape"),
    ({"settings": [0, 2], "outcomes": [2, 2], "table": [[[], []], [[], []]]}, "at least one"),
])
def test_from_dict_rejects_malformed_structure(data, message):
    with pytest.raises(StructuralError, match=message):
        BoxState.from_dict(data)


@pytest.mark.parametrize("entry", ["a", "1/0", 0.25, True, None])
def test_from_dict_takes_only_exact_rational_entries(entry):
    data = standard_pr_box().to_dict()
    data["table"][0][0][0][0] = entry
    with pytest.raises(StructuralError):
        BoxState.from_dict(data, validate=False)


@pytest.mark.parametrize("box, report", [
    (signalling_box(), ["A-marginal p(0|0) depends on y", "A-marginal p(0|1) depends on y",
                        "A-marginal p(1|0) depends on y", "A-marginal p(1|1) depends on y"]),
    (BoxState.from_function(2, 2, 2, 2, lambda a, b, x, y: HALF if a == b
                            else Fraction(-1, 4) if (a, x) == (0, 1) else Fraction(1, 4)),
     ["negative entry p(01|10)", "negative entry p(01|11)", "sector (0,0) sums to 3/2, not 1",
      "sector (0,1) sums to 3/2, not 1", "B-marginal p(1|0) depends on x",
      "B-marginal p(1|1) depends on x"]),
    (BoxState.from_function(2, 3, 2, 2, lambda a, b, x, y: Fraction(int(b == x), 2)),
     [f"B-marginal p({b}|{y}) depends on x" for b in range(2) for y in range(3)]),
    (BoxState.from_function(1, 2, 3, 2, lambda a, b, x, y: Fraction(1, 12) if y
                            else Fraction(int(a == b), 3)),
     ["sector (0,0) sums to 2/3, not 1", "sector (0,1) sums to 1/2, not 1",
      "A-marginal p(0|0) depends on y", "A-marginal p(1|0) depends on y",
      "A-marginal p(2|0) depends on y"]),
])
def test_validate_reports_each_fault_in_order(box, report):
    # check-ns prints these lines as they are
    assert box.validate() == report


def test_box_is_converted_to_integers_on_first_use_not_when_built():
    box = pr_box_k(3, 3, 3)
    assert "_numerators" not in box.__dict__
    moved = [swap_parties(box),
             apply_relabeling(box, LocalRelabeling("B", (1, 0), ((1, 2, 0), (0, 2, 1))))]
    assert "_numerators" in box.__dict__        # the validity check read it
    assert not any("_numerators" in b.__dict__ for b in moved)


# ---------------------------------------------------------------------------
# every extreme box of the 2-setting scenarios, d = 2 and 3
# ---------------------------------------------------------------------------

def _local_moves(d: int) -> list[LocalRelabeling]:
    """Generators of the local relabelings on 2 settings and d outcomes:
    swap the settings, or cycle or swap outcomes at setting 0, on either side."""
    ident = tuple(range(d))
    moves = [((1, 0), (ident, ident)),
             ((0, 1), (ident[1:] + (0,), ident)),
             ((0, 1), ((1, 0) + ident[2:], ident))]
    return [LocalRelabeling(side, s, o) for side in "AB" for s, o in moves]


def _orbit(box: BoxState) -> list[BoxState]:
    def key(b):     # hashing integer pairs is much cheaper than hashing Fractions
        return tuple(v.as_integer_ratio() for ab in b.table for bx in ab for row in bx for v in row)

    moves = _local_moves(box.d_a)
    seen, frontier = {key(box): box}, [box]
    while frontier:
        images = {key(image): image for image in (apply_relabeling(b, r)
                                                  for b in frontier for r in moves)}
        frontier = [image for k, image in images.items() if k not in seen]
        seen.update(images)
    return list(seen.values())


def _extreme_boxes(d: int) -> list[list[BoxState]]:
    """Barrett et al., PRA 71, 022101 (2005): every extreme box with 2
    settings and d outcomes is a local relabeling of a deterministic box or
    of a PR-k box, 2 <= k <= d."""
    deterministic = BoxState.from_function(
        2, 2, d, d, lambda a, b, x, y: Fraction(int(a == 0 and b == 0)))
    return [_orbit(deterministic)] + [_orbit(pr_box_k(k, d, d)) for k in range(2, d + 1)]


def _support(box: BoxState) -> tuple:
    return tuple(sorted(((a, b, x, y), box.prob(a, b, x, y))
                        for a in range(box.d_a) for b in range(box.d_b)
                        for x in range(box.n_x) for y in range(box.n_y)
                        if box.prob(a, b, x, y) != 0))


def _box_from_support(support, n: int, d: int) -> BoxState:
    entries = dict(support)
    return BoxState.from_function(n, n, d, d, lambda a, b, x, y: entries.get((a, b, x, y), 0))


def test_support_enumeration_vertices_are_extreme_and_their_midpoints_are_not():
    boxes = [_box_from_support(v, 2, 2) for v in sorted(no_signalling_vertices(2, 2))]
    assert len(boxes) == 24 and all(is_extreme(box) for box in boxes)
    midpoints = [BoxState.from_function(2, 2, 2, 2, lambda a, b, x, y: (p.prob(a, b, x, y)
                                                                       + q.prob(a, b, x, y)) / 2)
                 for p, q in itertools.combinations(boxes, 2)]
    assert len(midpoints) == 276 and not any(is_extreme(box) for box in midpoints)


def test_extreme_boxes_d2_match_support_enumeration():
    orbits = _extreme_boxes(2)
    assert [len(o) for o in orbits] == [16, 8]
    assert {_support(box) for o in orbits for box in o} == no_signalling_vertices(2, 2)


@pytest.mark.parametrize("d, sizes", [(2, [16, 8]), (3, [81, 648, 432])])
def test_every_extreme_box_is_locally_exchangeable(d, sizes):
    # the Lo-Popescu argument needs every pure bipartite state exchangeable
    orbits = _extreme_boxes(d)
    assert [len(o) for o in orbits] == sizes
    for box in itertools.chain(*orbits):
        _assert_exchange_witness(box, check_local_exchangeability(box))


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

def _lopsided(k: int) -> BoxState:
    """Extreme and not exchangeable: a PR-k correlation on settings 0 and 1,
    Alice's setting 2 always outputs 0, and Bob's setting 2 repeats his 0."""
    def fn(a, b, x, y):
        if x == 2:
            return Fraction(int(a == 0), k)
        return Fraction(int((b - a) % k == x * (0 if y == 2 else y) % k), k)
    return BoxState.from_function(3, 3, k, k, fn)


_VALID_BOXES = [standard_pr_box(), pr_box_k(3, 4, 3), _prk(3, 2), _lopsided(3),
                BoxState.from_function(2, 3, 2, 3, lambda a, b, x, y: Fraction(int(a == x and b == 2))),
                BoxState.from_function(2, 2, 3, 3, lambda a, b, x, y: Fraction(1, 9)),
                BoxState.from_function(2, 2, 2, 2, lambda a, b, x, y:
                                       (standard_pr_box().prob(a, b, x, y) + Fraction(int(a == b == 0))) / 2)]


@st.composite
def _relabelings(draw, box: BoxState) -> tuple:
    def side(name, n, d):
        return LocalRelabeling(name, tuple(draw(st.permutations(range(n)))),
                               tuple(tuple(draw(st.permutations(range(d)))) for _ in range(n)))
    return side("A", box.n_x, box.d_a), side("B", box.n_y, box.d_b)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(st.data())
def test_relabeling_keeps_no_signalling_and_extremality(data):
    box = data.draw(st.sampled_from(_VALID_BOXES))
    r_a, r_b = data.draw(_relabelings(box))
    moved = apply_relabeling(apply_relabeling(box, r_a), r_b)
    assert moved.validate() == []
    assert is_extreme(moved) == is_extreme(box)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(st.data())
def test_relabeled_pr_boxes_are_exchangeable(data):
    box = data.draw(st.sampled_from([_prk(n, k) for n in (2, 3) for k in range(2, 6)]))
    r_a, r_b = data.draw(_relabelings(box))
    moved = apply_relabeling(apply_relabeling(box, r_a), r_b)
    _assert_exchange_witness(moved, check_local_exchangeability(moved))


def test_locex_validates_the_box_once(monkeypatch):
    calls = []
    validate = BoxState.validate
    monkeypatch.setattr(BoxState, "validate", lambda box: calls.append(box) or validate(box))
    for box in (standard_pr_box(), pr_box_k(3, 3, 3), _lopsided(3)):
        calls.clear()
        check_local_exchangeability(box)
        assert len(calls) == 1


# ---------------------------------------------------------------------------
# the vertex test against the dense rank formulation
# ---------------------------------------------------------------------------

def _dense_is_vertex(box: BoxState) -> bool:
    """Reference vertex test: the normalization and no-signalling normals,
    restricted to the nonzero entries, have full column rank."""
    a_s, b_s, x_s, y_s = range(box.d_a), range(box.d_b), range(box.n_x), range(box.n_y)
    free = [c for c in itertools.product(a_s, b_s, x_s, y_s) if box.table[c[0]][c[1]][c[2]][c[3]]]
    rows = [[int(c[2:] == (x, y)) for c in free] for x in x_s for y in y_s]
    # p(a|x, y) = p(a|x, y + 1) and p(b|x, y) = p(b|x + 1, y)
    rows += [[(c[0] == a and c[2] == x) * ((c[3] == y) - (c[3] == y + 1)) for c in free]
             for a in a_s for x in x_s for y in range(box.n_y - 1)]
    rows += [[(c[1] == b and c[3] == y) * ((c[2] == x) - (c[2] == x + 1)) for c in free]
             for b in b_s for y in y_s for x in range(box.n_x - 1)]
    return boxworld._int_rank(rows) == len(free)


def _sweep_component(rng: random.Random, n_x: int, n_y: int, d_a: int, d_b: int):
    """A deterministic box, a PR-k-like box (b - a = c(x, y) mod k on the
    first k outcomes, c random), or a lopsided one (the same, but one of
    Alice's settings always outputs 0), as a function of (a, b, x, y)."""
    k = rng.randint(2, min(d_a, d_b))
    shift = [[rng.randrange(k) for _ in range(n_y)] for _ in range(n_x)]
    kind = rng.choice(("deterministic", "pr", "lopsided"))
    if kind == "deterministic":
        return lambda a, b, x, y: Fraction(int(a == b == 0))
    fixed = rng.randrange(n_x) if kind == "lopsided" else -1

    def fn(a, b, x, y):
        if x == fixed:
            return Fraction(int(a == 0 and b < k), k)
        return Fraction(int(a < k and b < k and (b - a) % k == shift[x][y]), k)
    return fn


def _sweep_boxes(seed: int, count: int):
    """Rational mixtures of one to three randomly relabeled sweep components,
    on 1-3 settings and 2-4 outcomes per party."""
    rng = random.Random(seed)
    for _ in range(count):
        n_x, n_y, d_a, d_b = (rng.randint(1, 3), rng.randint(1, 3),
                              rng.randint(2, 4), rng.randint(2, 4))
        parts = []
        for _ in range(rng.choice((1, 1, 1, 2))):
            fn = _sweep_component(rng, n_x, n_y, d_a, d_b)
            s_a, s_b = rng.sample(range(n_x), n_x), rng.sample(range(n_y), n_y)
            o_a = [rng.sample(range(d_a), d_a) for _ in range(n_x)]
            o_b = [rng.sample(range(d_b), d_b) for _ in range(n_y)]
            parts.append((Fraction(rng.randint(1, 4)), fn, s_a, s_b, o_a, o_b))
        total = sum(part[0] for part in parts)
        yield BoxState.from_function(
            n_x, n_y, d_a, d_b,
            lambda a, b, x, y: sum(w * fn(o_a[x][a], o_b[y][b], s_a[x], s_b[y])
                                   for w, fn, s_a, s_b, o_a, o_b in parts) / total)


def test_vertex_test_matches_dense_rank_on_a_seeded_sweep():
    boxes = list(_sweep_boxes(seed=15, count=2000))
    verdicts = []
    for box in boxes:
        assert box.validate() == []
        verdict = boxworld._is_vertex(box)
        assert verdict == _dense_is_vertex(box), box.to_dict()
        verdicts.append(verdict)
    assert min(verdicts.count(True), verdicts.count(False)) >= len(boxes) // 4
    shapes = {(box.n_x, box.n_y, box.d_a, box.d_b) for box in boxes}
    assert len(shapes) == 3 ** 4    # every shape, the unequal ones included
    unused = [box for box in boxes
              if any(not any(box.prob(a, b, x, y) for b in range(box.d_b) for y in range(box.n_y))
                     for a in range(box.d_a) for x in range(box.n_x))]
    assert len(unused) >= len(boxes) // 4


def test_vertex_test_matches_dense_rank_on_random_supports():
    # both tests read only the support, and the kernel identity holds on any
    # support, so 0/1 tables that are not boxes check the sector-cycle step too
    rng = random.Random(16)
    verdicts = []
    for _ in range(1000):
        shape = (rng.randint(1, 3), rng.randint(1, 3), rng.randint(2, 4), rng.randint(2, 4))
        density = rng.choice((0.2, 0.3, 0.5))
        table = BoxState.from_function(*shape, lambda a, b, x, y: int(rng.random() < density))
        verdict = boxworld._is_vertex(table)
        assert verdict == _dense_is_vertex(table), table.to_dict()
        verdicts.append(verdict)
    assert min(verdicts.count(True), verdicts.count(False)) >= len(verdicts) // 4


# ---------------------------------------------------------------------------
# the relabelings and the swap against their closure forms
# ---------------------------------------------------------------------------

def _relabel_by_closure(box: BoxState, r: LocalRelabeling) -> BoxState:
    """Reference relabeling: each new entry looked up through the old label."""
    old = {(new, perm[o]): (s, o)
           for s, (new, perm) in enumerate(zip(r.setting_perm, r.outcome_perms))
           for o in range(len(perm))}

    def fn(a, b, x, y):
        if r.side == "A":
            x0, a0 = old[x, a]
            return box.table[a0][b][x0][y]
        y0, b0 = old[y, b]
        return box.table[a][b0][x][y0]

    return BoxState.from_function(box.n_x, box.n_y, box.d_a, box.d_b, fn)


def _swap_by_closure(box: BoxState) -> BoxState:
    return BoxState.from_function(box.n_y, box.n_x, box.d_b, box.d_a,
                                  lambda a, b, x, y: box.table[b][a][y][x])


def _inverse(r: LocalRelabeling) -> LocalRelabeling:
    settings, outcomes = [0] * len(r.setting_perm), [()] * len(r.setting_perm)
    for s, (new, perm) in enumerate(zip(r.setting_perm, r.outcome_perms)):
        settings[new] = s
        outcomes[new] = tuple(sorted(range(len(perm)), key=perm.__getitem__))
    return LocalRelabeling(r.side, tuple(settings), tuple(outcomes))


_MAPPED_BOXES = _VALID_BOXES + list(_sweep_boxes(seed=17, count=40))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.data())
def test_index_map_relabelings_and_swap_match_their_closure_forms(data):
    box = data.draw(st.sampled_from(_MAPPED_BOXES))
    assert boxworld._swap(box) == _swap_by_closure(box)
    assert boxworld._swap(boxworld._swap(box)) == box
    for r in data.draw(_relabelings(box)):
        moved = boxworld._relabel(box, r)
        assert moved == _relabel_by_closure(box, r)
        assert boxworld._relabel(moved, _inverse(r)) == box


# ---------------------------------------------------------------------------
# the exchange search against the brute-force oracle
# ---------------------------------------------------------------------------

def test_exchange_verdicts_match_the_brute_force_oracle():
    small = [box for box in _sweep_boxes(seed=21, count=1500)
             if box.n_x == box.n_y and box.d_a == box.d_b and box.n_x * box.d_a <= 6]
    boxes = [*itertools.chain(*_extreme_boxes(2)), *small, _lopsided(2)]
    verdicts = []
    for box in boxes:
        witness = check_local_exchangeability(box, require_extreme=False)
        assert (witness is not None) == local_exchange_exists(box.table), box.to_dict()
        if witness is not None:
            _assert_exchange_witness(box, witness)
        verdicts.append(witness is not None)
    assert len(small) >= 100 and min(verdicts.count(True), verdicts.count(False)) >= 20
    assert not verdicts[-1]     # the lopsided box


def test_integer_form_is_the_table_over_its_least_common_denominator():
    for box in _sweep_boxes(seed=15, count=2000):
        den, nums = box._numerators
        entries = [v for ab in box.table for bx in ab for row in bx for v in row]
        assert den == math.lcm(*(v.denominator for v in entries))
        assert len(nums) == len(entries)
        assert all(type(num) is int and Fraction(num, den) == v for num, v in zip(nums, entries))
