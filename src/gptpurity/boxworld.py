"""Bipartite no-signalling boxes in exact rational arithmetic.

Boxes are conditional probability tables p(ab|xy) with Fraction entries;
normalization, no-signalling, extremality, and the relabeling search are
all exact identities, so equality is never tolerance-based here.  A box
writes its entries over their least common denominator once, on first use,
and those checks read the integers.
"""

from __future__ import annotations

import itertools
import math
import numbers
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .core import StructuralError


class BoxInvariantError(ValueError):
    """The table violates normalization or no-signalling."""


def _frac(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise StructuralError(f"box entry {value!r} is not a rational") from None
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise StructuralError(f"box entries must be exact rationals (int, Fraction, or a string "
                          f"such as '1/3'), got {type(value).__name__}")


def _has_shape(raw, shape: tuple) -> bool:
    """True when ``raw`` is nested lists of exactly these lengths."""
    if not shape:
        return True
    return (isinstance(raw, (list, tuple)) and len(raw) == shape[0]
            and all(_has_shape(item, shape[1:]) for item in raw))


@dataclass(frozen=True)
class BoxState:
    """Conditional probability table, indexed table[a][b][x][y]."""

    n_x: int
    n_y: int
    d_a: int
    d_b: int
    table: tuple

    def prob(self, a: int, b: int, x: int, y: int) -> Fraction:
        return self.table[a][b][x][y]

    @staticmethod
    def from_function(n_x: int, n_y: int, d_a: int, d_b: int, fn) -> "BoxState":
        if min(n_x, n_y, d_a, d_b) < 1:
            raise StructuralError("a box needs at least one setting and one outcome per party")
        table = tuple(tuple(tuple(tuple(_frac(fn(a, b, x, y)) for y in range(n_y))
                                  for x in range(n_x))
                            for b in range(d_b))
                      for a in range(d_a))
        return BoxState(n_x, n_y, d_a, d_b, table)

    @cached_property
    def _numerators(self) -> tuple[int, tuple[int, ...]]:
        """(den, numerators): the entries over their least common denominator,
        flat in [a][b][x][y] order, so sums and comparisons stay in integers."""
        flat = [v for ab in self.table for bx in ab for row in bx for v in row]
        den = math.lcm(*(v.denominator for v in flat))
        return den, tuple(v.numerator * (den // v.denominator) for v in flat)

    def validate(self) -> list[str]:
        """Exact normalization and no-signalling check; empty list when valid."""
        den, nums = self._numerators
        a_s, b_s, x_s, y_s = range(self.d_a), range(self.d_b), range(self.n_x), range(self.n_y)
        n_y, cells = self.n_y, self.n_x * self.n_y
        # den * p(ab|xy) as blocks[a * d_b + b][x * n_y + y]
        blocks = [nums[k:k + cells] for k in range(0, len(nums), cells)]
        # den * p(a|xy) indexed [a][x * n_y + y], and den * p(b|xy) indexed [b][x * n_y + y]
        marg_a = [[sum(v) for v in zip(*blocks[a * self.d_b:(a + 1) * self.d_b])] for a in a_s]
        marg_b = [[sum(v) for v in zip(*blocks[b::self.d_b])] for b in b_s]
        report = [f"negative entry p({a}{b}|{x}{y})"
                  for (a, b, x, y), v in zip(itertools.product(a_s, b_s, x_s, y_s), nums) if v < 0]
        for (x, y), total in zip(itertools.product(x_s, y_s), map(sum, zip(*marg_a))):
            if total != den:
                report.append(f"sector ({x},{y}) sums to {Fraction(total, den)}, not 1")
        report += [f"A-marginal p({a}|{x}) depends on y"
                   for a, x in itertools.product(a_s, x_s)
                   if len(set(marg_a[a][x * n_y:(x + 1) * n_y])) > 1]
        report += [f"B-marginal p({b}|{y}) depends on x"
                   for b, y in itertools.product(b_s, y_s) if len(set(marg_b[b][y::n_y])) > 1]
        return report

    def require_valid(self) -> None:
        report = self.validate()
        if report:
            raise BoxInvariantError("; ".join(report))

    def to_dict(self) -> dict:
        return {
            "settings": [self.n_x, self.n_y],
            "outcomes": [self.d_a, self.d_b],
            "table": [[[[str(self.table[a][b][x][y]) for y in range(self.n_y)]
                        for x in range(self.n_x)]
                       for b in range(self.d_b)]
                      for a in range(self.d_a)],
        }

    @staticmethod
    def from_dict(data: dict, validate: bool = True) -> "BoxState":
        if not isinstance(data, dict) or not {"settings", "outcomes", "table"} <= data.keys():
            raise StructuralError("a box is an object with keys settings, outcomes and table")
        counts = (data["settings"], data["outcomes"])
        if not all(_has_shape(pair, (2,)) and all(type(v) is int for v in pair)
                   for pair in counts):
            raise StructuralError("settings and outcomes must each be a pair of integers")
        (n_x, n_y), (d_a, d_b) = counts
        raw = data["table"]
        if not _has_shape(raw, (d_a, d_b, n_x, n_y)):
            raise StructuralError(f"table must be nested lists of shape "
                                  f"{d_a} x {d_b} x {n_x} x {n_y}, indexed [a][b][x][y]")
        box = BoxState.from_function(n_x, n_y, d_a, d_b, lambda a, b, x, y: raw[a][b][x][y])
        if validate:
            box.require_valid()
        return box


@dataclass(frozen=True)
class LocalRelabeling:
    """Reversible local operation: permute settings and, per setting, outcomes.

    ``outcome_perms[x]`` applies to outcomes measured at the *original*
    setting x; the new setting label is ``setting_perm[x]``.
    """

    side: str
    setting_perm: tuple[int, ...]
    outcome_perms: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.side not in ("A", "B"):
            raise StructuralError("side must be 'A' or 'B'")
        # labels are integers (numpy's too, kept as int); bools and floats are refused
        try:
            labels = [list(self.setting_perm), *map(list, self.outcome_perms)]
        except TypeError:
            raise StructuralError("setting_perm and outcome_perms must be sequences of "
                                  "integer labels") from None
        if not all(isinstance(v, numbers.Integral) and not isinstance(v, bool)
                   for perm in labels for v in perm):
            raise StructuralError("relabeling labels must be integers")
        object.__setattr__(self, "setting_perm", tuple(map(int, labels[0])))
        object.__setattr__(self, "outcome_perms", tuple(tuple(map(int, p)) for p in labels[1:]))
        if sorted(self.setting_perm) != list(range(len(self.setting_perm))):
            raise StructuralError("setting_perm is not a permutation")
        if len(self.outcome_perms) != len(self.setting_perm):
            raise StructuralError("need one outcome permutation per setting")
        for perm in self.outcome_perms:
            if sorted(perm) != list(range(len(perm))):
                raise StructuralError("outcome permutation is not a bijection")

    @property
    def is_identity(self) -> bool:
        return (self.setting_perm == tuple(range(len(self.setting_perm)))
                and all(p == tuple(range(len(p))) for p in self.outcome_perms))

    def to_dict(self) -> dict:
        return {"side": self.side, "setting_perm": list(self.setting_perm),
                "outcome_perms": [list(p) for p in self.outcome_perms]}


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def standard_pr_box() -> BoxState:
    """The 2-setting/2-outcome box with a+b = xy mod 2, weight 1/2: ``pr_box_k(2, 2, 2)``."""
    return pr_box_k(2, 2, 2)


def pr_box_k(k: int, d_a: int, d_b: int) -> BoxState:
    """The extremal-box family b - a = xy mod k on 2 settings.

    Outcomes at or above k never occur; entries are 1/k on the supported
    congruence class.
    """
    if not 2 <= k <= min(d_a, d_b):
        raise StructuralError(f"need 2 <= k <= min(d_a, d_b), got k={k}, d_a={d_a}, d_b={d_b}")

    def fn(a, b, x, y):
        if a < k and b < k and (b - a) % k == (x * y) % k:
            return Fraction(1, k)
        return Fraction(0)

    return BoxState.from_function(2, 2, d_a, d_b, fn)


# ---------------------------------------------------------------------------
# relabelings and party swap
# ---------------------------------------------------------------------------

def _relabel(box: BoxState, r: LocalRelabeling) -> BoxState:
    """``apply_relabeling`` without the validity check."""
    n, d = (box.n_x, box.d_a) if r.side == "A" else (box.n_y, box.d_b)
    if len(r.setting_perm) != n or any(len(p) != d for p in r.outcome_perms):
        raise StructuralError("relabeling shape does not match the box")
    # old[new setting][new outcome]: the old (setting, outcome) label of each new one
    old = [[(0, 0)] * d for _ in range(n)]
    for s, (new, perm) in enumerate(zip(r.setting_perm, r.outcome_perms)):
        for o, o_new in enumerate(perm):
            old[new][o_new] = (s, o)
    tab = box.table
    if r.side == "A":       # table[a][b][x] is a row over y, which Alice's labels keep
        table = tuple(tuple(tuple(tab[old[x][a][1]][b][old[x][a][0]] for x in range(box.n_x))
                            for b in range(box.d_b))
                      for a in range(box.d_a))
    else:
        table = tuple(tuple(tuple(tuple(tab[a][old[y][b][1]][x][old[y][b][0]]
                                        for y in range(box.n_y))
                                  for x in range(box.n_x))
                            for b in range(box.d_b))
                      for a in range(box.d_a))
    return BoxState(box.n_x, box.n_y, box.d_a, box.d_b, table)


def _swap(box: BoxState) -> BoxState:
    """``swap_parties`` without the validity check: entry [a][b][x][y] is [b][a][y][x]."""
    table = tuple(tuple(tuple(zip(*box.table[b][a])) for b in range(box.d_a))
                  for a in range(box.d_b))
    return BoxState(box.n_y, box.n_x, box.d_b, box.d_a, table)


def apply_relabeling(box: BoxState, r: LocalRelabeling) -> BoxState:
    """Relabel one side's settings and outcomes; no-signalling is preserved.

    A relabeling permutes the entries, so the box is valid exactly when its
    image is; the input is the one checked.
    """
    out = _relabel(box, r)
    box.require_valid()
    return out


def swap_parties(box: BoxState) -> BoxState:
    """Exchange the roles of the parties: x <-> y together with a <-> b."""
    box.require_valid()
    return _swap(box)


# ---------------------------------------------------------------------------
# extremality
# ---------------------------------------------------------------------------

def _int_rank(rows: list[list[int]]) -> int:
    """Exact rank of an integer matrix (integer row reduction, rows kept primitive)."""
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in rows if r[col]), None)
        if pivot is None:
            continue
        rank += 1
        rows = [r for r in rows if r is not pivot]
        for k, r in enumerate(rows):
            if r[col]:
                r = [pivot[col] * v - r[col] * w for v, w in zip(r, pivot)]
                g = math.gcd(*r)
                rows[k] = [v // g for v in r] if g > 1 else r
    return rank


def is_extreme(box: BoxState) -> bool:
    """Vertex test for the no-signalling polytope, exactly.

    The box is extreme iff the constraints active at it (zero entries,
    sector normalization, and the no-signalling equalities) pin it down
    uniquely, i.e. no nonzero direction delta on its support keeps all of
    them.  Such a delta has well-defined margins alpha(a|x) = sum_b
    delta(ab|xy) and beta(b|y) = sum_a delta(ab|xy).  Within one sector the
    map from entries to row and column sums is the incidence map of the
    sector's bipartite outcome support graph: its kernel is the cycle
    space, and its image is "equal sums on each connected component".  So
    the directions form a space of dimension

        sum over sectors of the cycle rank
        + dim{(alpha, beta) : sum_a alpha(a|x) = 0 for each x, and
              sum_(a in K) alpha(a|x) = sum_(b in K) beta(b|y) for each
              component K of each sector (x, y)},

    where an isolated outcome is a component of its own, with margin 0.
    The box is extreme iff every sector's support is a forest and that
    small system has only the zero solution.
    """
    box.require_valid()
    return _is_vertex(box)


def _root(parent: list[int], u: int) -> int:
    """Union-find root of node u, halving the path on the way."""
    while parent[u] != u:
        parent[u] = u = parent[parent[u]]
    return u


def _is_vertex(box: BoxState) -> bool:
    """``is_extreme`` without the validity check, by the sector-forest argument there.

    A union-find over each sector's d_a + d_b outcome nodes finds the first
    cycle.  The margins alpha(a|x) and beta(b|y) are then nodes of a second
    union-find, in which a one-edge component merges its two.  The other
    equations, their coefficients summed per class, must have full rank.
    """
    d_a, d_b = box.d_a, box.d_b
    nums = box._numerators[1]
    # node x*d_a + a is alpha(a|x), node n_x*d_a + y*d_b + b is beta(b|y)
    merged = list(range(box.n_x * d_a + box.n_y * d_b))
    # each equation says that its (node, sign) terms sum to zero
    equations = [[(x * d_a + a, 1) for a in range(d_a)] for x in range(box.n_x)]
    for x, y in itertools.product(range(box.n_x), range(box.n_y)):
        sector = nums[x * box.n_y + y::box.n_x * box.n_y]       # indexed a * d_b + b
        parent = list(range(d_a + d_b))     # outcome a is local node a, outcome b is d_a + b
        for a, b in itertools.product(range(d_a), range(d_b)):
            if sector[a * d_b + b]:
                ra, rb = _root(parent, a), _root(parent, d_a + b)
                if ra == rb:
                    return False
                parent[ra] = rb
        nodes = ([x * d_a + a for a in range(d_a)]
                 + [box.n_x * d_a + y * d_b + b for b in range(d_b)])
        components: dict[int, list[tuple[int, int]]] = {}
        for u, node in enumerate(nodes):
            components.setdefault(_root(parent, u), []).append((node, 1 if u < d_a else -1))
        for terms in components.values():
            if len(terms) == 2:         # one edge ab: alpha(a|x) = beta(b|y)
                merged[_root(merged, terms[0][0])] = _root(merged, terms[1][0])
            else:                       # equal sums; an isolated outcome's margin is 0
                equations.append(terms)
    roots = [_root(merged, u) for u in range(len(merged))]
    column = {r: k for k, r in enumerate(dict.fromkeys(roots))}
    rows = []
    for terms in equations:
        row = [0] * len(column)
        for node, sign in terms:
            row[column[roots[node]]] += sign
        rows.append(row)
    return _int_rank(rows) == len(column)


# ---------------------------------------------------------------------------
# local exchangeability
# ---------------------------------------------------------------------------

def check_local_exchangeability(box: BoxState, require_extreme: bool = True
                                ) -> tuple[LocalRelabeling, LocalRelabeling] | None:
    """Search for local relabelings realizing the party swap on this box.

    Returns a pair (r_A, r_B) with (r_A x r_B)(box) = swap_parties(box)
    exactly, or None when no such pair exists.  Read as a matrix of the
    integer entries with rows (x, a) and columns (y, b), the swapped box is
    the transpose, and a pair maps rows and columns, keeping setting blocks
    together.  One backtracking search places the rows onto those of the
    swapped box in order, identity first, trying identical target rows once.
    A column's key is its entries on the rows placed so far; each row's
    sector contents paired with those keys must match, block by block, among
    the rows not yet placed.  Bob's relabeling then matches columns of equal
    key.  The pair is checked entry by entry through its index maps.
    """
    box.require_valid()
    if require_extreme and not _is_vertex(box):
        raise StructuralError("box is not an extreme point; pass require_extreme=False to waive")
    if (box.n_x, box.d_a) != (box.n_y, box.d_b):
        return None
    n, d = box.n_x, box.d_a
    den, nums = box._numerators
    # rows[x*d + a][y*d + b] = den * p(ab|xy); the swapped box's matrix is its transpose
    rows = [[nums[((a * d + b) * n + x) * n + y] for y in range(n) for b in range(d)]
            for x in range(n) for a in range(d)]
    t_rows = [list(col) for col in zip(*rows)]
    width = den + 1         # entries lie in [0, den], so key * width + entry codes the pair

    spans = [(s * d, (s + 1) * d) for s in range(n)]

    def blocks(seq) -> list:
        return [sorted(seq[lo:hi]) for lo, hi in spans]

    def signature(row, scaled) -> tuple:
        """The row's sector contents, each entry coded with its column's key."""
        coded = list(map(operator.add, scaled, row))
        return tuple(sorted([tuple(sorted(coded[lo:hi])) for lo, hi in spans]))

    def by_block(sigs: dict) -> dict:
        return {s: sorted(sig for r, sig in sigs.items() if r // d == s)
                for s in sorted({r // d for r in sigs})}

    prefixes: dict = {}
    image: list[int] = []   # image[i]: the row of the swapped box that row i goes to

    def extend(keys, row) -> list[int]:
        return [prefixes.setdefault(k * width + v, len(prefixes)) for k, v in zip(keys, row)]

    def search(keys, t_keys):
        i = len(image)
        if i == n * d:
            return (keys, t_keys) if sorted(blocks(keys)) == sorted(blocks(t_keys)) else None
        x, a = divmod(i, d)
        scaled, t_scaled = [k * width for k in keys], [k * width for k in t_keys]
        sigs = {r: signature(rows[r], scaled) for r in range(i, n * d)}
        t_sigs = {t: signature(t_rows[t], t_scaled) for t in range(n * d) if t not in image}
        groups, t_groups = by_block(sigs), by_block(t_sigs)
        if a:
            settings = [image[-1] // d]
            if groups.pop(x) != t_groups.pop(settings[0]):
                return None
        else:
            settings = [s for s in t_groups if t_groups[s] == groups[x]]
        if sorted(groups.values()) != sorted(t_groups.values()):
            return None
        new_keys = extend(keys, rows[i])
        for s in settings:
            for t in range(s * d, (s + 1) * d):
                if (t_sigs.get(t) != sigs[i]
                        or any(u in t_sigs and t_rows[u] == t_rows[t] for u in range(s * d, t))):
                    continue
                image.append(t)
                found = search(new_keys, extend(t_keys, t_rows[t]))
                if found:
                    return found
                image.pop()
        return None

    found = search([-1] * (n * d), [-1] * (n * d))
    if found is None:
        return None
    cols, t_cols = (blocks(keys) for keys in found)
    setting_b, outcomes_b = [], []
    for y in range(n):
        s = next(s for s in range(n) if s not in setting_b and t_cols[s] == cols[y])
        perm: list[int] = []
        for key in found[0][y * d:(y + 1) * d]:
            perm.append(next(c for c in range(d) if c not in perm and found[1][s * d + c] == key))
        setting_b.append(s)
        outcomes_b.append(tuple(perm))
    r_a = LocalRelabeling("A", tuple(image[x * d] // d for x in range(n)),
                          tuple(tuple(t % d for t in image[x * d:(x + 1) * d])
                                for x in range(n)))
    r_b = LocalRelabeling("B", tuple(setting_b), tuple(outcomes_b))
    # exactly: row i, column j of the box is row r_A(i), column r_B(j) of the swapped box
    map_a, map_b = ([r.setting_perm[s] * d + o for s in range(n) for o in r.outcome_perms[s]]
                    for r in (r_a, r_b))
    if any([t_rows[map_a[i]][j] for j in map_b] != row for i, row in enumerate(rows)):
        raise RuntimeError("relabeling search returned a pair that misses the party swap")
    return r_a, r_b
