"""The package's design rules, as one scan of ``src/gptpurity/*.py``.

Each rule keeps a witness honest or a datum in one place.  ``RULES`` holds
one row per rule: the modules it reads, the kind of site, the pattern, the
scope and the reason, with the planted mutants it must reject.  Every
module is parsed once (``SOURCES``, which ``test_imports`` shares), and
every site carries its chain of enclosing ``def`` names: methods count,
classes do not.  One scope rule reads that chain, with F a regex
fullmatched against ``module.def``:

* ``inside=F``: the rule fires only where F names some def of the chain,
  so a def nested in F is inside F too;
* ``only_in=F``: the rule fires everywhere except where F names the
  innermost def.

A site is one of four kinds:

* ``line``: each raw line of the file, comments and docstrings included,
  searched as ``grep -E`` would;
* ``expression``: ``ast.unparse`` of each expression directly under a
  statement, searched, so a line break cannot split a pattern;
* ``reference``: each name, attribute chain and imported name, resolved
  through the module's imports, definitions and module-level
  ``name = dotted.name`` aliases to a dotted name without the
  ``gptpurity.`` prefix, and fullmatched.  After
  ``from . import simplex as _lp``, ``_lp.phase1`` reads ``simplex.phase1``;
  ``lp = feasible_convex_combination`` in a function is itself a reference.
  An attribute of an expression that is no name reads ``.attr``;
* ``import``: the dotted name of each module or object that an ``import``
  or ``from ... import`` brings in, fullmatched.

Each mutant is a source string appended to its module; the scan of the
module so extended must report the rule.
"""

import ast
import re
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gptpurity"

DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _in_package(dotted: str) -> str:
    """``dotted`` without a leading ``gptpurity``."""
    head, _, rest = dotted.partition(".")
    return rest if head == "gptpurity" else dotted


def _imports(node: ast.AST) -> list[tuple[str, str, str]]:
    """(bound name, what the name stands for, what is imported) for each name an import binds."""
    if isinstance(node, ast.Import):
        return [(alias.asname or alias.name.split(".")[0],
                 alias.name if alias.asname else alias.name.split(".")[0], alias.name)
                for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        base = node.module or ""
        base = _in_package(base) if node.level == 0 else base
        out = []
        for alias in node.names:
            dotted = f"{base}.{alias.name}" if base else alias.name
            out.append((alias.asname or alias.name, dotted, dotted))
        return out
    return []


def _dotted(node: ast.AST, aliases: dict[str, str]) -> str | None:
    """The dotted name a name or attribute chain stands for; None for any other expression."""
    if isinstance(node, ast.Name):
        return aliases.get(node.id, node.id)
    if isinstance(node, ast.Attribute):
        return f"{_dotted(node.value, aliases) or ''}.{node.attr}"
    return None


def _expressions(statement: ast.stmt):
    """The expressions directly under ``statement``, not those of the statements it holds."""
    stack = list(ast.iter_child_nodes(statement))
    while stack:
        node = stack.pop()
        if isinstance(node, ast.expr):
            yield node
        elif not isinstance(node, ast.stmt):
            stack.extend(ast.iter_child_nodes(node))


class Source:
    """One module of the package, parsed once, with its scan sites."""

    def __init__(self, name: str, text: str):
        self.name, self.text = name, text
        self.tree = ast.parse(text)

    @cached_property
    def aliases(self) -> dict[str, str]:
        """The dotted name of each name bound by a module-level def or class, by an
        import anywhere, or by a module-level ``name = dotted.name``."""
        out = {node.name: f"{self.name}.{node.name}" for node in self.tree.body
               if isinstance(node, (*DEFS, ast.ClassDef))}
        for node in ast.walk(self.tree):
            out.update((bound, dotted) for bound, dotted, _ in _imports(node))
        for node in self.tree.body:
            if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name):
                dotted = _dotted(node.value, out)
                if dotted is not None:
                    out[node.targets[0].id] = dotted
        return out

    @cached_property
    def sites(self) -> dict[str, list[tuple[str, tuple[str, ...], int]]]:
        """Every site by kind, as (text, chain of enclosing def names, line), from one walk."""
        sites = {"line": [(line, (), n) for n, line in enumerate(self.text.splitlines(), 1)],
                 "expression": [], "reference": [], "import": []}
        stack = [(self.tree, ())]
        while stack:
            node, chain = stack.pop()
            if isinstance(node, ast.stmt):
                sites["expression"] += [(ast.unparse(e), chain, e.lineno) for e in _expressions(node)]
            if isinstance(node, (ast.Name, ast.Attribute)):
                sites["reference"].append((_in_package(_dotted(node, self.aliases)), chain,
                                           node.lineno))
            for _, _, imported in _imports(node):
                for kind in ("import", "reference"):
                    sites[kind].append((_in_package(imported), chain, node.lineno))
            for field, value in ast.iter_fields(node):
                # a def's name joins the chain of its body only: decorators, defaults
                # and annotations are evaluated where the def stands
                inner = chain + (node.name,) if isinstance(node, DEFS) and field == "body" else chain
                stack += [(child, inner) for child in (value if isinstance(value, list) else [value])
                          if isinstance(child, ast.AST)]
        return sites


@dataclass(frozen=True)
class Rule:
    name: str
    modules: str                     # regex, fullmatched against the module name
    site: str                        # "line", "expression", "reference" or "import"
    pattern: str                     # searched in lines and expressions, else fullmatched
    reason: str
    mutants: tuple[tuple[str, str], ...]     # (module, source appended to it)
    inside: str | None = None
    only_in: str | None = None

    def violations(self, source: Source) -> list[str]:
        """``module.py:line: site`` of each site of ``source`` that breaks the rule."""
        if not re.fullmatch(self.modules, source.name):
            return []
        match = re.search if self.site in ("line", "expression") else re.fullmatch
        found = []
        for text, chain, line in source.sites[self.site]:
            scope = [f"{source.name}.{name}" for name in chain]
            if self.inside and not any(re.fullmatch(self.inside, fn) for fn in scope):
                continue
            if self.only_in and scope and re.fullmatch(self.only_in, scope[-1]):
                continue
            if match(self.pattern, text):
                found.append(f"{source.name}.py:{line}: {text.strip()}")
        return list(dict.fromkeys(found))


EVERY = r"\w+"
LP = r"(mixedness\.)?feasible_convex_combination|simplex(\..*)?"

RULES = (
    Rule("tolerance-literals", r"(?!tolerances$)\w+", "line", r"[0-9]e-?[0-9]",
         "numeric tolerances live in tolerances.py; move the literal there",
         (("quantum", "x = 1e-3\n"),)),
    Rule("one-sum-to-one", EVERY, "line",
         r"(sum\([^=)]*\)|trace|norms?|norm\([^)]*\)) *- *1\b"
         r"|\b1(\.0*)? *- *[A-Za-z_.]*(sum\(|trace|norm)",
         "core.sums_to_one decides whether weights, a norm or a trace sum to one "
         "(against SUM_TOL); check the sum with it",
         (("mixedness", "def _sums(w):\n    return abs(w.sum() - 1) <= SUM_TOL\n"),
          ("quantum", "def _unit_trace(m):\n    return abs(1.0 - np.trace(m)) <= SUM_TOL\n"))),
    Rule("one-rare-residual", EVERY, "expression", r"(^|[^A-Za-z0-9_])u @ [^@]+ @ u\.conj\(\)\.T",
         "quantum._rare_residual measures how far a RaRe witness's mixture "
         "sum_i w_i U_i X U_i^dag misses its target; compute the residual with it",
         (("quantum", "def rare_synthesis_quantum(rho, source):\n"
                      "    mix = sum(w * u @ source.matrix\n"
                      "              @ u.conj().T for w, u in rare)\n"),
          ("quantum", "def one_way_locc_from_rare(psi, target, rare):\n"
                      "    return sum(w * u @ rho @ u.conj().T for w, u in rare)\n"),
          ("quantum", "def _rare_residual(rare, source, target):\n"
                      "    def mix():\n"
                      "        return sum(w * u @ source @ u.conj().T for w, u in rare)\n"),
          ("harness", "def _rare_residual(rare, source, target):\n"
                      "    return sum(w * u @ source @ u.conj().T for w, u in rare)\n")),
         only_in=r"quantum\._rare_residual"),
    Rule("one-stored-form", EVERY, "line",
         r"group_array|_effect_array|np\.(asarray|array|reshape)\([^)]*\.(pure_states|extremal_effects"
         r"|group)\b|_eigen(values|vectors)(\[:, *)?\[?::-1\]",
         "TheorySystem keeps pure_states, extremal_effects and group as single read-only "
         "arrays, and a DensityMatrix keeps its eigenpairs descending; read them as they are",
         (("mixedness", "def _stack(rho):\n    return np.array(rho.system.group)\n"),
          ("quantum", "def _ascending(rho):\n    return rho._eigenvalues[::-1]\n"))),
    Rule("orbit-questions-solve-no-lp", "mixedness", "reference",
         r"(mixedness\.)?(feasible_convex_combination|more_mixed)|simplex(\..*)?",
         "an orbit lies on one sphere of the group's invariant form, so orbit_hull and "
         "equally_mixed read their answers off the orbit, without an LP",
         (("mixedness", "def orbit_hull(rho):\n    orbit = _orbit(rho)\n"
                        "    lp = feasible_convex_combination; lp(orbit, rho.vec)\n"),
          ("mixedness", "def equally_mixed(rho, sigma):\n"
                        "    return more_mixed(rho, sigma) and more_mixed(sigma, rho)\n")),
         inside=r"mixedness\.(orbit_hull|equally_mixed)"),
    Rule("reflection-groups-solve-no-lp", "core|mixedness", "reference", LP,
         "on a group generated by reflections more_mixed decides G-majorization from the "
         "chamber, and orbit_hull finds distinct orbit points by one sort: the reflection "
         "path, the one mixing walk, its S_n instance and rebuild check, the checked 'no' "
         "witnesses and _first_hits solve no LP",
         tuple(("mixedness", f"def {fn}(*args):\n    return feasible_convex_combination(orbit, x)\n")
               for fn in ("_reflection_walk", "_reflection_certificate", "_ky_fan_certificate",
                          "_separating_certificate", "_caratheodory_walk", "_walk_witness",
                          "_rebuild_residual"))
         + (("core", "def _first_hits(points, atol):\n    from . import simplex\n"
                     "    return simplex.phase1(points.T, points[0])\n"),),
         inside=r"\w+\.(_reflection_\w*|_caratheodory_walk|_walk_witness|_rebuild_residual"
                r"|_separating_certificate|_ky_fan_certificate|_first_hits)"),
    Rule("state-check-solves-no-lp", "mixedness", "reference", LP,
         "the pure effects are derived from the pure states and validate_state reads them; "
         "check states against them, without an LP",
         (("mixedness", "def validate_state(rho, name='state'):\n"
                        "    feasible_convex_combination(rho.system.pure_states, rho.vec)\n"),
          ("mixedness", "def validate_state(rho, name='state'):\n    from . import simplex as _lp\n"
                        "    _lp.phase1(rho.system.pure_states.T, rho.vec)\n")),
         inside=r"mixedness\.validate_state"),
    Rule("no-effect-list", EVERY, "line", r"""extremal_effects=|\[["']extremal_effects["']\]""",
         "the pure effects are derived from the pure states; take no effect list as input",
         (("core", "def make_classical(n):\n    return TheorySystem(dim=n, extremal_effects=eye)\n"),
          ("core", "def system_from_dict(data):\n    effects = data[\"extremal_effects\"]\n"))),
    Rule("no-cli-tolerance", "cli", "line", r"""["']--(a|r)?tol["']""",
         "tolerances live in tolerances.py, so no CLI verb takes a --tol, --atol or --rtol",
         (("cli", "OPTIONS = {\"--tol\": {\"type\": float}}\n"),)),
    Rule("no-test-oracles", EVERY, "line", r"(?i)oracles|wootters|linprog|highs",
         "the Wootters formula and HiGHS are the tests' independent checks; production code "
         "must not use them",
         (("quantum", "from scipy.optimize import linprog\n"),
          ("quantum", "# checked against the Wootters formula\n"))),
    Rule("box-world-stays-exact", "boxworld", "line", r"import numpy|from numpy|float\(",
         "box world's equalities are exact identities; it computes in int and Fraction only",
         (("boxworld", "import numpy as np\n"),
          ("boxworld", "def _weight(v):\n    return float(v)\n"))),
    Rule("box-world-derives-its-integers-once", "boxworld", "reference",
         r"(.*\.)?as_integer_ratio|math\.lcm|.*\.denominator",
         "BoxState._numerators writes a box's entries over their least common denominator; "
         "read the integers from it",
         (("boxworld", "def validate(box):\n    return [v.denominator for v in box.table]\n"),
          ("boxworld", "def _den(values):\n    return math.lcm(*(v.as_integer_ratio()[1] for v in values))\n"),
          ("boxworld", "from math import lcm as _lcm\n\ndef _den(values):\n    return _lcm(*values)\n")),
         only_in=r"boxworld\._numerators"),
    Rule("no-scipy", EVERY, "import", r"scipy(\..*)?",
         "numpy is the only runtime dependency (scipy serves the test oracles and the "
         "benchmark); the package must not import scipy",
         (("quantum", "def _solver():\n    from scipy.optimize import minimize\n    return minimize\n"),
          ("core", "import scipy.linalg\n"))),
    Rule("only-mixedness-solves-lps", r"(?!mixedness$)\w+", "import", r"(.*\.)?simplex(\..*)?",
         "the phase-1 simplex answers mixedness's feasibility questions; no other module "
         "imports it",
         (("monotones", "from . import simplex\n"),
          ("monotones", "from .simplex import phase1\n"),
          ("monotones", "from .mixedness import simplex\n"))),
    Rule("core-imports-nothing-from-mixedness", "core", "import", r"mixedness(\..*)?",
         "mixedness builds on core; core keeps the helpers both use (_first_hits, _images)",
         (("core", "def _chamber(self):\n    from .mixedness import _first_hits\n    return _first_hits\n"),)),
)

SOURCES = {path.stem: Source(path.stem, path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


@pytest.mark.parametrize("rule", RULES, ids=lambda rule: rule.name)
def test_package_keeps_the_rule(rule):
    found = [site for source in SOURCES.values() for site in rule.violations(source)]
    assert not found, rule.reason + ":\n" + "\n".join(found)


@pytest.mark.parametrize("rule, module, snippet",
                         [pytest.param(rule, module, snippet, id=f"{rule.name}-{k}")
                          for rule in RULES for k, (module, snippet) in enumerate(rule.mutants)])
def test_rule_rejects_its_planted_mutant(rule, module, snippet):
    assert rule.violations(Source(module, SOURCES[module].text + "\n" + snippet))


def test_every_rule_has_a_unique_name_and_a_mutant():
    assert len({rule.name for rule in RULES}) == len(RULES)
    assert all(rule.mutants for rule in RULES)


def test_scope_counts_methods_and_nested_defs_but_not_classes():
    source = Source("m", "class F:\n    def g(self):\n        def h():\n            x = 1\n"
                         "    y = 2\n")
    chains = {text: chain for text, chain, _ in source.sites["reference"]}
    assert chains["x"] == ("g", "h") and chains["y"] == ()

    def fires(**scope):
        return Rule("x", "m", "reference", "x", "", (), **scope).violations(source) != []

    assert fires(inside=r"m\.g") and fires(inside=r"m\.h") and not fires(inside=r"m\.F")
    assert fires(only_in=r"m\.g") and not fires(only_in=r"m\.h")


def test_references_resolve_through_imports_and_aliases():
    source = Source("m", "import gptpurity.simplex as s\nfrom . import core as c\n"
                         "from math import lcm\nsolve = s.phase1\n"
                         "def f(v):\n    return solve, c.x, lcm, v.denominator, (v * 2).numerator, f\n")
    references = {text for text, chain, _ in source.sites["reference"] if chain == ("f",)}
    assert {"simplex.phase1", "core.x", "math.lcm", "v.denominator", ".numerator",
            "m.f"} <= references
    assert {text for text, _, _ in source.sites["import"]} == {"simplex", "core", "math.lcm"}
