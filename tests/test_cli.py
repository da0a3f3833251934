import contextlib
import io
import json
import tempfile
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from gptpurity import cli, quantum, simplex
from gptpurity.boxworld import BoxState, pr_box_k, standard_pr_box
from gptpurity.core import make_classical, make_square_bit, system_to_dict
from gptpurity.tolerances import WITNESS_TOL

from test_monotones import _non_spanning_system


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip().startswith(("{", "[")) else out)


def test_more_mixed_verb(capsys):
    code, payload = run(capsys, "more-mixed", "--system", "classical:2",
                        "--rho", "0.7,0.3", "--sigma", "0.5,0.5")
    assert code == 0
    assert payload["status"] == "feasible"
    np.testing.assert_allclose(payload["weights"], [0.5, 0.5], atol=1e-9)


def test_more_mixed_infeasible_exit_code(capsys):
    code, payload = run(capsys, "more-mixed", "--system", "classical:2",
                        "--rho", "0.5,0.5", "--sigma", "0.7,0.3")
    assert code == 1
    assert payload["status"] == "infeasible"


def test_more_mixed_takes_a_state_the_state_check_accepts(capsys):
    # sums 5e-10 off one pass the state check and get a verdict
    code, payload = run(capsys, "more-mixed", "--system", "classical:3",
                        "--rho", "0.5,0.3,0.2000000005", "--sigma", "0.4,0.4,0.2000000005")
    assert code == 0 and payload["status"] == "feasible"


def test_solver_fault_is_not_reported_as_a_failed_check(monkeypatch, tmp_path):
    # the square bit with only its four turns (Z_4, no reflection) stays on the
    # orbit LP, which has 4 columns; every broken solve raises, and the fault
    # reaches the caller instead of a verdict
    data = system_to_dict(make_square_bit())
    data["group"] = data["group"][:4]
    path = tmp_path / "turns.json"
    path.write_text(json.dumps(data))
    phase1 = simplex.phase1

    def broken(a, b):
        if a.shape[1] == 4:
            raise simplex.SimplexError("simplex iteration cap exceeded")
        return phase1(a, b)

    monkeypatch.setattr(simplex, "phase1", broken)
    with pytest.raises(simplex.SimplexError):
        cli.main(["more-mixed", "--system", str(path), "--rho", "0.5,0.2,1",
                  "--sigma", "0,0,1"])


def test_validate_system_verb(capsys, tmp_path):
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(system_to_dict(make_square_bit())))
    code, payload = run(capsys, "validate-system", "--system", str(path))
    assert code == 0 and payload["valid"]


def test_validate_system_verb_reports_violations_of_a_file(capsys, tmp_path):
    # the square bit minus its last reflection is no longer closed
    data = system_to_dict(make_square_bit())
    data["group"] = data["group"][:-1]
    path = tmp_path / "open.json"
    path.write_text(json.dumps(data))
    code, payload = run(capsys, "validate-system", "--system", str(path))
    assert code == 1 and not payload["valid"]
    assert payload["violations"] == [
        f"group is not closed: group[{i}] @ group[{j}] not in list"
        for i, j in ((1, 4), (2, 5), (3, 6), (4, 3), (5, 2), (6, 1))]
    # every other verb still refuses the file on load
    code = cli.main(["invariant-state", "--system", str(path)])
    assert code == 2 and "invalid theory definition" in capsys.readouterr().err


def test_majorizes_and_birkhoff(capsys):
    code, payload = run(capsys, "majorizes", "--p", "0.7,0.3", "--q", "0.6,0.4")
    assert code == 0 and payload["majorizes"]
    code, payload = run(capsys, "birkhoff", "--p", "0.7,0.3", "--q", "0.6,0.4")
    assert code == 0
    assert payload["residual"] <= 1e-9


def test_invariant_state_and_orbit_hull(capsys):
    code, payload = run(capsys, "invariant-state", "--system", "square-bit")
    assert code == 0
    np.testing.assert_allclose(payload["vec"], [0, 0, 1], atol=1e-10)
    code, payload = run(capsys, "orbit-hull", "--system", "square-bit",
                        "--rho", "0.5,0.2,1.0")
    assert code == 0 and payload["count"] == 8


def test_monotone_verb_refuses_pure_states_that_do_not_span(capsys, tmp_path):
    # the effect polytope is unbounded on such a system; the loader's
    # validation refuses the file first, with exit 2 and one line
    path = tmp_path / "flat.json"
    path.write_text(json.dumps(system_to_dict(_non_spanning_system())))
    for rho in ("0.5,0.5,0.3", "0.5,0.5,0"):
        assert cli.main(["monotone", "--system", str(path),
                         "--name", "op-norm-distance", "--rho", rho]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert "do not span" in err


def test_monotone_verb_and_grid_csv(capsys):
    code, payload = run(capsys, "monotone", "--system", "classical:3",
                        "--name", "x2-purity", "--rho", "0.5,0.3,0.2")
    assert code == 0
    assert abs(payload["value"] - 0.38) < 1e-9
    code, out = run(capsys, "monotone", "--system", "square-bit",
                    "--name", "2-norm-purity", "--grid", "3", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "value,x,y"
    assert len(lines) == 10


def test_quantum_verbs(capsys):
    bell = json.dumps([[0.7071067811865475, 0], [0, 0], [0, 0],
                       [0.7071067811865475, 0]])
    code, payload = run(capsys, "schmidt", "--state", bell, "--dims", "2x2")
    assert code == 0
    np.testing.assert_allclose(payload["coefficients"], [2 ** -0.5] * 2, atol=1e-9)

    code, payload = run(capsys, "marginals", "--state", bell)
    assert code == 0
    np.testing.assert_allclose(np.asarray(payload["rho_a"])[..., 0],
                               np.eye(2) / 2, atol=1e-9)

    rho = json.dumps([[[0.8, 0], [0, 0]], [[0, 0], [0.2, 0]]])
    code, payload = run(capsys, "sym-purify", "--rho", rho)
    assert code == 0 and payload["dims"] == [2, 2]

    product = json.dumps([[1, 0], [0, 0], [0, 0], [0, 0]])
    code, payload = run(capsys, "nielsen", "--state", bell, "--target", product)
    assert code == 0 and payload["convertible"]
    code, payload = run(capsys, "nielsen", "--state", product, "--target", bell)
    assert code == 1 and not payload["convertible"]

    code, payload = run(capsys, "one-way", "--state", bell, "--target", product)
    assert code == 0
    assert payload["completeness_residual"] <= 1e-9

    bell_dm = json.dumps([[[0.5, 0], [0, 0], [0, 0], [0.5, 0]],
                          [[0, 0], [0, 0], [0, 0], [0, 0]],
                          [[0, 0], [0, 0], [0, 0], [0, 0]],
                          [[0.5, 0], [0, 0], [0, 0], [0.5, 0]]])
    code, payload = run(capsys, "eof", "--rho", bell_dm)
    assert code == 0
    assert abs(payload["entanglement_of_formation"] - 1.0) < 1e-6


def test_no_verb_takes_a_tolerance(capsys, monkeypatch):
    state = json.dumps([[0.6, 0], [0.3, 0.1], [0.2, 0], [0.7, 0.05]])
    code, payload = run(capsys, "locex-quantum", "--state", state)
    assert code == 0 and payload["swap_residual"] <= WITNESS_TOL
    for argv in (["locex-quantum", "--state", state, "--tol=-1"],
                 ["more-mixed", "--system", "classical:2", "--rho", "0.7,0.3",
                  "--sigma", "0.5,0.5", "--tol", "1e-3"]):
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        assert info.value.code == 2
    # a channel pair that misses the swap by more than WITNESS_TOL fails the check
    apply = quantum.product_channel_apply
    monkeypatch.setattr(quantum, "product_channel_apply",
                        lambda c, d, rho: apply(c, d, rho) + 2 * WITNESS_TOL)
    code, payload = run(capsys, "locex-quantum", "--state", state)
    assert code == 1 and payload["swap_residual"] > WITNESS_TOL


def test_eof_takes_no_seed():
    with pytest.raises(SystemExit) as info:
        cli.main(["eof", "--rho", _MIXED_2X2, "--seed", "11"])
    assert info.value.code == 2


def test_make_pr_builds_pr_box_k(capsys):
    code, payload = run(capsys, "make-pr")
    assert code == 0 and payload == standard_pr_box().to_dict()
    code, payload = run(capsys, "make-pr", "--d", "5")
    assert code == 0 and payload == pr_box_k(2, 5, 5).to_dict()
    code, payload = run(capsys, "make-pr", "--k", "3", "--d", "4")
    assert code == 0 and payload == pr_box_k(3, 4, 4).to_dict()


def test_each_verb_parser_carries_its_command():
    parser = cli._build_parser()
    assert parser.parse_args(["make-square-bit"]).run is cli._cmd_make_square_bit
    assert parser.parse_args(["make-pr"]).run is cli._cmd_make_pr


def test_box_verbs(capsys):
    code, payload = run(capsys, "make-pr")
    assert code == 0
    assert payload["table"][0][0][0][0] == "1/2"
    code, payload = run(capsys, "check-ns", "--box", "pr")
    assert code == 0 and payload["no_signalling"]
    code, payload = run(capsys, "check-extreme", "--box", "prk:3:3")
    assert code == 0 and payload["extreme"]
    code, payload = run(capsys, "check-locex", "--box", "pr")
    assert code == 0
    assert payload["witness"]["A"]["setting_perm"] == [0, 1]


def test_box_roundtrip_via_files(capsys, tmp_path):
    box = pr_box_k(3, 3, 3)
    path = tmp_path / "box.json"
    path.write_text(json.dumps(box.to_dict()))
    code, payload = run(capsys, "check-extreme", "--box", str(path))
    assert code == 0
    assert BoxState.from_dict(json.loads(path.read_text())) == box


_BOX_VERBS = ("check-ns", "check-extreme", "check-locex")


def _pr_table_with(entry):
    table = pr_box_k(2, 2, 2).to_dict()["table"]
    table[0][0][0][0] = entry
    return table


_MALFORMED_BOXES = {
    "missing-outcomes": {"settings": [2, 2], "table": _pr_table_with("1/2")},
    "wrong-shape": {"settings": [2, 2], "outcomes": [2, 2], "table": [[1, 2]]},
    "not-an-object": [1, 2],
    "non-numeric-entry": {"settings": [2, 2], "outcomes": [2, 2], "table": _pr_table_with("a")},
    "float-entry": {"settings": [2, 2], "outcomes": [2, 2], "table": _pr_table_with(0.5)},
    "no-settings": {"settings": [0, 2], "outcomes": [2, 2], "table": [[[], []], [[], []]]},
}


@pytest.mark.parametrize("verb", _BOX_VERBS)
@pytest.mark.parametrize("name", sorted(_MALFORMED_BOXES))
def test_box_verbs_refuse_malformed_json(capsys, tmp_path, verb, name):
    path = tmp_path / "box.json"
    path.write_text(json.dumps(_MALFORMED_BOXES[name]))
    assert cli.main([verb, "--box", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("verb", _BOX_VERBS)
def test_box_verbs_refuse_malformed_spec(capsys, verb):
    code, _ = run(capsys, verb, "--box", "prk:x:3")
    assert code == 2


def _not_rational(text: str) -> bool:
    try:
        Fraction(text)
    except (ValueError, ZeroDivisionError):
        return True
    return False


_json = st.recursive(st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
                     lambda inner: st.lists(inner, max_size=3)
                     | st.dictionaries(st.text(max_size=4), inner, max_size=3),
                     max_leaves=8)
_garbage_entry = (st.none() | st.booleans() | st.floats() | st.lists(st.integers(), max_size=2)
                  | st.text(max_size=4).filter(_not_rational))


@st.composite
def _garbage_boxes(draw):
    """JSON that is not a box: no object, a missing key, a wrong field, or a non-rational entry."""
    valid = pr_box_k(2, 3, 3).to_dict()
    kind = draw(st.sampled_from(["value", "missing", "field", "entry"]))
    if kind == "value":
        return draw(_json.filter(lambda value: not isinstance(value, dict)))
    if kind == "missing":
        del valid[draw(st.sampled_from(sorted(valid)))]
    elif kind == "field":
        key = draw(st.sampled_from(sorted(valid)))
        valid[key] = draw(_json.filter(lambda value: value != valid[key]))
    else:
        a, b, x, y = (draw(st.integers(0, n - 1)) for n in (3, 3, 2, 2))
        valid["table"][a][b][x][y] = draw(_garbage_entry)
    return valid


@settings(derandomize=True, max_examples=30, deadline=None)
@given(_garbage_boxes(), st.sampled_from(_BOX_VERBS))
def test_box_verbs_map_garbage_to_exit_2(data, verb):
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        path = Path(tmp) / "box.json"
        path.write_text(json.dumps(data))
        assert cli.main([verb, "--box", str(path)]) == 2


_PRODUCT = json.dumps([[1, 0], [0, 0], [0, 0], [0, 0]])
_BELL = json.dumps([[0.7071067811865475, 0], [0, 0], [0, 0], [0.7071067811865475, 0]])
_MIXED = json.dumps([[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]])
_MIXED_2X2 = json.dumps([[[0.25 if i == j else 0, 0] for j in range(4)] for i in range(4)])

#: a valid command line for every verb outside box world; each flag is tagged
#: with the kind of garbage the test puts in its place
_NON_BOX_VERBS = {
    "validate-system": {"--system": ("square-bit", "system")},
    "more-mixed": {"--system": ("classical:2", "system"), "--rho": ("0.7,0.3", "vector"),
                   "--sigma": ("0.5,0.5", "vector")},
    "equally-mixed": {"--system": ("classical:2", "system"), "--rho": ("0.7,0.3", "vector"),
                      "--sigma": ("0.3,0.7", "vector")},
    "invariant-state": {"--system": ("square-bit", "system")},
    "orbit-hull": {"--system": ("classical:2", "system"), "--rho": ("0.7,0.3", "vector")},
    "majorizes": {"--p": ("0.7,0.3", "vector"), "--q": ("0.6,0.4", "vector")},
    "birkhoff": {"--p": ("0.7,0.3", "vector"), "--q": ("0.6,0.4", "vector")},
    "monotone": {"--system": ("classical:2", "system"), "--name": ("x2-purity", "name"),
                 "--rho": ("0.7,0.3", "vector")},
    "schmidt": {"--state": (_BELL, "complex"), "--dims": ("2x2", "dims")},
    "marginals": {"--state": (_BELL, "complex"), "--dims": ("2x2", "dims")},
    "purify": {"--rho": (_MIXED, "complex")},
    "sym-purify": {"--rho": (_MIXED, "complex")},
    "nielsen": {"--state": (_BELL, "complex"), "--target": (_PRODUCT, "complex"),
                "--dims": ("2x2", "dims")},
    "lu-equiv": {"--state": (_BELL, "complex"), "--target": (_PRODUCT, "complex"),
                 "--dims": ("2x2", "dims")},
    "locex-quantum": {"--state": (_BELL, "complex"), "--dims": ("2x2", "dims")},
    "rare-quantum": {"--rho": (_MIXED, "complex"), "--source": (_MIXED, "complex")},
    "one-way": {"--state": (_BELL, "complex"), "--target": (_PRODUCT, "complex"),
                "--dims": ("2x2", "dims")},
    "eof": {"--rho": (_MIXED_2X2, "complex")},
    "catalyst": {"--rho": (_MIXED, "complex")},
    "duality": {"--trials": ("1", "trials"), "--seed": ("0", "seed"), "--dim": ("2", "dim")},
    "classical-agreement": {"--trials": ("1", "trials"), "--seed": ("0", "seed"),
                            "--size": ("2", "size")},
    "max-ent": {"--trials": ("1", "trials"), "--seed": ("0", "seed"), "--dim": ("2", "dim")},
    "catalyst-suite": {"--trials": ("1", "trials"), "--seed": ("0", "seed"),
                       "--dim": ("2", "catalyst-dim")},
}


def _finite_floats(text: str) -> bool:
    try:
        return all(np.isfinite(float(tok)) for tok in text.split(","))
    except ValueError:
        return False


def _json_text(text: str) -> bool:
    try:
        json.loads(text)
    except ValueError:
        return False
    return True


_no_number = st.text(alphabet="xyz{}[] ", max_size=3)
_garbage = {
    "system": (st.integers().filter(lambda n: not 1 <= n <= 6).map(lambda n: f"classical:{n}")
               | st.text(alphabet="xyz:-", max_size=4).map(lambda t: f"missing{t}.json")),
    "vector": (st.text(max_size=8).filter(lambda t: not _finite_floats(t))
               | st.lists(st.floats(-2, 2), min_size=4, max_size=6).map(
                   lambda v: ",".join(map(repr, v)))
               | st.just("@empty.json")),      # a file holding [], made by the test
    "name": st.text(max_size=8).filter(lambda t: not t.startswith("-")).map(lambda t: t + "?"),
    # JSON without a number in it, or no JSON at all
    "complex": (st.recursive(st.none() | _no_number,
                             lambda inner: st.lists(inner, max_size=3)
                             | st.dictionaries(_no_number, inner, max_size=2), max_leaves=6
                             ).map(json.dumps)
                | st.text(max_size=6).filter(lambda t: not _json_text(t))),
    "dims": (st.tuples(st.integers(-3, 5), st.integers(-3, 5))
             .filter(lambda d: min(d) < 1 or d[0] * d[1] != 4).map(lambda d: "%dx%d" % d)
             | st.text(max_size=5).filter(lambda t: "x" not in t)),
    "seed": st.integers(max_value=-1),
    "trials": st.integers(max_value=0),
    "dim": st.integers(max_value=0),
    "size": st.integers().filter(lambda n: not 1 <= n <= 6),
    "catalyst-dim": st.integers().filter(lambda n: not 2 <= n <= 4),
}


@st.composite
def _garbage_command_lines(draw):
    """A valid non-box command line with the value of one flag replaced by garbage."""
    verb = draw(st.sampled_from(sorted(_NON_BOX_VERBS)))
    flags = _NON_BOX_VERBS[verb]
    bad = draw(st.sampled_from(sorted(flags)))
    argv = [verb]
    for flag, (value, kind) in flags.items():
        argv.append(f"{flag}={draw(_garbage[kind]) if flag == bad else value}")
    return argv


@settings(derandomize=True, max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_garbage_command_lines())
@example(["majorizes", "--p=@empty.json", "--q=@empty.json"])
@example(["birkhoff", "--p=@empty.json", "--q=@empty.json"])
def test_non_box_verbs_map_garbage_to_exit_2(tmp_path, monkeypatch, argv):
    # every example runs in one directory holding the same empty.json
    (tmp_path / "empty.json").write_text("[]")
    monkeypatch.chdir(tmp_path)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code == 2, (argv, code)
    assert out.getvalue() == ""
    assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("monotone", "--system", "square-bit", "--name", "x2-purity", "--grid", "-1"),
    ("duality", "--trials", "1", "--dim", "-3"),
    ("duality", "--trials", "1", "--seed", "-1"),
    ("catalyst-suite", "--trials", "1", "--dim", "1"),
    ("catalyst-suite", "--trials", "1", "--dim", "9"),
    ("schmidt", "--state", "[[1,0],[0,0],[0,0],[0,0]]", "--dims=-2x-2"),
    ("make-pr", "--k", "0"),
], ids=["grid", "duality-dim", "duality-seed", "catalyst-dim-1", "catalyst-dim-9",
        "schmidt-dims", "make-pr-k"])
def test_out_of_range_numbers_exit_2(capsys, argv):
    _one_line_error(capsys, *argv)


def test_unwritable_output_exits_2(capsys, tmp_path):
    err = _one_line_error(capsys, "majorizes", "--p", "0.7,0.3", "--q", "0.6,0.4",
                          "--output", str(tmp_path / "missing" / "out.json"))
    assert "cannot write" in err


def test_suite_verbs_and_exit(capsys):
    code, payload = run(capsys, "duality", "--dim", "2", "--trials", "5",
                        "--seed", "7", "--no-timing")
    assert code == 0
    assert payload["trials"] == 5 and payload["agreements"] == 5
    code, payload = run(capsys, "classical-agreement", "--size", "3",
                        "--trials", "20", "--seed", "1", "--no-timing")
    assert code == 0 and payload["agreements"] == 20


def test_duality_suite_runs_past_the_classical_limit(capsys):
    # the RaRe witnesses come from the permutohedron walk, which takes d = 7
    # although make_classical(7) is refused
    code, payload = run(capsys, "duality", "--dim", "7", "--trials", "20", "--no-timing")
    assert code == 0
    assert payload["trials"] == 20 and payload["agreements"] == 20


def test_unknown_verb_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["no-such-verb"])
    assert info.value.code == 2


def test_malformed_file_exits_2(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code = cli.main(["validate-system", "--system", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert str(path) in err


def test_real_valued_density_exits_2(capsys):
    code = cli.main(["eof", "--rho", "[[0.5,0,0,0],[0,0,0,0],[0,0,0,0],[0,0,0,0.5]]"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1 and err.startswith("error:") and "[re, im]" in err


def _one_line_error(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error:")
    return captured.err


def test_zero_norm_pure_state_exits_2(capsys):
    zero = json.dumps([[0, 0]] * 4)
    target = json.dumps([[1, 0], [0, 0], [0, 0], [0, 0]])
    err = _one_line_error(capsys, "nielsen", "--state", zero, "--target", target)
    assert "nonzero" in err


@pytest.mark.parametrize("argv", [
    ("majorizes", "--p", "0.5,0.5", "--q", "0.5,nan"),
    ("majorizes", "--p", "0.5,0.5", "--q", "inf,0.5"),
    ("more-mixed", "--system", "classical:abc", "--rho", "1", "--sigma", "1"),
    ("orbit-hull", "--system", "square-bit", "--rho", "1e13,0,1"),
], ids=["nan", "inf", "classical-abc", "huge-state"])
def test_malformed_vectors_and_systems_exit_2(capsys, argv):
    _one_line_error(capsys, *argv)


@pytest.mark.parametrize("flag, argv", [
    ("--rho", ("orbit-hull", "--system", "square-bit", "--rho", "5,5,1")),
    ("--rho", ("more-mixed", "--system", "square-bit", "--rho", "5,5,1", "--sigma", "0,0,1")),
    ("--sigma", ("more-mixed", "--system", "square-bit", "--rho", "0,0,1", "--sigma", "5,5,1")),
    ("--sigma", ("equally-mixed", "--system", "square-bit", "--rho", "0.5,0.2,1",
                 "--sigma", "0,3,1")),
    ("--rho", ("monotone", "--system", "square-bit", "--name", "2-norm-purity",
               "--rho", "5,5,1")),
    ("--rho", ("monotone", "--system", "classical:3", "--name", "x2-purity",
               "--rho", "1.5,-0.5,0")),
], ids=["orbit-hull", "more-mixed-rho", "more-mixed-sigma", "equally-mixed-sigma",
        "monotone-square", "monotone-classical"])
def test_state_outside_state_space_exits_2(capsys, flag, argv):
    err = _one_line_error(capsys, *argv)
    assert f"{flag} lies outside the state space" in err


@pytest.mark.parametrize("field, value, message", [
    ("dim", "two", "dim must be a positive integer"),
    ("dim", 2.5, "dim must be a positive integer"),
    ("dim", True, "dim must be a positive integer"),
    ("pure_states", 3, "pure_states must be a list"),
    ("group", 5, "group must be a list"),
    (None, None, "theory definition must be an object"),
], ids=["dim-string", "dim-float", "dim-bool", "pure-states-number", "group-number",
        "top-level-list"])
def test_malformed_theory_file_exits_2(capsys, tmp_path, field, value, message):
    data = system_to_dict(make_classical(2))
    if field is None:
        data = [data]
    else:
        data[field] = value
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(data))
    err = _one_line_error(capsys, "validate-system", "--system", str(path))
    assert message in err


@pytest.mark.parametrize("argv", [
    ("validate-system",),
    ("more-mixed", "--rho", "1,0", "--sigma", "0.5,0.5"),
], ids=["validate-system", "more-mixed"])
def test_theory_file_with_a_nan_coordinate_exits_2(capsys, tmp_path, argv):
    # Python's json reads and writes NaN, so the file reaches the system checks
    data = system_to_dict(make_classical(2))
    data["pure_states"] = [[float("nan"), 1.0], [1.0, 0.0]]
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(data))
    err = _one_line_error(capsys, *argv, "--system", str(path))
    assert "pure_states[0] has a non-finite entry" in err


def test_infinite_density_matrix_exits_2_without_a_warning(capsys):
    rho = json.dumps([[[float("inf"), 0], [0, 0]], [[0, 0], [0, 0]]])
    assert rho.startswith("[[[Infinity")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        err = _one_line_error(capsys, "purify", "--rho", rho)
    assert "non-finite" in err


def test_inputs_not_mutated(tmp_path, capsys):
    path = tmp_path / "sys.json"
    text = json.dumps(system_to_dict(make_square_bit()))
    path.write_text(text)
    run(capsys, "validate-system", "--system", str(path))
    assert path.read_text() == text


def test_output_file_written(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = cli.main(["duality", "--dim", "2", "--trials", "3", "--seed", "2",
                     "--no-timing", "--output", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["trials"] == 3
