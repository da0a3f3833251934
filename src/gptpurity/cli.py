"""Command-line surface: one verb per public operation.

Exit codes: 0 for success (or a passing check), 1 when a check fails or a
suite finds counterexamples, 2 for usage errors and malformed inputs.  Any
other exception, such as a solver fault, is an internal error and
propagates with its traceback instead of reading as a failed check.
Floats are printed with 12 significant digits; box entries as "num/den".
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import boxworld, core, harness, mixedness, monotones, quantum
from .core import CapacityError, StructuralError
from .serialize import complex_to_pairs, dump_json, pairs_to_complex
from .tolerances import WITNESS_TOL


class UsageError(ValueError):
    pass


# ---------------------------------------------------------------------------
# input parsing
# ---------------------------------------------------------------------------

def _read_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"malformed JSON in {path}: {exc}") from exc


def _load_system(spec: str) -> core.TheorySystem:
    if spec.startswith("classical:"):
        try:
            size = int(spec.split(":", 1)[1])
        except ValueError as exc:
            raise UsageError(f"classical system size must be an integer: {exc}") from exc
        return core.make_classical(size)
    if spec == "square-bit":
        return core.make_square_bit()
    return core.system_from_dict(_read_json(spec))


def _parse_vector(text: str) -> np.ndarray:
    try:
        if text.startswith("@"):
            vec = np.asarray(_read_json(text[1:]), dtype=float)
        else:
            vec = np.array([float(tok) for tok in text.split(",")])
    except (ValueError, TypeError) as exc:
        raise UsageError(f"cannot parse vector {text!r}: {exc}") from exc
    if not np.all(np.isfinite(vec)):
        raise UsageError(f"vector {text!r} has a non-finite entry")
    return vec


def _parse_complex_array(text: str) -> np.ndarray:
    data = _read_json(text[1:]) if text.startswith("@") else json.loads(text)
    try:
        arr = pairs_to_complex(data)
    except (ValueError, TypeError) as exc:
        raise UsageError(f"cannot parse complex array: {exc}") from exc
    if not np.all(np.isfinite(arr)):
        raise UsageError("complex array has a non-finite entry")
    return arr


def _parse_pure_state(text: str, dims: str) -> quantum.PureBipartiteState:
    try:
        da, db = (int(t) for t in dims.split("x"))
    except ValueError as exc:
        raise UsageError(f"dims must look like 2x2, got {dims!r}") from exc
    vec = _parse_complex_array(text).reshape(-1)
    norm = np.linalg.norm(vec)
    if not 0.0 < norm < np.inf:
        raise UsageError(f"pure state must be a finite nonzero vector (norm {norm})")
    return quantum.PureBipartiteState((da, db), vec / norm)


def _parse_density(text: str) -> quantum.DensityMatrix:
    return quantum.DensityMatrix(_parse_complex_array(text))


def _parse_box(text: str) -> boxworld.BoxState:
    if text == "pr":
        return boxworld.standard_pr_box()
    if text.startswith("prk:"):
        try:
            numbers = [int(part) for part in text.split(":")[1:]]
        except ValueError:
            numbers = []
        if len(numbers) == 2:
            return boxworld.pr_box_k(numbers[0], numbers[1], numbers[1])
        if len(numbers) == 3:
            return boxworld.pr_box_k(*numbers)
        raise UsageError("box spec must be prk:K:D or prk:K:D_A:D_B with integers")
    return boxworld.BoxState.from_dict(_read_json(text), validate=False)


def _trial_config(args) -> harness.TrialConfig:
    kwargs = {"seed": args.seed, "trials": args.trials}
    if getattr(args, "dim", None):
        kwargs["dims"] = tuple(args.dim)
    if getattr(args, "size", None):
        kwargs["sizes"] = tuple(args.size)
    return harness.TrialConfig(**kwargs)


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def _csv_lines(payload) -> list[str]:
    import csv
    import io

    def cell(value):
        return json.dumps(value) if isinstance(value, (dict, list)) else value

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if isinstance(payload, dict):
        keys = sorted(payload)
        writer.writerow(keys)
        writer.writerow([cell(payload[k]) for k in keys])
    elif isinstance(payload, list) and payload and isinstance(payload[0], dict):
        keys = sorted(payload[0])
        writer.writerow(keys)
        for row in payload:
            writer.writerow([cell(row.get(k, "")) for k in keys])
    else:
        writer.writerow([payload])
    return buf.getvalue().splitlines()


def _emit(payload, args) -> None:
    if args.format == "csv":
        text = "\n".join(_csv_lines(payload)) + "\n"
    else:
        text = dump_json(payload) + "\n"
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write {args.output}: {exc}") from exc
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# verb implementations: (exit_code, payload)
# ---------------------------------------------------------------------------

def _cmd_validate_system(args):
    # a system is checked when built, so a theory file's violations come with its refusal
    try:
        report = core.validate_system(_load_system(args.system))
    except core.InvalidSystemError as exc:
        report = exc.violations
    return (0 if not report else 1), {"violations": report, "valid": not report}


def _cmd_make_square_bit(args):
    return 0, core.system_to_dict(core.make_square_bit())


def _gpt_state(system: core.TheorySystem, text: str, flag: str) -> core.GptState:
    """Parse a state of ``system``; one outside its state space is refused."""
    state = system.state(_parse_vector(text))
    mixedness.validate_state(state, flag)
    return state


def _gpt_pair(args) -> tuple[core.GptState, core.GptState]:
    system = _load_system(args.system)
    return _gpt_state(system, args.rho, "--rho"), _gpt_state(system, args.sigma, "--sigma")


def _cmd_more_mixed(args):
    rho, sigma = _gpt_pair(args)
    cert = mixedness.more_mixed(rho, sigma)
    return (0 if cert.feasible else 1), cert.to_dict()


def _cmd_equally_mixed(args):
    rho, sigma = _gpt_pair(args)
    flag, witness = mixedness.equally_mixed(rho, sigma)
    payload = {"equally_mixed": flag,
               "witness": None if witness is None else witness.tolist()}
    return (0 if flag else 1), payload


def _cmd_invariant_state(args):
    chi = mixedness.invariant_state(_load_system(args.system))
    return 0, {"vec": chi.vec.tolist()}


def _cmd_orbit_hull(args):
    rho = _gpt_state(_load_system(args.system), args.rho, "--rho")
    hull = mixedness.orbit_hull(rho)
    return 0, {"vertices": [v.tolist() for v in hull], "count": len(hull)}


def _cmd_majorizes(args):
    verdict = mixedness.majorizes(_parse_vector(args.p), _parse_vector(args.q))
    return (0 if verdict else 1), {"majorizes": verdict}


def _cmd_birkhoff(args):
    p, q = _parse_vector(args.p), _parse_vector(args.q)
    channel = mixedness.birkhoff_rare_synthesis(p, q)
    residual = float(np.max(np.abs(channel.matrix() @ p - q)))
    payload = channel.to_dict()
    payload["residual"] = residual
    return 0, payload


def _cmd_monotone(args):
    system = _load_system(args.system)
    table = monotones.builtin_monotones()
    if args.name not in table:
        raise UsageError(f"unknown monotone {args.name!r}; choose from {sorted(table)}")
    fn = table[args.name]
    if args.grid < 0:
        raise UsageError(f"--grid must be a nonnegative tick count, got {args.grid}")
    if args.grid:
        if system.name != "square-bit":
            raise UsageError("--grid is only supported for the square-bit system")
        rows = []
        ticks = np.linspace(-1.0, 1.0, args.grid)
        for x in ticks:
            for y in ticks:
                rows.append({"x": float(x), "y": float(y),
                             "value": fn(system.state([x, y, 1.0]))})
        return 0, rows
    rho = _gpt_state(system, args.rho, "--rho")
    return 0, {"name": args.name, "value": fn(rho)}


def _cmd_schmidt(args):
    psi = _parse_pure_state(args.state, args.dims)
    sd = quantum.schmidt_decompose(psi)
    return 0, {"coefficients": sd.coefficients.tolist(),
               "left_basis": complex_to_pairs(sd.left_basis),
               "right_basis": complex_to_pairs(sd.right_basis)}


def _cmd_marginals(args):
    psi = _parse_pure_state(args.state, args.dims)
    rho_a, rho_b = quantum.marginals(psi)
    return 0, {"rho_a": complex_to_pairs(rho_a.matrix),
               "rho_b": complex_to_pairs(rho_b.matrix)}


def _cmd_purify(args):
    psi = quantum.purify(_parse_density(args.rho))
    return 0, {"dims": list(psi.dims), "vec": complex_to_pairs(psi.vec)}


def _cmd_sym_purify(args):
    psi = quantum.symmetric_purify(_parse_density(args.rho))
    return 0, {"dims": list(psi.dims), "vec": complex_to_pairs(psi.vec)}


def _cmd_nielsen(args):
    psi = _parse_pure_state(args.state, args.dims)
    phi = _parse_pure_state(args.target, args.dims)
    verdict = quantum.nielsen_convertible(psi, phi)
    return (0 if verdict else 1), {"convertible": verdict}


def _cmd_lu_equiv(args):
    psi = _parse_pure_state(args.state, args.dims)
    phi = _parse_pure_state(args.target, args.dims)
    verdict = quantum.lu_equivalent(psi, phi)
    return (0 if verdict else 1), {"lu_equivalent": verdict}


def _cmd_locex_quantum(args):
    psi = _parse_pure_state(args.state, args.dims)
    chan_c, chan_d = quantum.local_exchange_channels(psi)
    d = psi.dims[0]
    rho = np.outer(psi.vec, psi.vec.conj())
    swap = quantum.swap_operator(d)
    result = quantum.product_channel_apply(chan_c, chan_d, rho)
    residual = float(np.max(np.abs(result - swap @ rho @ swap)))
    payload = {"c_kraus": [complex_to_pairs(k) for k in chan_c.operators],
               "d_kraus": [complex_to_pairs(k) for k in chan_d.operators],
               "swap_residual": residual}
    return (0 if residual <= WITNESS_TOL else 1), payload


def _cmd_rare_quantum(args):
    rho = _parse_density(args.rho)
    source = _parse_density(args.source)
    rare = quantum.rare_synthesis_quantum(rho, source)
    return 0, {"weights": [w for w, _ in rare],
               "unitaries": [complex_to_pairs(u) for _, u in rare],
               "residual": quantum._rare_residual(rare, source.matrix, rho.matrix)}


def _cmd_one_way(args):
    psi = _parse_pure_state(args.state, args.dims)
    target = _parse_pure_state(args.target, args.dims)
    rho = quantum.marginals(psi)[0]
    rho_t = quantum.marginals(target)[0]
    rare = quantum.rare_synthesis_quantum(rho, rho_t)
    protocol = quantum.one_way_locc_from_rare(psi, target, rare)
    ok = protocol.verify(psi, target)
    payload = {"outcome_probs": protocol.outcome_probs.tolist(),
               "bob_instrument": [complex_to_pairs(b) for b in protocol.bob_instrument],
               "alice_corrections": [complex_to_pairs(a) for a in protocol.alice_corrections],
               "completeness_residual": protocol.completeness_residual(),
               "outcome_residuals": protocol.outcome_residuals(psi, target).tolist()}
    return (0 if ok else 1), payload


def _cmd_eof(args):
    rho = _parse_density(args.rho)
    value = quantum.entanglement_of_formation(rho)
    return 0, {"entanglement_of_formation": value}


def _cmd_catalyst(args):
    cert = quantum.catalytic_erasure_possible(_parse_density(args.rho))
    return 0, cert.to_dict()


def _cmd_make_pr(args):
    return 0, boxworld.pr_box_k(args.k, args.d, args.d).to_dict()


def _cmd_check_ns(args):
    report = _parse_box(args.box).validate()
    return (0 if not report else 1), {"no_signalling": not report, "violations": report}


def _cmd_check_extreme(args):
    verdict = boxworld.is_extreme(_parse_box(args.box))
    return (0 if verdict else 1), {"extreme": verdict}


def _cmd_check_locex(args):
    box = _parse_box(args.box)
    witness = boxworld.check_local_exchangeability(box, require_extreme=not args.waive_extreme)
    if witness is None:
        return 1, {"witness": None}
    r_a, r_b = witness
    return 0, {"witness": {"A": r_a.to_dict(), "B": r_b.to_dict()}}


def _suite_cmd(runner):
    def cmd(args):
        report = runner(_trial_config(args))
        return (0 if report.ok else 1), report.to_dict(include_timing=not args.no_timing)
    return cmd


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gptpurity",
        description="Purity and entanglement resource-theory toolkit")
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(verb, fn, **arguments):
        p = sub.add_parser(verb)
        for name, spec in arguments.items():
            p.add_argument(name.replace("_", "-") if name.startswith("--") else name, **spec)
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--output", default=None)
        p.set_defaults(run=fn)

    sys_arg = {"--system": {"required": True, "help": "classical:N | square-bit | theory JSON path"}}
    add("validate-system", _cmd_validate_system, **sys_arg)
    add("make-square-bit", _cmd_make_square_bit)
    add("more-mixed", _cmd_more_mixed, **sys_arg,
        **{"--rho": {"required": True}, "--sigma": {"required": True}})
    add("equally-mixed", _cmd_equally_mixed, **sys_arg,
        **{"--rho": {"required": True}, "--sigma": {"required": True}})
    add("invariant-state", _cmd_invariant_state, **sys_arg)
    add("orbit-hull", _cmd_orbit_hull, **sys_arg, **{"--rho": {"required": True}})
    add("majorizes", _cmd_majorizes, **{"--p": {"required": True}, "--q": {"required": True}})
    add("birkhoff", _cmd_birkhoff, **{"--p": {"required": True}, "--q": {"required": True}})
    add("monotone", _cmd_monotone, **sys_arg,
        **{"--name": {"required": True}, "--rho": {"default": None},
           "--grid": {"type": int, "default": 0}})
    state_args = {"--state": {"required": True}, "--dims": {"default": "2x2"}}
    add("schmidt", _cmd_schmidt, **state_args)
    add("marginals", _cmd_marginals, **state_args)
    add("purify", _cmd_purify, **{"--rho": {"required": True}})
    add("sym-purify", _cmd_sym_purify, **{"--rho": {"required": True}})
    pair_args = dict(state_args, **{"--target": {"required": True}})
    add("nielsen", _cmd_nielsen, **pair_args)
    add("lu-equiv", _cmd_lu_equiv, **pair_args)
    add("locex-quantum", _cmd_locex_quantum, **state_args)
    add("rare-quantum", _cmd_rare_quantum,
        **{"--rho": {"required": True}, "--source": {"required": True}})
    add("one-way", _cmd_one_way, **pair_args)
    add("eof", _cmd_eof, **{"--rho": {"required": True}})
    add("catalyst", _cmd_catalyst, **{"--rho": {"required": True}})
    add("make-pr", _cmd_make_pr, **{"--k": {"type": int, "default": 2},
                                    "--d": {"type": int, "default": 2}})
    add("check-ns", _cmd_check_ns, **{"--box": {"required": True}})
    add("check-extreme", _cmd_check_extreme, **{"--box": {"required": True}})
    add("check-locex", _cmd_check_locex,
        **{"--box": {"required": True},
           "--waive-extreme": {"action": "store_true"}})
    suite_args = {"--trials": {"type": int, "default": 100},
                  "--seed": {"type": int, "default": 0},
                  "--no-timing": {"action": "store_true"}}
    add("duality", _suite_cmd(harness.run_duality_suite), **suite_args,
        **{"--dim": {"type": int, "action": "append"}})
    add("classical-agreement", _suite_cmd(harness.run_classical_agreement_suite),
        **suite_args, **{"--size": {"type": int, "action": "append"}})
    add("max-ent", _suite_cmd(harness.run_maximal_entanglement_suite), **suite_args,
        **{"--dim": {"type": int, "action": "append"}})
    add("catalyst-suite", _suite_cmd(harness.run_catalyst_suite), **suite_args,
        **{"--dim": {"type": int, "action": "append"}})
    return parser


def dispatch(argv: list[str]) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.verb == "monotone" and not args.grid and args.rho is None:
        parser.error("monotone needs --rho or --grid")
    code, payload = args.run(args)
    _emit(payload, args)
    return code


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        return dispatch(argv)
    except (UsageError, StructuralError, CapacityError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (mixedness.IllConditionedError, monotones.UnsupportedSystemError,
            boxworld.BoxInvariantError) as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
