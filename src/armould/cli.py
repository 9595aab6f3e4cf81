"""Batch front door: subcommands with JSON or plain-text output for every
module.

Outputs are deterministic (fixed enumeration orders, no unseeded randomness)
and numbers in JSON payloads are strings: exact rationals where the value is
exact, full-precision reprs for floats.  Exit codes: 0 success, 1 a declared
tolerance failed (with a machine-readable failure record on stdout), 2 bad
usage or parse error.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import sys

from .moulds import (
    Mould,
    arborify,
    builtin_mould,
    check_symmetry,
    mould_compose,
    mould_mul,
)
from .monomials import (
    borel_pole_probe,
    growth_scan,
    hyperlog_V_eval,
    paralog_forest_eval,
    paralog_variants,
)
from .kernels import KernelParams, f_closed_form_oracle, f_eval, g_eval, g_sup_bound
from .synthesis import DEFECT_TOL, InvariantFamily, SynthesisConfig, linear_rh_synthesize, synthesize
from .values import format_exact, parse_exact
from .words import (
    contracting_covers,
    contracting_shuffle,
    linear_extensions,
    parse_forest,
    parse_word,
    shuffle,
    words_over,
)


def _fnum(x) -> str:
    """Full-precision decimal encoding; never a raw float in payloads."""
    if isinstance(x, complex):
        return f"{x.real!r}{'+' if x.imag >= 0 else '-'}{abs(x.imag)!r}i"
    return repr(float(x))


def _fcheck(x) -> str:
    """A number of a failure record: a count as an integer, else as _fnum."""
    return str(x) if isinstance(x, int) else _fnum(x)


def _emit(payload):
    print(json.dumps(payload, indent=2, sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="armould", description="mould calculus and paralogarithmic synthesis toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sh = sub.add_parser("shuffle", help="shuffle or contracting-shuffle two words")
    p_sh.add_argument("word1")
    p_sh.add_argument("word2")
    p_sh.add_argument("--contracting", action="store_true")

    p_m = sub.add_parser("mould", help="mould operations")
    msub = p_m.add_subparsers(dest="mould_command", required=True)
    p_mc = msub.add_parser("check", help="symmetry check")
    p_mc.add_argument("--builtin", required=True)
    p_mc.add_argument("--kind", required=True, choices=["symmetral", "symmetrel", "alternal", "alternel"])
    p_mc.add_argument("--cap", type=int, default=4)
    p_mc.add_argument("--alphabet", default="1,2")
    for name in ("mul", "compose"):
        p_mx = msub.add_parser(name, help=f"mould {name} on JSON tables")
        p_mx.add_argument("table1")
        p_mx.add_argument("table2")
        p_mx.add_argument("--cap", type=int, default=None)
    p_ma = msub.add_parser("arborify", help="arborified values on a forest")
    p_ma.add_argument("--builtin", required=True)
    p_ma.add_argument("--forest", required=True)
    p_ma.add_argument("--mode", default="simple", choices=["simple", "contracting"])
    p_ma.add_argument("--counting", default="merges", choices=["merges", "surjections"])

    p_f = sub.add_parser("forest", help="forest order morphisms")
    fsub = p_f.add_subparsers(dest="forest_command", required=True)
    p_fe = fsub.add_parser("extensions")
    p_fe.add_argument("forest")
    p_fe.add_argument("--contracting", action="store_true")
    p_fe.add_argument("--counting", default="merges", choices=["merges", "surjections"])

    p_k = sub.add_parser("kernel", help="kernel evaluations")
    ksub = p_k.add_subparsers(dest="kernel_command", required=True)
    p_ke = ksub.add_parser("eval")
    p_ke.add_argument("--c", type=float, required=True)
    p_ke.add_argument("--omega", type=float, required=True)
    p_ke.add_argument("--y", type=str, default=None)
    p_ke.add_argument("--x", type=str, default=None)
    p_ke.add_argument("--oracle", action="store_true", help="also evaluate the Bessel closed form and compare")

    p_mo = sub.add_parser("monomial", help="monomial evaluations")
    mosub = p_mo.add_subparsers(dest="monomial_command", required=True)
    p_me = mosub.add_parser("eval")
    p_me.add_argument("--word", default=None, help='word literal, e.g. "(1,2)"')
    p_me.add_argument("--forest", default=None, help='forest literal, e.g. "1(2,3)"')
    p_me.add_argument("--z", type=str, required=True)
    p_me.add_argument("--c", type=float, required=True)
    p_me.add_argument("--family", default="paralog", choices=["paralog", "hyperlog"])
    p_gs = mosub.add_parser("growth-scan")
    p_gs.add_argument("--c-grid", default="0.5,1,2,4")
    p_gs.add_argument("--norm-cap", type=int, default=4)
    p_gs.add_argument("--z", type=str, default="-2")
    p_gs.add_argument("--forests", action="store_true")
    p_pp = mosub.add_parser("pole-probe")
    p_pp.add_argument("--omega", type=float, required=True)
    p_pp.add_argument("--c", type=float, required=True)

    p_sy = sub.add_parser("synthesize", help="saddle-node synthesis from invariants")
    p_sy.add_argument("--invariants", required=True, help='JSON file: {"A": {"1": "0.25"}, "H": 1.0}')
    p_sy.add_argument("--c", type=float, required=True)
    p_sy.add_argument("--caps", default="6,6,4", help="N_u,N_z,R_max (N_z is accepted and ignored)")
    p_sy.add_argument("--z-ray", default="pi", help="ray angle (radians, or 'pi')")
    p_sy.add_argument("--z-moduli", default="2", help="comma list of |z| samples on the ray")
    p_sy.add_argument("--out", default=None, help="write the JSON report here as well")

    p_rh = sub.add_parser("linear-rh", help="rank-two linear inverse problem demo")
    p_rh.add_argument("--lambda1", type=str, default="1")
    p_rh.add_argument("--lambda2", type=str, default="0")
    p_rh.add_argument("--a12", type=str, required=True)
    p_rh.add_argument("--a21", type=str, required=True)
    p_rh.add_argument("--c", type=float, required=True)
    p_rh.add_argument("--r-max", type=int, default=4)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    try:
        return _dispatch(args)
    except (ValueError, KeyError, OSError, ArithmeticError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    if args.command == "shuffle":
        w1, w2 = parse_word(args.word1), parse_word(args.word2)
        _print_word_table(contracting_shuffle(w1, w2) if args.contracting else shuffle(w1, w2))
        return 0

    if args.command == "mould":
        return _dispatch_mould(args)

    if args.command == "forest":
        f = parse_forest(args.forest)
        _print_word_table(contracting_covers(f, counting=args.counting) if args.contracting else linear_extensions(f))
        return 0

    if args.command == "kernel":
        p = KernelParams(args.c, args.omega)
        payload = {"c": _fnum(args.c), "omega": _fnum(args.omega), "sup_bound": _fnum(g_sup_bound(p))}
        if args.y is not None:
            payload["g"] = _fnum(g_eval(p, _parse_complex(args.y)))
        if args.x is not None:
            x = _parse_complex(args.x)
            v, err = f_eval(p, x)
            payload["f"] = _fnum(v)
            payload["f_error_estimate"] = _fnum(err)
            if args.oracle:
                ref = f_closed_form_oracle(p, x)
                payload["f_oracle"] = _fnum(ref)
                # both values underflow to 0 at a large c: a zero oracle is
                # matched exactly or not at all
                payload["f_vs_oracle_rel"] = _fnum(abs(v - ref) / abs(ref) if ref != 0 else (0.0 if v == 0 else math.inf))
        _emit(payload)
        return 0

    if args.command == "monomial":
        return _dispatch_monomial(args)

    if args.command == "synthesize":
        return _dispatch_synthesize(args)

    # argparse admits no other command: linear-rh
    l1, l2, a12, a21 = (_parse_complex(text) for text in (args.lambda1, args.lambda2, args.a12, args.a21))
    rep = linear_rh_synthesize((l1, l2), a12, a21, c=args.c, r_max=args.r_max)
    payload = {
        "omega_12": _fnum(l1 - l2),
        "c": _fnum(args.c),
        "term_norms": {str(r): _fnum(v) for r, v in sorted(rep.term_norms.items())},
        "geometric_decay": rep.geometric_decay,
    }
    _emit(payload)
    return 0


def _print_word_table(table):
    for w, m in sorted(table.items(), key=lambda kv: (kv[0].length, kv[0].sort_key())):
        print(f"{w}  x{m}")


def _dispatch_mould(args) -> int:
    if args.mould_command == "check":
        m = builtin_mould(args.builtin)
        alphabet = [parse_exact(tok) for tok in args.alphabet.split(",")]
        rep = check_symmetry(m, args.kind, args.cap, alphabet)
        print(str(rep))
        return 0 if rep.passed else 1
    if args.mould_command in ("mul", "compose"):
        if args.cap is not None and args.cap < 0:
            raise ValueError(f"--cap {args.cap} must be at least 0")
        with open(args.table1) as fh:
            m1 = Mould.from_json(fh.read())
        with open(args.table2) as fh:
            m2 = Mould.from_json(fh.read())
        op = mould_mul if args.mould_command == "mul" else mould_compose
        out = op(m1, m2)
        cap = args.cap if args.cap is not None else min(m1.cap, m2.cap)
        _emit({"cap": cap, "entries": {str(w): format_exact(out.value(w)) for w in words_over(m1.alphabet, cap)}})
        return 0
    # arborify
    m = builtin_mould(args.builtin)
    arb = arborify(m, args.mode, counting=args.counting)
    f = parse_forest(args.forest)
    print(format_exact(arb.value(f)))
    return 0


def _numbers(text: str, flag: str, kind=float) -> list:
    """The comma-separated numbers of a field, refused naming its flag."""
    try:
        return [kind(tok) for tok in text.split(",")]
    except ValueError:
        raise ValueError(f"{flag} {text!r} must be comma-separated {'integers' if kind is int else 'numbers'}") from None


def _parse_complex(text: str) -> complex:
    """A complex number with ``i`` or ``j`` as its imaginary unit.  Only a
    trailing unit is translated, so ``inf``, ``-inf``, ``infinity`` and
    ``nan`` read as Python reads them."""
    text = text.strip()
    return complex(text[:-1] + "j" if text.endswith("i") else text)


def _monomial_entry(mv, z: complex, c: float) -> dict:
    return {"z": _fnum(z), "c": _fnum(c), "re": _fnum(mv.value.real), "im": _fnum(mv.value.imag), "error": _fnum(mv.error)}


def _dispatch_monomial(args) -> int:
    if args.monomial_command == "eval":
        z = _parse_complex(args.z)
        if (args.word is None) == (args.forest is None):
            raise ValueError("monomial eval takes exactly one of --word and --forest")
        if args.family == "hyperlog":
            if args.forest is not None:
                raise ValueError("hyperlog evaluation takes --word, not --forest")
            if args.c != 0:
                raise ValueError(f"hyperlog evaluation is the c = 0 family, got --c {args.c}")
            payload = {f"V{args.word}": _monomial_entry(hyperlog_V_eval(parse_word(args.word), z), z, 0.0)}
        elif args.forest is not None:
            f = parse_forest(args.forest)
            payload = {str(f): _monomial_entry(paralog_forest_eval(f, z, args.c), z, args.c)}
        else:
            variants = paralog_variants(parse_word(args.word), z, args.c)
            payload = {f"{kind}{args.word}": _monomial_entry(mv, z, args.c) for kind, mv in zip(("Ua", "Uc", "Ue"), variants)}
        _emit(payload)
        return 0
    if args.monomial_command == "growth-scan":
        cs = _numbers(args.c_grid, "--c-grid")
        if len({c for c in cs if c > 0}) < 2:
            raise ValueError(f"--c-grid {args.c_grid!r} needs at least two distinct positive c values to fit log K(c)")
        rep = growth_scan(cs, args.norm_cap, _parse_complex(args.z), include_forests=args.forests)
        payload = {
            "z": _fnum(rep.z),
            "norm_cap": rep.norm_cap,
            "khat": {f"{c:g}": _fnum(v) for c, v in sorted(rep.khat.items())},
            "monotone_decreasing": rep.monotone_decreasing,
            "fit_slope": _fnum(rep.fit_slope),
            "fit_r2": _fnum(rep.fit_r2),
        }
        _emit(payload)
        finite = all(math.isfinite(k) for k in rep.khat.values())
        ok = finite and rep.monotone_decreasing and rep.fit_slope < 0 and rep.fit_r2 >= 0.9
        return 0 if ok else 1
    # pole-probe
    loc, res = borel_pole_probe(args.omega, args.c)
    payload = {
        "expected_location": _fnum(-args.omega),
        "location": _fnum(loc),
        "residue": _fnum(res),
        "location_error": _fnum(abs(loc + args.omega)),
        "residue_error": _fnum(abs(res - 1.0)),
    }
    _emit(payload)
    ok = abs(loc + args.omega) <= 1e-3 and abs(res - 1.0) <= 1e-4
    return 0 if ok else 1


def _json_object(value, name: str) -> dict:
    """A JSON object read as a tuple of pairs, as a dict; any other value and
    any repeated key are refused, naming the field."""
    if type(value) is not tuple:
        raise ValueError(f"{name} must be a JSON object, got {json.dumps(value)}")
    out: dict = {}
    for k, v in value:
        if k in out:
            raise ValueError(f"{name}[{k!r}] is given twice")
        out[k] = v
    return out


def _dispatch_synthesize(args) -> int:
    with open(args.invariants) as fh:
        # objects as tuples of pairs, so a repeated key is seen, not overwritten
        data = _json_object(json.load(fh, object_pairs_hook=tuple), "invariants")
    unknown = sorted(set(data) - {"A", "H"})
    if unknown:
        raise ValueError(f"invariants field {unknown[0]!r} is neither A nor H")
    coeffs = {}
    for k, v in _json_object(data.get("A", ()), "invariants A").items():
        # one spelling per index, so that no entry overwrites another
        if not (k.isascii() and k.isdigit() and k[0] != "0"):
            raise ValueError(f"invariants key A[{k!r}] must be a positive integer without sign, spaces or leading zeros")
        if type(v) not in (str, int, float):
            raise ValueError(f"invariants value A[{k!r}] = {json.dumps(v)} must be an exact literal string or a number")
        coeffs[int(k)] = complex(parse_exact(v) if type(v) is str else v)
    growth = data.get("H", 1.0)
    if type(growth) not in (int, float):
        raise ValueError(f"invariants field H = {json.dumps(growth)} must be a number")
    inv = InvariantFamily(coeffs, growth_bound=float(growth))
    caps = _numbers(args.caps, "--caps", int)
    if len(caps) != 3:
        raise ValueError(f"--caps {args.caps!r} must have the three fields N_u,N_z,R_max")
    nu, _, rmax = caps
    try:
        theta_ray = cmath.pi if args.z_ray.strip() in ("pi", "PI") else float(args.z_ray)
    except ValueError:
        theta_ray = math.nan  # refused below, naming the flag
    if not math.isfinite(theta_ray):
        raise ValueError(f"--z-ray {args.z_ray!r} must be a finite angle in radians, or pi")
    moduli = _numbers(args.z_moduli, "--z-moduli")
    z_samples = tuple(m * cmath.exp(1j * theta_ray) for m in moduli)
    z_samples = tuple(complex(round(z.real, 12), round(z.imag, 12)) for z in z_samples)
    cfg = SynthesisConfig(c=args.c, nu=nu, r_max=rmax, z_samples=z_samples)
    field = synthesize(inv, cfg)
    rows = [(_fnum(s.z), deg, _fnum(v.real), _fnum(v.imag)) for s in field.samples for deg, v in sorted(s.action_on_u.items())]
    report = {
        "invariants": {str(n): _fnum(a) for n, a in sorted(inv.coefficients.items())},
        "c": _fnum(args.c),
        "caps": {"nu": nu, "r_max": rmax},
        "z_samples": [_fnum(z) for z in cfg.z_samples],
        "tolerances": {"automorphism": _fnum(DEFECT_TOL), "derivation": _fnum(DEFECT_TOL)},
        **{check: _fnum(worst) for check, worst in field.worst_defects().items()},
        "tail_ratios": {str(n): _fnum(r) for n, r in field.tail_ratios.items()},
        "coefficient_rows_header": ["z", "u_degree", "re", "im"],
        "coefficient_rows": rows,
        "failures": [{"check": check, "value": _fcheck(value), "tolerance": _fcheck(tol)} for check, value, tol in field.failures],
    }
    text = json.dumps(report, indent=2, sort_keys=True)
    print(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    return 1 if field.failures else 0


if __name__ == "__main__":
    sys.exit(main())
