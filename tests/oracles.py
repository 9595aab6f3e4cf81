"""Test oracles: slower, independently grouped constructions of the
normalizer that the library's forest assembly is checked against."""

from armould.moulds import builtin_mould, mould_compose, words_of_norm_at_most
from armould.operators import DiffOperator, op_compose_word
from armould.synthesis import InvariantFamily, SynthesisConfig, signed_monomial_mould
from armould.words import letter


def theta_word_assembly(inv: InvariantFamily, cfg: SynthesisConfig, z: complex) -> DiffOperator:
    """Oracle assembly: Theta = sum_v (L o exp)^v A_v over the plain word
    comould; equals the forest assembly exactly, term regrouping aside."""
    fam = inv.derivations()
    ell = signed_monomial_mould(z, cfg.c, cfg.contour)
    composed = mould_compose(ell, builtin_mould("exp"))
    out = DiffOperator.identity()
    for v in words_of_norm_at_most([letter(n) for n in inv.support], cfg.nu):
        if v.length > cfg.r_max:
            continue
        val = complex(composed.value(v))
        if val == 0:
            continue
        out = out + op_compose_word(fam, v).scale(val)
    return out


def exp_atom_operators(inv: InvariantFamily, cfg: SynthesisConfig) -> dict[int, DiffOperator]:
    """Cosymmetrel atoms: Aplus_n = sum over words v with ||v|| = n of
    (1/len(v)!) A_v, the homogeneity components of exp(sum A_n u^{n+1} d_u),
    truncated to underlying word length r_max."""
    fam = inv.derivations()
    expm = builtin_mould("exp")
    atoms: dict[int, DiffOperator] = {}
    for n in range(1, cfg.nu + 1):
        acc = DiffOperator.zero()
        for v in words_of_norm_at_most([letter(m) for m in inv.support], cfg.nu):
            if int(v.norm.re) == n and v.length <= cfg.r_max:
                acc = acc + op_compose_word(fam, v).scale(expm.value(v))
        if not acc.is_zero():
            atoms[n] = acc
    return atoms
