"""Benchmark workloads: seeded inputs, the job each sample runs, and the
checks its output must pass.

Every workload is a batch job run in a fresh interpreter.  The seed varies
the inputs but not the cost: the ray lengths of the quadrature, and so the
work, depend only on c, |omega| and the contour, never on z or on the
invariants, and the exact layer's enumeration sizes depend only on the caps.
Seed 0 is the default and gives the documented default inputs.  The
numerical workloads have INPUT_SETS input sets each, one for each of the
seeds 0 to INPUT_SETS - 1; a larger seed gives the set of its remainder.
Every set has a golden output in ``golden.json``, so every sample is compared
with one, and a sample whose inputs have none fails.  The exact workload's
checks hold for any rationals, so its seed is used as it is.

Sizes are chosen so that one job takes 2-5 s on a 2-vCPU Xeon VM; the full
ROADMAP baseline jobs (34 s, 19 s, 20 s) are reproduced by ``baseline.py``.
"""

from __future__ import annotations

import json
import math
import os
import random
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_SEED = 0
INPUT_SETS = 25

# Margin for the up-to-10x underestimate of the reported monomial errors
# (ROADMAP item 5a: a grid shift moved values by 10x the reported error).
ERROR_MARGIN = 10.0
ORGANIC_TOL = 1e-12
# The u-degree-1 row is the identity part of the conjugated field (exactly 1
# in exact arithmetic); the off-identity tolerance is far below its ulp.
IDENTITY_ROW_TOL = 1e-12

SYNTH_C0_CAPS = "4,4,2"
SYNTH_WIDE_CAPS = "4,4,4"
SCAN_C_GRID = "0.5,1,2,4,0"
SCAN_NORM_CAP = 3
EXACT_NORM_CAP = 5
EXACT_SYMMETRY_CAP = 4
EXACT_ORGANIC_NODES = 5
EXACT_MODES = (("simple", "merges"), ("contracting", "merges"), ("contracting", "surjections"))


def _fractions(lo: Fraction, hi: Fraction, max_den: int) -> list[Fraction]:
    return sorted({Fraction(p, q) for q in range(1, max_den + 1) for p in range(1, q + 1) if lo <= Fraction(p, q) <= hi})


def _signed(rng: random.Random, choices: list[Fraction]) -> Fraction:
    return rng.choice(choices) * rng.choice((1, -1))


def _modulus_grid() -> list[str]:
    return [f"{1.5 + 0.1 * k:.1f}" for k in range(16)]  # 1.5 .. 3.0


A1_CHOICES = _fractions(Fraction(1, 8), Fraction(1, 4), 16)
A2_CHOICES = _fractions(Fraction(1, 16), Fraction(1, 8), 32)


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def synth_c0_inputs(seed: int) -> dict:
    seed %= INPUT_SETS
    if seed == DEFAULT_SEED:
        return {"A": {"1": "1/4"}, "z_moduli": ["2.0"]}
    rng = random.Random(seed)
    return {"A": {"1": str(_signed(rng, A1_CHOICES))}, "z_moduli": [rng.choice(_modulus_grid())]}


def synth_wide_inputs(seed: int) -> dict:
    seed %= INPUT_SETS
    if seed == DEFAULT_SEED:
        return {"A": {"1": "1/4", "2": "1/8"}, "z_moduli": ["1.5", "2.5"]}
    rng = random.Random(seed)
    a1, a2 = _signed(rng, A1_CHOICES), _signed(rng, A2_CHOICES)
    moduli = sorted(rng.sample(_modulus_grid(), 2), key=float)
    return {"A": {"1": str(a1), "2": str(a2)}, "z_moduli": moduli}


def scan_inputs(seed: int) -> dict:
    seed %= INPUT_SETS
    if seed == DEFAULT_SEED:
        return {"z": "-2.0"}
    rng = random.Random(seed)
    return {"z": f"-{rng.choice(_modulus_grid())}"}


def exact_inputs(seed: int) -> dict:
    """Rationals drawn like the arborification acceptance test: a product of
    two geometric symmetrel moulds, a derivation family on letters {1,2,3}
    and letter weights for a symmetral product (denominators <= 9)."""
    rng = random.Random(seed)

    def nonzero(lo: int, hi: int, den: int) -> Fraction:
        return Fraction(rng.choice([k for k in range(lo, hi + 1) if k]), rng.randint(1, den))

    return {
        "x1": str(Fraction(rng.randint(1, 7), rng.randint(2, 9))),
        "x2": str(-Fraction(rng.randint(1, 7), rng.randint(2, 9))),
        "betas": {str(n): str(nonzero(-6, 6, 9)) for n in (1, 2, 3)},
        "weights1": {str(n): str(nonzero(-9, 9, 9)) for n in (1, 2, 3)},
        "weights2": {str(n): str(nonzero(-9, 9, 9)) for n in (1, 2, 3)},
    }


# ---------------------------------------------------------------------------
# job command lines (arguments after ``job.py META``)
# ---------------------------------------------------------------------------


def _synth_args(inputs: dict, workdir: str, c: str, caps: str) -> list[str]:
    path = os.path.join(workdir, "invariants.json")
    with open(path, "w") as fh:
        json.dump({"A": inputs["A"], "H": 1.0}, fh)
    return ["--cli", "synthesize", "--invariants", path, "--c", c, "--caps", caps, "--z-moduli", ",".join(inputs["z_moduli"])]


def scan_args(inputs: dict, workdir: str) -> list[str]:
    return [
        "--cli", "monomial", "growth-scan", "--c-grid", SCAN_C_GRID, "--norm-cap", str(SCAN_NORM_CAP),
        "--forests", "--z", inputs["z"],
    ]  # fmt: skip


def exact_args(inputs: dict, workdir: str) -> list[str]:
    path = os.path.join(workdir, "exact.json")
    with open(path, "w") as fh:
        json.dump(inputs, fh)
    return ["--exact", path]


def exact_job(path: str) -> int:
    """The exact workload: arborification identity in three modes, symmetry
    checks and the organic growth report, all over exact rationals."""
    from armould.moulds import arborify, check_symmetry, mould_mul, organic_growth_report
    from armould.moulds import symmetral_from_letter_weights, symmetrel_geometric
    from armould.operators import DerivationFamily, contract_forest_sum, contract_word_sum
    from armould.words import letter

    with open(path) as fh:
        inputs = json.load(fh)
    q = {k: Fraction(v) for k, v in inputs.items() if isinstance(v, str)}
    m = mould_mul(symmetrel_geometric(q["x1"]), symmetrel_geometric(q["x2"]))
    fam = DerivationFamily({int(n): Fraction(b) for n, b in inputs["betas"].items()})
    lhs = contract_word_sum(m, fam, EXACT_NORM_CAP)
    identity = {}
    for mode, counting in EXACT_MODES:
        rhs = contract_forest_sum(arborify(m, mode, counting=counting), fam, EXACT_NORM_CAP, mode=mode, counting=counting)
        identity[f"{mode}/{counting}"] = lhs == rhs
    letters = [letter(n) for n in (1, 2, 3)]
    symmetrel = check_symmetry(m, "symmetrel", EXACT_SYMMETRY_CAP, letters)
    weights = [{int(n): Fraction(v) for n, v in inputs[k].items()} for k in ("weights1", "weights2")]
    sym = mould_mul(*(symmetral_from_letter_weights(w) for w in weights))
    symmetral = check_symmetry(sym, "symmetral", EXACT_SYMMETRY_CAP, letters)
    organic = organic_growth_report(EXACT_ORGANIC_NODES, (1, 2, 3), "merges")
    payload = {
        "identity": identity,
        "word_sum_terms": len(lhs.dump()),
        "symmetrel": {"passed": symmetrel.passed, "pairs": symmetrel.pairs_checked},
        "symmetral": {"passed": symmetral.passed, "pairs": symmetral.pairs_checked},
        "organic": {
            "bound": repr(organic.bound),
            "sup_by_nodes": {str(r): repr(v) for r, v in sorted(organic.sup_by_nodes.items())},
            "forest_counts": {str(r): n for r, n in sorted(organic.forest_counts.items())},
        },
    }
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# output checks: each returns a list of problems (empty when the output passes)
# ---------------------------------------------------------------------------


def _golden(workload: str) -> dict:
    try:
        with open(os.path.join(HERE, "golden.json")) as fh:
            return json.load(fh).get(workload, {})
    except FileNotFoundError:
        return {}


def input_key(inputs: dict) -> str:
    return json.dumps(inputs, sort_keys=True)


def _parse_complex_row(row) -> tuple[str, int, float, float]:
    z, deg, re, im = row
    return z, int(deg), float(re), float(im)


def check_synth(inputs: dict, rc: int, stdout: str, caps: str, golden: dict) -> list[str]:
    if rc != 0:
        return [f"exit code {rc} (a defect exceeded 1e-6 or the job failed)"]
    rep = json.loads(stdout)
    problems = []
    if rep["failures"]:
        problems.append(f"failures reported: {rep['failures']}")
    for n, ratio in rep["tail_ratios"].items():
        if not float(ratio) < 1.0:
            problems.append(f"tail ratio at norm {n} is {ratio}, not < 1")
    nu = int(caps.split(",")[0])
    rows = [_parse_complex_row(r) for r in rep["coefficient_rows"]]
    per_z: dict = {}
    for z, *_ in rows:
        per_z[z] = per_z.get(z, 0) + 1
    if len(per_z) != len(inputs["z_moduli"]) or any(n != nu for n in per_z.values()):
        problems.append(f"expected {nu} rows for each of {len(inputs['z_moduli'])} z samples, got {per_z}")
    ref = golden.get(input_key(inputs))
    if ref is None:
        problems.append("no golden output for these inputs")
    else:
        want = [_parse_complex_row(r) for r in ref["rows"]]
        if [(z, d) for z, d, *_ in want] != [(z, d) for z, d, *_ in rows]:
            problems.append("coefficient rows differ in (z, degree) layout from the golden output")
        else:
            for got, ref_row in zip(rows, want):
                diff = math.hypot(got[2] - ref_row[2], got[3] - ref_row[3])
                tol = ref["tol"] if got[1] >= 2 else IDENTITY_ROW_TOL
                if diff > tol:
                    problems.append(f"row {got[:2]} differs from golden by {diff:.3e} > tolerance {tol:.3e}")
    return problems


def check_scan(inputs: dict, rc: int, stdout: str, golden: dict) -> list[str]:
    if rc != 0:
        return [f"exit code {rc} (the scan's own monotonicity/fit gate failed)"]
    rep = json.loads(stdout)
    problems = []
    khat = {float(c): float(v) for c, v in rep["khat"].items()}
    positive = sorted(c for c in khat if c > 0)
    if not rep["monotone_decreasing"] or any(khat[a] <= khat[b] for a, b in zip(positive, positive[1:])):
        problems.append(f"K(c) is not monotone decreasing: {rep['khat']}")
    if not float(rep["fit_slope"]) < 0:
        problems.append(f"fit slope {rep['fit_slope']} is not < 0")
    if not float(rep["fit_r2"]) >= 0.9:
        problems.append(f"fit R2 {rep['fit_r2']} < 0.9")
    if 0.0 not in khat or any(khat[0.0] <= khat[c] for c in positive):
        problems.append(f"K(0) is not above every positive-c column: {rep['khat']}")
    ref = golden.get(input_key(inputs))
    if ref is None:
        problems.append("no golden output for these inputs")
    else:
        for c, v in ref["khat"].items():
            got = float(rep["khat"].get(c, "nan"))
            if not abs(got - float(v)) <= ref["rel_tol"] * abs(float(v)):
                problems.append(f"K({c}) = {got!r} differs from golden {v} beyond rel {ref['rel_tol']:.1e}")
    return problems


def check_exact(inputs: dict, rc: int, stdout: str, golden: dict) -> list[str]:
    if rc != 0:
        return [f"exit code {rc}"]
    rep = json.loads(stdout)
    problems = [f"word sum != forest sum in mode {m}" for m, ok in rep["identity"].items() if ok is not True]
    if len(rep["identity"]) != len(EXACT_MODES):
        problems.append(f"identity checked in {len(rep['identity'])} modes, expected {len(EXACT_MODES)}")
    for kind in ("symmetrel", "symmetral"):
        if rep[kind]["passed"] is not True:
            problems.append(f"{kind} check failed")
    if not float(rep["organic"]["bound"]) <= 4.0:
        problems.append(f"organic growth bound {rep['organic']['bound']} > 4")
    want = golden.get("sup_by_nodes")
    if want is None:
        problems.append("no golden organic sup_by_nodes")
    else:
        got = rep["organic"]["sup_by_nodes"]
        if set(got) != set(want) or any(abs(float(got[r]) - float(v)) > ORGANIC_TOL for r, v in want.items()):
            problems.append(f"organic sup_by_nodes {got} differs from golden {want} beyond {ORGANIC_TOL}")
    return problems


class Workload:
    """A named job with seeded inputs; BENCHMARK.json records why each was chosen."""

    def __init__(self, name, make_inputs, job_args, check):
        self.name = name
        self.make_inputs, self.job_args, self._check = make_inputs, job_args, check

    def check(self, inputs: dict, rc: int, stdout: str) -> list[str]:
        try:
            return self._check(inputs, rc, stdout, _golden(self.name))
        except (ValueError, KeyError, TypeError) as exc:
            return [f"unreadable output: {exc!r}"]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "synth-c0",
            synth_c0_inputs,
            lambda inputs, workdir: _synth_args(inputs, workdir, "0", SYNTH_C0_CAPS),
            lambda inputs, rc, out, golden: check_synth(inputs, rc, out, SYNTH_C0_CAPS, golden),
        ),
        Workload(
            "synth-c2-wide",
            synth_wide_inputs,
            lambda inputs, workdir: _synth_args(inputs, workdir, "2", SYNTH_WIDE_CAPS),
            lambda inputs, rc, out, golden: check_synth(inputs, rc, out, SYNTH_WIDE_CAPS, golden),
        ),
        Workload(
            "scan",
            scan_inputs,
            scan_args,
            check_scan,
        ),
        Workload(
            "exact",
            exact_inputs,
            exact_args,
            check_exact,
        ),
    )
}
