"""Record the golden outputs that ``workloads.py`` compares samples against.

    python3 perfbench/make_golden.py

Run from the repository root, at the commit whose outputs are the reference.
It records every input set of the numerical workloads (seeds 0 to
INPUT_SETS - 1) and rewrites golden.json.  Each job runs in this process with the monomial evaluations wrapped, so the
relative errors they report are collected alongside the output:

- synth rows: tolerance = ERROR_MARGIN x (largest relative monomial error)
  x (largest off-identity row, u-degree >= 2).  Rows span 1e-6 down to
  1e-30, so a per-row relative error would be meaningless;
- scan: relative tolerance on each K(c) = ERROR_MARGIN x (largest relative
  monomial error), since K = |U|^(1/norm) carries at most U's relative error;
- exact: the organic report's sup_by_nodes, compared to ORGANIC_TOL.

Goldens are keyed by the generated inputs, not by the seed.
"""

import contextlib
import io
import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(Path.cwd() / "src"))

import armould.cli  # noqa: E402
from armould import monomials  # noqa: E402
from armould.moulds import organic_growth_report  # noqa: E402

from tracer import replace_everywhere  # noqa: E402
from workloads import ERROR_MARGIN, EXACT_ORGANIC_NODES, INPUT_SETS, WORKLOADS, input_key  # noqa: E402

rel_errors: list[float] = []


def _collect(fn):
    def collected(*args, **kwargs):
        mv = fn(*args, **kwargs)
        if mv.value != 0:
            rel_errors.append(mv.error / abs(mv.value))
        return mv

    return collected


def run_cli(args: list[str]) -> dict:
    rel_errors.clear()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = armould.cli.main(args)
    if rc != 0:
        raise SystemExit(f"reference job failed with exit code {rc}: {args}")
    return json.loads(buf.getvalue())


def main() -> int:
    for name in ("paralog_Ua_eval", "paralog_forest_eval"):
        replace_everywhere(getattr(monomials, name), _collect(getattr(monomials, name)))
    workdir = Path.cwd() / ".perfbench-work" / "golden"
    workdir.mkdir(parents=True, exist_ok=True)
    golden: dict = {"synth-c0": {}, "synth-c2-wide": {}, "scan": {}}
    for name in golden:
        workload = WORKLOADS[name]
        for seed in range(INPUT_SETS):
            inputs = workload.make_inputs(seed)
            args = workload.job_args(inputs, str(workdir))[1:]  # drop "--cli"
            rep = run_cli(args)
            err = max(rel_errors)
            if name == "scan":
                entry = {"khat": rep["khat"], "rel_tol": ERROR_MARGIN * err}
            else:
                off_identity = max(math.hypot(float(re), float(im)) for _, deg, re, im in rep["coefficient_rows"] if deg >= 2)
                entry = {"rows": rep["coefficient_rows"], "tol": ERROR_MARGIN * err * off_identity}
            entry["max_rel_monomial_error"] = err
            golden[name][input_key(inputs)] = entry
            print(name, seed, inputs, {k: v for k, v in entry.items() if k != "rows"}, flush=True)
    organic = organic_growth_report(EXACT_ORGANIC_NODES, (1, 2, 3), "merges")
    golden["exact"] = {"sup_by_nodes": {str(r): repr(v) for r, v in sorted(organic.sup_by_nodes.items())}}
    for p in workdir.iterdir():
        p.unlink()
    workdir.rmdir()
    with open(HERE / "golden.json", "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
