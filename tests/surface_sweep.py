"""Which library functions do the documented commands and the benchmark jobs
reach?

    PYTHONPATH=src python tests/surface_sweep.py

Runs every line of the README's CLI block and the four benchmark jobs of
``perfbench/workloads.py`` (read as it is) at seeds 0-2 in this process, under
a ``sys.setprofile`` hook, then lists each function body in ``src/armould``
that none of them entered.  A README line must exit 0 and a job's output must
pass its workload's checks, or the sweep stops.  Dunder methods are counted
apart.  Every unreached non-dunder function prints with its reason for staying
in the library, from ``REASONS``; one without a reason makes the script exit 1,
since a function that only the tests reach belongs in ``tests/oracles.py``, and
so does a reason for a function that is reached or gone.
The last line gives the counts.  pytest does not collect this file.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import shlex
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "armould")

REASONS = {
    "bessel._k_cf2": "bessel_k1 needs it when |w| > 2; the README point stays below",
    "bessel.bessel_k0": "public closed form beside bessel_k1, in the package's names",
    "cli._fcheck": "formats a synthesis failure record, which a passing run has none of",
    "moulds.Mould.from_json": "`mould mul` and `mould compose` read their tables with it",
    "moulds.Mould.from_table": "`mould mul` and `mould compose` build their table moulds with it",
    "moulds.Mould.from_table.rule": "the lookup of a table mould",
    "moulds.mould_inverse_mul": "ROADMAP item 13: inverses of the transition moulds",
    "moulds.mould_inverse_mul.rule": "the recursion of mould_inverse_mul",
    "moulds.mould_inverse_comp": "ROADMAP item 13: inverses of the transition moulds",
    "moulds.mould_inverse_comp.rule": "the recursion of mould_inverse_comp",
    "moulds.transition_apply": "ROADMAP item 13: the read-back of the invariants",
    "series.TruncatedSeries.coeff": "the coefficient accessor of the public series type",
    "series.TruncatedSeries.constant": "a series plus or times a scalar goes through it",
    "synthesis.convergence_report": "ROADMAP item 8: the convergence map's command",
    "synthesis.SynthesizedField.max_relative_imag": "ROADMAP item 13: the reality check of the field",
    "values.GaussianRational.sort_key": "the canonical order of letters, as Word.sort_key is of words",
    "words.Forest.node_count": "the size of a forest; the oracles' cover sum, layered solve and separativity check read it",
    "words.forest": "builds a forest from trees and decorations, exported beside tree and word",
}


def _functions() -> dict:
    """(file, first line, name) of every function body -> (dotted name, lines)."""
    out = {}
    for fname in sorted(os.listdir(SRC)):
        if not fname.endswith(".py"):
            continue
        path = os.path.join(SRC, fname)
        with open(path) as fh:
            tree = ast.parse(fh.read())

        def walk(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    name = f"{prefix}.{child.name}"
                    out[(path, first, child.name)] = (name, child.end_lineno - first + 1)
                    walk(child, name)
                elif isinstance(child, ast.ClassDef):
                    walk(child, f"{prefix}.{child.name}")
                else:
                    walk(child, prefix)

        walk(tree, fname[:-3])
    return out


def _readme_lines() -> list[list[str]]:
    """The argument lists of the README's "## CLI" sh block."""
    lines, section, block = [], None, False
    with open(os.path.join(ROOT, "README.md")) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("## "):
                section = line
            elif section == "## CLI" and line == "```sh":
                block = True
            elif block and line == "```":
                break
            elif block:
                argv = shlex.split(line)
                assert argv[0] == "armould", line
                lines.append(argv[1:])
    return lines


def _run(call) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = call()
    return rc, out.getvalue()


def sweep() -> set:
    """The code objects entered by the README lines and the benchmark jobs."""
    entered = set()

    def hook(frame, event, arg):
        entered.add(frame.f_code)

    sys.path.insert(0, os.path.dirname(SRC))
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    sys.setprofile(hook)
    try:
        import armould.cli
        import workloads

        cwd = os.getcwd()
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            try:
                with open("inv.json", "w") as fh:
                    json.dump({"A": {"1": "1/4"}, "H": 1.0}, fh)
                for argv in _readme_lines():
                    rc, _ = _run(lambda: armould.cli.main(argv))
                    if rc != 0:
                        raise SystemExit(f"README line `armould {shlex.join(argv)}` exited {rc}")
                for w in workloads.WORKLOADS.values():
                    for seed in (0, 1, 2):
                        inputs = w.make_inputs(seed)
                        args = w.job_args(inputs, tmp)
                        if args[0] == "--cli":
                            rc, out = _run(lambda: armould.cli.main(args[1:]))
                        else:
                            rc, out = _run(lambda: workloads.exact_job(args[1]))
                        problems = w.check(inputs, rc, out)
                        if problems:
                            raise SystemExit(f"{w.name} at seed {seed}: {problems}")
            finally:
                os.chdir(cwd)
    finally:
        sys.setprofile(None)
    return {(code.co_filename, code.co_firstlineno, code.co_name) for code in entered}


def main() -> int:
    functions = _functions()
    entered = sweep()
    unreached = sorted((name, lines) for key, (name, lines) in functions.items() if key not in entered)
    dunders = [(n, k) for n, k in unreached if n.rsplit(".", 1)[1].startswith("__")]
    plain = [(n, k) for n, k in unreached if not n.rsplit(".", 1)[1].startswith("__")]
    missing = [name for name, _ in plain if name not in REASONS]
    for name, lines in plain:
        print(f"{name} ({lines} lines): {REASONS.get(name, 'NO REASON: give it a caller or move it to tests/oracles.py')}")
    stale = sorted(set(REASONS) - {name for name, _ in plain})
    for name in stale:
        print(f"{name}: reached or gone, so its entry in REASONS is stale")
    print(
        f"unreached: {len(plain)} non-dunder functions ({sum(k for _, k in plain)} lines) and {len(dunders)} dunders"
        f" ({sum(k for _, k in dunders)} lines) of {len(functions)} function bodies in src/armould"
    )
    return 1 if missing or stale else 0


if __name__ == "__main__":
    sys.exit(main())
