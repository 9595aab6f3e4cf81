"""Reproduce the ROADMAP baseline table with full-size cold jobs.

    python3 perfbench/baseline.py [OUT.json]

Run from the repository root.  Each job runs REPEATS times in a fresh
interpreter, the jobs interleaved, with the same thread environment as
the benchmark.  These are the jobs the benchmark's workloads are scaled down
from; they are too long for its run budget.
"""

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import numpy  # noqa: E402

from run import child_env, environment, spawn, summarize  # noqa: E402

ORGANIC = (
    "import sys; sys.path.insert(0, 'src'); from armould.moulds import organic_growth_report; "
    "print(organic_growth_report(6, (1, 2, 3), 'merges'))"
)

# (name, ROADMAP time in s, arguments after python3)
JOBS = [
    ("synthesize --c 0 --caps 6,6,4, A1 = 1/4", 34.2, ["-m", "armould.cli", "synthesize", "--invariants", "{inv}", "--c", "0", "--caps", "6,6,4"]),
    ("synthesize --c 2 --caps 6,6,4, A1 = 1/4", 1.6, ["-m", "armould.cli", "synthesize", "--invariants", "{inv}", "--c", "2", "--caps", "6,6,4"]),
    ("growth_scan([.5,1,2,4,0], 4, -2)", 18.9, ["-m", "armould.cli", "monomial", "growth-scan", "--c-grid", "0.5,1,2,4,0", "--norm-cap", "4", "--forests", "--z", "-2"]),
    ("organic_growth_report(6)", 20.0, ["-c", ORGANIC]),
]
REPEATS = 3


def main(argv: list[str]) -> int:
    results = {name: [] for name, _, _ in JOBS}
    scratch = Path.cwd() / ".perfbench-work"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        work = Path(tmp)
        inv = work / "inv.json"
        inv.write_text(json.dumps({"A": {"1": "1/4"}, "H": 1.0}))
        env = child_env(work)
        env["PYTHONPATH"] = str(Path.cwd() / "src")
        for _ in range(REPEATS):
            for name, _, args in JOBS:
                s = spawn([a.replace("{inv}", str(inv)) for a in args], work / "out", work / "err", env, 600.0)
                if s["rc"] != 0:
                    raise SystemExit(f"{name} failed: {(work / 'err').read_text()[-500:]}")
                results[name].append(s)
                print(f"{name}: {s['wall_s']:.2f} s", file=sys.stderr, flush=True)
    report = {
        "environment": environment([{"numpy": numpy.__version__}]),
        "jobs": [
            {
                "job": name,
                "roadmap_s": roadmap,
                "wall_s": summarize([s["wall_s"] for s in results[name]]),
                "cpu_s": summarize([s["cpu_s"] for s in results[name]]),
                "peak_rss_mb": summarize([s["peak_rss_mb"] for s in results[name]]),
            }
            for name, roadmap, _ in JOBS
        ],
    }
    text = json.dumps(report, indent=1, sort_keys=True)
    print(text)
    if argv:
        Path(argv[0]).write_text(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
