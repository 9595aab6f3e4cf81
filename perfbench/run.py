"""armould benchmark harness.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  The harness makes the workload's inputs
from the seed, then runs the job over and over, each sample in a fresh
interpreter, one at a time (closed loop, one client), for S seconds.  Every
sample's output is checked; a sample fails on a failed check, an unexpected
exit code, a crash or a timeout, and on stdout that is not byte-identical to
the first sample's (the inputs are the same).

--trace 0 reports the end-to-end metrics (medians over the passing samples,
so a job that fails early cannot look faster):
  wall_s       spawn to exit of the job process
  cpu_s        user + system CPU time of the job process
  peak_rss_mb  maximum resident set size of the job process
  setup_s      CPU time of the job process until armould and its imports
               are loaded
  pass_frac    passing samples over attempted samples (1 - fail_frac)

--trace 1 alternates untraced and traced samples and reports the per-layer
metrics of the traced ones (see tracer.py), plus the tracing overhead
(traced minus untraced median wall time).  It also checks that every traced
name records calls on the workloads it should (coverage) and that two
traced samples make identical call counts.

The line before the last is a full report (quartiles, tail percentile,
sample count, failures, environment); the last line is the result object
{"correct", "attempted", "failed", "metrics"}.  The exit code is 0 when a
result is printed, even if samples failed, and 2 on bad usage or when the
directory is not an armould checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

# Identical on both sides of any comparison; no job may use a second busy
# thread, and importing numpy alone would otherwise cost extra CPU here.
THREAD_ENV = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "BLIS_NUM_THREADS",
    )
}
SAMPLE_TIMEOUT_S = 60.0
RUN_DEADLINE_S = 170.0  # the whole run, so that it exits within 180 s
END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"), ("pass_frac", "ratio"))


def child_env(workdir: Path) -> dict:
    env = {"PATH": os.environ.get("PATH", "/usr/bin:/bin"), "HOME": str(workdir), "TMPDIR": str(workdir)}
    if "LD_LIBRARY_PATH" in os.environ:
        env["LD_LIBRARY_PATH"] = os.environ["LD_LIBRARY_PATH"]
    env.update(THREAD_ENV)
    return env


def spawn(args: list[str], stdout: Path, stderr: Path, env: dict, timeout: float) -> dict:
    """Run ``python3 ARGS`` to completion; wall time from spawn to exit and
    the child's own rusage (wait4), so nothing else is counted."""
    timed_out = threading.Event()

    def kill():
        timed_out.set()
        os.kill(pid, signal.SIGKILL)

    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        actions = [(os.POSIX_SPAWN_DUP2, out.fileno(), 1), (os.POSIX_SPAWN_DUP2, err.fileno(), 2)]
        t0 = time.monotonic()
        pid = os.posix_spawn(sys.executable, [sys.executable, *args], env, file_actions=actions)
        watchdog = threading.Timer(timeout, kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(pid, 0)
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
        finally:
            watchdog.cancel()
        t1 = time.monotonic()
    watchdog.join()
    return {
        "wall_s": t1 - t0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "rc": os.waitstatus_to_exitcode(status),
        "timed_out": timed_out.is_set(),
    }


class Runner:
    def __init__(self, workload, inputs: dict, workdir: Path, deadline: float):
        self.workload, self.inputs, self.workdir, self.deadline = workload, inputs, workdir, deadline
        self.env = child_env(workdir)
        self.args = workload.job_args(inputs, str(workdir))
        self.first_stdout: bytes | None = None
        self.count = 0

    def sample(self, trace: bool = False, checked: bool = True) -> dict:
        i = self.count
        self.count += 1
        meta_path, spans_path = self.workdir / f"meta-{i}.json", self.workdir / f"spans-{i}.bin"
        out_path, err_path = self.workdir / f"out-{i}.txt", self.workdir / f"err-{i}.txt"
        args = [str(HERE / "job.py"), str(meta_path)]
        if trace:
            args += ["--trace", str(spans_path)]
        args += self.args if checked else ["--import-only"]
        timeout = max(1.0, min(SAMPLE_TIMEOUT_S, self.deadline - time.monotonic()))
        s = spawn(args, out_path, err_path, self.env, timeout)
        stdout = out_path.read_bytes()
        problems = []
        try:
            meta = json.loads(meta_path.read_text())
            s["setup_s"] = meta["loaded_cpu"]
            s["numpy"] = meta["numpy"]
        except (OSError, ValueError, KeyError):
            meta = {}
            problems.append("the job wrote no metadata (it died before armould was loaded)")
        if s["timed_out"]:
            problems.append(f"timed out after {timeout:.0f} s")
        elif s["rc"] < 0:
            problems.append(f"crashed with signal {-s['rc']}")
        if checked and not s["timed_out"]:
            problems += self.workload.check(self.inputs, s["rc"], stdout.decode(errors="replace"))
            if self.first_stdout is None:
                self.first_stdout = stdout
            elif stdout != self.first_stdout:
                problems.append("stdout is not byte-identical to the first sample's")
        if problems:
            tail = err_path.read_text(errors="replace").strip().splitlines()[-3:]
            problems += [f"stderr: {line}" for line in tail]
        if trace and not s["timed_out"] and spans_path.exists():
            from tracer import layer_metrics

            s["layers"], s["calls"] = layer_metrics(str(spans_path))
            s["bindings"] = meta.get("bindings")
        for p in (meta_path, spans_path, out_path, err_path):
            p.unlink(missing_ok=True)
        s["problems"] = problems
        return s


def summarize(values: list[float]) -> dict:
    """Median, quartiles and the highest percentile with at least ten samples
    beyond it (nearest rank), with the sample count."""
    xs = sorted(values)
    n = len(xs)
    out = {"n": n, "median": statistics.median(xs), "values": [round(x, 4) for x in values]}
    if n >= 2:
        q1, _, q3 = statistics.quantiles(xs, n=4)
        out.update(q1=q1, q3=q3)
    for per_mille in (999, 990, 950, 900, 750, 500):
        if n * (1000 - per_mille) >= 10000:  # at least ten samples beyond it
            out["tail_p"] = per_mille / 10
            out["tail_value"] = xs[-(-per_mille * n // 1000) - 1]
            break
    return out


def environment(samples: list[dict]) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": next((s["numpy"] for s in samples if "numpy" in s), None),
        "thread_env": THREAD_ENV,
        "loadavg": os.getloadavg(),
    }


def measure(runner: Runner, seconds: float) -> tuple[dict, dict, list[dict]]:
    t0 = time.monotonic()
    samples = []
    while not samples or time.monotonic() - t0 < seconds:
        if time.monotonic() > runner.deadline - 1:
            break
        samples.append(runner.sample())
    passed = [s for s in samples if not s["problems"]]
    timed = passed or samples  # when every sample failed, correct is false anyway
    stats = {name: summarize([s[name] for s in timed if name in s]) for name, _ in END_TO_END[:-1]}
    metrics = {name: {"value": stats[name]["median"], "unit": unit} for name, unit in END_TO_END[:-1]}
    metrics["pass_frac"] = {"value": len(passed) / len(samples), "unit": "ratio"}
    return metrics, stats, samples


def measure_traced(runner: Runner, seconds: float) -> tuple[dict, dict, list[dict], list[str]]:
    from tracer import PER_LAYER, coverage_failures

    t0 = time.monotonic()
    plain, traced = [], []
    while len(traced) < 2 or time.monotonic() - t0 < seconds:
        if time.monotonic() > runner.deadline - 1:
            break
        plain.append(runner.sample())
        traced.append(runner.sample(trace=True))
    ok = [s for s in traced if "layers" in s]
    selftest = []
    if len(ok) < 2:
        selftest.append(f"need two completed traced samples for the call-count check, got {len(ok)}")
    elif any(s["calls"] != ok[0]["calls"] for s in ok[1:]):
        selftest.append("two traced samples made different call counts")
    if ok:
        selftest += coverage_failures(runner.workload.name, ok[0]["calls"])
    metrics = {}
    for name, unit in PER_LAYER:
        if name == "trace.overhead_s":
            value = statistics.median(s["wall_s"] for s in traced) - statistics.median(s["wall_s"] for s in plain)
        else:
            value = statistics.median(s["layers"][name] for s in ok) if ok else 0
        metrics[name] = {"value": value, "unit": unit}
    wall = statistics.median(s["wall_s"] for s in traced)
    main_s = metrics["cli.main.s"]["value"]
    stats = {
        "traced_wall_s": wall,
        "untraced_wall_s": statistics.median(s["wall_s"] for s in plain),
        "paralog_Ua_eval_self_share_of_wall": metrics["monomials.paralog_Ua_eval.self_s"]["value"] / wall,
        "paralog_Ua_eval_self_share_of_cli_main": (
            metrics["monomials.paralog_Ua_eval.self_s"]["value"] / main_s if main_s else None
        ),
        "calls": ok[0]["calls"] if ok else {},
        "bindings_patched": ok[0].get("bindings") if ok else None,
    }
    return metrics, stats, plain + traced, selftest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "armould" / "__init__.py").is_file():
        print(f"error: {root} is not an armould checkout (no src/armould); run from the repository root", file=sys.stderr)
        return 2
    begin = time.monotonic()
    workload = WORKLOADS[args.workload]
    inputs = workload.make_inputs(args.seed)
    base = root / ".perfbench-work"
    workdir = base / f"{workload.name}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        runner = Runner(workload, inputs, workdir, begin + RUN_DEADLINE_S)
        warm = runner.sample(checked=False)  # byte-compiles src and warms the file cache; not measured
        if warm["problems"] or warm["rc"] != 0:
            print(f"error: the job cannot import armould: {warm['problems']}", file=sys.stderr)
            return 2
        if args.trace:
            metrics, stats, samples, selftest = measure_traced(runner, args.seconds)
        else:
            metrics, stats, samples = measure(runner, args.seconds)
            selftest = []
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass
    failed = [s for s in samples if s["problems"]]
    report = {
        "workload": workload.name,
        "seed": args.seed,
        "inputs": inputs,
        "trace": args.trace,
        "seconds": args.seconds,
        "attempted": len(samples),
        "failed": len(failed),
        "fail_frac": len(failed) / len(samples),
        "stats": stats,
        "selftest_failures": selftest,
        "sample_failures": [s["problems"] for s in failed][:5],
        "environment": environment(samples),
    }
    print(json.dumps(report, sort_keys=True))
    result = {
        "correct": not failed and not selftest,
        "attempted": len(samples),
        "failed": len(failed),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
