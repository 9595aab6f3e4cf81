"""One benchmark job, run in a fresh interpreter by ``run.py``.

    python3 perfbench/job.py META [--trace SPANS] (--cli ARGS... | --exact INPUTS | --import-only)

Loads armould from the checkout's ``src``, records the CPU time the process
has used when the package and its imports are loaded, runs the job, and
writes META (JSON: that CPU time, the numpy version and, when traced, the
number of patched bindings).  With ``--trace`` every listed armould function
is wrapped and the spans are written to SPANS when the job ends.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import armould  # noqa: E402
import armould.cli  # noqa: E402

LOADED_CPU = time.process_time()


def main(argv: list[str]) -> int:
    import json

    import numpy

    meta_path, rest = argv[0], argv[1:]
    meta = {"loaded_cpu": LOADED_CPU, "numpy": numpy.__version__}
    tracer = None
    if rest[0] == "--trace":
        from tracer import Tracer

        spans_path, rest = rest[1], rest[2:]
        tracer = Tracer()
        meta["bindings"] = tracer.install()
    try:
        if rest[0] == "--cli":
            return armould.cli.main(rest[1:])
        if rest[0] == "--exact":
            from workloads import exact_job

            return exact_job(rest[1])
        return 0
    finally:
        sys.stdout.flush()
        if tracer is not None:
            tracer.dump(spans_path)
        with open(meta_path, "w") as fh:
            json.dump(meta, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
