"""Regenerate ``reference.json``: every workload's exponents at the reference
seed, which ``run.py --trace 1`` compares against to report
``lyapunov.exponent_max_abs_delta``.

    python3 bench/make_reference.py
"""

import contextlib
import json
import os
import shutil
import sys
import tempfile

import run


def main():
    sys.path.insert(0, run.SRC)
    os.makedirs(run.WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="ref-", dir=run.WORK)
    try:
        reference = {}
        for name in sorted(run.WORKLOADS):
            runner = run.Runner(name, workdir)
            reference[name] = runner.run_until(0, run.REFERENCE_SEED, warm_up=False,
                                               min_reps=1)[1]
            if runner.failures:
                sys.exit(f"{name}: {runner.failures}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(run.WORK)
    with open(os.path.join(run.HERE, "reference.json"), "w") as fh:
        json.dump({"seed": run.REFERENCE_SEED, **reference}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
