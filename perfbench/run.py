"""Benchmark harness for sfgraph.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload orl-wide --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` of the checkout the script sits in.
With ``--trace 0`` the last output line holds the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` the per-layer metrics of a separate
traced run.  The line before it is a JSON detail record: environment, run
time quartiles and sample count, failures, the quality fingerprint and, when
tracing, each layer's share of the time.  Outputs go to
``.perfbench-out/<workload>-seed<seed>-trace<t>/`` in the checkout.
"""

from __future__ import annotations

import os

# Fixed before numpy loads: one BLAS thread, so that the two-thread graph
# build never oversubscribes a two-core machine and timings stay steady.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _commit(root: Path) -> str | None:
    """The checkout's git commit, when it is a git repository."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = root / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src = hashlib.sha256()
    for path in sorted((SRC / "sfgraph").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _commit(ROOT),
        "src_sha256": src.hexdigest()[:16],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sfgraph" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import sfgraph  # noqa: F401
    import workloads  # imports the rest of the program

    import_s = time.perf_counter() - start
    if Path(sfgraph.__file__).resolve().parent != SRC / "sfgraph":
        print(f"perfbench: imported sfgraph from {sfgraph.__file__}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")

    out = ROOT / ".perfbench-out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    run = workloads.Run(workloads.WORKLOADS[args.workload], args.seed, args.seconds, str(out))
    try:
        metrics = run.trace() if args.trace else run.measure(import_s)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    detail = {
        "workload": args.workload,
        "environment": environment(args.seed),
        "shape": run.shape,
        **run.detail,
        "fingerprint": list(run.fingerprints.values()),
        "problems": run.tally.problems[:20],
    }
    (out / "detail.json").write_text(json.dumps(detail, indent=2) + "\n")
    if args.trace:
        (out / "spans.json").write_text(json.dumps(run.spans) + "\n")
    result = {
        "correct": run.tally.failed == 0 and run.tally.attempted > 0,
        "attempted": run.tally.attempted,
        "failed": run.tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
