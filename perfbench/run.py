"""Run one benchmark workload (or all of them) in fresh processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S [--trace 1]

Each workload runs in its own child process (``workloads.py``) with the
BLAS/OpenMP pools pinned to one thread and every ``REPRO_*`` setting
cleared, against the ``repro`` sources in ``src/`` of this checkout.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: with ``--trace 0`` every
end-to-end metric, with ``--trace 1`` every per-layer metric.  A traced
run also runs the workload untraced first, to report tracing overhead.
A child that crashes or times out is recorded as a failed run; with
``--workload all`` the remaining workloads still run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spec import DETERMINISTIC_COUNTS, E2E_MEANING, MOVES  # noqa: E402

#: Where stores and trace files go (inside the checkout, git-ignored).
OUT = ROOT / ".perfbench-out"
CHILD_TIMEOUT_S = 170.0

#: Thread pools pinned: default OpenBLAS threads burn CPU without
#: shortening the wall time on this solver.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    # The compiled SPH fast path stays off: accel="numpy" is the default.
    "REPRO_SPH_CFAST": "0",
}


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def provenance() -> dict[str, object]:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "threads": {k: PINNED_ENV[k] for k in ("OPENBLAS_NUM_THREADS",
                                                "OMP_NUM_THREADS")},
    }


def run_child(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One workload in a fresh process; a crash becomes a failed result."""
    scratch = OUT / f"run-{os.getpid()}-{workload}-{trace}"
    cmd = [
        sys.executable, str(HERE / "workloads.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", repr(seconds), "--trace", str(trace),
        "--scratch", str(scratch), "--t0", repr(time.time()),
    ]
    # Its own process group, so a load generator it started cannot
    # outlive it.
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stdout = ""
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass  # the group already ended
        proc.wait()
        # A child that died cannot have removed its own stores.
        shutil.rmtree(scratch, ignore_errors=True)
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"crashed": f"exit code {proc.returncode}"}
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return {"crashed": "no result line"}


def report(
    bench: dict, workload: str, seed: int, seconds: float, trace: int
) -> dict:
    """Run, print the human-readable report, return the contract line."""
    result = run_child(workload, seed, seconds, 0)
    if trace and "crashed" not in result:
        untraced, result = result, run_child(workload, seed, seconds, 1)
        if "crashed" not in result:
            result["layers"]["trace.overhead_ratio"] = (
                result["info"]["timed_s"] / untraced["info"]["timed_s"]
            )
            result["correct"] = result["correct"] and untraced["correct"]
            result["attempted"] += untraced["attempted"]
            result["failed"] += untraced["failed"]
    if "crashed" in result:
        print(f"[{workload}] FAILED: child {result['crashed']}")
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    if not trace and any(m["name"] not in result["e2e"]
                         for m in bench["end_to_end"]):
        # The run stopped before measuring (a failed operation ends it).
        result["correct"] = False
        result["e2e"] = {}

    item, op = E2E_MEANING[workload]
    print(f"[{workload}] seed={seed} item={item!r} latency op={op!r}")
    for name, (ok, detail) in result["checks"].items():
        print(f"  check {'ok  ' if ok else 'FAIL'} {name}"
              + ("" if ok else f": {detail}"))
    print(f"  info {json.dumps(result['info'], sort_keys=True)}")
    if trace:
        specs = [
            (m["name"], m["unit"], f"moves {MOVES[m['name']]}"
             + (" [exact]" if m["name"] in DETERMINISTIC_COUNTS else ""))
            for m in bench["per_layer"]
        ]
        values = result["layers"]
    else:
        specs = [(m["name"], m["unit"], f"{m['better']} is better")
                 for m in bench["end_to_end"]]
        values = result["e2e"]
    metrics = {}
    for name, unit, note in specs if values or trace else ():
        # A layer the workload never called reads 0; every end-to-end
        # metric is measured on every workload.
        value = float(values.get(name, 0.0) if trace else values[name])
        metrics[name] = {"value": value, "unit": unit}
        print(f"  {name:<44} {value:>14.6g} {unit:<10} {note}")
    return {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = tuple(w["name"] for w in bench["workloads"])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=(*workloads, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no repro sources under src/ in this checkout",
              file=sys.stderr)
        return 2
    print(f"provenance {json.dumps(provenance(), sort_keys=True)}")
    names = workloads if args.workload == "all" else (args.workload,)
    results = {
        w: report(bench, w, args.seed, args.seconds, args.trace) for w in names
    }
    if args.workload == "all":
        failed = [w for w, r in results.items() if not r["correct"]]
        print(f"suite: {len(names) - len(failed)}/{len(names)} workloads "
              f"correct" + (f"; failed: {', '.join(failed)}" if failed else ""))
        print(json.dumps(results))
        return 1 if failed else 0
    result = results[args.workload]
    print(json.dumps(result))
    return 0 if result["correct"] and result["metrics"] else 1


if __name__ == "__main__":
    sys.exit(main())
