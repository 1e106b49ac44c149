"""kitaevsim benchmark: one workload, run in fresh processes, checked.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a kitaevsim checkout (the directory holding
``src/kitaevsim``).  The run repeats whole rounds of the workload's fixed
operation list, each round in a fresh process, until S seconds have passed
(at least one round).  It prints one JSON object as its last line:

* ``--trace 0``: the end-to-end metrics ``setup_s`` (median of five fresh
  set-ups), ``wall_s`` and ``peak_rss_mb`` (medians over rounds);
* ``--trace 1``: the per-layer metrics of a traced round, plus
  ``trace.overhead_s``, the traced round's wall time minus that of an
  untraced round run just before it.

``correct`` is false if any output check failed; ``attempted`` and
``failed`` count operations.  Work files go to ``.perfbench_out/`` in the
checkout and are removed when their checks pass.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 5
ROUND_TIMEOUT_S = 170.0
# load stays within one process: BLAS threads and the sweep's --jobs are
# fixed at 2, the core count of the reference machine
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "2", "MKL_NUM_THREADS": "2"}


class RoundFailed(RuntimeError):
    pass


def child_env(root: Path) -> dict:
    env = dict(os.environ, **THREAD_ENV, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH", "")) if p)
    return env


def spawn(root: Path, workdir: Path, args, *flags: str) -> dict:
    """Run one worker process; returns its result with ``setup_s`` added."""
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--workdir", str(workdir), *flags]
    with open(workdir / "log.txt", "w") as log:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=root, env=child_env(root), stdout=log, stderr=log)
        try:
            code = proc.wait(timeout=ROUND_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise RoundFailed(f"worker exceeded {ROUND_TIMEOUT_S:.0f} s; see {workdir / 'log.txt'}")
    if code != 0:
        raise RoundFailed(f"worker exited {code}; see {workdir / 'log.txt'}")
    result = json.loads((workdir / "result.json").read_text())
    result["setup_s"] = result["ready"] - spawned
    return result


def tally(result: dict, workdir: Path, totals: dict) -> None:
    """Add a round's operation counts; keep its output files only if an
    operation failed or a check found a problem."""
    ops = result["ops"]
    totals["attempted"] += len(ops)
    totals["failed"] += sum(op["failed"] for op in ops)
    bad = [op for op in ops if op["problems"] or op["failed"]]
    for op in bad:
        print(f"{op['op']}: {'FAILED ' + op['error'] if op['failed'] else '; '.join(op['problems'])}",
              file=sys.stderr)
    if any(op["problems"] for op in bad):
        totals["correct"] = False
    if not bad:
        for path in workdir.iterdir():
            if path.is_dir():
                shutil.rmtree(path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="kitaevsim benchmark runner")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "kitaevsim" / "__init__.py").is_file():
        print(f"no kitaevsim sources under {root / 'src'}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    base = root / ".perfbench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(base, ignore_errors=True)
    totals = {"attempted": 0, "failed": 0, "correct": True}

    try:
        setups, walls, rss, layers, overheads = [], [], [], [], []
        if not args.trace:
            for k in range(SETUP_SAMPLES - 1):
                setups.append(spawn(root, base / f"setup{k}", args, "--setup-only")["setup_s"])
        start = time.monotonic()
        k = 0
        while k == 0 or time.monotonic() - start < args.seconds:
            plain = spawn(root, base / f"round{k}", args)
            tally(plain, base / f"round{k}", totals)
            setups.append(plain["setup_s"])
            walls.append(plain["wall_s"])
            rss.append(plain["peak_rss_mb"])
            if args.trace:
                traced = spawn(root, base / f"traced{k}", args, "--trace")
                tally(traced, base / f"traced{k}", totals)
                layers.append(traced["layers"])
                overheads.append(traced["wall_s"] - plain["wall_s"])
            k += 1
    except RoundFailed as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        metrics = {name: {"value": statistics.median(run[name] for run in layers),
                          "unit": unit_of(name)}
                   for name in layers[0]}
        metrics["trace.overhead_s"] = {"value": statistics.median(overheads), "unit": "s"}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"},
        }
    print(json.dumps({"correct": totals["correct"], "attempted": totals["attempted"],
                      "failed": totals["failed"], "metrics": metrics}))
    return 0


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes") or name.endswith("bytes_written"):
        return "B"
    if name.endswith("_ratio") or name.endswith("_share"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    raise SystemExit(main())
