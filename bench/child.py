"""One benchmark workload in its own process.

Started by ``run.py`` with the checkout's ``src`` on PYTHONPATH, an
address-space cap and single-threaded BLAS.  Two modes:

    child.py setup    --workload W --seed N
        import fracwave, parse the workload's configs, build its profiles;
        print the seconds that took as JSON.
    child.py workload --workload W --seed N --seconds S --trace 0|1
                      --probes P --out FILE
        the same set-up, then run the workload's ops as a closed loop for
        about S seconds and write every op's timing and values to FILE.
        Between passes it starts P ``setup`` processes, one at a time, so
        the set-up samples spread over the whole run.

The set-up time covers importing fracwave's modules, parsing the workload's
configs and building its profiles; the benchmark's own imports are not in it.

With ``--trace 1`` the loop alternates untraced and traced passes over the
ops, so the trace overhead is measured in the same process.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracer import LAYERS


def set_up(name: str, seed: int, workdir: Path):
    """(workload, its inputs, set-up seconds)."""
    begin = time.perf_counter()
    for layer in LAYERS:
        importlib.import_module(f"fracwave.{layer}")
    imported = time.perf_counter() - begin
    import fracwave
    expected = (Path.cwd() / "src" / "fracwave").resolve()
    if Path(fracwave.__file__).resolve().parent != expected:
        raise SystemExit(f"fracwave imported from {fracwave.__file__}, not {expected}")
    import workloads
    workload = workloads.WORKLOADS[name]
    begin = time.perf_counter()
    inputs = workload.setup(seed, workdir)
    return workload, inputs, imported + time.perf_counter() - begin


def run_op(op) -> dict:
    """Time one op, then verify it; any exception or problem is a failure."""
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        raw = op.run()
    except Exception as exc:        # includes MemoryError under the address cap
        wall = time.perf_counter() - wall0
        return {"op": op.name, "ok": False, "wall_s": wall,
                "cpu_s": time.process_time() - cpu0,
                "error": f"{type(exc).__name__}: {exc}"[:500]}
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    try:
        values, problems = op.verify(raw)
    except Exception as exc:
        values, problems = {}, [f"verification raised {type(exc).__name__}: {exc}"]
    record = {"op": op.name, "ok": not problems, "wall_s": wall, "cpu_s": cpu,
              "values": values}
    if problems:
        record["error"] = "; ".join(problems)[:500]
    return record


def loop(ops, seconds: float, tracer=None, probe=None, probes: int = 0):
    """Run passes over the ops until the next pass would end past ``seconds``.

    Returns the op records, one record per pass, and the set-up probes'
    seconds.  With a tracer, odd passes run traced, and there are at least
    two passes.  ``probes`` calls of ``probe`` run between passes, spread
    evenly over the measured time, which does not count them.
    """
    records, passes, setups = [], [], []
    spent = last = 0.0
    least = 1 if tracer is None else 2
    while len(passes) < least or spent + last <= seconds:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.install()
        begin = time.perf_counter()
        try:
            batch = [dict(run_op(op), cycle=len(passes), traced=traced) for op in ops]
        finally:
            if traced:
                tracer.uninstall()
        last = time.perf_counter() - begin
        spent += last
        entry = {"wall_s": last, "traced": traced}
        if traced:
            entry["bump_cache_entries"] = tracer.bump_cache_entries()
            tracer.bumps.clear()
        records.extend(batch)
        passes.append(entry)
        while len(setups) < probes and spent >= (len(setups) + 1) * seconds / (probes + 1):
            setups.append(probe())
    while len(setups) < probes:
        setups.append(probe())
    return records, passes, setups


def probe_setup(args) -> float:
    """The set-up seconds of a fresh ``child.py setup`` process."""
    proc = subprocess.run(
        [sys.executable, __file__, "setup", "--workload", args.workload,
         "--seed", str(args.seed), "--workdir", str(Path(args.workdir) / "probe")],
        capture_output=True, text=True, check=True, timeout=60)
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def machine(seed: int) -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "platform": platform.platform(), "seed": seed,
            "threads_env": {k: os.environ.get(k) for k in
                            ("FRACWAVE_THREADS", "OPENBLAS_NUM_THREADS",
                             "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "workload"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probes", type=int, default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)

    workload, inputs, setup_s = set_up(args.workload, args.seed, workdir)
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    ops = workload.ops(inputs, workdir)          # untimed reference values
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
    records, passes, setups = loop(ops, args.seconds, tracer,
                                   probe=lambda: probe_setup(args), probes=args.probes)
    result = {"workload": args.workload, "setup_samples": [setup_s, *setups],
              "ops": [op.name for op in ops], "records": records, "passes": passes,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "machine": machine(args.seed)}
    if tracer is not None:
        result["layers"] = {"stats": tracer.stats, "errors": tracer.errors,
                            "metrics": sorted(tracer.metrics)}
        tracer.write_spans(Path(args.out).with_suffix(".spans.jsonl"))
    Path(args.out).write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
