"""Run one fracwave benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it benchmarks the sources in ``src/``.
Each workload runs in a fresh child process (``child.py``) with a 2 GiB
address-space cap and single-threaded BLAS, so ``FRACWAVE_THREADS`` alone
sets parallelism; an exception, ``MemoryError`` included, is a failed op.

In an untraced run the workload process also starts ``SETUP_PROBES`` fresh
processes, one at a time between its passes, so they spread over the run;
each measures the set-up alone (importing fracwave, parsing the workload's
configs, building its profiles).  ``setup_s`` is the median over them and
the workload process's own set-up.

The metrics printed are the ones ``BENCHMARK.json`` names.
``--trace 0`` prints the end-to-end metrics: ``wall_s`` and ``cpu_s`` are the
sums over the workload's ops of each op's median time per successful
execution, i.e. the time of one verified pass; ``peak_rss_mb`` is the
workload process's peak resident memory.  ``--trace 1`` prints the per-layer
metrics of a run whose odd passes are traced, as counts and seconds per
traced pass.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Everything the run writes lands in ``.bench_out/`` of the checkout:
``<workload>-seed<N>-trace<T>.json`` holds the machine, every op's timing
next to the values it computed, and the metrics; traced runs add the spans in
``.spans.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from tracer import LAYERS

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = 11
ADDRESS_CAP = 2 << 30
DEADLINE_S = 170.0

# FRACWAVE_THREADS per workload; every other thread pool is pinned to 1.
THREADS = {"growth-sweep": 1, "solve-fields": 2, "oracles": 1, "bump-data": 1}

# Counters a traced span metric carries; a per-layer metric named
# ``<span metric>.<counter>`` in BENCHMARK.json reads one per traced pass.
COUNTERS = ("calls", "self_s", "panels", "nodes", "evals", "divergences",
            "points", "bytes")


def child_env(workload: str) -> dict:
    env = dict(os.environ)
    env.update(PYTHONPATH=str(ROOT / "src"), FRACWAVE_THREADS=str(THREADS[workload]),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0")
    return env


def cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_CAP, ADDRESS_CAP))


def run_child(args: list[str], workload: str, deadline: float):
    """Run child.py to completion in its own process group; past the
    deadline the whole group, set-up probes included, is killed and waited
    for."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise TimeoutError("benchmark deadline passed before the child started")
    with subprocess.Popen([sys.executable, str(BENCH / "child.py"), *args], cwd=ROOT,
                          env=child_env(workload), preexec_fn=cap_address_space,
                          start_new_session=True, stdout=sys.stderr) as proc:
        try:
            status = proc.wait(timeout=remaining)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
    if status != 0:
        raise subprocess.CalledProcessError(status, proc.args)


def tally(records: list[dict]) -> tuple[int, int]:
    """(attempted, failed) op executions."""
    return len(records), sum(not r["ok"] for r in records)


def end_to_end(result: dict, named: list[dict]) -> dict:
    by_op = defaultdict(lambda: ([], []))
    for rec in result["records"]:
        if rec["ok"]:
            by_op[rec["op"]][0].append(rec["wall_s"])
            by_op[rec["op"]][1].append(rec["cpu_s"])
    wall = sum(statistics.median(w) for w, _ in by_op.values()) if by_op else None
    cpu = sum(statistics.median(c) for _, c in by_op.values()) if by_op else None
    values = {"setup_s": statistics.median(result["setup_samples"]), "wall_s": wall,
              "cpu_s": cpu, "peak_rss_mb": result["peak_rss_mb"]}
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in named}


def per_layer(result: dict, named: list[dict]) -> dict:
    """The per-layer metrics ``named`` in BENCHMARK.json, per traced pass.

    A name ``<span metric>.<counter>`` reads that counter of the tracer's
    span metric.  The rest are derived here: ``<layer>.wall_share`` is the
    layer's self time over the traced ops' wall time (on a workload with
    worker threads the shares can add up past 1); ``parallel_eff`` is
    busy/(threads * wall) of ``map_times``, where busy time includes waiting
    for the interpreter lock.
    """
    stats = result["layers"]["stats"]
    errors = result["layers"]["errors"]
    traced = [p for p in result["passes"] if p["traced"]]
    untraced = [p for p in result["passes"] if not p["traced"]]
    n = len(traced)

    def stat(metric, key):
        return stats.get(metric, {}).get(key, 0.0)

    samples = stat("spectral.QuadratureBackend.evolve", "calls")
    map_wall = stat("experiments.map_times", "total_s")
    busy = stat("experiments.map_times.task", "total_s")
    threads = int(result["machine"]["threads_env"]["FRACWAVE_THREADS"])
    attempted, failed = tally(result["records"])
    derived = {
        "spectral.integrals_per_sample":
            stat("quadrature.oscillatory_integral", "calls") / samples if samples else 0.0,
        "experiments.map_times.wall_s": map_wall / n,
        "experiments.map_times.busy_s": busy / n,
        "experiments.map_times.parallel_eff":
            busy / (threads * map_wall) if map_wall else 0.0,
        "profiles.bump_cache.entries":
            float(statistics.mean(p["bump_cache_entries"] for p in traced)),
        "trace.overhead_frac":
            statistics.median(p["wall_s"] for p in traced)
            / statistics.median(p["wall_s"] for p in untraced) - 1.0,
        "failed_frac": failed / attempted,
    }
    op_wall = sum(r["wall_s"] for r in result["records"] if r["traced"])
    for layer in LAYERS:
        own = sum(s.get("self_s", 0.0) for m, s in stats.items()
                  if m.split(".", 1)[0] == layer)
        derived[f"{layer}.wall_share"] = own / op_wall
        derived[f"{layer}.errors"] = errors.get(layer, 0.0) / n

    out = {}
    for m in named:
        name = m["name"]
        if name in derived:
            value = derived[name]
        else:
            metric, key = name.rsplit(".", 1)
            if metric not in result["layers"]["metrics"] or key not in COUNTERS:
                raise ValueError(f"BENCHMARK.json names {name}, which the trace "
                                 "does not measure")
            value = stat(metric, key) / n
        out[name] = {"value": value, "unit": m["unit"]}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(THREADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fracwave" / "__init__.py").is_file():
        print(f"no fracwave sources under {ROOT / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{stem}-{os.getpid()}"
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--workdir", str(workdir)]
    probes = 0 if args.trace else SETUP_PROBES      # a traced run has no setup_s
    try:
        result_path = OUT / f"{stem}.json"
        run_child(["workload", *common, "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--probes", str(probes),
                   "--out", str(result_path)], args.workload, deadline)
        result = json.loads(result_path.read_text())
        metrics = (per_layer(result, spec["per_layer"]) if args.trace
                   else end_to_end(result, spec["end_to_end"]))
    except (subprocess.SubprocessError, TimeoutError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark run failed: {exc!r}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = tally(result["records"])
    result.update(metrics=metrics)
    result_path.write_text(json.dumps(result, indent=1))

    for rec in result["records"]:
        if not rec["ok"]:
            print(f"FAILED {rec['op']}: {rec['error']}", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"{name:48s} {metric['value']!s:>24} {metric['unit']}")
    if not args.trace:
        print(f"{'failed_frac':48s} {failed / attempted!s:>24} frac")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
