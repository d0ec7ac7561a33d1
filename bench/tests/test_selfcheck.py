"""Self-check of the benchmark: every metric named in BENCHMARK.json is
emitted with its unit, and a perturbed output trips the correctness check
and counts as a failed op.

    python3 -m pytest bench/tests -q          # from the repository root
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
BENCH = REPO / "bench"
sys.path[:0] = [str(BENCH), str(REPO / "src")]

import child      # noqa: E402
import run        # noqa: E402
import tracer     # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((REPO / "BENCHMARK.json").read_text())


def last_json_line(trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "oracles", "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=REPO, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_named_metric_is_emitted(trace, section):
    out = last_json_line(trace)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    named = {m["name"]: m["unit"] for m in SPEC[section]}
    emitted = {name: m["unit"] for name, m in out["metrics"].items()}
    assert emitted == named
    assert all(isinstance(m["value"], (int, float)) for m in out["metrics"].values())


def test_workloads_are_known():
    names = [w["name"] for w in SPEC["workloads"]]
    assert set(names) <= set(run.THREADS) == set(workloads.WORKLOADS)


def perturbed(op, damage):
    def run_then_damage():
        return damage(op.run())
    return workloads.Op(op.name, run_then_damage, op.verify)


def scale_csv_value(path: Path, column: str, row: int, factor: float):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    cells = lines[row + 1].split(",")
    i = header.index(column)
    cells[i] = repr(float(cells[i]) * factor)
    lines[row + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def test_perturbed_sweep_output_counts_as_failure(tmp_path):
    spec = workloads.WORKLOADS["growth-sweep"]
    op = spec.ops(spec.setup(3, tmp_path), tmp_path)[0]      # s = 0.6
    out = tmp_path / op.name

    def damage(result):
        scale_csv_value(out / "norms.csv", "u_hat_l2", 5, 1.0 + 1e-5)
        return result

    records = [child.run_op(op), child.run_op(perturbed(op, damage))]
    assert records[0]["ok"], records[0].get("error")
    assert not records[1]["ok"]
    assert "two-term expansion" in records[1]["error"]
    assert run.tally(records) == (2, 1)


def test_perturbed_oracle_value_counts_as_failure(tmp_path):
    spec = workloads.WORKLOADS["oracles"]
    ops = {op.name: op for op in spec.ops(spec.setup(3, tmp_path), tmp_path)}
    op = ops["riesz-gaussian-0.4"]
    assert child.run_op(op)["ok"]
    record = child.run_op(perturbed(op, lambda value: value * (1.0 + 1e-6)))
    assert not record["ok"]
    assert run.tally([record]) == (1, 1)


def test_an_exception_counts_once_in_the_layer_that_raised_it():
    t = tracer.Tracer()

    def fail():
        raise ValueError("inner")

    def outer():
        return t.call("quadrature.inner", fail, (), {})

    for _ in range(2):                  # a new exception counts again
        with pytest.raises(ValueError):
            t.call("spectral.outer", outer, (), {})
    assert dict(t.errors) == {"quadrature": 2.0}


def test_a_named_metric_the_trace_lacks_is_refused():
    result = {"layers": {"stats": {}, "errors": {}, "metrics": ["grid.fft"]},
              "passes": [{"traced": True, "wall_s": 1.0, "bump_cache_entries": 0},
                         {"traced": False, "wall_s": 1.0}],
              "records": [{"op": "x", "ok": True, "traced": True, "wall_s": 1.0}],
              "machine": {"threads_env": {"FRACWAVE_THREADS": "1"}}}
    assert run.per_layer(result, [{"name": "grid.fft.calls", "unit": "count"}])
    with pytest.raises(ValueError):
        run.per_layer(result, [{"name": "grid.fft.misspelt", "unit": "count"}])
