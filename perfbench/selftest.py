"""Self-test of the benchmark harness on the 64-dimensional configs/minimal.yaml model.

Runs in a few seconds, either directly or under pytest::

    python3 perfbench/selftest.py
    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spec  # noqa: E402
import worker  # noqa: E402
from workloads import SELFTEST, WORKLOADS, reference  # noqa: E402


def _run(args, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", SELFTEST.name, *args]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=120)


def _summary(args) -> dict:
    proc = _run(args)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _assert_metrics(summary: dict, expected: dict) -> None:
    assert summary["correct"] is True and summary["failed"] == 0 and summary["attempted"] >= 1
    assert set(summary["metrics"]) == set(expected)
    for name, metric in summary["metrics"].items():
        assert set(metric) == {"value", "unit"}
        assert metric["unit"] == expected[name][0], name
        assert isinstance(metric["value"], (int, float)), name


def test_end_to_end_metrics_are_emitted_with_units():
    _assert_metrics(_summary(["--seed", "1", "--seconds", "2", "--trace", "0"]), spec.END_TO_END)


def test_per_layer_metrics_are_emitted_with_units():
    summary = _summary(["--seed", "1", "--seconds", "2", "--trace", "1"])
    _assert_metrics(summary, spec.PER_LAYER)
    metrics = {name: m["value"] for name, m in summary["metrics"].items()}
    assert metrics["fock.dim"] == SELFTEST.dim == 64
    assert metrics["solver.dense_solves"] == 1


def test_wrong_reference_energy_raises_error_rate():
    worker.import_program()
    wrong = {"eigenvalues": [e + 1e-6 for e in reference(SELFTEST.name)["eigenvalues"]]}
    sample = worker.execute(SELFTEST, 7, False, wrong)
    sample["env"] = {}
    summary = run.summarize([sample], trace=False)
    assert summary["correct"] is False
    assert summary["failed"] == 1 and summary["attempted"] == 2


def test_removed_name_is_reported_absent_and_wrappers_are_undone():
    worker.import_program()
    import spans
    from yukawa_ed import hamiltonian

    saved = spans.LAYERS["hamiltonian.hermiticity"]
    spans.LAYERS["hamiltonian.hermiticity"] = [("hamiltonian", "no_such_function", None)]
    try:
        sample = worker.execute(SELFTEST, 7, True, reference(SELFTEST.name))
    finally:
        spans.LAYERS["hamiltonian.hermiticity"] = saved
    assert sample["absent"] == ["yukawa_ed.hamiltonian.no_such_function"]
    assert "hamiltonian.hermiticity_s" not in sample["layers"]
    assert "hamiltonian.assemble_s" in sample["layers"]
    assert all(ok for _, ok, _ in sample["checks"])
    assert not hasattr(hamiltonian.assemble_interaction, "__wrapped__")
    assert not hasattr(hamiltonian.Model.hamiltonian, "__wrapped__")


def test_selftest_workload_is_the_minimal_config():
    worker.import_program()
    from yukawa_ed.cli import load_config
    from yukawa_ed.hamiltonian import build_model

    config_h = build_model(load_config(str(ROOT / "configs" / "minimal.yaml")).params).hamiltonian()
    bench_h = build_model(SELFTEST.params()).hamiltonian()
    assert config_h.shape == bench_h.shape == (64, 64)
    assert abs(config_h - bench_h).max() == 0.0


def test_benchmark_json_matches_spec():
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        assert json.load(fh) == spec.benchmark_json()
    assert list(spec.WORKLOAD_WHY) == list(WORKLOADS)


def test_fails_without_the_program():
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    shutil.copy(HERE / "references.json", bare / "perfbench")
    try:
        proc = _run(["--seed", "1", "--seconds", "2"], cwd=bare)
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare)


if __name__ == "__main__":
    tests = [fn for name, fn in sorted(globals().items()) if name.startswith("test_")]
    for fn in tests:
        fn()
        print(f"ok {fn.__name__}")
    print(f"{len(tests)} self-tests passed")
