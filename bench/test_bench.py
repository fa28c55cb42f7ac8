"""Tests of the benchmark's own machinery (not of nlsphere).

    python3 -m pytest bench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import metrics
import run
from tracer import Tracer
import workloads
from workloads import (
    WORKLOADS,
    Op,
    execute,
    random_rhs,
    self_check,
    write_coeffs_file,
)

ROOT = Path(__file__).resolve().parents[1]


def _poisson_op(tmp_path, data):
    rhs = tmp_path / "rhs.csv"
    write_coeffs_file(rhs, data)
    out = tmp_path / "out"
    degree = data.shape[0] - 1
    argv = ["poisson", "--alpha", "0.0", "--delta", "1.5", "--degree", str(degree),
            "--rhs", str(rhs), "--output-dir", str(out)]
    return Op(tmp_path, [argv], [str(out)],
              check={"kind": "poisson", "solves": ((degree, "file"),), "rhs": {degree: data}})


def test_finite_rhs_poisson_op_passes(tmp_path):
    result = execute(_poisson_op(tmp_path, random_rhs(np.random.default_rng(3), 15)))
    assert not result.failed, result.problems
    assert 0 < result.ref_err < 1e-12


def test_nan_rhs_counts_as_failed_op_although_the_program_exits_0(tmp_path):
    """Negative control: `poisson --rhs` with a NaN coefficient exits 0 and
    writes NaN; the benchmark must count that op as failed."""
    data = random_rhs(np.random.default_rng(3), 15)
    data[2, 0] = np.nan
    result = execute(_poisson_op(tmp_path, data))
    assert result.failed
    assert any("non-finite" in p for p in result.problems), result.problems
    assert metrics.end_to_end([result])["failed_frac"][0] == 1.0


def test_tracer_rebinds_import_time_references():
    from nlsphere import models, sht, spectrum, timestep
    from nlsphere.spectrum import KernelParams

    original = spectrum.spectrum
    tracer = Tracer().install()
    try:
        for bound in (models._spectrum, timestep.synthesis, timestep.analysis,
                      spectrum.cc_weights, spectrum.legendre_rec,
                      sht.assoc_legendre_table, sht.gauss_legendre):
            assert hasattr(bound, "__wrapped__"), bound
        models.build_spectrum(15, KernelParams(0.0, 1.0))
        layers = tracer.summary()["layers"]
    finally:
        tracer.uninstall()
    assert models._spectrum is original and spectrum.spectrum is original
    assert layers["spectrum.spectrum"]["calls"] == 1
    assert layers["spectrum.eigenvalue"]["calls"] == 16
    assert layers["quadrature.cc_weights"]["calls"] == 15
    assert layers["models.build_spectrum"]["self_s"] >= 0.0


def test_self_check_flags_missing_layers_and_impossible_counts():
    workload = WORKLOADS["allen-cahn-127"]
    op = Op(Path("."), [["evolve"]], ["."])
    summary = {"layers": {"cli.main": {"calls": 1}, "cli.run": {"calls": 1},
                          "spectrum.spectrum": {"calls": 1},
                          "timestep.etdrk4_step": {"calls": 49}},
               "edges": {}, "root_s": 1.0}
    problems = self_check(workload, op, [(127, summary)])
    assert "sht.synthesis recorded no calls" in problems
    assert any(p.startswith("timestep.etdrk4_step.calls = 49") for p in problems)


def test_execute_scales_times_by_the_calibrations_around_each_command(tmp_path, monkeypatch):
    samples = iter([1.0, 3.0])  # the host is twice as slow as the reference on average
    monkeypatch.setattr(workloads, "calibrate", lambda: next(samples) * workloads.CAL_REF_S)
    result = execute(_poisson_op(tmp_path, random_rhs(np.random.default_rng(4), 7)))
    assert not result.failed, result.problems
    assert result.cal_s == [workloads.CAL_REF_S, 3 * workloads.CAL_REF_S]
    assert result.solve_s == pytest.approx(result.raw_solve_s / 2)
    assert metrics.end_to_end([result])["cal_s"][0] == pytest.approx(2 * workloads.CAL_REF_S)


def test_tail_uses_highest_percentile_with_ten_beyond():
    value, pct, beyond = metrics.tail([float(i) for i in range(1, 201)])
    assert (pct, beyond, value) == (95.0, 10, 190.0)


def test_thread_pin_refuses_after_numpy_import():
    assert "numpy" in sys.modules
    with pytest.raises(SystemExit):
        run.pin_threads()


def test_exits_nonzero_without_program_sources(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "baseline"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "poisson-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())


def test_benchmark_json_declares_the_contract_keys():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(declared) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert {w["name"] for w in declared["workloads"]} <= set(WORKLOADS)
    assert "setup_s" in metrics.E2E
