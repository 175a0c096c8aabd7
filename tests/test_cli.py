import json
import math
import os
import warnings
from dataclasses import fields

import pytest
import yaml

from yukawa_ed.cli import EXIT_CAPACITY, EXIT_CONFIG, EXIT_OK, load_config, main
from yukawa_ed.errors import ConfigError
from yukawa_ed.hamiltonian import ModelParams


def base_config(**model_overrides):
    model = {
        "dirac_mass": 1.0,
        "boson_mass": 0.5,
        "coupling": 0.4,
        "truncation": {"n_max": 3, "total": 3},
    }
    model.update(model_overrides)
    return {"model": model}


def write_config(tmp_path, data, name="run.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(data))
    return str(path)


class TestConfigLoading:
    def test_defaults_resolved(self, tmp_path):
        config = load_config(write_config(tmp_path, base_config()))
        assert config.params.free_gap == 0.5
        assert config.solver.k == 2
        assert config.params.chi_dirac.kind == "gaussian"
        assert config.record_timings is False

    def test_missing_mass_names_field(self, tmp_path):
        data = base_config()
        del data["model"]["boson_mass"]
        with pytest.raises(ConfigError, match="boson_mass"):
            load_config(write_config(tmp_path, data))

    def test_unknown_key_rejected(self, tmp_path):
        data = base_config()
        data["model"]["couplng"] = 1.0
        with pytest.raises(ConfigError, match="couplng"):
            load_config(write_config(tmp_path, data))

    def test_non_increasing_refinement_rejected(self, tmp_path):
        data = base_config()
        data["scan"] = {"values": [3, 2]}
        with pytest.raises(ConfigError, match="strictly increasing"):
            load_config(write_config(tmp_path, data))

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            load_config("/nonexistent/path.yaml")

    def test_absent_cutoffs_resolve_to_model_params_defaults(self, tmp_path):
        defaults = {f.name: f.default for f in fields(ModelParams)}
        config = load_config(write_config(tmp_path, base_config()))
        for key in ("chi_dirac", "chi_kg", "chi_spatial"):
            assert getattr(config.params, key) == defaults[key]
        partial = base_config(cutoffs={"dirac": {"scale": 2.0}, "kg": None})
        config = load_config(write_config(tmp_path, partial, name="partial.yaml"))
        assert config.params.chi_dirac.kind == defaults["chi_dirac"].kind
        assert config.params.chi_dirac.scale == 2.0
        assert config.params.chi_kg == defaults["chi_kg"]


# malformed values and sections that are not mappings, by the section each error names
MALFORMED = [
    ("solver", {"k": "abc"}),
    ("solver", 5),
    ("solver", {"k": 1.7}),
    ("scan", {"values": 3}),
    ("scan", {"kappa_grid": 0.5}),
    ("scan", {"values": [1, "x"]}),
    ("verify", {"samples": "many"}),
    ("model.lattice", 7),
    ("model.lattice", {"fermion_points": [[0, 0, 0.5]]}),
    ("output", {"record_timings": "false"}),
    ("output", {"path": [1]}),
    # float keys take finite real numbers only
    ("model.dirac_mass", True),
    ("model.dirac_mass", math.nan),
    ("model.dirac_mass", 10**400),
    ("model.coupling", math.nan),
    ("model.coupling", math.inf),
    ("model.cutoffs", {"kg": {"scale": math.nan}}),
    ("model.lattice", {"fermion_L": math.nan}),
    ("model.lattice", {"fermion_V": math.inf}),
    ("limits", {"chi_hat_floor": math.nan}),
    ("solver", {"tol": True}),
    ("scan", {"values": [True, 2]}),
    # numpy's generators take no negative seed, and the field checks need a point
    ("solver", {"seed": -1}),
    ("verify", {"field_points": 0}),
    # the iterative solver needs a nonnegative tolerance and at least one step
    ("solver", {"tol": -1.0}),
    ("solver", {"max_iter": 0}),
    # the dense route's cap stays within the oracle's memory guard
    ("solver", {"dense_cap": 5000}),
    ("solver", {"dense_cap": 10**9}),
    ("solver", {"dense_cap": -3}),
]


class TestMalformedConfig:
    @pytest.mark.parametrize("section, value", MALFORMED, ids=[f"{s}={v!r}"[:60] for s, v in MALFORMED])
    def test_exits_2_with_one_error_line_naming_the_section(self, tmp_path, capsys, section, value):
        data = base_config()
        (data["model"] if section.startswith("model.") else data)[section.split(".")[-1]] = value
        cfg = write_config(tmp_path, data)
        assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "out.json")]) == EXIT_CONFIG
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and section in lines[0]

    @pytest.mark.parametrize("key", ["dirac_mass", "boson_mass"])
    def test_a_mass_whose_energies_overflow_exits_2(self, tmp_path, capsys, key):
        cfg = write_config(tmp_path, base_config(**{key: 1e200}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "out.json")]) == EXIT_CONFIG
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: non-finite")

    @pytest.mark.parametrize("points", [[[0, 0]], [[0, 0, 0, 0, 0, 1]]])
    def test_points_that_are_not_triples_exit_2(self, tmp_path, capsys, points):
        cfg = write_config(tmp_path, base_config(lattice={"fermion_points": points}))
        assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "out.json")]) == EXIT_CONFIG
        assert "integer triples" in capsys.readouterr().err

    def test_integral_values_are_read_as_int(self, tmp_path):
        data = base_config()
        data["solver"] = {"k": 3.0}
        data["limits"] = {"basis_cap": "1e7"}
        config = load_config(write_config(tmp_path, data))
        assert config.solver.k == 3 and type(config.solver.k) is int
        assert config.params.basis_cap == 10**7 and type(config.params.basis_cap) is int

    def test_a_config_that_is_not_a_mapping_is_rejected(self, tmp_path):
        path = tmp_path / "list.yaml"
        path.write_text("- 1\n- 2\n")
        with pytest.raises(ConfigError, match="config must be a mapping"):
            load_config(str(path))


class TestSpectrumCommand:
    def test_free_spectrum_output(self, tmp_path):
        data = base_config(coupling=0.0)
        cfg = write_config(tmp_path, data)
        out = str(tmp_path / "spec.json")
        assert main(["spectrum", "--config", cfg, "--out", out]) == EXIT_OK
        payload = json.loads(open(out).read())
        assert payload["schema_version"] == 1
        assert payload["ground_energy"] == 0.0
        assert payload["gap"] == pytest.approx(0.5, abs=1e-12)
        assert payload["dimension"] == 64
        assert payload["config"]["model"]["boson_mass"] == 0.5
        assert payload["timings"] is None

    def test_missing_mass_exits_2(self, tmp_path, capsys):
        data = base_config()
        del data["model"]["dirac_mass"]
        cfg = write_config(tmp_path, data)
        assert main(["spectrum", "--config", cfg]) == EXIT_CONFIG
        assert "dirac_mass" in capsys.readouterr().err

    def test_capacity_exit_3(self, tmp_path, capsys):
        data = base_config()
        data["limits"] = {"basis_cap": 10}
        cfg = write_config(tmp_path, data)
        out = str(tmp_path / "never.json")
        assert main(["spectrum", "--config", cfg, "--out", out]) == EXIT_CAPACITY
        err = capsys.readouterr().err
        assert "64" in err  # projected dimension reported
        assert not os.path.exists(out)

    def test_default_lattice_past_the_cap_exits_3(self, tmp_path, capsys):
        data = base_config()
        data["model"]["lattice"] = {"fermion_L": 5.0}  # 1 331 points
        cfg = write_config(tmp_path, data)
        out = str(tmp_path / "never.json")
        assert main(["spectrum", "--config", cfg, "--out", out]) == EXIT_CAPACITY
        err = capsys.readouterr().err
        # 2^5324 * 394 765 284 states: stated in short form, not in 1 612 digits
        assert err.startswith("error: projected Fock dimension ~1.9e+1611 exceeds cap")
        assert len(err.encode()) < 300
        assert not os.path.exists(out)

    def test_lattice_past_the_cap_exits_3_before_it_allocates(self, tmp_path, capsys):
        data = base_config()
        data["model"]["lattice"] = {"fermion_V": 1e15}  # ~4.0e42 points
        cfg = write_config(tmp_path, data)
        assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "never.json")]) == EXIT_CAPACITY
        err = capsys.readouterr().err
        assert err == "error: lattice would contain ~4.0e+42 points (cap 250000)\n"

    def test_byte_for_byte_determinism(self, tmp_path):
        cfg = write_config(tmp_path, base_config(coupling=0.8))
        out_a = str(tmp_path / "a.json")
        out_b = str(tmp_path / "b.json")
        assert main(["spectrum", "--config", cfg, "--out", out_a, "--seed", "7"]) == EXIT_OK
        assert main(["spectrum", "--config", cfg, "--out", out_b, "--seed", "7"]) == EXIT_OK
        bytes_a = open(out_a, "rb").read()
        bytes_b = open(out_b, "rb").read()
        assert bytes_a.replace(b'"a.json"', b"") == bytes_b.replace(b'"b.json"', b"")

    def test_output_dir_env_override(self, tmp_path, monkeypatch):
        outdir = tmp_path / "results"
        monkeypatch.setenv("YUKAWA_ED_OUTPUT_DIR", str(outdir))
        cfg = write_config(tmp_path, base_config(coupling=0.0))
        assert main(["spectrum", "--config", cfg, "--out", "nested/x.json"]) == EXIT_OK
        assert (outdir / "nested" / "x.json").exists()


class TestScanKappaCommand:
    def test_csv_rows_and_sidecar(self, tmp_path):
        data = base_config(coupling=0.0)
        data["scan"] = {"kappa_grid": [0.0, 0.25, 0.5]}
        cfg = write_config(tmp_path, data)
        out = str(tmp_path / "scan.csv")
        assert main(["scan-kappa", "--config", cfg, "--out", out]) == EXIT_OK
        lines = open(out).read().strip().splitlines()
        assert lines[0] == "kappa,E0,gap,residual"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[2]) == pytest.approx(0.5, abs=1e-12)
        sidecar = json.loads(open(out + ".meta.json").read())
        assert sidecar["all_gaps_positive"] is True
        assert sidecar["rows"] == 3

    def test_eleven_point_grid_monotone_order(self, tmp_path):
        data = base_config(coupling=0.0)
        data["scan"] = {"kappa_grid": [round(0.1 * i, 1) for i in range(11)]}
        cfg = write_config(tmp_path, data)
        out = str(tmp_path / "grid.csv")
        assert main(["scan-kappa", "--config", cfg, "--out", out]) == EXIT_OK
        lines = open(out).read().strip().splitlines()
        assert len(lines) == 12
        kappas = [float(line.split(",")[0]) for line in lines[1:]]
        assert kappas == sorted(kappas)
        assert kappas[0] == 0.0 and kappas[-1] == 1.0

    def test_single_zero_grid(self, tmp_path):
        data = base_config(coupling=0.0)
        data["scan"] = {"kappa_grid": [0.0]}
        cfg = write_config(tmp_path, data)
        out = str(tmp_path / "one.csv")
        assert main(["scan-kappa", "--config", cfg, "--out", out]) == EXIT_OK
        lines = open(out).read().strip().splitlines()
        assert len(lines) == 2
        assert float(lines[1].split(",")[2]) == pytest.approx(0.5, abs=1e-12)

    def test_empty_grid_rejected(self, tmp_path):
        data = base_config()
        data["scan"] = {"kappa_grid": []}
        cfg = write_config(tmp_path, data)
        assert main(["scan-kappa", "--config", cfg]) == EXIT_CONFIG


class TestConvergeCommand:
    def test_truncation_scan(self, tmp_path):
        data = base_config(coupling=0.5)
        data["model"]["lattice"] = {"fermion_V": math.pi, "fermion_L": 0.9}
        data["model"]["truncation"] = {"n_max": 1}
        data["scan"] = {"axis": "n_max", "values": [1, 2, 3]}
        cfg = write_config(tmp_path, data)
        out = str(tmp_path / "conv.json")
        assert main(["converge", "--config", cfg, "--out", out]) == EXIT_OK
        payload = json.loads(open(out).read())
        report = payload["report"]
        assert len(report["rows"]) == 3
        assert report["e0_monotone_nonincreasing"] is True
        assert len(report["abs_delta_e0"]) == 2

    def test_malformed_axis_exits_2(self, tmp_path):
        data = base_config()
        data["scan"] = {"axis": "warp_factor", "values": [1, 2]}
        cfg = write_config(tmp_path, data)
        assert main(["converge", "--config", cfg]) == EXIT_CONFIG


# payload keys of each command with the default (timings off) output
PAYLOAD_KEYS = {
    "spectrum": {
        "schema_version", "command", "config", "dimension", "eigenvalues", "ground_energy",
        "gap", "ground_multiplicity", "residual", "method", "free_gap", "timings",
    },
    "scan-kappa": {"schema_version", "command", "config", "rows", "all_gaps_positive", "timings"},
    "converge": {"schema_version", "command", "config", "report", "timings"},
    "verify": {"schema_version", "command", "config", "report", "timings"},
}


def run_payload(tmp_path, command, data, name):
    cfg = write_config(tmp_path, data, name=name + ".yaml")
    out = str(tmp_path / name)
    assert main([command, "--config", cfg, "--out", out]) == EXIT_OK
    meta = out + ".meta.json" if command == "scan-kappa" else out
    return json.loads(open(meta).read())


class TestSolverStats:
    @staticmethod
    def lanczos_config(record_timings):
        # the 64-state model splits into 34 blocks of at most 4 states; a dense
        # cap of 1 sends the block holding the two lowest levels to Lanczos
        data = base_config(coupling=0.5)
        data["solver"] = {"dense_cap": 1}
        data["scan"] = {"kappa_grid": [0.0, 0.5], "axis": "n_max", "values": [2, 3]}
        data["output"] = {"record_timings": record_timings}
        return data

    @pytest.mark.parametrize("command", sorted(PAYLOAD_KEYS))
    def test_timings_off_payload_has_no_stats(self, tmp_path, command):
        payload = run_payload(tmp_path, command, self.lanczos_config(False), "off")
        assert set(payload) == PAYLOAD_KEYS[command]
        assert payload["timings"] is None

    def test_spectrum_reports_route_and_work(self, tmp_path):
        payload = run_payload(tmp_path, "spectrum", self.lanczos_config(True), "spec.json")
        timings = payload["timings"]
        assert set(payload) == PAYLOAD_KEYS["spectrum"]
        assert timings["method"] == payload["method"] == "blocks"
        assert timings["matvecs"] == timings["iterations"] > 0
        assert 0 < timings["reorthogonalizations"] < timings["iterations"]
        assert timings["blocks"] == 34 and 0 < timings["blocks_solved"] < 34

    @pytest.mark.parametrize("command", ["scan-kappa", "converge"])
    def test_scans_report_one_entry_per_row(self, tmp_path, command):
        # the kappa = 0 row of scan-kappa is the diagonal free Hamiltonian: every
        # state is its own block, solved densely with no Lanczos work
        lanczos = {"scan-kappa": [False, True], "converge": [True, True]}[command]
        payload = run_payload(tmp_path, command, self.lanczos_config(True), "scan")
        timings = payload["timings"]
        assert timings["wall_seconds"] > 0
        assert timings["method"] == ["blocks", "blocks"]
        assert [m > 0 for m in timings["matvecs"]] == lanczos
        assert timings["iterations"] == timings["matvecs"]
        assert [0 < r < m for r, m in zip(timings["reorthogonalizations"], timings["matvecs"])] == lanczos
        assert all(0 < s < b for s, b in zip(timings["blocks_solved"], timings["blocks"]))
        if command == "converge":
            assert [row["method"] for row in payload["report"]["rows"]] == timings["method"]

    def test_dense_route_does_no_lanczos_work(self, tmp_path):
        data = base_config(coupling=0.5)
        data["output"] = {"record_timings": True}
        timings = run_payload(tmp_path, "spectrum", data, "dense.json")["timings"]
        work = ("method", "iterations", "matvecs", "reorthogonalizations")
        assert tuple(timings[key] for key in work) == ("dense", 0, 0, 0)


class TestThreadLimit:
    def test_pools_hold_threads_during_a_run_and_their_old_size_after(self, tmp_path, capsys, monkeypatch):
        from yukawa_ed import cli

        before = cli._blas_thread_counts()
        if not before:
            pytest.skip("no OpenBLAS loaded")  # test_pools_are_read_from_the_loaded_blas covers that case
        threads = 2 if set(before) == {1} else 1  # a size some pool does not have yet
        runner, default_name = cli.COMMANDS["spectrum"]
        during = []

        def spy(config, out_path):
            during.append(cli._blas_thread_counts())
            return runner(config, out_path)

        monkeypatch.setitem(cli.COMMANDS, "spectrum", (spy, default_name))
        cfg = write_config(tmp_path, base_config(coupling=0.8))
        out = str(tmp_path / "x.json")
        assert main(["spectrum", "--config", cfg, "--out", out, "--threads", str(threads)]) == EXIT_OK
        assert during == [[threads] * len(before)]
        assert cli._blas_thread_counts() == before
        assert capsys.readouterr().err == ""


class TestThreadsPinned:
    @pytest.mark.parametrize(
        "counts, threads, pinned",
        [([1, 1], 1, True), ([1, 2], 1, False), ([2], 2, True), ([], 1, False)],
    )
    def test_flag_follows_pools_read_back(self, tmp_path, monkeypatch, counts, threads, pinned):
        from yukawa_ed import cli

        monkeypatch.setattr(cli, "_blas_thread_counts", lambda: counts)
        data = base_config(coupling=0.0)
        data["output"] = {"record_timings": True}
        cfg = write_config(tmp_path, data)
        out = tmp_path / "t.json"
        assert main(["spectrum", "--config", cfg, "--out", str(out), "--threads", str(threads)]) == EXIT_OK
        assert json.loads(out.read_text())["timings"]["threads_pinned"] is pinned

    def test_pools_are_read_from_the_loaded_blas(self):
        import numpy as np

        from yukawa_ed.cli import _blas_thread_counts

        counts = _blas_thread_counts()
        assert all(isinstance(c, int) and c >= 1 for c in counts)
        if "openblas" in np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]:
            assert counts


class TestVerifyCommand:
    def test_default_verify_passes(self, tmp_path):
        data = base_config(coupling=1.0)
        data["verify"] = {"samples": 60, "field_points": 3}
        cfg = write_config(tmp_path, data)
        out = str(tmp_path / "verify.json")
        assert main(["verify", "--config", cfg, "--out", out]) == EXIT_OK
        payload = json.loads(open(out).read())
        assert payload["report"]["all_passed"] is True
        assert "interaction_relative" in payload["report"]["checks"]
        assert payload["config"]["verify"]["samples"] == 60

    def test_sample_block_past_the_cap_exits_3(self, tmp_path, capsys):
        data = base_config()
        data["verify"] = {"samples": 20_000_000}  # 1.28e9 draws on the 64-state model
        cfg = write_config(tmp_path, data)
        out = str(tmp_path / "never.json")
        assert main(["verify", "--config", cfg, "--out", out]) == EXIT_CAPACITY
        captured = capsys.readouterr()
        assert captured.err == (
            "error: 20000000 sample states of dimension 64 need 1280000000 draws,"
            " over the cap of 100000000\n"
        )
        assert captured.out == ""
        assert not os.path.exists(out)

    def test_negative_seed_flag_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_config())
        out = str(tmp_path / "never.json")
        assert main(["verify", "--config", cfg, "--out", out, "--seed", "-1"]) == EXIT_CONFIG
        lines = capsys.readouterr().err.splitlines()
        assert lines == ["error: --seed must be >= 0, got -1"]
        assert not os.path.exists(out)


class TestConvergenceFailures:
    def test_nonconvergence_exits_4(self, tmp_path, capsys):
        from yukawa_ed.cli import EXIT_CONVERGENCE

        data = base_config(coupling=0.9)
        # dense cap 1: the ground block (4 states) goes to Lanczos, which 2 steps cannot converge
        data["solver"] = {"max_iter": 2, "dense_cap": 1, "tol": 1e-12}
        cfg = write_config(tmp_path, data)
        out = str(tmp_path / "spec.json")
        assert main(["spectrum", "--config", cfg, "--out", out]) == EXIT_CONVERGENCE
        assert "residual" in capsys.readouterr().err

    def test_timings_recorded_when_requested(self, tmp_path):
        data = base_config(coupling=0.0)
        data["output"] = {"record_timings": True}
        cfg = write_config(tmp_path, data)
        out = str(tmp_path / "timed.json")
        assert main(["spectrum", "--config", cfg, "--out", out]) == EXIT_OK
        payload = json.loads(open(out).read())
        assert payload["timings"]["wall_seconds"] > 0

    def test_module_entrypoint_runs(self, tmp_path):
        import subprocess
        import sys

        cfg = write_config(tmp_path, base_config(coupling=0.0))
        out = str(tmp_path / "sub.json")
        proc = subprocess.run(
            [sys.executable, "-m", "yukawa_ed.cli", "spectrum", "--config", cfg, "--out", out],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(open(out).read())["ground_energy"] == 0.0


def test_shipped_example_config_runs(tmp_path):
    cfg = os.path.join(os.path.dirname(__file__), "..", "configs", "minimal.yaml")
    out = str(tmp_path / "example.json")
    assert main(["spectrum", "--config", cfg, "--out", out]) == EXIT_OK
    payload = json.loads(open(out).read())
    assert payload["dimension"] == 64
    out_v = str(tmp_path / "verify.json")
    assert main(["verify", "--config", cfg, "--out", out_v]) == EXIT_OK
    report = json.loads(open(out_v).read())["report"]
    assert report["all_passed"] is True
    assert report["c_epsilon_rule"] == "1/(4*eps)"
    assert all(e * report["form_bound_slope"] < 1 for e in report["admissible_eps"])
