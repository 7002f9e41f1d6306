"""Config parsing, sweep execution, CSV schema, determinism, CLI exit codes."""

import math
import re
from pathlib import Path

import numpy as np
import pytest

from gaussbayes import cli, harness, phase, squeezing
from gaussbayes import displacement as disp
from gaussbayes.bayes import GaussianPrior
from gaussbayes.harness import ConfigError, parse_config
from gaussbayes.measurement import homodyne
from gaussbayes.phasespace import ProbeSpec

ROOT = Path(__file__).resolve().parents[1]


class TestParse:
    def test_scalar_range_list(self):
        cfg = parse_config("\n".join([
            "task = PhaseHet",
            "n = 0.5:2.0:4",
            "r = 0.0",
            "method = quadrature",
        ]))
        assert cfg.task == "PhaseHet"
        assert cfg.sweep["n"] == pytest.approx([0.5, 1.0, 1.5, 2.0])
        assert cfg.sweep["r"] == [0.0]

    def test_comma_list_and_comments(self):
        cfg = parse_config("\n".join([
            "# a comment",
            "task = DisplacementHom",
            "sigma0sq = 1.0",
            "m_rounds = 1,2,3  # inline comment",
        ]))
        assert cfg.sweep["m_rounds"] == [1.0, 2.0, 3.0]

    def test_errors_carry_line_numbers(self):
        with pytest.raises(ConfigError, match="cfg:3"):
            parse_config("task = PhaseHet\nn = 1\nr = oops", path="cfg")
        with pytest.raises(ConfigError, match="cfg:2"):
            parse_config("task = PhaseHet\nwhatever\n", path="cfg")
        with pytest.raises(ConfigError, match="cfg:2"):
            parse_config("task = PhaseHet\nbogus_key = 3\n", path="cfg")

    def test_missing_task(self):
        with pytest.raises(ConfigError, match="task"):
            parse_config("alpha = 1.0")

    def test_unknown_task(self):
        with pytest.raises(ConfigError, match="unknown task"):
            parse_config("task = Nope\nalpha = 1")

    def test_alpha_n_exclusive(self):
        with pytest.raises(ConfigError, match="not both"):
            parse_config("task = PhaseHet\nalpha = 1\nn = 1")
        with pytest.raises(ConfigError, match="alpha or n"):
            parse_config("task = PhaseHom\nr = 0.1")

    def test_montecarlo_needs_seed(self):
        with pytest.raises(ConfigError, match="seed"):
            parse_config("task = PhaseHom\nalpha = 1\nmethod = montecarlo")

    @pytest.mark.parametrize("key", ["samples", "seed"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_integer_field(self, key, value):
        with pytest.raises(ConfigError, match="cfg:3"):
            parse_config(f"task = PhaseHet\nalpha = 1\n{key} = {value}", path="cfg")

    @pytest.mark.parametrize("key", ["trunc_n", "tail_tol"])
    def test_series_cutoff_is_not_a_config_key(self, key):
        # the series choose their own cutoff and tail bound
        with pytest.raises(ConfigError, match="cfg:4: unknown key"):
            parse_config(f"task = PhaseHet\nalpha = 2.0\nr = 0.75\n{key} = 1", path="cfg")

    def test_overrides_are_checked_once_merged(self):
        text = "task = PhaseHom\nalpha = 1\nmethod = montecarlo"
        assert parse_config(text, overrides={"seed": 3}).seed == 3
        with pytest.raises(ConfigError, match="seed"):
            parse_config("task = PhaseHom\nalpha = 1", overrides={"method": "montecarlo"})

    @pytest.mark.parametrize("task,key", [
        ("DisplacementHet", "alpha"),
        ("DisplacementHet", "s"),
        ("DisplacementHet", "psi"),
        ("DisplacementHet", "r0"),
        ("DisplacementHet", "n"),
        ("DisplacementHet", "m_rounds"),
        ("DisplacementHom", "alpha"),
        ("DisplacementHom", "s"),
        ("DisplacementHom", "psi"),
        ("DisplacementHom", "r0"),
        ("DisplacementHom", "n"),
        ("PhaseHet", "s"),
        ("PhaseHet", "psi"),
        ("PhaseHet", "r0"),
        ("PhaseHet", "sigma0sq"),
        ("PhaseHet", "m_rounds"),
        ("PhaseHom", "s"),
        ("PhaseHom", "r0"),
        ("PhaseHom", "sigma0sq"),
        ("PhaseHom", "m_rounds"),
        ("Squeeze", "r"),
        ("Squeeze", "m_rounds"),
    ])
    def test_parameter_task_mismatch(self, task, key):
        valid = {"DisplacementHet": "sigma0sq = 1", "DisplacementHom": "sigma0sq = 1",
                 "PhaseHet": "alpha = 1", "PhaseHom": "alpha = 1",
                 "Squeeze": "alpha = 1\nsigma0sq = 1"}[task]
        with pytest.raises(ConfigError, match=f"'{key}' not valid for task {task}"):
            parse_config(f"task = {task}\n{valid}\n{key} = 1")

    @pytest.mark.parametrize("task", ["DisplacementHet", "DisplacementHom", "Squeeze"])
    def test_sigma0sq_required(self, task):
        rest = {"DisplacementHet": "r = 0", "DisplacementHom": "r = 0\nm_rounds = 2",
                "Squeeze": "alpha = 1\ns = 0.5"}[task]
        with pytest.raises(ConfigError, match=f"task {task} needs .*sigma0sq"):
            parse_config(f"task = {task}\n{rest}")

    def test_empty_sweep(self):
        with pytest.raises(ConfigError, match="nonempty"):
            parse_config("task = DisplacementHet")


# one row per task: (config lines, direct library value, mean photon number)
_ALPHA_HET = math.sqrt(1.5 - math.sinh(0.25) ** 2)
ENGINE_ROWS = {
    "DisplacementHet": ("sigma0sq = 0.5\nr = 0.25",
                        lambda: disp.het_avg_total_variance(0.5, 0.25), math.sinh(0.25) ** 2),
    "DisplacementHom": ("sigma0sq = 0.5\nr = 0.25",
                        lambda: disp.hom_avg_variance_q(0.5, 0.25), math.sinh(0.25) ** 2),
    "PhaseHet": ("n = 1.5\nr = 0.25",
                 lambda: phase.squeezed_het_average_variance(_ALPHA_HET, 0.25), 1.5),
    "PhaseHom": ("alpha = 0.8\nr = 0.3\npsi = 0.2",
                 lambda: phase.average_variance_numeric(phase.PhaseTask(
                     ProbeSpec(0.8, 0.3, 0.2), homodyne(0.0))).value,
                 0.8 ** 2 + math.sinh(0.3) ** 2),
    "Squeeze": ("alpha = 0.6\ns = 0.5\npsi = 0.3\nr0 = -0.5\nsigma0sq = 1.0",
                lambda: squeezing.average_variance(squeezing.SqueezeTask(
                    ProbeSpec(0.6, 0.5, 0.3), GaussianPrior(-0.5, 1.0))).value,
                0.6 ** 2 + math.sinh(0.5) ** 2),
}


@pytest.mark.parametrize("task", harness.TASKS)
def test_one_row_per_task_is_the_library_call(task):
    text, library_value, photon = ENGINE_ROWS[task]
    rec = harness.run(parse_config(f"task = {task}\n{text}"))[0]
    assert rec.status == "ok"
    assert rec.avg_variance == library_value()
    assert rec.mean_photon == photon


class TestRun:
    def test_phase_het_closed_form_rows(self):
        cfg = parse_config("task = PhaseHet\nn = 0.5,1,2\nr = 0")
        records = harness.run(cfg)
        assert len(records) == 3
        for rec, n in zip(records, (0.5, 1.0, 2.0)):
            want = (1.0 - math.exp(-n)) / (2.0 * n)
            assert rec.avg_variance == pytest.approx(want, rel=1e-12)
            assert rec.method == "closed-form"
            assert rec.std_error == 0.0
            assert rec.status == "ok"
            assert rec.mean_photon == pytest.approx(n)

    def test_displacement_hom_recursion_rows(self):
        cfg = parse_config("task = DisplacementHom\nsigma0sq = 1\nr = 0\nm_rounds = 1:5:5")
        records = harness.run(cfg)
        want = [1 / 5, 1 / 9, 1 / 13, 1 / 17, 1 / 21]
        got = [rec.avg_variance for rec in records]
        assert got == pytest.approx(want, rel=1e-14)

    def test_series_path_for_squeezed_heterodyne(self):
        cfg = parse_config("task = PhaseHet\nalpha = 1.0\nr = 0.25")
        rec = harness.run(cfg)[0]
        assert rec.method == "series"
        assert rec.avg_variance == pytest.approx(
            phase.squeezed_het_average_variance(1.0, 0.25), rel=1e-12)

    def test_infeasible_energy_row_is_flagged(self):
        cfg = parse_config("task = PhaseHet\nn = 0.5\nr = 1.25")
        rec = harness.run(cfg)[0]
        assert rec.status.startswith("error:")
        assert math.isnan(rec.avg_variance)

    def test_force_both_agrees(self):
        cfg = parse_config("\n".join([
            "task = DisplacementHet",
            "sigma0sq = 0.25,1.0",
            "r = 0",
            "force_both = true",
            "seed = 5",
        ]))
        for rec in harness.run(cfg):
            assert rec.status == "ok"

    def test_corrupted_truncation_reported(self, monkeypatch):
        monkeypatch.setattr(phase, "_sh_cutoff", lambda alpha, r, rho_max: 1)
        cfg = parse_config("task = PhaseHet\nalpha = 2.0\nr = 0.75, 0.0")
        records = harness.run(cfg)
        assert records[0].status.startswith("error:TruncationError:")
        assert records[1].status == "ok"  # failure recorded, run continues

    def test_run_continues_after_row_failure(self):
        cfg = parse_config("task = PhaseHet\nn = 0.5,3.0\nr = 1.25")
        records = harness.run(cfg)
        assert records[0].status.startswith("error:")
        assert records[1].status == "ok"


class TestCsv:
    def test_schema_and_determinism(self, tmp_path):
        cfg = parse_config("\n".join([
            "task = PhaseHom",
            "alpha = 0.5:1.0:2",
            "method = montecarlo",
            "samples = 1500",
            "seed = 77",
        ]))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        harness.write_csv(harness.run(cfg), p1)
        harness.write_csv(harness.run(cfg), p2)
        assert p1.read_bytes() == p2.read_bytes()
        lines = p1.read_text().splitlines()
        assert lines[0] == ",".join(harness.CSV_COLUMNS)
        assert len(lines) == 3
        assert all(len(line.split(",")) == len(harness.CSV_COLUMNS) for line in lines)

    def test_seed_changes_montecarlo_output(self, tmp_path):
        base = "task = PhaseHom\nalpha = 0.8\nmethod = montecarlo\nsamples = 1000\n"
        rec_a = harness.run(parse_config(base + "seed = 1"))[0]
        rec_b = harness.run(parse_config(base + "seed = 2"))[0]
        assert rec_a.avg_variance != rec_b.avg_variance

    def test_float_format_17_digits(self):
        assert harness.format_value(1.0 / 3.0) == "0.33333333333333331"
        assert float(harness.format_value(math.pi)) == math.pi

    def test_timings_not_serialized(self, tmp_path):
        cfg = parse_config("task = DisplacementHet\nsigma0sq = 0.25")
        records = harness.run(cfg)
        assert records[0].wall_time > 0.0
        out = tmp_path / "t.csv"
        harness.write_csv(records, out)
        assert "wall" not in out.read_text().splitlines()[0]


class TestCli:
    def test_run_roundtrip(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("task = DisplacementHom\nsigma0sq = 1\nm_rounds = 1,2\n")
        out = tmp_path / "rows.csv"
        code = cli.main(["run", str(cfg), "--out", str(out)])
        assert code == 0
        assert out.exists()
        assert "wrote 2 rows" in capsys.readouterr().out

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("task = PhaseHet\nbad-line\n")
        assert cli.main(["run", str(cfg)]) == 1
        assert cli.main(["run", str(tmp_path / "missing.cfg")]) == 1

    def test_cli_overrides(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("task = PhaseHom\nalpha = 0.6\n")
        out = tmp_path / "rows.csv"
        code = cli.main(["run", str(cfg), "--method", "montecarlo", "--samples", "800",
                         "--seed", "3", "--out", str(out)])
        assert code == 0
        assert "monte-carlo" in out.read_text()

    @pytest.mark.parametrize("seed_line,argv", [("seed = 3\n", []), ("", ["--seed", "3"])],
                             ids=["config", "flag"])
    def test_montecarlo_seed_from_config_or_flag(self, tmp_path, seed_line, argv):
        # the README's promise: the seed may come from the config or --seed
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(f"task = PhaseHom\nalpha = 0.6\nmethod = montecarlo\n"
                       f"samples = 500\n{seed_line}")
        out = tmp_path / "rows.csv"
        assert cli.main(["run", str(cfg), "--out", str(out)] + argv) == 0
        rows = out.read_text()
        assert "monte-carlo" in rows
        seeded = tmp_path / "seeded.csv"
        cfg.write_text("task = PhaseHom\nalpha = 0.6\nsamples = 500\nseed = 3\n")
        assert cli.main(["run", str(cfg), "--method", "montecarlo", "--out", str(seeded)]) == 0
        assert seeded.read_text() == rows

    @pytest.mark.parametrize("body,key", [
        ("task = PhaseHet\nalpha = 0.5, nan\n", "alpha"),
        ("task = PhaseHom\nalpha = inf\n", "alpha"),
        ("task = DisplacementHet\nsigma0sq = nan\n", "sigma0sq"),
        # np.linspace would warn about an infinite bound before the error
        pytest.param("task = PhaseHet\nalpha = 0:inf:3\n", "alpha",
                     marks=pytest.mark.filterwarnings("error")),
    ], ids=["nan-in-list", "inf-alpha", "nan-sigma0sq", "inf-range"])
    def test_non_finite_value_is_a_config_error(self, tmp_path, capsys, body, key):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(body)
        out = tmp_path / "rows.csv"
        assert cli.main(["run", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error") and key in err
        assert not out.exists()

    def test_montecarlo_without_seed_rejected(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("task = PhaseHom\nalpha = 0.6\n")
        assert cli.main(["run", str(cfg), "--method", "montecarlo"]) == 1

    def test_verify_exit_codes(self, monkeypatch, tmp_path, capsys):
        from gaussbayes import verify

        def fake_pass(seed):
            res = verify.CriterionResult("stub pass")
            res.checks.append(verify.Check("x", 1.0, 1.0, 0.1, True))
            return res

        def fake_fail(seed):
            res = verify.CriterionResult("stub fail")
            res.checks.append(verify.Check("x", 2.0, 1.0, 0.1, False))
            return res

        monkeypatch.setattr(verify, "CRITERIA", {"1": fake_pass})
        monkeypatch.setattr(verify, "_FAST", ("1",))
        out = tmp_path / "report.csv"
        assert cli.main(["verify", "--suite", "fast", "--out", str(out)]) == 0
        assert out.read_text().startswith("criterion,check,status")
        monkeypatch.setattr(verify, "CRITERIA", {"1": fake_fail})
        assert cli.main(["verify", "--suite", "fast"]) == 2


class TestShippedConfigs:
    @pytest.mark.parametrize("path", sorted((ROOT / "configs").glob("*.cfg")),
                             ids=lambda path: path.name)
    def test_parses(self, path):
        assert harness.load_config(path).output

    def test_readme_names_only_shipped_configs(self):
        named = set(re.findall(r"configs/[\w.-]+\.cfg", (ROOT / "README.md").read_text()))
        assert named
        assert sorted(name for name in named if not (ROOT / name).is_file()) == []
