import json
import shlex
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest

import mlestep as ms
from mlestep import cli, mc
from mlestep.cli import _build_parser, main
from mlestep.process import Pipeline
from mlestep.simulate import write_trajectory_json

README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(*args):
    return main(list(args))


class TestSimulateCommand:
    def test_csv_row_count(self, tmp_path):
        out = tmp_path / "traj.csv"
        code = run_cli(
            "simulate", "--model", "example2", "--theta", "0.5",
            "--n", "10000", "--seed", "1", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[1] == "index,x"
        assert len(lines) - 2 == 10_001

    def test_missing_model_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            run_cli("simulate", "--theta", "0.5", "--n", "100")
        assert err.value.code == 2

    def test_theta_of_wrong_length_fails_cleanly(self, tmp_path, capsys):
        out = tmp_path / "traj.json"
        code = run_cli(
            "simulate", "--model", "example2", "--theta", "0.5", "0.3",
            "--n", "50", "--format", "json", "--out", str(out),
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: theta has shape (2,)") and "length 1" in err
        assert not out.exists()

    def test_negative_seed_fails_cleanly(self, tmp_path, capsys):
        out = tmp_path / "traj.json"
        code = run_cli(
            "simulate", "--model", "example2", "--theta", "0.5",
            "--n", "50", "--seed", "-1", "--format", "json", "--out", str(out),
        )
        assert code == 1
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
        assert not out.exists()

    def test_json_format_carries_metadata(self, tmp_path):
        out = tmp_path / "traj.json"
        code = run_cli(
            "simulate", "--model", "example2", "--theta", "0.5",
            "--n", "50", "--seed", "3", "--format", "json", "--out", str(out),
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["model_name"] == "example2"
        assert payload["true_theta"] == [0.5]
        assert payload["seed"] == 3
        assert payload["burn_in"] == 1000
        assert len(payload["observations"]) == 51

    def test_config_records_x_init(self, tmp_path):
        configs = []
        for extra in ((), ("--x-init", "3")):
            out = tmp_path / f"traj{len(configs)}.csv"
            code = run_cli("simulate", "--model", "example2", "--theta", "0.5", "--n", "5",
                           "--burn-in", "0", "--seed", "1", *extra, "--out", str(out))
            assert code == 0
            configs.append(json.loads(out.read_text().splitlines()[0][2:]))
        assert [config["x_init"] for config in configs] == [0.0, 3.0]

    def test_outdir_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MLESTEP_OUTDIR", str(tmp_path / "nested"))
        code = run_cli(
            "simulate", "--model", "linear", "--theta", "0.2", "--n", "10",
        )
        assert code == 0
        assert (tmp_path / "nested" / "trajectory_linear_0.csv").exists()


class TestEstimateCommand:
    def test_example2_learning_length_178(self, tmp_path, capsys):
        out = tmp_path / "path.csv"
        code = run_cli(
            "estimate", "--model", "example2", "--theta", "0.5", "--n", "1000",
            "--seed", "2", "--delta", "0.75", "--preliminary", "emm",
            "--process", "one-step", "--out", str(out),
        )
        assert code == 0
        summary = json.loads(out.with_suffix(".summary.json").read_text())
        assert summary["N"] == 178
        echoed = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert echoed["N"] == 178

    def test_two_step_learning_length_32(self, tmp_path):
        out = tmp_path / "path.csv"
        code = run_cli(
            "estimate", "--model", "example2", "--theta", "0.5", "--n", "10000",
            "--seed", "2", "--delta", "0.375", "--preliminary", "emm",
            "--process", "two-step", "--fisher", "factorized",
            "--stride", "2000", "--out", str(out),
        )
        assert code == 0
        summary = json.loads(out.with_suffix(".summary.json").read_text())
        assert summary["N"] == 32
        assert summary["path"]["kind"] == "two-step"

    def test_example1_path_covers_index_range(self, tmp_path):
        out = tmp_path / "path.csv"
        code = run_cli(
            "estimate", "--model", "example1", "--theta", "2.5", "--n", "1000",
            "--seed", "4", "--delta", "0.75", "--preliminary", "mle",
            "--process", "one-step", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        rows = [line.split(",") for line in lines[2:]]
        assert int(rows[0][0]) == 178 + 1
        assert int(rows[-1][0]) == 1000
        assert rows[0][3] == "one-step"

    @pytest.mark.parametrize("preliminary,process,fisher", [
        ("mle", "one-step", "factorized"),
        ("emm", "two-step", "plugin"),
        ("mle", "full-mle", "observed"),
    ])
    def test_terminal_matches_study_replication(self, tmp_path, preliminary, process, fisher):
        # one pipeline description: the CLI and the harness agree bit for bit
        out = tmp_path / "path.csv"
        code = run_cli(
            "estimate", "--model", "example2", "--theta", "0.5", "--n", "600",
            "--seed", "8", "--delta", "0.5", "--preliminary", preliminary,
            "--process", process, "--fisher", fisher, "--out", str(out),
        )
        assert code == 0
        summary = json.loads(out.with_suffix(".summary.json").read_text())
        cfg = ms.McConfig(
            "example2", 0.5, 600, 0.5, preliminary=preliminary, process=process,
            fisher_method=fisher, reference_information=((2.15,),),
        )
        model = ms.get_model("example2")
        traj = ms.simulate(model, 0.5, 600, seed=8)
        np.testing.assert_array_equal(summary["terminal"], mc._replicate(cfg, traj, model))
        assert (summary["preliminary"] is None) == (process == "full-mle")

    def test_reads_trajectory_file(self, tmp_path):
        traj_path = tmp_path / "traj.json"
        run_cli(
            "simulate", "--model", "example2", "--theta", "0.5", "--n", "500",
            "--seed", "6", "--format", "json", "--out", str(traj_path),
        )
        out = tmp_path / "path.csv"
        code = run_cli(
            "estimate", "--input", str(traj_path), "--delta", "0.75",
            "--preliminary", "emm", "--out", str(out),
        )
        assert code == 0
        summary = json.loads(out.with_suffix(".summary.json").read_text())
        assert summary["config"]["trajectory"]["seed"] == 6

    @pytest.mark.parametrize("command", ["estimate", "kde"])
    @pytest.mark.parametrize("flag,value", [
        ("--model", "example1"), ("--theta", "3.0"), ("--n", "50"), ("--seed", "9"),
        ("--burn-in", "0"), ("--x-init", "0.0"),
    ])
    def test_input_refuses_a_chain_flag(self, capsys, tmp_path, command, flag, value):
        # the file fixes the chain, so a chain flag beside it is refused, not
        # ignored, even at its default value
        traj_path = tmp_path / "traj.json"
        write_trajectory_json(ms.simulate(ms.get_model("example2"), 0.5, 300, seed=1), traj_path)
        out = tmp_path / "out" / "result.csv"
        code = run_cli(command, "--input", str(traj_path), flag, value, "--out", str(out))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --input") and flag in err
        assert not out.parent.exists()

    def test_missing_inputs_fail_cleanly(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("MLESTEP_OUTDIR", str(tmp_path))
        code = run_cli("estimate", "--delta", "0.75")
        assert code == 1
        assert "error:" in capsys.readouterr().err
        # the recurrent path writes every k, so a stride is refused, not ignored
        code = run_cli(
            "estimate", "--model", "example2", "--theta", "0.5", "--n", "200",
            "--process", "recurrent", "--stride", "50",
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "stride" in err and "recurrent" in err
        # and so is one for the full-MLE reference, which emits k = n alone
        code = run_cli(
            "estimate", "--model", "example2", "--theta", "0.5", "--n", "200",
            "--process", "full-mle", "--stride", "5",
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "stride" in err and "full-mle" in err
        assert not list(tmp_path.iterdir())

    def test_malformed_trajectory_file_fails_cleanly(self, capsys, tmp_path):
        traj_path = tmp_path / "traj.json"
        traj = ms.simulate(ms.get_model("example2"), 0.5, 50, seed=1)
        payload = traj.meta()
        full = dict(payload, observations=traj.observations.tolist())
        with_null = full["observations"][:10] + [None] + full["observations"][11:]
        for content, message in ((payload, "lacks ['observations']"), ([1, 2], "must be a JSON object")):
            traj_path.write_text(json.dumps(content))
            code = run_cli("estimate", "--input", str(traj_path), "--delta", "0.75",
                           "--out", str(tmp_path / "p.csv"))
            assert code == 1
            assert message in capsys.readouterr().err
        # a bad field is refused by name, in a short message whatever the file size
        for content, message in (
            (dict(full, burn_in=None), "burn_in must be an integer"),
            (dict(full, seed={"a": 1}), "seed must be an integer"),
            (dict(full, seed=1.7), "seed must be an integer"),
            (dict(full, observations="abc"), "observations must be"),
            (dict(full, observations=with_null), "observations must be"),
        ):
            traj_path.write_text(json.dumps(content))
            code = run_cli("estimate", "--input", str(traj_path), "--delta", "0.75",
                           "--out", str(tmp_path / "p.csv"))
            assert code == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: {message}") and len(err) < 200
        assert not (tmp_path / "p.csv").exists()

    def test_trajectory_file_that_is_not_json_names_the_file(self, capsys, tmp_path):
        traj_path = tmp_path / "bad.json"
        traj_path.write_text("observations: [0.0, 1.0]\n")
        code = run_cli("estimate", "--input", str(traj_path), "--out", str(tmp_path / "p.csv"))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: trajectory file {traj_path} is not valid JSON: ")
        assert not (tmp_path / "p.csv").exists()

    def test_non_finite_x_init_fails_cleanly(self, capsys, tmp_path):
        for command, value in (("simulate", "nan"), ("estimate", "inf")):
            code = run_cli(command, "--model", "example2", "--theta", "0.5", "--n", "100",
                           "--x-init", value, "--out", str(tmp_path / "out"))
            assert code == 1
            assert "x_init must be a finite real number" in capsys.readouterr().err

    def test_degenerate_information_surfaces_as_error(self, capsys, tmp_path):
        from helpers import zero_model
        from mlestep.models import register_model

        # the trajectory file names its model, so register under that name
        register_model("zero", zero_model)
        traj_path = tmp_path / "traj.json"
        traj = ms.simulate(ms.get_model("zero"), 0.0, 200, seed=1)
        write_trajectory_json(traj, traj_path)
        code = run_cli(
            "estimate", "--input", str(traj_path), "--delta", "0.75",
            "--preliminary", "emm", "--out", str(tmp_path / "p.csv"),
        )
        assert code == 1
        assert "positive definite" in capsys.readouterr().err

    def test_indefinite_information_names_theta_and_transitions(self, capsys, tmp_path):
        # the N = 8 preliminary lands at the box edge, where the observed
        # information over the whole sample is negative: the message names
        # that point and the 300 transitions, not a short window
        code = run_cli(
            "estimate", "--model", "example1", "--theta", "3.67", "--n", "300",
            "--seed", "4", "--preliminary", "mle", "--process", "two-step",
            "--delta", "0.375", "--outdir", str(tmp_path),
        )
        assert code == 1
        assert capsys.readouterr().err == (
            "error: observed information matrix is not positive definite "
            "at theta=[4.999997] over 300 transitions\n"
        )

    def test_no_observations_after_the_learning_interval_names_N_n_and_delta(self, capsys, tmp_path):
        # n = 2 and N = round(2**0.9) = 2: refused before the preliminary runs
        code = run_cli(
            "estimate", "--model", "example2", "--theta", "0.5", "--n", "2", "--delta", "0.9",
            "--outdir", str(tmp_path),
        )
        assert code == 1
        assert capsys.readouterr().err == (
            "error: learning interval N=2 (delta=0.9) leaves no observations to process: n=2\n"
        )
        assert list(tmp_path.iterdir()) == []

    def test_full_mle_summary_takes_N_from_the_path(self, tmp_path, capsys):
        # full-mle uses no learning interval: N is the path's 0, not n**delta
        out = tmp_path / "path.csv"
        code = run_cli(
            "estimate", "--model", "example2", "--theta", "0.5", "--n", "100",
            "--process", "full-mle", "--out", str(out),
        )
        assert code == 0
        assert json.loads(out.with_suffix(".summary.json").read_text())["N"] == 0
        assert json.loads(capsys.readouterr().out.strip().splitlines()[-1])["N"] == 0

    def test_log_level_prints_projections_on_stderr(self, tmp_path, capsys):
        # example1 at n=300, seed 2: the second preliminary values leave (2, 5)
        args = ["estimate", "--model", "example1", "--theta", "2.5", "--n", "300",
                "--seed", "2", "--delta", "0.375", "--process", "two-step",
                "--fisher", "plugin"]
        outputs = []
        for level in ([], ["--log-level", "INFO"]):
            out = tmp_path / f"p{len(level)}.csv"
            assert run_cli(*level, *args, "--out", str(out)) == 0
            captured = capsys.readouterr()
            outputs.append((captured, out.read_text().splitlines()[1:]))
        (quiet, quiet_rows), (loud, loud_rows) = outputs
        assert quiet.err == ""
        lines = loud.err.splitlines()
        assert lines and all(
            line.startswith("INFO mlestep.process: second preliminary estimate at k=")
            and line.endswith("projected into the domain")
            for line in lines
        )
        # the written path and the printed terminal do not depend on the level
        assert loud_rows == quiet_rows
        assert json.loads(loud.out)["terminal"] == json.loads(quiet.out)["terminal"]


class TestDefaults:
    def test_pipeline_defaults_are_written_once(self, tmp_path):
        # `estimate` without pipeline flags runs Pipeline's defaults, and a
        # study's pipeline fields default to the same values
        code = run_cli(
            "estimate", "--model", "example2", "--theta", "0.5", "--n", "300", "--seed", "1",
            "--out", str(tmp_path / "path.csv"),
        )
        assert code == 0
        config = json.loads((tmp_path / "path.summary.json").read_text())["config"]
        expected = asdict(Pipeline(0.75))
        assert {key: config[key] for key in expected} == expected
        study = {f.name: f.default for f in fields(ms.McConfig)}
        for name in ("preliminary", "process", "fisher_method", "grid_points"):
            assert study[name] == expected[name], name


class TestReadme:
    """The README's CLI examples parse and its study config constructs;
    nothing is run."""

    @staticmethod
    def _cli_section() -> list[str]:
        text = README.read_text()
        section = text.split("## CLI examples", 1)[1].split("\n## ", 1)[0]
        return section.replace("\\\n", " ").splitlines()

    def test_every_command_parses(self):
        commands = [shlex.split(line)[1:] for line in self._cli_section() if line.startswith("mlestep ")]
        parsed = [_build_parser().parse_args(argv) for argv in commands]
        assert len(parsed) == 6
        assert {args.command for args in parsed} == {"simulate", "estimate", "kde", "mc"}

    def test_study_config_constructs(self):
        lines = self._cli_section()
        start = lines.index("cat > study.json <<'JSON'") + 1
        payload = json.loads("\n".join(lines[start : lines.index("JSON", start)]))
        cfg = mc.mc_config_from_dict(payload)
        assert (cfg.preliminary, cfg.process, cfg.fisher_method) == ("mle", "one-step", "factorized")


class TestKdeCommand:
    def test_rows_header_and_bandwidth_echo(self, tmp_path, capsys):
        out = tmp_path / "density.csv"
        code = run_cli(
            "kde", "--model", "example1", "--theta", "2.5", "--n", "2000",
            "--seed", "9", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[1] == "x,density"
        assert len(lines) == 2 + 512
        echoed = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert echoed["rows"] == 512
        assert echoed["bandwidth"] == pytest.approx(2000 ** (-0.2))
        meta = json.loads(lines[0][2:])
        assert meta["bandwidth"] == pytest.approx(2000 ** (-0.2))

    def test_bandwidth_flag(self, tmp_path, capsys):
        out = tmp_path / "density.csv"
        run_cli(
            "kde", "--model", "linear", "--theta", "0.5", "--n", "500",
            "--bandwidth", "0.3", "--out", str(out),
        )
        echoed = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert echoed["bandwidth"] == 0.3

    @pytest.mark.parametrize("bandwidth", ["nan", "inf", "-inf", "0"])
    def test_bad_bandwidth_fails_cleanly(self, tmp_path, capsys, bandwidth):
        out = tmp_path / "density.csv"
        code = run_cli(
            "kde", "--model", "example2", "--theta", "0.5", "--n", "200",
            f"--bandwidth={bandwidth}", "--out", str(out),
        )
        assert code == 1
        assert "bandwidth" in capsys.readouterr().err
        assert not out.exists()

    def test_bandwidth_at_which_a_value_overflows_fails_cleanly(self, tmp_path, capsys):
        code = run_cli(
            "kde", "--model", "example2", "--theta", "0.5", "--n", "50", "--seed", "50",
            "--bandwidth", "1e-320", "--outdir", str(tmp_path),
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err == "error: bandwidth 1e-320 is too small for n=50: a density value overflows\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("source", [
        ("--model", "example1", "--theta", "2.5", "--n", "300000"),
        ("--input", "chain.json"),
    ])
    def test_bad_bandwidth_refused_before_the_chain(self, tmp_path, capsys, monkeypatch, source):
        def no_chain(*args, **kwargs):
            pytest.fail("the chain was built before the bandwidth was checked")

        monkeypatch.setattr(cli, "simulate", no_chain)
        monkeypatch.setattr(cli, "read_trajectory_json", no_chain)
        code = run_cli("kde", *source, "--bandwidth", "-1", "--outdir", str(tmp_path))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "bandwidth" in err
        assert list(tmp_path.iterdir()) == []


class TestMcCommand:
    @staticmethod
    def _write_config(path, **overrides):
        payload = dict(
            model_name="linear",
            theta0=[0.5],
            n=300,
            delta=0.6,
            preliminary="mle",
            process="one-step",
            fisher_method="observed",
            replications=6,
            base_seed=0,
            reference_information=[[4.0 / 3.0]],
        )
        payload.update(overrides)
        path.write_text(json.dumps(payload))

    def test_report_written_and_deterministic(self, tmp_path):
        cfg_path = tmp_path / "study.json"
        self._write_config(cfg_path)
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        assert run_cli("mc", "--config", str(cfg_path), "--workers", "1", "--out", str(out_a)) == 0
        assert run_cli("mc", "--config", str(cfg_path), "--workers", "1", "--out", str(out_b)) == 0
        assert out_a.read_text() == out_b.read_text()
        payload = json.loads(out_a.read_text())
        assert payload["config"]["model_name"] == "linear"
        assert out_a.with_suffix(".csv").exists()

    def test_invalid_config_fails_cleanly(self, tmp_path, capsys):
        cfg_path = tmp_path / "study.json"
        for overrides, flags, message in (
            (dict(bogus_field=1), (), "unknown"),
            (dict(fisher_method="bogus"), (), "fisher_method"),
            ({}, ("--workers", "0"), "workers"),
            ({}, ("--workers", "-1"), "workers"),
            (dict(grid_points=100.5), (), "grid_points must be an integer"),
            (dict(grid_points="64"), (), "grid_points must be an integer"),
            (dict(base_seed=1.5), (), "base_seed must be an integer"),
            (dict(base_seed=None), (), "base_seed must be an integer"),
            (dict(base_seed=-1), (), "base_seed must be >= 0"),
            (dict(delta="0.5"), (), "delta must be a real number"),
            (dict(delta=None), (), "delta must be a real number"),
            (dict(theta0="abc"), (), "theta0 must be finite and real"),
            (dict(x_init="abc"), (), "x_init must be a finite real number"),
            (dict(x_init=float("nan")), (), "x_init must be a finite real number"),
            (dict(reference_information="abc"), (), "reference_information must be"),
            (dict(reference_information=[[1.0, 2.0]]), (), "reference_information must be"),
            (dict(model_name=["linear"]), (), "model name must be a string"),
        ):
            self._write_config(cfg_path, **overrides)
            code = run_cli(
                "mc", "--config", str(cfg_path), *flags, "--out", str(tmp_path / "r.json")
            )
            assert code == 1
            assert message in capsys.readouterr().err
        # files that are not a config object, or lack its required fields
        for text, message in (
            ("[1, 2]", "must be a JSON object"),
            ("5", "must be a JSON object"),
            ('{"model_name": "linear"}', "lacks required fields: ['theta0', 'n', 'delta']"),
        ):
            cfg_path.write_text(text)
            assert run_cli("mc", "--config", str(cfg_path), "--out", str(tmp_path / "r.json")) == 1
            assert message in capsys.readouterr().err

    def test_config_that_is_not_json_names_the_file(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text("")
        code = run_cli("mc", "--config", str(cfg_path), "--workers", "1",
                       "--out", str(tmp_path / "r.json"))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: study config {cfg_path} is not valid JSON: ")
        assert not (tmp_path / "r.json").exists()

    def test_replication_failures_propagate(self, tmp_path, capsys, monkeypatch):
        def broken(cfg, traj, model):
            raise ValueError("all replications down")

        monkeypatch.setattr(mc, "_replicate", broken)
        cfg_path = tmp_path / "study.json"
        self._write_config(cfg_path)
        code = run_cli(
            "mc", "--config", str(cfg_path), "--workers", "1",
            "--out", str(tmp_path / "r.json"),
        )
        assert code == 1
        assert "failed" in capsys.readouterr().err
