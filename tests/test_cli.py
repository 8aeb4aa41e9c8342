"""Command-line interface: config grammar, subcommands, exit codes, outputs."""
import csv
import dataclasses
import json

import numpy as np
import pytest

from gmblasso.cli import ConfigError, build_run_config, main, parse_config_text
from gmblasso.solver import SolverConfig, recommended_parameters

SEPARATED = """\
# separated two-component scenario
kernel.d = 1
kernel.tau = 1.0
scenario.weights = 0.5, 0.5
scenario.t = -13, 13
scenario.u = 1, 1
scenario.box.t_lo = -20
scenario.box.t_hi = 20
scenario.box.u_min = 1.0
scenario.box.u_max = 1.0
seed.master = 0
"""

SINGLE_COMPONENT = """\
kernel.d = 1
kernel.tau = 0.5
scenario.weights = 1.0
scenario.t = 0
scenario.u = 1
scenario.box.t_lo = -8
scenario.box.t_hi = 8
scenario.box.u_min = 0.5
scenario.box.u_max = 2.0
"""

SINGLE_COMPONENT_D2 = """\
kernel.d = 2
kernel.tau = 1.0
scenario.weights = 1.0
scenario.t = 0 0
scenario.u = 1 1
scenario.box.t_lo = -8
scenario.box.t_hi = 8
scenario.box.u_min = 1.0
scenario.box.u_max = 1.0
"""

SOLVE_TUNING = """\
solver.iterations = 400
solver.step_w = 4.0
solver.step_x = 8.0
solver.merge_radius = 0.605
solver.merge_period = 10
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def read_meta(path):
    return json.loads(path.read_text())


class TestConfigParsing:
    def test_values_comments_positions(self):
        entries = parse_config_text(
            "# leading comment\n"
            "kernel.d = 1\n"
            "\n"
            "scenario.t = -1, 2  # trailing comment\n")
        assert entries["kernel.d"][0] == "1"
        assert entries["kernel.d"][1] == 2            # line numbers are 1-based
        assert entries["scenario.t"][0] == "-1, 2"

    def test_missing_equals(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text("kernel.d 1\n")
        assert err.value.line == 1
        assert "=" in str(err.value)

    def test_duplicate_key(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text("kernel.d = 1\nkernel.d = 2\n")
        assert err.value.line == 2
        assert "duplicate" in str(err.value)

    def test_empty_value(self):
        with pytest.raises(ConfigError):
            parse_config_text("kernel.d =\n")

    def test_malformed_key(self):
        with pytest.raises(ConfigError):
            parse_config_text("justakey = 1\n")

    def test_render_includes_position(self):
        err = ConfigError("boom", line=3, col=7)
        assert err.render() == "config:3:7: boom"
        assert ConfigError("boom").render() == "config error: boom"


class TestBuildRunConfig:
    def test_full_scenario(self):
        run = build_run_config(parse_config_text(SEPARATED))
        assert run.d == 1 and run.tau == 1.0
        assert run.mixture.s == 2
        assert run.box.t_lo == (-20.0,)
        assert run.seed == 0

    def test_unknown_key_reports_line(self):
        text = SEPARATED + "solver.bogus = 1\n"
        with pytest.raises(ConfigError) as err:
            build_run_config(parse_config_text(text))
        assert "solver.bogus" in str(err.value)
        assert err.value.line == len(SEPARATED.splitlines()) + 1

    def test_bad_matrix_shape(self):
        text = SEPARATED.replace("scenario.u = 1, 1", "scenario.u = 1, 1, 1")
        with pytest.raises(ConfigError):
            build_run_config(parse_config_text(text))

    def test_per_coordinate_box_bounds(self):
        text = ("kernel.d = 2\n"
                "kernel.tau = 1.0\n"
                "scenario.weights = 0.5, 0.5\n"
                "scenario.t = -5 0; 5 8\n"
                "scenario.u = 1 1; 1 1\n"
                "scenario.box.t_lo = -10, -2\n"
                "scenario.box.t_hi = 10, 12\n"
                "scenario.box.u_min = 1.0\n"
                "scenario.box.u_max = 1.0\n")
        run = build_run_config(parse_config_text(text))
        assert run.box.t_lo == (-10.0, -2.0) and run.box.t_hi == (10.0, 12.0)
        assert run.resolved["scenario.box.t_lo"] == [-10.0, -2.0]
        assert run.resolved["scenario.box.t_hi"] == [10.0, 12.0]

    def test_single_coordinate_row_without_semicolon(self, tmp_path):
        text = ("kernel.d = 2\n"
                "kernel.tau = 1.0\n"
                "scenario.weights = 1.0\n"
                "scenario.t = 0 5\n"
                "scenario.u = 1 1\n"
                "scenario.box.t_lo = -8\n"
                "scenario.box.t_hi = 8, 13\n"
                "scenario.box.u_min = 1.0\n"
                "scenario.box.u_max = 1.0\n"
                + SOLVE_TUNING.replace("0.605", "0.214") +
                "experiment.n = 500\n"
                f"output.dir = {tmp_path}/out\n")
        run = build_run_config(parse_config_text(text))
        assert run.resolved["scenario.t"] == [[0.0, 5.0]]
        assert run.resolved["scenario.u"] == [[1.0, 1.0]]
        assert main(["solve", "--config", write_cfg(tmp_path, text)]) == 0
        assert read_rows(tmp_path / "out" / "solve_measure.csv")[0] == \
            ["atom", "weight", "t_0", "t_1", "u_0", "u_1"]

    def test_row_of_wrong_length_without_semicolon_exit_2(self, tmp_path, capsys):
        text = ("kernel.d = 2\n"
                "kernel.tau = 1.0\n"
                "scenario.weights = 1.0\n"
                "scenario.t = 0 5 7\n"
                "scenario.u = 1 1\n"
                "scenario.box.t_lo = -8\n"
                "scenario.box.t_hi = 8\n"
                "scenario.box.u_min = 1.0\n"
                "scenario.box.u_max = 1.0\n"
                f"output.dir = {tmp_path}/out\n")
        assert main(["certify", "--config", write_cfg(tmp_path, text)]) == 2
        assert capsys.readouterr().err.strip() == \
            ("config:4:14: scenario.t: row '0 5 7' has 3 values, expected 2; "
             "separate rows with ';'")
        assert not (tmp_path / "out").exists()

    def test_box_bound_list_of_wrong_length_exit_2(self, tmp_path, capsys):
        text = ("kernel.d = 2\n"
                "kernel.tau = 1.0\n"
                "scenario.weights = 0.5, 0.5\n"
                "scenario.t = -5 0; 5 8\n"
                "scenario.u = 1 1; 1 1\n"
                "scenario.box.t_lo = -10, -2, -3\n"
                "scenario.box.t_hi = 10\n"
                "scenario.box.u_min = 1.0\n"
                "scenario.box.u_max = 1.0\n"
                f"output.dir = {tmp_path}/out\n")
        assert main(["certify", "--config", write_cfg(tmp_path, text)]) == 2
        assert capsys.readouterr().err.strip() == \
            "config:6:21: scenario.box.t_lo: needs 1 or 2 entries, got 3"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value, message", [
        ("scenario.weights", "0.5, 0.6", "entries must sum to 1, got 1.1"),
        ("scenario.weights", "1.5, -0.5", "entries must be nonnegative"),
        ("scenario.weights", "nan, 0.5", "entries must be finite"),
        ("scenario.t", "-13, nan", "entries must be finite"),
        ("scenario.u", "1, 0", "entries must be positive"),
        ("scenario.box.t_lo", "-20, 3", "needs 1 entry, got 2"),
        ("kernel.tau", "2.0", "2.0 exceeds scenario.box.u_min = 1.0")])
    def test_scenario_value_error_at_its_value(self, tmp_path, capsys, key, value,
                                               message):
        lines = [line for line in SEPARATED.splitlines()
                 if not line.startswith(f"{key} =")]
        lines += ["experiment.n = 300", f"output.dir = {tmp_path}/out",
                  f"{key} = {value}"]
        cfg = write_cfg(tmp_path, "\n".join(lines) + "\n")
        assert main(["solve", "--config", cfg]) == 2
        assert capsys.readouterr().err.strip() == \
            f"config:{len(lines)}:{len(key) + 4}: {key}: {message}"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value, at, message", [
        ("scenario.box.u_min", "0", None, "must be positive and finite, got 0.0"),
        ("scenario.box.u_min", "-1", None, "must be positive and finite, got -1.0"),
        ("scenario.box.u_min", "nan", None, "must be positive and finite, got nan"),
        ("scenario.box.u_max", "inf", None, "must be positive and finite, got inf"),
        ("scenario.box.t_hi", "inf", None, "entries must be finite"),
        ("scenario.box.t_lo", "nan", None, "entries must be finite"),
        ("scenario.box.t_lo", "30", "scenario.box.t_hi",
         "[20.0] must exceed scenario.box.t_lo = [30.0] in every coordinate"),
        ("scenario.box.u_max", "0.5", None, "0.5 is below scenario.box.u_min = 1.0"),
        ("scenario.t", "-13, 25", None,
         "row [25.0] lies outside scenario.box.t_lo = [-20.0], t_hi = [20.0]"),
        ("scenario.u", "1, 2", None,
         "row [2.0] lies outside scenario.box.u_min = 1.0, u_max = 1.0"),
        ("scenario.t", "-13, 13, 0", None,
         "needs 2 rows, one per scenario.weights entry, got 3"),
        ("scenario.u", "1", None, "needs 2 rows, one per scenario.weights entry, got 1")])
    def test_scenario_error_at_the_key_read_later(self, tmp_path, capsys, key, value,
                                                  at, message):
        # single-key checks report at their own value, checks across keys at
        # the value of the key read later
        at = at or key
        lines = [f"{key} = {value}" if line.startswith(f"{key} =") else line
                 for line in SEPARATED.splitlines()]
        lines += ["experiment.n = 300", f"output.dir = {tmp_path}/out"]
        line = next(i for i, text in enumerate(lines, 1) if text.startswith(f"{at} ="))
        cfg = write_cfg(tmp_path, "\n".join(lines) + "\n")
        assert main(["solve", "--config", cfg]) == 2
        assert capsys.readouterr().err.strip() == \
            f"config:{line}:{len(at) + 4}: {at}: {message}"
        assert not (tmp_path / "out").exists()

    def test_domain_error_becomes_config_error(self):
        text = SEPARATED.replace("scenario.weights = 0.5, 0.5",
                                 "scenario.weights = 0.7, 0.5")
        with pytest.raises(ConfigError):
            build_run_config(parse_config_text(text))

    def test_bad_value_type_reports_position(self):
        text = SEPARATED.replace("kernel.d = 1", "kernel.d = one")
        with pytest.raises(ConfigError) as err:
            build_run_config(parse_config_text(text))
        assert err.value.line == 2

    def test_resolved_config_golden(self):
        # the sidecar schema: every key, defaults filled in, box bounds
        # broadcast to d
        text = ("kernel.d = 2\n"
                "kernel.tau = 1.0\n"
                "scenario.weights = 0.25, 0.5, 0.25\n"
                "scenario.t = -27 0; 0 20; 27 0\n"
                "scenario.u = 1 1; 1 1; 1 1\n"
                "scenario.box.t_lo = -35\n"
                "scenario.box.t_hi = 35\n"
                "scenario.box.u_min = 1.0\n"
                "scenario.box.u_max = 1.0\n")
        expected = {
            "kernel.d": 2, "kernel.tau": 1.0, "kernel.tau_rule": "fixed",
            "scenario.weights": [0.25, 0.5, 0.25],
            "scenario.t": [[-27.0, 0.0], [0.0, 20.0], [27.0, 0.0]],
            "scenario.u": [[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]],
            "scenario.box.t_lo": [-35.0, -35.0],
            "scenario.box.t_hi": [35.0, 35.0],
            "scenario.box.u_min": 1.0, "scenario.box.u_max": 1.0,
            "solver.max_particles": 8, "solver.iterations": 400,
            "solver.step_w": 0.5, "solver.step_x": 2.0,
            "solver.merge_radius": None, "solver.prune_threshold": None,
            "solver.merge_period": 25, "solver.tolerance": 1e-11,
            "solver.patience": 20, "solver.max_backtracks": 30,
            "experiment.n": None, "experiment.n_grid": [],
            "experiment.replications": 1, "experiment.kappa_rule": "agnostic",
            "experiment.kappa": None, "experiment.r_e": None,
            "data.file": None, "output.dir": ".", "seed.master": 0,
        }
        resolved = build_run_config(parse_config_text(text)).resolved
        assert resolved == expected
        # same JSON too, so ints stay ints in the sidecar
        assert json.dumps(resolved, sort_keys=True) == \
            json.dumps(expected, sort_keys=True)
        solver_keys = {f"solver.{f.name}" for f in dataclasses.fields(SolverConfig)}
        assert solver_keys <= set(resolved)


class TestCertify:
    def test_separated_scenario_passes(self, tmp_path):
        cfg = write_cfg(tmp_path, SEPARATED + f"output.dir = {tmp_path}/out\n")
        assert main(["certify", "--config", cfg]) == 0
        clauses = read_rows(tmp_path / "out" / "certify_clauses.csv")
        assert clauses[0] == ["clause", "points", "worst_margin", "worst_point",
                              "violations", "passed"]
        assert clauses[1][0] == "separation"
        assert all(row[5] == "true" for row in clauses[1:])
        sols = read_rows(tmp_path / "out" / "certify_solutions.csv")
        kinds = [row[0] for row in sols[1:]]
        assert kinds == ["global", "local", "local"]
        assert all(row[5] == "true" for row in sols[1:])
        # global certificate p-norm^2 <= 2s, locals <= 2
        assert float(sols[1][2]) ** 2 <= 2 * 2 + 1e-9
        assert float(sols[2][2]) ** 2 <= 2 + 1e-9
        assert all(float(row[3]) < 1e-9 for row in sols[1:])
        meta = read_meta(tmp_path / "out" / "certify_clauses.csv.meta.json")
        assert meta["all_clauses_pass"] is True
        assert meta["separation_satisfied"] is True
        assert meta["config"]["kernel.tau"] == 1.0
        assert meta["config"]["scenario.weights"] == [0.5, 0.5]

    def test_unseparated_scenario_fails(self, tmp_path):
        text = SEPARATED.replace("scenario.t = -13, 13", "scenario.t = -1, 1")
        cfg = write_cfg(tmp_path, text + f"output.dir = {tmp_path}/out\n")
        assert main(["certify", "--config", cfg]) == 1
        clauses = read_rows(tmp_path / "out" / "certify_clauses.csv")
        sep_row = clauses[1]
        assert sep_row[0] == "separation" and sep_row[5] == "false"

    def test_coincident_components_exit_1(self, tmp_path):
        # two identical components: the certificate system is singular, and
        # certify reports it as a failed clause instead of raising
        text = SEPARATED.replace("scenario.t = -13, 13", "scenario.t = 2, 2")
        cfg = write_cfg(tmp_path, text + f"output.dir = {tmp_path}/out\n")
        assert main(["certify", "--config", cfg]) == 1
        clauses = read_rows(tmp_path / "out" / "certify_clauses.csv")
        assert [row[0] for row in clauses[1:]] == ["separation", "certificate-system"]
        assert clauses[2] == ["certificate-system", "0", "inf", "", "1", "false"]
        assert read_rows(tmp_path / "out" / "certify_solutions.csv") == [
            ["kind", "index", "p_norm", "residual", "p_norm_sq_bound", "within_bound"]]
        for name in ("certify_clauses.csv", "certify_solutions.csv"):
            meta = read_meta(tmp_path / "out" / f"{name}.meta.json")
            assert meta["all_clauses_pass"] is False
            assert meta["separation_satisfied"] is False
            assert meta["error"] == ("singular certificate system (anchors 0 and 1 "
                                     "coincide; system is singular (condition "
                                     "estimate inf))")

    def test_malformed_config_exit_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "kernel.d 1\n")
        assert main(["certify", "--config", cfg]) == 2
        assert "config:1:" in capsys.readouterr().err

    @pytest.mark.parametrize("d", ["0", "-1"])
    def test_dimension_below_one_exit_2(self, tmp_path, capsys, d):
        cfg = write_cfg(tmp_path, SEPARATED.replace("kernel.d = 1", f"kernel.d = {d}"))
        assert main(["certify", "--config", cfg]) == 2
        assert capsys.readouterr().err.strip() == \
            f"config:2:12: kernel.d: must be at least 1, got {d}"

    @pytest.mark.parametrize("content", [None, b"kernel.d = 1\xff\n"],
                             ids=["missing", "not-utf8"])
    def test_unreadable_config_exit_2(self, tmp_path, capsys, content):
        path = tmp_path / "run.cfg"
        if content is not None:
            path.write_bytes(content)
        assert main(["certify", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith(
            "config error: cannot read config file: ")

    @pytest.mark.parametrize("command", ["certify", "solve"])
    def test_threads_is_a_rates_flag(self, tmp_path, command, capsys):
        cfg = write_cfg(tmp_path, SEPARATED)
        with pytest.raises(SystemExit) as err:
            main([command, "--config", cfg, "--threads", "2"])
        assert err.value.code == 2
        assert "--threads" in capsys.readouterr().err


class TestSolve:
    def _config(self, tmp_path, *, extra="", drop="", name="run.cfg",
                scenario=SINGLE_COMPONENT):
        text = (scenario + SOLVE_TUNING
                + "experiment.n = 3000\n"
                + f"output.dir = {tmp_path}/out\n"
                + "seed.master = 42\n"
                + extra)
        if drop:
            text = "\n".join(ln for ln in text.splitlines()
                             if not ln.startswith(drop)) + "\n"
        return write_cfg(tmp_path, text, name=name)

    def test_single_component_accepted(self, tmp_path):
        assert main(["solve", "--config", self._config(tmp_path)]) == 0
        rows = read_rows(tmp_path / "out" / "solve_measure.csv")
        assert rows[0] == ["atom", "weight", "t_0", "u_0"]
        assert len(rows) >= 2
        # the dominant atom sits near the true component (0, 1)
        best = max(rows[1:], key=lambda r: float(r[1]))
        assert abs(float(best[2])) < 0.2
        assert abs(float(best[3]) - 1.0) < 0.2
        meta = read_meta(tmp_path / "out" / "solve_measure.csv.meta.json")
        assert meta["acceptance"] is True and meta["aborted"] is False
        assert meta["stalled"] is False
        assert meta["n"] == 3000 and meta["kappa"] > 0
        trace = read_rows(tmp_path / "out" / "solve_trace.csv")
        assert trace[0][:3] == ["iteration", "objective", "fidelity"]
        vals = [float(r[1]) for r in trace[1:]]
        assert len(vals) >= 2
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_byte_identical_reruns(self, tmp_path):
        cfg = self._config(tmp_path)
        main(["solve", "--config", cfg])
        first = (tmp_path / "out" / "solve_measure.csv").read_bytes()
        main(["solve", "--config", cfg])
        assert (tmp_path / "out" / "solve_measure.csv").read_bytes() == first

    def test_seed_override_changes_output(self, tmp_path):
        cfg = self._config(tmp_path)
        main(["solve", "--config", cfg])
        first = (tmp_path / "out" / "solve_measure.csv").read_bytes()
        main(["solve", "--config", cfg, "--seed", "43"])
        assert (tmp_path / "out" / "solve_measure.csv").read_bytes() != first

    def test_seed_override_is_recorded(self, tmp_path):
        # the sidecar must name the seed that produced the data
        assert main(["solve", "--config", self._config(tmp_path),
                     "--seed", "5"]) == 0
        for name in ("solve_measure.csv", "solve_trace.csv"):
            meta = read_meta(tmp_path / "out" / f"{name}.meta.json")
            assert meta["config"]["seed.master"] == 5

    def test_data_file_input(self, tmp_path):
        rng = np.random.default_rng(0)
        data = tmp_path / "obs.txt"
        np.savetxt(data, rng.normal(0.0, 1.0, size=2000))
        cfg = self._config(tmp_path, extra=f"data.file = {data}\n",
                           drop="experiment.n")
        assert main(["solve", "--config", cfg]) == 0
        meta = read_meta(tmp_path / "out" / "solve_measure.csv.meta.json")
        assert meta["n"] == 2000

    def test_missing_data_file_exit_2(self, tmp_path, capsys):
        cfg = self._config(tmp_path, extra="data.file = /nonexistent/data.txt\n",
                           drop="experiment.n")
        assert main(["solve", "--config", cfg]) == 2
        assert "not found" in capsys.readouterr().err

    def test_both_n_and_data_file_exit_2(self, tmp_path, capsys):
        data = tmp_path / "obs.txt"
        np.savetxt(data, np.zeros(10))
        cfg = self._config(tmp_path, extra=f"data.file = {data}\n")
        assert main(["solve", "--config", cfg]) == 2
        assert "not both" in capsys.readouterr().err

    def test_missing_n_exit_2(self, tmp_path, capsys):
        cfg = self._config(tmp_path, drop="experiment.n")
        assert main(["solve", "--config", cfg]) == 2
        assert "experiment.n" in capsys.readouterr().err

    def test_non_finite_data_file_exit_2(self, tmp_path, capsys):
        data = tmp_path / "obs.txt"
        data.write_text("0.5\nnan\n1.5\n")
        cfg = self._config(tmp_path, extra=f"data.file = {data}\n",
                           drop="experiment.n")
        assert main(["solve", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config") and "non-finite" in err

    @pytest.mark.parametrize("text", ["", "# no observations\n"],
                             ids=["empty", "comments"])
    @pytest.mark.parametrize("d", [1, 2])
    def test_empty_data_file_exit_2(self, tmp_path, capsys, recwarn, d, text):
        # numpy loads either file as shape (0, 1), so in d = 2 the row count
        # must be checked before the column count
        data = tmp_path / "obs.txt"
        data.write_text(text)
        cfg = self._config(tmp_path, extra=f"data.file = {data}\n",
                           drop="experiment.n",
                           scenario=SINGLE_COMPONENT_D2 if d == 2 else SINGLE_COMPONENT)
        assert main(["solve", "--config", cfg]) == 2
        assert capsys.readouterr().err == "config error: need at least 2 observations\n"
        # numpy's "input contained no data" warning is not printed before it
        assert not recwarn.list

    def test_prediction_tau_above_u_min_exit_2(self, tmp_path, capsys):
        # n = 5 gives tau = sqrt(2) / sqrt(ln 5) = 1.115 > u_min = 1
        text = (SEPARATED + "kernel.tau_rule = prediction\n"
                + "experiment.n = 5\n" + f"output.dir = {tmp_path}/out\n")
        assert main(["solve", "--config", write_cfg(tmp_path, text)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config") and "u_min" in err


    def test_negative_seed_key_exit_2(self, tmp_path, capsys):
        self._config(tmp_path, drop="seed.master")
        text = (tmp_path / "run.cfg").read_text() + "seed.master = -3\n"
        line = len(text.splitlines())
        assert main(["solve", "--config", write_cfg(tmp_path, text)]) == 2
        assert capsys.readouterr().err.strip() == \
            f"config:{line}:15: seed.master: must be a nonnegative integer, got -3"
        assert not (tmp_path / "out").exists()

    def test_negative_seed_override_exit_2(self, tmp_path, capsys):
        assert main(["solve", "--config", self._config(tmp_path),
                     "--seed", "-5"]) == 2
        assert capsys.readouterr().err.strip() == \
            "config error: seed.master: must be a nonnegative integer, got -5"
        assert not (tmp_path / "out").exists()

    def test_zero_patience_exit_2(self, tmp_path, capsys):
        cfg = self._config(tmp_path, extra="solver.patience = 0\n")
        line = len((tmp_path / "run.cfg").read_text().splitlines())
        assert main(["solve", "--config", cfg]) == 2
        assert capsys.readouterr().err.strip() == \
            f"config:{line}:19: solver.patience: need patience >= 1"

    @pytest.mark.parametrize("key, value, message", [
        ("max_backtracks", "-1", "need max_backtracks >= 0"),
        ("tolerance", "-1e-9", "tolerance must be nonnegative and finite")])
    def test_solver_range_error_at_key_position(self, tmp_path, capsys, key,
                                                value, message):
        cfg = self._config(tmp_path, extra=f"solver.{key} = {value}\n")
        line = len((tmp_path / "run.cfg").read_text().splitlines())
        col = len(f"solver.{key} = ") + 1
        assert main(["solve", "--config", cfg]) == 2
        assert capsys.readouterr().err.strip() == \
            f"config:{line}:{col}: solver.{key}: {message}"

    def test_kappa_override_is_used(self, tmp_path):
        cfg = self._config(tmp_path, extra="experiment.kappa = 0.02\n")
        assert main(["solve", "--config", cfg]) == 0
        for name in ("solve_measure.csv", "solve_trace.csv"):
            meta = read_meta(tmp_path / "out" / f"{name}.meta.json")
            assert meta["kappa"] == 0.02
            assert meta["config"]["experiment.kappa"] == 0.02

    def test_every_atom_pruned(self, tmp_path):
        # at this kappa the zero measure is the solution: the first merge
        # step prunes every atom, and solve writes a header-only measure
        cfg = write_cfg(tmp_path, SEPARATED + "solver.iterations = 50\n"
                        "solver.merge_period = 1\nsolver.prune_threshold = 1e9\n"
                        "experiment.kappa = 10\nexperiment.n = 1000\n"
                        f"output.dir = {tmp_path}/out\n")
        assert main(["solve", "--config", cfg]) == 0
        rows = read_rows(tmp_path / "out" / "solve_measure.csv")
        assert rows == [["atom", "weight", "t_0", "u_0"]]
        meta = read_meta(tmp_path / "out" / "solve_measure.csv.meta.json")
        assert meta["acceptance"] is True and meta["converged"] is True

    def test_max_particles_above_bound_exit_2(self, tmp_path, capsys):
        # (s, s, 2d) kernel arrays at s = 1e5 would need about 75 GiB; the
        # config is refused before any sample is drawn
        cfg = self._config(tmp_path, extra="solver.max_particles = 100000\n")
        line = len((tmp_path / "run.cfg").read_text().splitlines())
        assert main(["solve", "--config", cfg]) == 2
        assert capsys.readouterr().err.strip() == (
            f"config:{line}:24: solver.max_particles: "
            "need 1 <= max_particles <= 1024, got 100000")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kappa", ["0", "-1", "inf", "nan"])
    def test_bad_kappa_exit_2(self, tmp_path, capsys, kappa):
        cfg = self._config(tmp_path, extra=f"experiment.kappa = {kappa}\n")
        assert main(["solve", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config") and "experiment.kappa" in err


class TestRates:
    def _config(self, tmp_path):
        text = (SEPARATED.replace("seed.master = 0", "seed.master = 9")
                + SOLVE_TUNING
                + "experiment.n_grid = 300, 900\n"
                + "experiment.replications = 2\n"
                + "experiment.kappa_rule = agnostic\n"
                + f"output.dir = {tmp_path}/out\n")
        return write_cfg(tmp_path, text, name="rates.cfg")

    def test_outputs_and_headers(self, tmp_path):
        assert main(["rates", "--config", self._config(tmp_path)]) == 0
        rep = read_rows(tmp_path / "out" / "rates_replications.csv")
        assert rep[0] == ["n", "replication", "kappa", "tau", "ok", "error",
                          "mass_error", "far_mass", "tv_error",
                          "prediction_error", "atoms", "exactly_one_each",
                          "converged"]
        assert len(rep) == 5                    # 2 sizes x 2 replications
        assert all(row[4] == "true" for row in rep[1:])
        agg = read_rows(tmp_path / "out" / "rates_aggregates.csv")
        assert agg[0][-2:] == ["slope_mass_error", "slope_prediction_error"]
        assert len(agg) == 3
        meta = read_meta(tmp_path / "out" / "rates_aggregates.csv.meta.json")
        assert set(meta["slopes"]) >= {"mass_error", "prediction_error"}

    def test_byte_identical_across_runs_and_threads(self, tmp_path):
        cfg = self._config(tmp_path)
        # --out and --threads are not part of the resolved configuration, so
        # the data files and meta sidecars must match byte for byte
        assert main(["rates", "--config", cfg, "--threads", "1",
                     "--out", str(tmp_path / "a")]) == 0
        assert main(["rates", "--config", cfg, "--threads", "4",
                     "--out", str(tmp_path / "b")]) == 0
        for name in ("rates_replications.csv", "rates_aggregates.csv",
                     "rates_replications.csv.meta.json",
                     "rates_aggregates.csv.meta.json"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes(), name

    def test_kappa_override_is_ignored(self, tmp_path):
        # rates applies experiment.kappa_rule at every size; a fixed kappa
        # would break the rho_n scaling the sweep measures
        text = (SEPARATED + SOLVE_TUNING
                + "experiment.n_grid = 300\n"
                + "experiment.replications = 1\n"
                + "experiment.kappa = 0.5\n"
                + f"output.dir = {tmp_path}/out\n")
        cfg = write_cfg(tmp_path, text)
        assert main(["rates", "--config", cfg]) == 0
        rows = read_rows(tmp_path / "out" / "rates_replications.csv")
        run = build_run_config(parse_config_text(text))
        rec = recommended_parameters(300, 1, 1.0, run.box, s_hint=2)
        assert float(rows[1][2]) == rec.kappa("agnostic") != 0.5

    def test_effective_radii_extra_columns(self, tmp_path):
        text = (SEPARATED + SOLVE_TUNING
                + "experiment.n_grid = 300\n"
                + "experiment.replications = 1\n"
                + "experiment.r_e = 0.3025, 0.15\n"
                + f"output.dir = {tmp_path}/out\n")
        assert main(["rates", "--config", write_cfg(tmp_path, text)]) == 0
        rep = read_rows(tmp_path / "out" / "rates_replications.csv")
        assert "mass_error_r1" in rep[0]

    def test_effective_radius_above_near_radius_exit_2(self, tmp_path, capsys):
        # region masses need r_e <= near_radius(1) = 0.3025
        text = (SEPARATED + "experiment.n_grid = 200\n"
                + "experiment.replications = 2\n" + "experiment.r_e = 0.5\n"
                + f"output.dir = {tmp_path}/out\n")
        assert main(["rates", "--config", write_cfg(tmp_path, text)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config") and "experiment.r_e" in err

    def test_negative_seed_exit_2(self, tmp_path, capsys):
        self._config(tmp_path)
        text = (tmp_path / "rates.cfg").read_text().replace("seed.master = 9",
                                                            "seed.master = -3")
        assert main(["rates", "--config", write_cfg(tmp_path, text)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config:") and "seed.master: must be a nonnegative" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("count, code", [("-1", 2), ("0", 2)])
    def test_replications_range_at_its_line(self, tmp_path, capsys, count, code):
        self._config(tmp_path)
        text = (tmp_path / "rates.cfg").read_text().replace(
            "experiment.replications = 2", f"experiment.replications = {count}")
        line = text.splitlines().index(f"experiment.replications = {count}") + 1
        assert main(["rates", "--config", write_cfg(tmp_path, text)]) == code
        err = capsys.readouterr().err.strip()
        if code:
            assert err == (f"config:{line}:27: experiment.replications: "
                           f"must be at least 1, got {count}")
            assert not (tmp_path / "out").exists()

    def test_empty_grid_exit_2(self, tmp_path, capsys):
        text = SEPARATED + f"output.dir = {tmp_path}/out\n"
        assert main(["rates", "--config", write_cfg(tmp_path, text)]) == 2
        assert "n_grid" in capsys.readouterr().err

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_exit_2(self, tmp_path, capsys, threads):
        assert main(["rates", "--config", self._config(tmp_path),
                     "--threads", threads]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config") and "--threads" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value, message", [
        ("experiment.kappa", "-1", "must be positive and finite, got -1.0"),
        ("experiment.n_grid", "200, 1", "entries must be at least 2"),
        # the aggregates would pool two entries of one size into one row
        ("experiment.n_grid", "200, 300, 200", "repeats the sample size 200"),
        ("experiment.r_e", "0.5", "entries must lie in (0, 0.3025]"),
        ("kernel.tau", "-1", "must be positive and finite, got -1.0"),
        ("kernel.tau", "nan", "must be positive and finite, got nan")])
    def test_range_error_at_its_value(self, tmp_path, capsys, key, value, message):
        lines = [line for line in SEPARATED.splitlines()
                 if not line.startswith(f"{key} =")]
        if key != "experiment.n_grid":
            lines.append("experiment.n_grid = 200")
        lines += [f"output.dir = {tmp_path}/out", f"{key} = {value}"]
        cfg = write_cfg(tmp_path, "\n".join(lines) + "\n")
        assert main(["rates", "--config", cfg]) == 2
        assert capsys.readouterr().err.strip() == \
            f"config:{len(lines)}:{len(key) + 4}: {key}: {message}"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("grid", ["1, 0", "300, 1"])
    def test_sample_size_below_2_exit_2(self, tmp_path, capsys, grid):
        text = (SEPARATED + f"experiment.n_grid = {grid}\n"
                + f"output.dir = {tmp_path}/out\n")
        assert main(["rates", "--config", write_cfg(tmp_path, text)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config") and "experiment.n_grid" in err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["certify", "solve", "rates"])
@pytest.mark.parametrize("below", [False, True], ids=["file", "below-file"])
def test_output_dir_that_cannot_be_made_exit_2(tmp_path, capsys, command, below):
    # an existing file named by output.dir, or a path below one named by --out
    config = {"certify": SEPARATED,
              "solve": SINGLE_COMPONENT + "experiment.n = 300\n",
              "rates": SEPARATED + "experiment.n_grid = 300\n"}[command]
    (tmp_path / "taken").write_text("")
    out = tmp_path / "taken" / "out" if below else tmp_path / "taken"
    argv = [command, "--config"]
    if below:
        argv += [write_cfg(tmp_path, config), "--out", str(out)]
    else:
        argv += [write_cfg(tmp_path, config + f"output.dir = {out}\n")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot create output directory: ")
    assert str(out) in err and err.count("\n") == 1


class TestKernelCheck:
    def test_passes(self, capsys):
        assert main(["kernel-check", "--samples", "400", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "all checks passed" in out
        assert "FAIL" not in out

    def test_rejects_nonpositive_samples(self, capsys):
        assert main(["kernel-check", "--samples", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config") and "positive" in err

    def test_rejects_negative_seed(self, capsys):
        assert main(["kernel-check", "--samples", "200", "--seed", "-1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config") and "--seed" in err and "nonnegative" in err

    def test_detects_seeded_defect(self, capsys, monkeypatch):
        # flip the sign of one Christoffel family; the metric-consistency
        # check must flag the mutation
        from gmblasso.kernel import _christoffel_coeffs as real

        def mutated(y, tau):
            gt, gu_tt, gu_uu = real(y, tau)
            return -gt, gu_tt, gu_uu

        monkeypatch.setattr("gmblasso.cli._christoffel_coeffs", mutated)
        assert main(["kernel-check", "--samples", "200"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "check(s) failed" in out


    def test_detects_truncated_table(self, capsys, monkeypatch):
        # a moment table cut at order 2 must fail the table checks
        monkeypatch.setattr("gmblasso.kernel._truncation_order", lambda ratio: 2)
        assert main(["kernel-check", "--samples", "200"]) == 1
        out = capsys.readouterr().out
        assert "FAIL  d=1 witness table vs direct sum" in out
        assert "FAIL  d=2 C table vs pair sum" in out


class TestUsage:
    def test_no_arguments_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_config_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["solve"])
        assert exc.value.code == 2
