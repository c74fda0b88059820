"""CLI behavior: schemas, determinism, exit codes."""

import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import oracles as oc
from secondorder import ConsistencyFailure, IntegrationFailure, cli
from secondorder.cli import CURVE_HEADER, EVAL_HEADER, PANEL_HEADER, main

DIRAC_MIX_SPEC = json.dumps(
    {
        "kind": "mixture",
        "weights": [0.5, 0.5],
        "components": [
            {"kind": "point", "theta": [1, 0]},
            {"kind": "point", "theta": [0, 1]},
        ],
    }
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_unrecognized(capsys, *argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "unrecognized arguments" in captured.err


# Commands that take --seed but no engine flag.
SEEDED = (["eval", '{"kind":"point","theta":[0.5,0.5]}'], ["panel"])


class TestEval:
    def test_point_mass(self, capsys):
        code, out, _ = run_cli(capsys, "eval", '{"kind":"point","theta":[0.5,0.5]}')
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "name,total,aleatoric,epistemic,alea_lower,alea_upper,error_bound"
        assert lines[1] == "point,1,1,0,1,1,0"

    def test_dirac_mixture(self, capsys):
        code, out, _ = run_cli(capsys, "eval", DIRAC_MIX_SPEC)
        assert code == 0
        assert out.splitlines()[1] == "mixture,1,0,1,0,0,0"

    def test_malformed_spec_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "eval", '{"kind":"interval_uniform","lo":0.7,"hi":0.3}')
        assert code == 2
        assert out == ""
        assert "lo" in err or "hi" in err

    def test_invalid_json_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "eval", "{not json")
        assert code == 2
        assert out == ""

    def test_spec_from_file(self, capsys, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text('{"kind":"dirichlet","alpha":[1,1]}')
        code, out, _ = run_cli(capsys, "eval", str(path))
        assert code == 0
        row = out.splitlines()[1].split(",")
        assert row[0] == "dirichlet"
        assert float(row[1]) == 1.0
        assert float(row[2]) == pytest.approx(oc.FROZEN_UNIFORM01_ALEATORIC_BITS, abs=1e-9)

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "eval", "no/such/file.json")
        assert code == 2

    def test_numerical_failure_exits_3(self, capsys, monkeypatch):
        for failure in (IntegrationFailure, ConsistencyFailure):

            def fail(*args, **kwargs):
                raise failure("planted")

            monkeypatch.setattr(cli, "decompose", fail)
            code, out, err = run_cli(capsys, "eval", '{"kind":"interval_uniform","lo":0,"hi":1}')
            assert code == 3
            assert out == ""
            assert "numerical failure" in err

    @pytest.mark.parametrize(
        "spec, flag, value",
        [('{"kind":"point","theta":[0.5,0.5]}', "--seed", "-1")],
        ids=["negative-seed"],
    )
    def test_bad_engine_option_exits_2(self, capsys, spec, flag, value):
        code, out, err = run_cli(capsys, "eval", spec, flag, value)
        assert code == 2
        assert out == ""
        assert "must be" in err

    def test_deeply_nested_json_exits_2(self, capsys):
        spec = '{"kind":"point","theta":' + "[" * 100_000 + "]" * 100_000 + "}"
        code, out, err = run_cli(capsys, "eval", spec)
        assert code == 2
        assert out == ""
        assert "nested too deeply" in err

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", '{"kind":"point","theta":[0.5,0.5]}', "--format", "json"
        )
        assert code == 0
        rows = json.loads(out)
        assert rows[0]["name"] == "point"
        assert rows[0]["total"] == 1.0

    def test_subnormal_ensemble_exits_0(self, capsys):
        spec = '{"kind":"ensemble","members":[[5e-324,1],[5e-324,1]]}'
        code, out, err = run_cli(capsys, "eval", spec)
        assert code == 0, err
        assert out.splitlines()[1].startswith("ensemble,")

    def test_subnormal_interval_exits_0(self, capsys):
        code, out, err = run_cli(capsys, "eval", '{"kind":"interval_uniform","lo":0,"hi":5e-324}')
        assert code == 0, err
        assert out.splitlines()[1].startswith("interval_uniform,")

    def test_raw_nats(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "eval",
            '{"kind":"point","theta":[0.5,0.5]}',
            "--unit",
            "nats",
            "--raw",
        )
        assert code == 0
        row = out.splitlines()[1].split(",")
        assert float(row[1]) == pytest.approx(0.6931471805599453, abs=1e-9)


class TestPanel:
    def test_rows_and_values(self, capsys):
        code, out, _ = run_cli(capsys, "panel")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "name,total,aleatoric,epistemic"
        names = [line.split(",")[0] for line in lines[1:]]
        assert names == [
            "uniform_full",
            "dirac_half",
            "uniform_03_10",
            "uniform_03_07",
            "uniform_06_10",
            "dirac_mixture_01",
        ]
        by_name = {line.split(",")[0]: line.split(",")[1:] for line in lines[1:]}
        assert by_name["dirac_half"] == ["1", "1", "0"]
        assert by_name["dirac_mixture_01"] == ["1", "0", "1"]
        uniform = [float(v) for v in by_name["uniform_full"]]
        assert uniform[0] == 1.0
        assert uniform[1] == pytest.approx(oc.FROZEN_UNIFORM01_ALEATORIC_BITS, abs=1e-6)
        assert uniform[2] == pytest.approx(oc.FROZEN_UNIFORM01_EPISTEMIC_BITS, abs=1e-6)

    def test_shift_pattern_in_output(self, capsys):
        _, out, _ = run_cli(capsys, "panel")
        rows = {line.split(",")[0]: [float(v) for v in line.split(",")[1:]] for line in out.splitlines()[1:]}
        centred, shifted = rows["uniform_03_07"], rows["uniform_06_10"]
        assert centred[0] > shifted[0]  # total
        assert centred[1] > shifted[1]  # aleatoric
        assert centred[2] < shifted[2]  # epistemic

    def test_byte_identical_runs(self, capsys):
        _, first, _ = run_cli(capsys, "panel")
        _, second, _ = run_cli(capsys, "panel")
        assert first == second

    def test_deeply_nested_panel_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "panels.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        code, out, err = run_cli(capsys, "panel", "--panel-file", str(path))
        assert code == 2
        assert "nested too deeply" in err

    def test_panel_file_override(self, capsys, tmp_path):
        path = tmp_path / "panels.json"
        path.write_text(
            json.dumps(
                [{"name": "my_dirichlet", "spec": {"kind": "dirichlet", "alpha": [2, 2]}}]
            )
        )
        code, out, _ = run_cli(capsys, "panel", "--panel-file", str(path))
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 2
        name, total, alea, epi = lines[1].split(",")
        assert name == "my_dirichlet"
        assert float(alea) == pytest.approx(oc.FROZEN_DIRICHLET_22_ENTROPY_BITS, abs=1e-9)


HUGE = "1" + "0" * 400  # a JSON integer beyond float range


class TestHugeIntegers:
    @pytest.mark.parametrize(
        "spec",
        [
            f'{{"kind":"point","theta":[{HUGE},1]}}',
            f'{{"kind":"dirichlet","alpha":[{HUGE},1]}}',
            f'{{"kind":"interval_uniform","lo":0,"hi":{HUGE}}}',
            f'{{"kind":"mixture","weights":[{HUGE}],"components":[{{"kind":"point","theta":[0.5,0.5]}}]}}',
        ],
        ids=["theta", "alpha", "hi", "weights"],
    )
    def test_eval_exits_2(self, capsys, spec):
        code, out, err = run_cli(capsys, "eval", spec)
        assert code == 2
        assert out == ""
        assert "must be numbers" in err and "Traceback" not in err


class TestCurve:
    FAST = ("--replications", "3", "--schedule", "0,1,2,5,10")

    def test_header_and_start_row(self, capsys):
        code, out, _ = run_cli(capsys, "curve", *self.FAST, "--seed", "42")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,total,aleatoric,epistemic,total_minus_epistemic"
        assert len(lines) == 6
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[1]) == 1.0
        assert float(first[2]) == pytest.approx(oc.FROZEN_UNIFORM01_ALEATORIC_BITS, abs=1e-9)
        assert float(first[3]) == pytest.approx(oc.FROZEN_UNIFORM01_EPISTEMIC_BITS, abs=1e-9)

    def test_default_schedule_has_13_rows(self, capsys):
        code, out, _ = run_cli(capsys, "curve", "--replications", "1", "--seed", "42")
        assert code == 0
        assert len(out.splitlines()) == 14

    def test_identical_files_for_same_seed(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["curve", *self.FAST, "--seed", "7", "--out", str(a)]) == 0
        assert main(["curve", *self.FAST, "--seed", "7", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_different_seed_changes_output(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["curve", *self.FAST, "--seed", "7", "--out", str(a)]) == 0
        assert main(["curve", *self.FAST, "--seed", "8", "--out", str(b)]) == 0
        assert a.read_bytes() != b.read_bytes()

    def test_non_increasing_schedule_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "curve", "--schedule", "0,5,5", "--replications", "1")
        assert code == 2

    def test_schedule_not_starting_at_zero_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "curve", "--schedule", "1,2", "--replications", "1")
        assert code == 2

    def test_non_integer_schedule_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "curve", "--schedule", "0,1.5,2", "--replications", "1")
        assert code == 2
        assert out == ""
        assert "integers" in err

    @pytest.mark.parametrize("schedule", ["0,1e300", "0,inf", "0,9007199254740994", "0,-1"])
    def test_schedule_size_out_of_range_exits_2(self, capsys, schedule):
        code, out, err = run_cli(capsys, "curve", "--schedule", schedule, "--replications", "1")
        assert code == 2
        assert out == ""
        assert "2**53" in err

    def test_bad_theta_star_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "curve", "--theta-star", "0.5,oops", "--replications", "1")
        assert code == 2

    @pytest.mark.parametrize("flag, value", [("--tol", "nan"), ("--mc-samples", "1")])
    def test_engine_options_are_not_taken(self, capsys, flag, value):
        for argv in (["curve", "--replications", "1"], *SEEDED):
            assert_unrecognized(capsys, *argv, flag, value)


class TestEnsembleCommand:
    def test_matrix_file(self, capsys, tmp_path):
        path = tmp_path / "members.txt"
        path.write_text("0.2 0.8\n0.8 0.2\n")
        code, out, _ = run_cli(capsys, "ensemble", str(path))
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "name,total,aleatoric,epistemic,alea_lower,alea_upper,error_bound"
        row = lines[1].split(",")
        assert row[0] == "ensemble_M2_K2"
        assert float(row[1]) == 1.0
        assert float(row[2]) == pytest.approx(oc.FROZEN_H_02_BITS, abs=1e-9)
        assert float(row[3]) == pytest.approx(oc.FROZEN_JS_02_08_BITS, abs=1e-9)

    def test_single_row(self, capsys, tmp_path):
        path = tmp_path / "members.txt"
        path.write_text("0.25 0.75\n")
        code, out, _ = run_cli(capsys, "ensemble", str(path))
        assert code == 0
        row = out.splitlines()[1].split(",")
        assert row[0] == "ensemble_M1_K2"
        assert float(row[3]) == 0.0

    def test_bad_row_exits_2_with_line(self, capsys, tmp_path):
        path = tmp_path / "members.txt"
        path.write_text("0.4 0.5\n0.5 0.5\n")
        code, out, err = run_cli(capsys, "ensemble", str(path))
        assert code == 2
        assert "line 1" in err

    def test_json_ensemble_file(self, capsys, tmp_path):
        path = tmp_path / "members.json"
        path.write_text(json.dumps({"kind": "ensemble", "members": [[0.2, 0.8], [0.8, 0.2]]}))
        code, out, _ = run_cli(capsys, "ensemble", str(path))
        assert code == 0
        assert out.splitlines()[1].split(",")[0] == "ensemble_M2_K2"

    def test_wrong_json_kind_exits_2(self, capsys, tmp_path):
        path = tmp_path / "members.json"
        path.write_text(json.dumps({"kind": "dirichlet", "alpha": [1, 1]}))
        code, _, _ = run_cli(capsys, "ensemble", str(path))
        assert code == 2

    @pytest.mark.parametrize(
        "flag, value", [("--tol", "nan"), ("--mc-samples", "1"), ("--seed", "3")]
    )
    def test_engine_options_are_not_taken(self, capsys, tmp_path, flag, value):
        path = tmp_path / "members.txt"
        path.write_text("0.2 0.8\n0.8 0.2\n")
        for argv in (["ensemble", str(path)], *(SEEDED if flag != "--seed" else ())):
            assert_unrecognized(capsys, *argv, flag, value)


@pytest.mark.parametrize(
    "argv, header",
    [
        (["eval", '{"kind":"dirichlet","alpha":[1,2]}'], EVAL_HEADER),
        (["panel"], PANEL_HEADER),
        (["curve", "--replications", "1", "--schedule", "0,1,2"], CURVE_HEADER),
        (["ensemble", "MEMBERS"], EVAL_HEADER),
    ],
    ids=["eval", "panel", "curve", "ensemble"],
)
def test_json_rows_have_the_csv_columns(capsys, tmp_path, argv, header):
    path = tmp_path / "members.txt"
    path.write_text("0.2 0.8\n0.8 0.2\n")
    argv = [str(path) if arg == "MEMBERS" else arg for arg in argv]
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert rows
    for row in rows:
        assert tuple(row) == header
    code, csv_out, _ = run_cli(capsys, *argv)
    assert tuple(csv_out.splitlines()[0].split(",")) == header


@pytest.mark.parametrize(
    "argv",
    [
        ["curve", "--schedule", "0,10000000000000", "--replications", "1"],
        # Each replication seeds its own generator: 2**30 of them would take hours.
        ["curve", "--schedule", "0", "--replications", str(2**30)],
        # 4 M posteriors to decompose, about 20 minutes of work.
        ["curve", "--schedule", ",".join(map(str, range(10001))), "--replications", "400"],
    ],
    ids=["curve-schedule-1e13", "curve-replications-2**30", "curve-dense-schedule"],
)
def test_work_above_the_ceiling_exits_2(argv):
    # A subprocess with a timeout, so that a missing ceiling fails instead of hanging.
    proc = subprocess.run(
        [sys.executable, "-m", "secondorder.cli", *argv], capture_output=True, text=True, timeout=30
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "MAX_WORK_CELLS" in proc.stderr and "Traceback" not in proc.stderr


def test_overflowing_probabilities_exit_2_without_a_warning():
    proc = subprocess.run(
        [sys.executable, "-m", "secondorder.cli", "eval", '{"kind":"point","theta":[1e308,1e308]}'],
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert proc.returncode == 2
    assert proc.stderr == "error: probabilities sum to inf, not 1\n"
    assert "RuntimeWarning" not in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        # A posterior with alpha near 2**-8: some row of gamma draws underflows to all zeros.
        ["curve", "--replications", "1", "--schedule", "0", "--prior", "0.00390625,0.0078125"],
        ["eval", '{"kind":"dirichlet","alpha":[1e-300,1e-300]}'],
    ],
    ids=["curve-sparse-prior", "eval-subnormal-dirichlet"],
)
def test_nan_from_numpy_exits_3_with_one_line(capsys, argv):
    # The Dirichlet sampler divides 0/0 on such rows; `main` names that, without
    # numpy's warning or a traceback on stderr.
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "")
    assert err == "numerical failure: invalid value encountered in divide\n"


def test_console_script_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "secondorder.cli", "panel"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "name,total,aleatoric,epistemic"


LIGHT_IMPORT = """
import json, sys
before = set(sys.modules)
import secondorder.cli
added = {name.split(".")[0] for name in set(sys.modules) - before}
print(json.dumps(sorted(added - set(sys.stdlib_module_names) - {"numpy", "secondorder"})))
"""


def test_cli_import_loads_only_numpy_and_the_standard_library():
    # Every CLI call pays for its imports; scipy and the other test extras stay out.
    proc = subprocess.run([sys.executable, "-c", LIGHT_IMPORT], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands() -> list[list[str]]:
    """The argv of every `secondorder ...` line in README's sh blocks, comments cut."""
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(), flags=re.M | re.S)
    lines = [line for block in blocks for line in block.splitlines()]
    return [shlex.split(line, comments=True)[1:] for line in lines if line.startswith("secondorder ")]


def test_readme_cli_examples_run(capsys, tmp_path, monkeypatch):
    commands = readme_commands()
    assert commands
    monkeypatch.chdir(tmp_path)
    (tmp_path / "spec.json").write_text('{"kind":"dirichlet","alpha":[1,3,6]}')
    (tmp_path / "members.txt").write_text("# two members\n0.2 0.8\n0.7 0.3\n")
    for argv in commands:
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, (argv, err)
        assert out
