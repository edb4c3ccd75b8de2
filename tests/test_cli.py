import copy
import csv
import io
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import asdict
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import yaml

import lindloc.cli as cli
from lindloc import dynamics, linalg, liouvillian
from lindloc.cli import (
    RunConfig,
    _set_by_path,
    dump_config,
    initial_state,
    load_config,
    make_generator,
)
from lindloc.dynamics import evolve
from lindloc.errors import ConfigError, LindlocError
from lindloc.liouvillian import build_modified_local, product_gibbs
from lindloc.models import DEFAULT_SPECTRAL, TwoQubitParams, two_qubit_model
from lindloc.thermo import ThermoReport, audit_columns

from conftest import gkls, rand_density, resonant_pair_current, von_neumann_entropy

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

INV_2PI = 0.15915494309189535


def base_dict(**overrides):
    data = {
        "model": {
            "builder": "two_qubit",
            "params": {
                "e1": 1.0,
                "e2": 1.0,
                "alpha": 0.01,
                "beta_coupling": 0.01,
                "t1": 2.0,
                "t2": 1.0,
            },
        },
        "generator": "modified",
        "solver": {"dt": 0.02, "t_max": 200.0, "record_stride": 400},
    }
    data.update(overrides)
    return data


def write_yaml(tmp_path, data, name="run.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(data), encoding="utf-8")
    return path


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "lindloc", *map(str, args)],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=300,
    )


# -- config loading and validation ------------------------------------------------


def test_bundled_configs_load_and_round_trip():
    paths = sorted(CONFIG_DIR.glob("*.yaml"))
    assert len(paths) == 6
    for path in paths:
        cfg = load_config(path)
        again = RunConfig.from_dict(yaml.safe_load(dump_config(cfg)))
        assert again == cfg, path.name


LIBYAML = pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")

# inputs that libyaml refuses, three of them in other words than PyYAML's
MALFORMED_YAML = {
    "unclosed flow sequence": "model: [1, 2\n",
    "mapping in a plain scalar": "a: b: c\n",
    "leading tab": "\tmodel: 1\n",
    "python tag": "model: !!python/object:os.system {}\n",
}


@LIBYAML
@pytest.mark.parametrize("text", MALFORMED_YAML.values(), ids=list(MALFORMED_YAML))
def test_malformed_yaml_is_worded_as_pyyaml_words_it(tmp_path, capsys, text):
    path = tmp_path / "bad.yaml"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(yaml.YAMLError):
        yaml.load(text, Loader=yaml.CSafeLoader)
    with open(path, encoding="utf-8") as fh, pytest.raises(yaml.YAMLError) as pure:
        yaml.load(fh, Loader=yaml.SafeLoader)
    assert cli.main(["steady", str(path)]) == 1
    assert capsys.readouterr().err == f"lindloc: error: {path}: invalid YAML: {pure.value}\n"


@LIBYAML
def test_bundled_configs_read_alike_under_either_parser(monkeypatch):
    """libyaml parses every bundled config, to the dict PyYAML makes of it;
    without libyaml the pure-Python parser reads them to the same configs."""
    paths = sorted(CONFIG_DIR.glob("*.yaml"))
    for path in paths:
        text = path.read_text(encoding="utf-8")
        assert yaml.load(text, Loader=yaml.CSafeLoader) == yaml.safe_load(text), path.name
    with mock.patch.object(yaml, "load", wraps=yaml.load) as parse:
        configs = [load_config(path) for path in paths]
    assert [call.kwargs["Loader"] for call in parse.call_args_list] == [yaml.CSafeLoader] * 6
    monkeypatch.setattr(yaml, "__with_libyaml__", False)
    monkeypatch.delattr(yaml, "CSafeLoader")
    assert [load_config(path) for path in paths] == configs


def test_unknown_keys_are_rejected():
    with pytest.raises(ConfigError, match="config.*'extra'"):
        RunConfig.from_dict(base_dict(extra=1))
    data = base_dict()
    data["model"]["params"]["rate"] = 1.0
    with pytest.raises(ConfigError, match=r"model\.params.*'rate'"):
        RunConfig.from_dict(data)
    data = base_dict()
    data["solver"]["steps"] = 10
    with pytest.raises(ConfigError, match=r"solver.*'steps'"):
        RunConfig.from_dict(data)


def test_unknown_keys_of_mixed_types_exit_cleanly(tmp_path, capsys):
    """Unknown keys that are not all strings are named in the order of their
    text, with an error line and exit 1, not a TypeError out of main."""
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump(base_dict()) + "1: x\nfoo: y\n", encoding="utf-8")
    assert cli.main(["steady", str(path), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == "lindloc: error: config: unknown key(s) 1, 'foo'\n"
    assert not (tmp_path / "o").exists()


def test_missing_required_key_names_the_path():
    data = base_dict()
    del data["model"]["params"]["t1"]
    with pytest.raises(ConfigError, match=r"model\.params\.t1: missing"):
        RunConfig.from_dict(data)
    data = base_dict()
    del data["solver"]["dt"]
    with pytest.raises(ConfigError, match=r"solver\.dt: missing"):
        RunConfig.from_dict(data)


def test_builder_and_explicit_are_exclusive():
    data = base_dict()
    data["model"]["explicit"] = {}
    with pytest.raises(ConfigError, match="exactly one"):
        RunConfig.from_dict(data)
    data = base_dict()
    del data["model"]["builder"]
    with pytest.raises(ConfigError, match="exactly one"):
        RunConfig.from_dict(data)


def test_type_errors_name_the_path():
    data = base_dict()
    data["model"]["params"]["t1"] = "hot"
    with pytest.raises(ConfigError, match=r"model\.params\.t1: expected a number"):
        RunConfig.from_dict(data)
    data = base_dict()
    data["solver"]["record_stride"] = 1.5
    with pytest.raises(ConfigError, match=r"solver\.record_stride: expected an integer"):
        RunConfig.from_dict(data)
    data = base_dict(generator="secular")
    with pytest.raises(ConfigError, match="generator"):
        RunConfig.from_dict(data)
    data = base_dict()
    data["model"]["initial_state"] = "vacuum"
    with pytest.raises(ConfigError, match="initial_state"):
        RunConfig.from_dict(data)
    data = base_dict(solver=[0.02, 200.0])
    with pytest.raises(ConfigError, match=r"^solver: expected a mapping, got list$"):
        RunConfig.from_dict(data)
    data = base_dict(output={"formats": "csv"})
    with pytest.raises(ConfigError, match=r"^output\.formats: expected a list, got str$"):
        RunConfig.from_dict(data)
    data = explicit_dict()
    data["model"]["explicit"]["subsystems"][0]["label"] = 5
    message = r"^model\.explicit\.subsystems\[0\]\.label: expected a string, got 5$"
    with pytest.raises(ConfigError, match=message):
        RunConfig.from_dict(data)
    for bad in (float("inf"), float("nan"), 10**400, "1e999"):
        data = base_dict()
        data["solver"]["dt"] = bad
        with pytest.raises(ConfigError, match=r"solver\.dt: expected a finite number"):
            RunConfig.from_dict(data)
    for bad in (".nan", ".inf", "1e", "e3", "1.5e3x", "0x10", " 1.0"):
        data = base_dict()
        data["solver"]["dt"] = bad
        message = rf"^solver\.dt: expected a number, got '{re.escape(bad)}'$"
        with pytest.raises(ConfigError, match=message):
            RunConfig.from_dict(data)
    # YAML 1.1 reads numbers without a dot or a signed exponent as strings;
    # number fields read them as the YAML 1.2 floats they are, string fields
    # keep them
    text = yaml.safe_dump(base_dict()).replace("dt: 0.02", "dt: 2e-2")
    data = yaml.safe_load(text.replace("alpha: 0.01", "alpha: 1e-2\n    grouping_tol: 1E-9"))
    assert data["solver"]["dt"] == "2e-2" and data["model"]["params"]["grouping_tol"] == "1E-9"
    expected = base_dict()
    expected["model"]["params"]["grouping_tol"] = 1e-9
    assert RunConfig.from_dict(data) == RunConfig.from_dict(expected)
    data = explicit_dict()
    data["model"]["explicit"]["subsystems"][0]["label"] = "1e3"
    assert RunConfig.from_dict(data).spec.subsystems[0].label == "1e3"
    # physical checks run at load too, named by the section they were built from
    data = base_dict()
    data["model"]["params"]["t1"] = -2.0
    with pytest.raises(ConfigError, match=r"^model\.params: t1 must be strictly positive"):
        RunConfig.from_dict(data)
    data = base_dict()
    data["model"]["params"]["spectral"] = {"kind": "ohmic", "coupling_scale": INV_2PI}
    with pytest.raises(ConfigError, match=r"^model\.params\.spectral: ohmic .* cutoff"):
        RunConfig.from_dict(data)


def explicit_dict(b2_scale=INV_2PI, alpha=0.01):
    qubit = {"real": [[0.5, 0.0], [0.0, -0.5]]}
    sx = {"real": [[0.0, 1.0], [1.0, 0.0]]}
    sxsx = {
        "real": [
            [0.0, 0.0, 0.0, 1.0],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
            [1.0, 0.0, 0.0, 0.0],
        ]
    }
    flat = {"kind": "flat", "coupling_scale": INV_2PI}
    return {
        "model": {
            "explicit": {
                "subsystems": [
                    {"label": "q1", "hamiltonian": qubit},
                    {"label": "q2", "hamiltonian": qubit},
                ],
                "interactions": [sxsx],
                "alpha": alpha,
                "beta_coupling": 0.01,
                "baths": [
                    {"label": "b1", "temperature": 2.0, "coupling": sx, "spectral": flat},
                    {
                        "label": "b2",
                        "temperature": 1.0,
                        "coupling": sx,
                        "spectral": {"kind": "flat", "coupling_scale": b2_scale},
                    },
                ],
            }
        },
        "solver": {"dt": 0.02, "t_max": 200.0, "record_stride": 400},
    }


def test_explicit_model_matches_builder():
    explicit = RunConfig.from_dict(explicit_dict())
    builder = two_qubit_model(TwoQubitParams())
    spec = explicit.spec
    assert np.array_equal(spec.free_hamiltonian(), builder.free_hamiltonian())
    assert np.array_equal(spec.interaction_sum(), builder.interaction_sum())
    gen_a = make_generator(explicit)
    gen_b = build_modified_local(builder)
    assert np.array_equal(gkls(gen_a), gkls(gen_b))


def test_explicit_model_validation_paths():
    data = explicit_dict()
    del data["model"]["explicit"]["baths"][0]["temperature"]
    with pytest.raises(ConfigError, match=r"model\.explicit\.baths\[0\]\.temperature"):
        RunConfig.from_dict(data)
    data = explicit_dict()
    data["model"]["explicit"]["subsystems"][0]["hamiltonian"] = {
        "real": [[0.0, 1.0], [0.0, 0.0]]
    }
    with pytest.raises(ConfigError, match="Hermitian"):
        RunConfig.from_dict(data)
    data = explicit_dict()
    data["model"]["explicit"]["interactions"][0]["real"] = [[0.0, 1.0]]
    with pytest.raises(ConfigError, match="square"):
        RunConfig.from_dict(data)
    data = explicit_dict()
    data["model"]["explicit"]["subsystems"][0]["hamiltonian"]["imag"] = [[0.0]]
    message = r"^model\.explicit\.subsystems\[0\]\.hamiltonian: real and imag parts have different shapes$"
    with pytest.raises(ConfigError, match=message):
        RunConfig.from_dict(data)
    data = explicit_dict()
    data["model"]["explicit"]["baths"][0]["temperature"] = -1.0
    with pytest.raises(ConfigError, match=r"^model\.explicit\.baths\[0\]: .*temperature must be"):
        RunConfig.from_dict(data)


def test_initial_state_kinds():
    cfg = RunConfig.from_dict(base_dict())
    gen = make_generator(cfg)
    assert np.array_equal(initial_state(cfg, gen), np.eye(4) / 4)

    data = base_dict()
    data["model"]["initial_state"] = "ground"
    cfg = RunConfig.from_dict(data)
    # the lowest level of the resonant pair has both qubits de-excited
    assert np.allclose(initial_state(cfg, gen), np.diag([0.0, 0.0, 0.0, 1.0]), atol=1e-15)

    data = base_dict()
    data["model"]["initial_state"] = "gibbs_product"
    cfg = RunConfig.from_dict(data)
    assert np.allclose(initial_state(cfg, gen), product_gibbs(gen.spec), atol=1e-15)

    data = base_dict()
    data["model"]["initial_state"] = {
        "real": [[0.5, 0, 0, 0], [0, 0.5, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
    }
    cfg = RunConfig.from_dict(data)
    assert np.array_equal(initial_state(cfg, gen), np.diag([0.5, 0.5, 0.0, 0.0]))


def test_initial_state_matrix_shape_check():
    data = base_dict()
    data["model"]["initial_state"] = {"real": [[1.0, 0.0], [0.0, 0.0]]}
    with pytest.raises(ConfigError, match="does not match dimension"):
        RunConfig.from_dict(data)
    data["model"]["initial_state"] = {"real": [[1.0, 0.1], [0.0, 0.0]]}
    with pytest.raises(
        ConfigError, match=r"^model\.initial_state: matrix is not Hermitian within 1e-10$"
    ):
        RunConfig.from_dict(data)


def test_set_by_path():
    data = base_dict(sweep={"parameter": "model.params.t1", "values": [1.0]})
    cfg = RunConfig.from_dict(data)
    d = cfg.to_dict()
    _set_by_path(d, "model.params.t1", 3.0)
    assert d["model"]["params"]["t1"] == 3.0
    with pytest.raises(ConfigError, match="no key"):
        _set_by_path(d, "model.params.zeta", 1.0)
    with pytest.raises(ConfigError, match="cannot descend"):
        _set_by_path(d, "model.params.t1.deeper", 1.0)

    ex = explicit_dict()
    _set_by_path(ex, "model.explicit.baths.1.temperature", 4.0)
    assert ex["model"]["explicit"]["baths"][1]["temperature"] == 4.0
    with pytest.raises(ConfigError, match="out of range"):
        _set_by_path(ex, "model.explicit.baths.7.temperature", 4.0)
    with pytest.raises(ConfigError, match="list index"):
        _set_by_path(ex, "model.explicit.baths.first.temperature", 4.0)


def test_sweep_validation():
    data = base_dict(sweep={"parameter": "model.params.t1", "values": []})
    with pytest.raises(ConfigError, match="at least one value"):
        RunConfig.from_dict(data)
    data = base_dict(sweep={"values": [1.0]})
    with pytest.raises(ConfigError, match=r"sweep\.parameter"):
        RunConfig.from_dict(data)


def test_sweep_path_is_checked_at_load(tmp_path, capsys):
    """A sweep parameter that names no entry of the model is refused at load,
    by every command; a value of the wrong type at a valid path is still
    named at its point."""
    data = base_dict(sweep={"parameter": "model.params.zeta", "values": [0.5]})
    path = write_yaml(tmp_path, data)
    out = str(tmp_path / "out")
    for args in (["simulate", "--dump-config"], ["steady", "--out", out], ["sweep", "--out", out]):
        assert cli.main([args[0], str(path), *args[1:]]) == 1
        assert capsys.readouterr() == (
            "",
            "lindloc: error: sweep.parameter: 'model.params.zeta': no key 'zeta'\n",
        )
    assert not (tmp_path / "out").exists()
    data = base_dict(sweep={"parameter": "model.builder", "values": [0.5]})
    assert cli.main(["sweep", str(write_yaml(tmp_path, data)), "--out", out]) == 1
    assert capsys.readouterr().err == (
        "lindloc: error: sweep.values[0] = 0.5: model.builder: expected one of "
        "('two_qubit', 'single_qubit', 'qubit_chain'), got 0.5\n"
    )


def test_sweep_outside_the_model_is_refused_at_load(tmp_path):
    """A sweep point reads only the model again, so a parameter elsewhere
    (which used to write identical rows) is refused before any point runs."""
    data = base_dict(sweep={"parameter": "solver.dt", "values": [0.01, 0.02]})
    with pytest.raises(ConfigError, match=r"^sweep\.parameter: .*'solver\.dt'"):
        RunConfig.from_dict(data)
    proc = run_cli("sweep", write_yaml(tmp_path, data), "--out", tmp_path / "out")
    assert proc.returncode == 1
    assert proc.stderr.startswith("lindloc: error: sweep.parameter: ")
    assert not (tmp_path / "out").exists()


# -- command functions ---------------------------------------------------------------


def fake_columns(n, ok):
    rep = ThermoReport(
        q_dot=(0.0, 0.0),
        e_dot=0.0,
        s_dot=0.0,
        first_law_residual=0.0,
        entropy_production=0.0 if ok else -1.0,
        spohn_lhs=0.0,
        spohn_rhs=0.0,
        spohn_residual=0.0,
        second_law_ok=ok,
        entropy=0.0,
    )
    # audit_columns' shape: each field's values for all n records
    return {name: np.array([value] * n) for name, value in asdict(rep).items()}


def patched_audit(ok):
    def _fake(gen, traj):
        return fake_columns(len(traj), ok)

    return _fake


def test_simulate_exit_two_on_asserted_violation(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "audit_columns", patched_audit(ok=False))
    cfg = RunConfig.from_dict(base_dict())
    assert cli.cmd_simulate(cfg, tmp_path / "o") == 2
    # the naive generator only reports; it does not assert
    cfg = RunConfig.from_dict(base_dict(generator="naive"))
    assert cli.cmd_simulate(cfg, tmp_path / "o2") == 0


def test_violation_time_is_printed_as_a_float(tmp_path, monkeypatch, caplog):
    """The first violating record is t = 0; the report and the error log
    print its time as a plain number, not as a numpy scalar's repr."""
    monkeypatch.setattr(cli, "audit_columns", patched_audit(ok=False))
    cfg = RunConfig.from_dict(base_dict())
    with caplog.at_level("ERROR", logger="lindloc"):
        assert cli.cmd_simulate(cfg, tmp_path / "o") == 2
    report = (tmp_path / "o" / "report.txt").read_text()
    assert "second law: violated at t = 0.0\n" in report
    assert caplog.messages == ["second law violated by the modified generator at t = 0.0"]


def test_compare_exit_two_on_asserted_violation(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "audit_columns", patched_audit(ok=False))
    cfg = RunConfig.from_dict(base_dict())
    assert cli.cmd_compare(cfg, tmp_path / "o") == 2
    report = (tmp_path / "o" / "compare_report.txt").read_text()
    assert "VIOLATED" in report


def test_simulate_exit_zero_when_clean(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "audit_columns", patched_audit(ok=True))
    cfg = RunConfig.from_dict(base_dict())
    assert cli.cmd_simulate(cfg, tmp_path / "o") == 0


def test_sweep_requires_sweep_section(tmp_path):
    cfg = RunConfig.from_dict(base_dict())
    with pytest.raises(ConfigError, match="sweep"):
        cli.cmd_sweep(cfg, tmp_path / "o")


# each command's files by output format
FILES = {
    "simulate": {"csv": {"trajectory.csv"}, "report": {"report.txt"}},
    "steady": {
        "csv": {"rho_ss_real.csv", "rho_ss_imag.csv", "steady_summary.csv"},
        "report": {"steady_report.txt"},
    },
    "sweep": {"csv": {"sweep.csv"}, "report": {"sweep_report.txt"}},
    "compare": {"csv": {"compare.csv"}, "report": {"compare_report.txt"}},
}


@pytest.mark.parametrize("command", sorted(FILES))
def test_only_requested_formats_are_written(tmp_path, command):
    for formats in (["csv"], ["report"], ["csv", "report"], []):
        cfg = RunConfig.from_dict(
            base_dict(
                solver={"dt": 0.02, "t_max": 2.0, "record_stride": 10},
                output={"formats": formats},
                sweep={"parameter": "model.params.t1", "values": [0.5, 2.0]},
            )
        )
        out = tmp_path / "-".join(["out", *formats])
        assert cli.COMMANDS[command](cfg, out) == 0
        expected = set().union(*(FILES[command][fmt] for fmt in formats))
        assert {p.name for p in out.iterdir()} == expected


def test_unrequested_file_is_not_built(tmp_path, monkeypatch):
    def fail(*args):
        raise AssertionError("trajectory columns built for a report-only run")

    monkeypatch.setattr(cli, "_trajectory_columns", fail)
    data = base_dict(output={"formats": ["report"]})
    assert cli.cmd_simulate(RunConfig.from_dict(data), tmp_path / "o") == 0
    assert [p.name for p in (tmp_path / "o").iterdir()] == ["report.txt"]


# -- end-to-end through the real entry point --------------------------------------


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_csv_rows_of_numeric_arrays_are_csv_writers_bytes():
    """_csv joins rows of numeric array columns by hand: the bytes are those
    csv.writer writes for the same values, special floats and ints too."""
    floats = np.array([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 1e-5, 0.1 + 0.2])
    ints = np.array([0, -1, 2**62, 7, 10**15, -(2**63), 3, 1])
    columns = [("t", floats), ('a "quoted", label', ints), ("x", floats[::-1])]
    got = io.StringIO(newline="")
    cli._csv(got, columns)
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow([name for name, _ in columns])
    writer.writerows(zip(*(values.tolist() for _, values in columns)))
    assert got.getvalue() == expected.getvalue()
    assert got.getvalue().splitlines()[:2] == ['t,"a ""quoted"", label",x', "nan,0,0.30000000000000004"]


def test_simulate_end_to_end(tmp_path):
    path = write_yaml(tmp_path, base_dict())
    proc = run_cli("simulate", path, "--out", tmp_path / "out")
    assert proc.returncode == 0, proc.stderr

    header, rows = read_csv(tmp_path / "out" / "trajectory.csv")
    assert header == [
        "t",
        "pop_0",
        "pop_1",
        "pop_2",
        "pop_3",
        "S",
        "e_dot",
        "q_dot_b1",
        "q_dot_b2",
        "first_law_residual",
        "entropy_production",
        "second_law_ok",
    ]
    assert len(rows) == 26  # 10000 steps recorded every 400, plus t = 0
    assert float(rows[0][0]) == 0.0
    assert float(rows[-1][0]) == pytest.approx(200.0)
    for row in rows:
        assert row[-1] == "1"
        assert float(row[10]) >= -1e-9

    report = (tmp_path / "out" / "report.txt").read_text()
    assert "generator: modified" in report
    assert "spectrum diagnostics: PASS" in report
    assert "second law: ok" in report


def test_trajectory_rows_match_per_record_formulas():
    """Eigenbasis populations and S, taken for all records at once, equal the
    per-record diag(U† rho U) and von Neumann entropy."""
    cfg = RunConfig.from_dict(base_dict())
    gen = make_generator(cfg)
    traj = evolve(gen, rand_density(np.random.default_rng(7), 4), cfg.solver)
    header, columns = zip(*cli._trajectory_columns(gen, traj, audit_columns(gen, traj)))
    rows = list(zip(*columns))
    u = gen.eig.eigenvectors
    pops = slice(header.index("pop_0"), header.index("pop_3") + 1)
    for rho, row in zip(traj.states, rows, strict=True):
        assert np.abs(np.array(row[pops]) - np.diag(u.conj().T @ rho @ u).real).max() <= 1e-15
        assert row[header.index("S")] == pytest.approx(von_neumann_entropy(rho), abs=1e-14)


def test_simulate_writes_the_same_bytes_in_runs_of_one_state(tmp_path):
    """The naive pair's 501 records are evolved and audited in one default run
    or in runs of one state (linalg.STACK_BYTES); each record and each report
    is a function of its state alone, so both files are byte for byte equal."""
    config = str(CONFIG_DIR / "two_qubit_naive.yaml")
    assert cli.main(["simulate", config, "--out", str(tmp_path / "default")]) == 0
    with mock.patch.object(linalg, "STACK_BYTES", 16 * 4 * 4):
        assert cli.main(["simulate", config, "--out", str(tmp_path / "one")]) == 0
    for name in ("trajectory.csv", "report.txt"):
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "default" / name).read_bytes()


def test_steady_end_to_end(tmp_path):
    path = write_yaml(tmp_path, base_dict())
    proc = run_cli("steady", path, "--out", tmp_path / "out")
    assert proc.returncode == 0, proc.stderr

    rho = np.loadtxt(tmp_path / "out" / "rho_ss_real.csv", delimiter=",")
    assert np.trace(rho) == pytest.approx(1.0, abs=1e-12)
    assert (tmp_path / "out" / "rho_ss_imag.csv").exists()

    header, rows = read_csv(tmp_path / "out" / "steady_summary.csv")
    assert header == [
        "residual",
        "null_dim",
        "q_dot_b1",
        "q_dot_b2",
        "e_dot",
        "s_dot",
        "first_law_residual",
        "entropy_production",
    ]
    assert len(rows) == 1
    by_col = dict(zip(header, rows[0]))
    assert float(by_col["q_dot_b1"]) == pytest.approx(1.5356402288472635e-05, rel=1e-6)
    assert int(by_col["null_dim"]) == 1
    assert "spohn" in (tmp_path / "out" / "steady_report.txt").read_text()


def test_sweep_end_to_end_deterministic(tmp_path):
    data = base_dict(sweep={"parameter": "model.params.t1", "values": [0.5, 1.0, 2.0]})
    path = write_yaml(tmp_path, data)

    proc = run_cli("sweep", path, "--out", tmp_path / "a")
    assert proc.returncode == 0, proc.stderr
    proc = run_cli("sweep", path, "--out", tmp_path / "b")
    assert proc.returncode == 0, proc.stderr
    a = (tmp_path / "a" / "sweep.csv").read_bytes()
    assert a == (tmp_path / "b" / "sweep.csv").read_bytes()

    header, rows = read_csv(tmp_path / "a" / "sweep.csv")
    assert header == ["parameter", "value", "q_dot_b1", "q_dot_b2", "entropy_production", "residual"]
    assert [float(r[1]) for r in rows] == [0.5, 1.0, 2.0]
    q1 = [float(r[2]) for r in rows]
    # current through the first bath flips sign where the temperatures cross
    assert q1[0] < -1e-7
    assert abs(q1[1]) < 1e-12
    assert q1[2] > 1e-7


def test_compare_end_to_end(tmp_path):
    path = write_yaml(tmp_path, base_dict())
    proc = run_cli("compare", path, "--out", tmp_path / "out")
    assert proc.returncode == 0, proc.stderr

    header, rows = read_csv(tmp_path / "out" / "compare.csv")
    assert header == [
        "t",
        "entropy_production_modified",
        "entropy_production_naive",
        "first_law_residual_modified",
        "first_law_residual_naive",
    ]
    mod_res = max(abs(float(r[3])) for r in rows)
    naive_res = max(abs(float(r[4])) for r in rows)
    assert mod_res <= 1e-10
    assert naive_res > 1e-9
    assert "modified second law: ok" in (tmp_path / "out" / "compare_report.txt").read_text()


def test_dump_config_round_trips(tmp_path):
    path = write_yaml(tmp_path, base_dict())
    proc = run_cli("simulate", path, "--dump-config")
    assert proc.returncode == 0, proc.stderr
    assert yaml.safe_load(proc.stdout) == load_config(path).to_dict()


def test_invalid_model_is_rejected_at_load(tmp_path):
    data = base_dict()
    data["model"]["params"]["t1"] = -2.0
    path = write_yaml(tmp_path, data)
    for args in (("--dump-config",), ("--out", tmp_path / "out")):
        proc = run_cli("steady", path, *args)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert "model.params: t1 must be strictly positive" in proc.stderr
    assert not (tmp_path / "out").exists()


def test_misshapen_initial_state_is_rejected_at_load(tmp_path):
    data = base_dict(sweep={"parameter": "model.params.t1", "values": [0.5, 1.0]})
    data["model"]["initial_state"] = {"real": [[1.0, 0.0], [0.0, 0.0]]}
    path = write_yaml(tmp_path, data)
    for args in (("simulate", "--dump-config"), ("sweep", "--out", tmp_path / "out")):
        proc = run_cli(args[0], path, *args[1:])
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert (
            "model.initial_state: matrix shape (2, 2) does not match dimension 4" in proc.stderr
        )
    assert not (tmp_path / "out").exists()


def test_chain_energy_is_checked_at_load(tmp_path):
    data = base_dict()
    data["model"] = {
        "builder": "qubit_chain",
        "params": {
            "n": 2,
            "energies": [1.0, 0.0],
            "temperatures": [2.0, 1.0],
            "alpha": 0.01,
            "beta_coupling": 0.01,
        },
    }
    proc = run_cli("steady", write_yaml(tmp_path, data), "--dump-config")
    assert proc.returncode == 1
    assert proc.stderr.startswith(
        "lindloc: error: model.params: energy of q2 must be strictly positive"
    )


def test_failing_sweep_point_is_named(tmp_path):
    data = base_dict(sweep={"parameter": "model.params.t1", "values": [0.5, -1.0]})
    proc = run_cli("sweep", write_yaml(tmp_path, data), "--out", tmp_path / "out")
    assert proc.returncode == 1
    assert "sweep.values[1] = -1.0: model.params: t1 must be strictly positive" in proc.stderr


def test_error_exits_are_one(tmp_path):
    proc = run_cli("simulate", tmp_path / "missing.yaml")
    assert proc.returncode == 1
    assert "lindloc: error:" in proc.stderr

    bad = tmp_path / "bad.yaml"
    bad.write_text("model: [unclosed", encoding="utf-8")
    proc = run_cli("simulate", bad)
    assert proc.returncode == 1
    assert "invalid YAML" in proc.stderr

    data = base_dict()
    del data["model"]["params"]["t2"]
    proc = run_cli("steady", write_yaml(tmp_path, data, "incomplete.yaml"))
    assert proc.returncode == 1
    assert "model.params.t2" in proc.stderr

    proc = run_cli()
    assert proc.returncode == 1

    proc = run_cli("simulate", write_yaml(tmp_path, base_dict()), "--jobs", 0)
    assert proc.returncode == 1
    assert "--jobs" in proc.stderr


def test_record_count_beyond_memory_exits_one(tmp_path, monkeypatch, capsys):
    # in process, with the physical memory fixed, so the run is refused on any machine
    monkeypatch.setattr(liouvillian, "PHYSICAL_MEMORY", 8 * 2**30)
    data = base_dict(solver={"dt": 1.0e-5, "t_max": 1.0e4, "record_stride": 1})
    path = write_yaml(tmp_path, data)
    assert cli.main(["simulate", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "lindloc: error: 1000000000 records of a 4 x 4 state would need" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "params, message",
    [
        ({"e1": 1e160, "e2": 1e160, "beta_coupling": 1e155}, "overflows"),
        ({"spectral": {"kind": "flat", "coupling_scale": 1e308}}, "at omega = -1.0 is inf"),
        (
            {"e1": 1e-30, "e2": 1e-30, "alpha": 0.0, "beta_coupling": 1e-40, "t1": 1e300},
            "at omega = -1e-30 is inf",
        ),
    ],
)
def test_non_finite_scaled_rate_exits_one(tmp_path, capsys, params, message):
    """A scaled rate that overflows (beta_coupling**2), is inf from the
    coupling density or from an occupation where beta * omega underflows to
    0 stops the run with one error line, before any numpy warning."""
    data = base_dict()
    data["model"]["params"].update(params)
    path = write_yaml(tmp_path, data)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["steady", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("lindloc: error: bath 'b1': scaled rate beta_coupling**2 * gamma(omega) ")
    assert err.endswith(f" {message}" + ("\n" if message == "overflows" else ", not a finite number\n"))
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def bundled(name, **params):
    """A bundled config's data with these model params replaced."""
    data = yaml.safe_load((CONFIG_DIR / name).read_text(encoding="utf-8"))
    data["model"]["params"].update(params)
    return data


def test_alpha_whose_square_underflows_simulates(tmp_path, capsys):
    """alpha = 1e-200 squares to 0: the weak-coupling window is beyond any
    t_max, so simulate runs clean instead of dividing by zero."""
    path = write_yaml(tmp_path, bundled("two_qubit_resonant.yaml", alpha=1e-200))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["simulate", str(path), "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err == ""
    assert (tmp_path / "out" / "trajectory.csv").exists()


def test_overflowing_level_energies_exit_one(tmp_path, capsys):
    """A chain energy of 1e308 overflows the mean of H_s's top level: one
    error line naming the levels, and no numpy RuntimeWarning."""
    params = bundled("qubit_chain3.yaml")["model"]["params"]
    path = write_yaml(
        tmp_path, bundled("qubit_chain3.yaml", energies=[1e308, *params["energies"][1:]])
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["steady", str(path), "--out", str(tmp_path / "out")]) == 1
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("lindloc: error: H_s levels are not finite: grouping eigenvalues ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("dt, t_max", [(1e-300, 1e10), (5e-324, 200000.0)])
@pytest.mark.parametrize("command", ["simulate", "compare", "--dump-config"])
def test_step_count_beyond_the_float_range_exits_one(tmp_path, capsys, dt, t_max, command):
    """A t_max / dt that is not finite is refused at load, naming both
    values: simulate and compare rounded it to a step count and raised
    OverflowError, and --dump-config printed the config."""
    data = bundled("two_qubit_resonant.yaml")
    data["solver"].update(dt=dt, t_max=t_max)
    path = write_yaml(tmp_path, data)
    if command == "--dump-config":
        args = ["steady", str(path), command]
    else:
        args = [command, str(path), "--out", str(tmp_path / "out")]
    assert cli.main(args) == 1
    assert capsys.readouterr() == (
        "",
        f"lindloc: error: solver: t_max / dt is not finite: t_max = {t_max!r}, dt = {dt!r}\n",
    )
    assert not (tmp_path / "out").exists()


def test_explicit_model_beyond_memory_exits_one(tmp_path, monkeypatch, capsys):
    """Twenty explicit qubits, 2**20 levels, are refused before the build
    allocates its first 17.6 TB operator."""
    monkeypatch.setattr(liouvillian, "PHYSICAL_MEMORY", 8 * 2**30)
    data = explicit_dict(alpha=0.0)
    explicit = data["model"]["explicit"]
    del explicit["interactions"]
    qubit, bath = explicit["subsystems"][0], explicit["baths"][0]
    explicit["subsystems"] = [dict(qubit, label=f"q{k}") for k in range(20)]
    explicit["baths"] = [dict(bath, label=f"b{k}") for k in range(20)]
    path = write_yaml(tmp_path, data)
    tracemalloc.start()
    try:
        assert cli.main(["steady", str(path), "--out", str(tmp_path / "out")]) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**24
    assert capsys.readouterr().err == (
        "lindloc: error: a generator build of dimension 1048576 would need 8.27e+05 GB, "
        "more than the 8.59 GB of physical memory\n"
    )
    assert not (tmp_path / "out").exists()


def test_report_without_couplings_skips_the_diagnostics(tmp_path):
    """With alpha = beta_coupling = 0 there is no coupling to compare the
    Bohr spectrum with, and the report says so."""
    data = explicit_dict(alpha=0.0)
    data["model"]["explicit"]["beta_coupling"] = 0.0
    data["output"] = {"formats": ["report"]}
    data["solver"] = {"dt": 0.02, "t_max": 1.0, "record_stride": 10}
    assert cli.cmd_simulate(RunConfig.from_dict(data), tmp_path / "o") == 0
    lines = (tmp_path / "o" / "report.txt").read_text().splitlines()
    assert lines[3:5] == ["records: 6 over t in [0, 1.0]", "spectrum diagnostics: skipped (no couplings)"]


def test_non_finite_number_exits_one(tmp_path):
    # a NaN slips past "alpha < 0" and used to reach LAPACK as an SVD failure
    data = base_dict()
    data["model"]["params"]["alpha"] = float("nan")
    path = write_yaml(tmp_path, data, "nan.yaml")
    assert "alpha: .nan" in path.read_text(encoding="utf-8")
    for command in ("steady", "simulate"):
        proc = run_cli(command, path, "--out", tmp_path / "out")
        assert proc.returncode == 1
        assert "model.params.alpha: expected a finite number" in proc.stderr
    assert not (tmp_path / "out").exists()


def test_degenerate_steady_state_exits_one(tmp_path):
    data = explicit_dict(b2_scale=0.0, alpha=0.0)
    del data["model"]["explicit"]["interactions"]
    path = write_yaml(tmp_path, data, "degenerate.yaml")
    proc = run_cli("steady", path, "--out", tmp_path / "out")
    assert proc.returncode == 1
    assert "not unique" in proc.stderr
    assert "dimension 2" in proc.stderr


def test_bad_log_level_exits_one(tmp_path):
    env = dict(os.environ, LINDLOC_LOG="chatty")
    proc = subprocess.run(
        [sys.executable, "-m", "lindloc", "steady", str(write_yaml(tmp_path, base_dict()))],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 1
    assert "LINDLOC_LOG" in proc.stderr


def test_config_dataclass_round_trip_identity():
    for overrides in (
        {},
        {"generator": "naive"},
        {"output": {"directory": "elsewhere", "formats": ["report"]}},
        {"sweep": {"parameter": "model.params.alpha", "values": [0.0, 0.01]}},
    ):
        data = base_dict(**copy.deepcopy(overrides))
        cfg = RunConfig.from_dict(copy.deepcopy(data))
        assert RunConfig.from_dict(cfg.to_dict()) == cfg


# -- sweeps that reuse the generator's structure ------------------------------------


def chain_sweep(parameter, values):
    """A resonant 3-chain run sweeping one model parameter."""
    params = {
        "n": 3,
        "energies": [1.0, 1.0, 1.0],
        "temperatures": [2.0, 1.0, 0.5],
        "alpha": 0.01,
        "beta_coupling": 0.01,
    }
    return base_dict(
        model={"builder": "qubit_chain", "params": params},
        sweep={"parameter": parameter, "values": values},
    )


def counting_structures():
    """Within this context, the mock counts the structures built."""
    return mock.patch.object(liouvillian, "_structure", wraps=liouvillian._structure)


# sweep.csv of chain_sweep over temperatures.0 = [0.5, 0.001, 1.0], as every
# point built afresh writes it
LOW_TEMPERATURE_SWEEP = [
    "parameter,value,q_dot_b1,q_dot_b2,q_dot_b3,entropy_production,residual",
    "model.params.temperatures.0,0.5,-7.163625555509901e-06,1.4327251111019804e-05,"
    "-7.163625555509906e-06,1.4327251111019806e-05,7.340069883550546e-20",
    "model.params.temperatures.0,0.001,-1.4534335602787598e-05,1.796778447785083e-05,"
    "-3.433448875063244e-06,0.014523234716059874,2.1186411593198187e-19",
    "model.params.temperatures.0,1.0,8.370308047064788e-06,6.209128949110098e-06,"
    "-1.457943699617486e-05,1.4579436996174868e-05,2.6467132623736716e-19",
]


def test_low_temperature_point_builds_its_own_structure(tmp_path):
    """At T = 0.001 the first bath's absorption rate underflows to exactly 0,
    so that point has one channel less than its neighbours: it and the point
    after it build their own structure (see test_liouvillian's
    test_structure_is_rebuilt_when_more_than_rates_change), and the file is
    byte for byte the one fresh builds write."""
    path = write_yaml(tmp_path, chain_sweep("model.params.temperatures.0", [0.5, 0.001, 1.0]))
    assert cli.main(["sweep", str(path), "--out", str(tmp_path / "o")]) == 0
    expected = "\r\n".join(LOW_TEMPERATURE_SWEEP) + "\r\n"
    assert (tmp_path / "o" / "sweep.csv").read_bytes() == expected.encode()


def test_zero_coupling_point_has_no_unique_steady_state(tmp_path, capsys):
    """beta_coupling = 0 leaves no channel; that point fails as it always has."""
    path = write_yaml(tmp_path, chain_sweep("model.params.beta_coupling", [0.01, 0.0]))
    assert cli.main(["sweep", str(path), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == (
        "lindloc: error: sweep.values[1] = 0.0: steady state is not unique: "
        "null space has dimension 8\n"
    )


def test_error_precedence_is_sweep_order(tmp_path, capsys):
    """values[1] fails to solve and values[2] fails to read: the point read
    after a failing one is not reported, though points are solved in chunks."""
    path = write_yaml(tmp_path, chain_sweep("model.params.beta_coupling", [0.01, 0.0, -0.01]))
    assert cli.main(["sweep", str(path), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == (
        "lindloc: error: sweep.values[1] = 0.0: steady state is not unique: "
        "null space has dimension 8\n"
    )


def test_build_warnings_stop_at_the_failing_point(tmp_path):
    """Build-time warnings of a chunk's points are held until it is solved,
    and those after the first failing point are never logged: stderr is the
    point-by-point sweep's, byte for byte."""
    data = chain_sweep("model.params.beta_coupling", [0.01, 0.011, 1e-9, 0.012, 0.013])
    data["model"]["params"]["energies"] = [1.0, 1.02, 1.0]
    proc = run_cli("sweep", write_yaml(tmp_path, data), "--out", tmp_path / "o")
    assert proc.returncode == 1
    thin = "WARNING lindloc: Bohr spectrum margin is thin: min(frequency, spacing)/coupling = "
    assert proc.stderr == (
        f"{thin}2\n{thin}1.82\n{thin}2\n"
        "lindloc: error: sweep.values[2] = 1e-09: steady state is not unique: "
        "null space has dimension 12\n"
    )


def test_memory_guard_names_the_first_sweep_point(tmp_path, monkeypatch, capsys):
    """What fails for a whole chunk, such as the memory guard on its blocks,
    is reported at the chunk's first point, as the parent did point by point.
    The memory lets the build's 13 operators of 1 kB pass and not the blocks."""
    monkeypatch.setattr(liouvillian, "PHYSICAL_MEMORY", 20_000)
    path = write_yaml(tmp_path, chain_sweep("model.params.temperatures.0", [0.5, 1.0]))
    assert cli.main(["sweep", str(path), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == (
        "lindloc: error: sweep.values[0] = 0.5: 4 generator blocks of up to 20 rows "
        "would need 2.22e-05 GB, more than the 2e-05 GB of physical memory\n"
    )


def test_a_failed_stack_logs_nothing_of_its_own(tmp_path, monkeypatch, caplog):
    """A chunk whose stacked solve or audit fails is run again point by
    point, and the stack's own records are dropped: with every point warning
    as it is solved and the stacked audit refused, each warning is logged
    once, in point order, and the table is the stack's."""
    values = [0.5, 0.8, 1.1, 1.4, 1.7]
    path = write_yaml(tmp_path, chain_sweep("model.params.temperatures.0", values))
    assert cli.main(["sweep", str(path), "--out", str(tmp_path / "stacked")]) == 0
    monkeypatch.setattr(dynamics, "SEPARATION_FACTOR", math.inf)
    cfg = load_config(path)
    with caplog.at_level("WARNING", logger="lindloc"):
        for k, value in enumerate(values):
            dynamics.steady_state(cli._sweep_point(cfg, k, value, None)[0])
    expected = caplog.messages
    assert len(set(expected)) == len(values)
    assert all(m.startswith("steady state may be ill-conditioned") for m in expected)
    caplog.clear()

    def refused(*args):
        raise LindlocError("refused")

    monkeypatch.setattr(cli, "audit_states", refused)
    with caplog.at_level("WARNING", logger="lindloc"):
        assert cli.main(["sweep", str(path), "--out", str(tmp_path / "points")]) == 0
    assert caplog.messages == expected
    stacked = (tmp_path / "stacked" / "sweep.csv").read_bytes()
    assert (tmp_path / "points" / "sweep.csv").read_bytes() == stacked


def test_sweep_point_reads_only_the_model(tmp_path):
    values = [0.5, 1.0, 1.5]
    cfg = RunConfig.from_dict(chain_sweep("model.params.temperatures.0", values))
    with (
        mock.patch.object(RunConfig, "from_dict", wraps=RunConfig.from_dict) as whole,
        mock.patch.object(cli, "_read_model", wraps=cli._read_model) as model,
    ):
        assert cli.cmd_sweep(cfg, tmp_path / "o") == 0
    assert whole.call_count == 0
    assert model.call_count == len(values)


@pytest.mark.parametrize("size", [1, 2])
def test_chunks_do_not_change_the_table(tmp_path, size):
    """Points are solved in chunks whose stacked arrays hold at most
    STACK_BYTES per row; chunks of one or two points write the bytes that
    one chunk of five writes."""
    values = [0.5, 0.8, 1.1, 1.4, 1.7]
    cfg = RunConfig.from_dict(chain_sweep("model.params.temperatures.0", values))
    point = make_generator(cfg).structure.point_bytes
    with mock.patch.object(linalg, "STACK_BYTES", 5 * point):
        assert cli.cmd_sweep(cfg, tmp_path / "whole") == 0
    with (
        mock.patch.object(linalg, "STACK_BYTES", size * point),
        mock.patch.object(cli, "steady_states", wraps=cli.steady_states) as solved,
    ):
        assert cli.cmd_sweep(cfg, tmp_path / "chunked") == 0
    assert [len(call.args[0]) for call in solved.call_args_list] == (
        [1] * 5 if size == 1 else [2, 2, 1]
    )
    for name in ("sweep.csv", "sweep_report.txt"):
        chunked = (tmp_path / "chunked" / name).read_bytes()
        assert chunked == (tmp_path / "whole" / name).read_bytes()


def test_run_path_does_not_import_scipy(tmp_path):
    """steady and sweep on the bundled configs import no scipy, whose import
    alone takes longer than a steady_chain5 job's whole set-up."""
    configs = sorted(str(p) for p in CONFIG_DIR.glob("*.yaml"))
    script = f"""
import sys
import lindloc.cli as cli
for k, path in enumerate({configs!r}):
    assert cli.main(["steady", path, "--out", {str(tmp_path)!r} + f"/steady{{k}}"]) == 0
sweep = {str(CONFIG_DIR / "sweep_t1.yaml")!r}
assert cli.main(["sweep", sweep, "--out", {str(tmp_path)!r} + "/sweep"]) == 0
print([name for name in sys.modules if name.split(".")[0] == "scipy"])
"""
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize(
    "parameter, values",
    [("model.params.energies.0", [1.0, 1.2, 0.9]), ("model.params.alpha", [0.01, 0.02, 0.005])],
)
def test_sweep_beyond_rates_builds_every_point(tmp_path, caplog, parameter, values):
    """A point that changes an energy or alpha gets a structure of its own,
    and a qubit's Hamiltonian is that of the point's energy."""
    cfg = RunConfig.from_dict(chain_sweep(parameter, values))
    with counting_structures() as built, caplog.at_level("INFO", logger="lindloc"):
        specs = sweep_specs(cfg, tmp_path / "o")
    assert built.call_count == len(values)
    assert "sweep: generator structure built at 3 of 3 points" in caplog.messages
    energies = values if parameter.endswith("energies.0") else [1.0] * len(values)
    for spec, energy in zip(specs, energies, strict=True):
        assert np.array_equal(spec.subsystems[0].hamiltonian, 0.5 * energy * linalg.SIGMA_Z)


def sweep_specs(cfg, out_dir):
    """The spec of each point of cfg's sweep, which cmd_sweep runs."""
    specs, read = [], cli._read_model

    def read_point(node):
        checked, spec, rho0 = read(node)
        specs.append(spec)
        return checked, spec, rho0

    with mock.patch.object(cli, "_read_model", side_effect=read_point):
        assert cli.cmd_sweep(cfg, out_dir) == 0
    return specs


def test_rate_sweep_shares_operators_and_leaves_the_config(tmp_path):
    """The points of a temperature sweep copy only the swept path of the
    model: the config is as it was, and every point's spec holds point 0's
    read-only Hamiltonian and interaction arrays."""
    values = np.linspace(0.5, 2.5, 20).tolist()
    cfg = RunConfig.from_dict(chain_sweep("model.params.temperatures.0", values))
    model, dumped = copy.deepcopy(cfg.model), dump_config(cfg)
    specs = sweep_specs(cfg, tmp_path / "o")
    assert cfg.model == model and dump_config(cfg) == dumped
    assert [1.0 / spec.baths[0].beta for spec in specs] == pytest.approx(values, rel=1e-15)

    def operators(spec):
        return [*spec.interactions, *(sub.hamiltonian for sub in spec.subsystems)]

    first = operators(specs[0])
    for spec in specs[1:]:
        assert all(a is b for a, b in zip(operators(spec), first, strict=True))
    for op in first:
        with pytest.raises(ValueError, match="read-only"):
            op[0, 0] = 2.0


def test_temperature_sweep_logs_one_structure(tmp_path):
    data = chain_sweep("model.params.temperatures.0", [0.5, 1.0, 1.5, 2.0])
    data["output"] = {"formats": ["csv"]}
    env = dict(os.environ, LINDLOC_LOG="info")
    args = ["sweep", write_yaml(tmp_path, data), "--out", tmp_path / "o"]
    proc = subprocess.run(
        [sys.executable, "-m", "lindloc", *map(str, args)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0 and proc.stdout == ""
    assert proc.stderr.splitlines()[0] == (
        "INFO lindloc: sweep: generator structure built at 1 of 4 points"
    )


def test_pair_sweep_matches_the_closed_form(tmp_path):
    """lindloc sweep over t1 of the resonant pair, every point after the first
    filling the first one's structure, against the closed form
    Qdot_1 = -Qdot_2 (conftest.resonant_pair_current), t1 = t2 included."""
    values = sorted(np.linspace(0.3, 3.0, 14).tolist() + [1.0])
    cfg = RunConfig.from_dict(base_dict(sweep={"parameter": "model.params.t1", "values": values}))
    with counting_structures() as built:
        assert cli.cmd_sweep(cfg, tmp_path / "o") == 0
    assert built.call_count == 1
    _, rows = read_csv(tmp_path / "o" / "sweep.csv")
    assert [float(r[1]) for r in rows] == values
    for row in rows:
        t1, q1, q2 = (float(x) for x in row[1:4])
        closed, prefactor, _ = resonant_pair_current(1.0, 0.01, 0.01, t1, 1.0, DEFAULT_SPECTRAL)
        assert abs(q1 - closed) <= 1e-12 * prefactor
        assert abs(q1 + q2) <= 1e-12 * prefactor
