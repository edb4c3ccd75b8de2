"""Command-line front end: simulate, steady, sweep, compare.

Configs are YAML with the schema documented in the README. Exit codes:
0 success, 1 usage/config/model error, 2 audited second-law violation in a
mode that asserts it. LINDLOC_LOG (error|warn|info|debug) sets verbosity.
"""

from __future__ import annotations

import argparse
import copy
import csv
import logging
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np
import yaml

from .baths import BathSpec, SpectralModel
from .dynamics import SolverConfig, Trajectory, evolve, steady_state
from .errors import ConfigError, LindlocError
from .linalg import hermiticity_defect
from .liouvillian import (
    Generator,
    Subsystem,
    SystemSpec,
    build_modified_local,
    build_naive_local,
    product_gibbs,
)
from .models import TwoQubitParams, qubit_chain_model, single_qubit_model, two_qubit_model
from .thermo import SECOND_LAW_TOL, audit, audit_trajectory

log = logging.getLogger("lindloc")

LOG_LEVELS = ("error", "warn", "info", "debug")

# initial_state kind -> the state it names on a generator
STATE_KINDS = {
    "maximally_mixed": lambda gen: np.eye(gen.dimension, dtype=complex) / gen.dimension,
    "ground": lambda gen: np.outer(gen.eig.eigenvectors[:, 0], gen.eig.eigenvectors[:, 0].conj()),
    "gibbs_product": lambda gen: product_gibbs(gen.spec),
}


# -- config data -------------------------------------------------------------


@dataclass(frozen=True)
class OutputSection:
    directory: str = "out"
    formats: list[str] = field(default_factory=lambda: ["csv", "report"])


@dataclass(frozen=True)
class SweepSection:
    parameter: str
    values: list[float]


@dataclass(frozen=True)
class RunConfig:
    """A checked run. ``model`` is the checked mapping that ``to_dict`` writes
    back and sweep points edit; ``spec`` is the system built from it."""

    model: dict
    spec: SystemSpec = field(compare=False, repr=False)
    solver: SolverConfig
    output: OutputSection
    generator: str = "modified"
    sweep: SweepSection | None = None

    def to_dict(self) -> dict:
        data = {
            "model": copy.deepcopy(self.model),
            "generator": self.generator,
            "solver": asdict(self.solver),
            "output": asdict(self.output),
        }
        if self.sweep is not None:
            data["sweep"] = asdict(self.sweep)
        return data

    @classmethod
    def from_dict(cls, data) -> "RunConfig":
        return _read_config(data)


# -- reading a config --------------------------------------------------------
# A reader checks the YAML shape of its part. Physical checks belong to the
# typed constructors; _section re-raises their errors with the YAML path.


@contextmanager
def _section(path: str):
    try:
        yield
    except (LindlocError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _expect_list(node, path: str) -> list:
    if not isinstance(node, list):
        raise ConfigError(f"{path}: expected a list, got {type(node).__name__}")
    return node


def _as_float(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{path}: expected a finite number, got {value!r}")
    return number


def _as_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    return value


def _as_str(value, path: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{path}: expected a string, got {value!r}")
    return value


def _one_of(*choices: str):
    def read(value, path: str) -> str:
        if value not in choices:
            raise ConfigError(f"{path}: expected one of {choices}, got {value!r}")
        return value

    return read


def _list_of(read):
    def read_list(value, path: str) -> list:
        return [read(v, f"{path}[{k}]") for k, v in enumerate(_expect_list(value, path))]

    return read_list


_as_float_list = _list_of(_as_float)


def _as_float_grid(value, path: str) -> list[list[float]]:
    grid = _list_of(_as_float_list)(value, path)
    if not grid or any(len(row) != len(grid) for row in grid):
        raise ConfigError(f"{path}: expected a square matrix as nested lists")
    return grid


def _fields(node, path: str, keys: tuple[str, ...], optional: tuple[str, ...] = ()):
    """The checked and the built values of a mapping's keys, in the order of
    ``keys``; a key in neither SCALARS nor PARTS is passed on unread."""
    if not isinstance(node, dict):
        raise ConfigError(f"{path}: expected a mapping, got {type(node).__name__}")
    unknown = sorted(set(node) - set(keys))
    if unknown:
        raise ConfigError(f"{path}: unknown key(s) {', '.join(map(repr, unknown))}")
    checked, built = {}, {}
    for key in keys:
        if key not in node:
            if key not in optional:
                raise ConfigError(f"{path}.{key}: missing required key")
        elif key in SCALARS:
            checked[key] = built[key] = SCALARS[key](node[key], f"{path}.{key}")
        elif key in PARTS:
            checked[key], built[key] = PARTS[key](node[key], f"{path}.{key}")
        else:
            checked[key] = built[key] = node[key]
    return checked, built


def _read_list(node, path: str, read) -> tuple[list, list]:
    pairs = _list_of(read)(node, path)
    return [checked for checked, _ in pairs], [built for _, built in pairs]


def _read_matrix(node, path: str) -> tuple[dict, np.ndarray]:
    """A complex matrix as paired real/imag nested arrays; imag optional."""
    checked, _ = _fields(node, path, ("real", "imag"), optional=("imag",))
    real = np.array(checked["real"], dtype=float)
    if "imag" not in checked:
        return checked, real.astype(complex)
    if len(checked["imag"]) != len(real):
        raise ConfigError(f"{path}: real and imag parts have different shapes")
    return checked, real + 1j * np.array(checked["imag"], dtype=float)


def _read_spectral(node, path: str) -> tuple[dict, SpectralModel]:
    checked, _ = _fields(node, path, ("kind", "coupling_scale", "cutoff"), optional=("cutoff",))
    with _section(path):
        return checked, SpectralModel(**checked)


def _read_subsystem(node, path: str) -> tuple[dict, Subsystem]:
    checked, built = _fields(node, path, ("label", "hamiltonian"))
    with _section(path):
        return checked, Subsystem(dim=len(built["hamiltonian"]), **built)


def _read_bath(node, path: str) -> tuple[dict, BathSpec]:
    checked, built = _fields(node, path, ("label", "temperature", "coupling", "spectral"))
    with _section(path):
        return checked, BathSpec.from_temperature(
            built["label"], built["temperature"], built["spectral"], built["coupling"]
        )


def _read_explicit(node, path: str) -> tuple[dict, SystemSpec]:
    keys = ("subsystems", "interactions", "alpha", "beta_coupling", "grouping_tol", "baths")
    checked, built = _fields(node, path, keys, optional=("interactions", "grouping_tol"))
    with _section(path):
        return checked, SystemSpec(**{"interactions": [], **built})


def _read_initial_state(node, path: str) -> tuple[str | dict, str | np.ndarray]:
    if isinstance(node, str):
        kind = _one_of(*STATE_KINDS)(node, path)
        return kind, kind
    checked, rho = _read_matrix(node, path)
    if hermiticity_defect(rho) > 1e-10:
        raise ConfigError(f"{path}: matrix is not Hermitian within 1e-10")
    return checked, rho


# builder name -> (SystemSpec from the params, required params in the order
# --dump-config writes them). The lambdas look the builders up when called, so
# a wrapper installed on this module's names (perfbench's tracer) sees them.
BUILDERS = {
    "two_qubit": (
        lambda **p: two_qubit_model(TwoQubitParams(**p)),
        ("alpha", "beta_coupling", "e1", "e2", "t1", "t2"),
    ),
    "single_qubit": (
        lambda **p: single_qubit_model(**p),
        ("beta_coupling", "energy", "temperature"),
    ),
    "qubit_chain": (
        lambda **p: qubit_chain_model(**p),
        ("alpha", "beta_coupling", "energies", "n", "temperatures"),
    ),
}

# The reader of each key, wherever it appears: a key means one thing in the
# whole format. SCALARS return the checked value, PARTS the checked part and
# the object built from it.
SCALARS = {
    **dict.fromkeys(("e1", "e2", "t1", "t2", "energy", "temperature", "alpha"), _as_float),
    **dict.fromkeys(("beta_coupling", "grouping_tol", "coupling_scale", "cutoff"), _as_float),
    **dict.fromkeys(("dt", "t_max", "positivity_tol"), _as_float),
    **dict.fromkeys(("n", "record_stride"), _as_int),
    **dict.fromkeys(("energies", "temperatures", "values"), _as_float_list),
    **dict.fromkeys(("label", "kind", "directory", "parameter"), _as_str),
    **dict.fromkeys(("real", "imag"), _as_float_grid),
    "builder": _one_of(*BUILDERS),
    "generator": _one_of("modified", "naive"),
    "formats": _list_of(_one_of("csv", "report")),
}
PARTS = {
    "spectral": _read_spectral,
    "hamiltonian": _read_matrix,
    "coupling": _read_matrix,
    "subsystems": lambda node, path: _read_list(node, path, _read_subsystem),
    "interactions": lambda node, path: _read_list(node, path, _read_matrix),
    "baths": lambda node, path: _read_list(node, path, _read_bath),
    "explicit": _read_explicit,
    "initial_state": _read_initial_state,
}


def _read_model(node, path: str = "model") -> tuple[dict, SystemSpec]:
    if isinstance(node, dict) and ("builder" in node) == ("explicit" in node):
        raise ConfigError(f"{path}: give exactly one of 'builder' or 'explicit'")
    if isinstance(node, dict) and "explicit" in node:
        checked, built = _fields(node, path, ("explicit", "initial_state"), ("initial_state",))
        return checked, built["explicit"]
    checked, _ = _fields(node, path, ("builder", "params", "initial_state"), ("initial_state",))
    build, required = BUILDERS[checked["builder"]]
    optional = ("spectral", "grouping_tol")
    checked["params"], kwargs = _fields(
        checked["params"], f"{path}.params", required + optional, optional
    )
    with _section(f"{path}.params"):
        return checked, build(**kwargs)


def _read_solver(node, path: str = "solver") -> SolverConfig:
    keys = ("dt", "t_max", "record_stride", "positivity_tol")
    _, kwargs = _fields(node, path, keys, optional=("record_stride", "positivity_tol"))
    with _section(path):
        return SolverConfig(**kwargs)


def _read_output(node, path: str = "output") -> OutputSection:
    if node is None:
        return OutputSection()
    _, kwargs = _fields(node, path, ("directory", "formats"), optional=("directory", "formats"))
    return OutputSection(**kwargs)


def _read_sweep(node, path: str = "sweep") -> SweepSection:
    _, kwargs = _fields(node, path, ("parameter", "values"))
    if not kwargs["values"]:
        raise ConfigError(f"{path}.values: need at least one value")
    return SweepSection(**kwargs)


def _read_config(data) -> RunConfig:
    keys = ("model", "generator", "solver", "output", "sweep")
    _, data = _fields(data, "config", keys, optional=("generator", "output", "sweep"))
    model, spec = _read_model(data["model"])
    return RunConfig(
        model=model,
        spec=spec,
        solver=_read_solver(data["solver"]),
        output=_read_output(data.get("output")),
        generator=data.get("generator", "modified"),
        sweep=_read_sweep(data["sweep"]) if "sweep" in data else None,
    )


def load_config(path: str | Path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML: {exc}") from exc
    return _read_config(data)


def dump_config(config: RunConfig) -> str:
    return yaml.safe_dump(config.to_dict(), sort_keys=False)


# -- config -> physics objects ----------------------------------------------


def build_system(config: RunConfig) -> SystemSpec:
    return config.spec


def make_generator(config: RunConfig, spec: SystemSpec | None = None) -> Generator:
    spec = spec if spec is not None else build_system(config)
    if config.generator == "naive":
        return build_naive_local(spec)
    return build_modified_local(spec)


def initial_state(config: RunConfig, gen: Generator) -> np.ndarray:
    kind = config.model.get("initial_state", "maximally_mixed")
    if isinstance(kind, str):
        return STATE_KINDS[kind](gen)
    _, rho = _read_matrix(kind, "model.initial_state")
    d = gen.dimension
    if rho.shape != (d, d):
        raise ConfigError(
            f"model.initial_state: matrix shape {rho.shape} does not match dimension {d}"
        )
    return rho


# -- output writers ----------------------------------------------------------


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    log.info("wrote %s", path)


def _trajectory_rows(gen: Generator, traj: Trajectory) -> tuple[list[str], list[list]]:
    d = gen.dimension
    basis = gen.eig.eigenvectors
    labels = [b.label for b in gen.spec.baths]
    header = (
        ["t"]
        + [f"pop_{k}" for k in range(d)]
        + ["S", "e_dot"]
        + [f"q_dot_{lab}" for lab in labels]
        + ["first_law_residual", "entropy_production", "second_law_ok"]
    )
    # the diagonal of U† rho U for every record
    pops = np.einsum("ik,tij,jk->tk", basis.conj(), traj.states, basis).real
    rows = []
    for t, p, rep in zip(traj.times.tolist(), pops.tolist(), traj.reports):
        rows.append(
            [t]
            + p
            + [rep.entropy, rep.e_dot]
            + list(rep.q_dot)
            + [rep.first_law_residual, rep.entropy_production, int(rep.second_law_ok)]
        )
    return header, rows


def _diagnostics_lines(gen: Generator) -> list[str]:
    diag = gen.diagnostics
    if diag is None:
        return ["spectrum diagnostics: skipped (no couplings)"]
    return [
        f"spectrum diagnostics: {diag.status}",
        f"  min nonzero Bohr frequency: {diag.min_nonzero_frequency!r}",
        f"  min frequency spacing:      {diag.min_frequency_spacing!r}",
        f"  coupling strength:          {diag.coupling!r}",
    ]


def _write_report(path: Path, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    log.info("wrote %s", path)


# -- commands ----------------------------------------------------------------


def cmd_simulate(config: RunConfig, out_dir: Path) -> int:
    gen = make_generator(config)
    rho0 = initial_state(config, gen)
    traj = evolve(gen, rho0, config.solver)
    reports = audit_trajectory(gen, traj)

    out_dir.mkdir(parents=True, exist_ok=True)
    if "csv" in config.output.formats:
        header, rows = _trajectory_rows(gen, traj)
        _write_csv(out_dir / "trajectory.csv", header, rows)

    min_ep = min(r.entropy_production for r in reports)
    max_res = max(abs(r.first_law_residual) for r in reports)
    violations = [t for t, r in zip(traj.times, reports) if not r.second_law_ok]
    if "report" in config.output.formats:
        lines = [
            "lindloc simulate",
            f"generator: {gen.kind}",
            f"dimension: {gen.dimension}",
            f"records: {len(traj)} over t in [0, {float(traj.times[-1])!r}]",
            *_diagnostics_lines(gen),
            f"min entropy production: {min_ep!r}",
            f"max |first law residual|: {max_res!r}",
            "second law: "
            + ("ok" if not violations else f"violated at t = {violations[0]!r}"),
        ]
        _write_report(out_dir / "report.txt", lines)

    if config.generator == "modified" and violations:
        log.error("second law violated by the modified generator at t = %r", violations[0])
        return 2
    return 0


def cmd_steady(config: RunConfig, out_dir: Path) -> int:
    gen = make_generator(config)
    result = steady_state(gen)
    report = audit(gen, result.rho_ss)

    labels = [b.label for b in gen.spec.baths]
    out_dir.mkdir(parents=True, exist_ok=True)
    if "csv" in config.output.formats:
        np.savetxt(out_dir / "rho_ss_real.csv", result.rho_ss.real, delimiter=",")
        np.savetxt(out_dir / "rho_ss_imag.csv", result.rho_ss.imag, delimiter=",")
        header = (
            ["residual", "null_dim"]
            + [f"q_dot_{lab}" for lab in labels]
            + ["e_dot", "s_dot", "first_law_residual", "entropy_production"]
        )
        row = (
            [result.residual, result.null_dim]
            + list(report.q_dot)
            + [report.e_dot, report.s_dot, report.first_law_residual, report.entropy_production]
        )
        _write_csv(out_dir / "steady_summary.csv", header, [row])
    if "report" in config.output.formats:
        lines = [
            "lindloc steady",
            f"generator: {gen.kind}",
            f"dimension: {gen.dimension}",
            *_diagnostics_lines(gen),
            f"residual: {result.residual!r}",
            f"null space dimension: {result.null_dim}",
        ]
        lines += [f"q_dot[{lab}]: {q!r}" for lab, q in zip(labels, report.q_dot)]
        lines += [
            f"sum of heat currents: {sum(report.q_dot)!r}",
            f"e_dot: {report.e_dot!r}",
            f"entropy production: {report.entropy_production!r}",
            f"spohn lhs: {report.spohn_lhs!r}  rhs: {report.spohn_rhs!r}"
            f"  residual: {report.spohn_residual!r}",
        ]
        _write_report(out_dir / "steady_report.txt", lines)
    return 0


def _set_by_path(data: dict, dotted: str, value: float) -> None:
    where = f"sweep.parameter: {dotted!r}"
    node = data
    tokens = dotted.split(".")
    for i, token in enumerate(tokens):
        key: int | str = token
        if isinstance(node, list):
            try:
                key = int(token)
            except ValueError:
                raise ConfigError(f"{where}: {token!r} is not a list index") from None
            if not 0 <= key < len(node):
                raise ConfigError(f"{where}: index {key} out of range")
        elif not isinstance(node, dict):
            raise ConfigError(f"{where}: cannot descend into {token!r}")
        elif token not in node:
            raise ConfigError(f"{where}: no key {token!r}")
        if i == len(tokens) - 1:
            node[key] = value
        else:
            node = node[key]


def _sweep_point(config: RunConfig, k: int, value: float):
    """The steady state and its audit with sweep.values[k] set in the model."""
    data = replace(config, sweep=None).to_dict()
    _set_by_path(data, config.sweep.parameter, value)
    try:
        gen = make_generator(RunConfig.from_dict(data))
        result = steady_state(gen)
        return result, audit(gen, result.rho_ss)
    except (LindlocError, ValueError) as exc:
        raise ConfigError(f"sweep.values[{k}] = {value!r}: {exc}") from exc


def cmd_sweep(config: RunConfig, out_dir: Path) -> int:
    if config.sweep is None:
        raise ConfigError("sweep: section is required by the sweep command")
    parameter, values = config.sweep.parameter, config.sweep.values
    header = (
        ["parameter", "value"]
        + [f"q_dot_{bath.label}" for bath in config.spec.baths]
        + ["entropy_production", "residual"]
    )
    rows = []
    lines = [f"lindloc sweep over {parameter}", f"points: {len(values)}"]
    for k, value in enumerate(values):
        result, report = _sweep_point(config, k, value)
        rows.append(
            [parameter, value]
            + list(report.q_dot)
            + [report.entropy_production, result.residual]
        )
        lines.append(
            f"  {parameter} = {value!r}: q_dot = "
            + ", ".join(repr(q) for q in report.q_dot)
            + f", entropy production = {report.entropy_production!r}"
        )
    out_dir.mkdir(parents=True, exist_ok=True)
    if "csv" in config.output.formats:
        _write_csv(out_dir / "sweep.csv", header, rows)
    if "report" in config.output.formats:
        _write_report(out_dir / "sweep_report.txt", lines)
    return 0


def cmd_compare(config: RunConfig, out_dir: Path) -> int:
    gen_mod = build_modified_local(config.spec)
    gen_naive = build_naive_local(config.spec)
    rho0 = initial_state(config, gen_mod)
    traj_mod = evolve(gen_mod, rho0, config.solver)
    traj_naive = evolve(gen_naive, rho0, config.solver)
    reports_mod = audit_trajectory(gen_mod, traj_mod)
    reports_naive = audit_trajectory(gen_naive, traj_naive)

    out_dir.mkdir(parents=True, exist_ok=True)
    if "csv" in config.output.formats:
        header = [
            "t",
            "entropy_production_modified",
            "entropy_production_naive",
            "first_law_residual_modified",
            "first_law_residual_naive",
        ]
        rows = [
            [float(t), rm.entropy_production, rn.entropy_production,
             rm.first_law_residual, rn.first_law_residual]
            for t, rm, rn in zip(traj_mod.times, reports_mod, reports_naive)
        ]
        _write_csv(out_dir / "compare.csv", header, rows)

    min_ep_mod = min(r.entropy_production for r in reports_mod)
    min_ep_naive = min(r.entropy_production for r in reports_naive)
    max_res_mod = max(abs(r.first_law_residual) for r in reports_mod)
    max_res_naive = max(abs(r.first_law_residual) for r in reports_naive)
    ok = min_ep_mod >= -SECOND_LAW_TOL
    if "report" in config.output.formats:
        lines = [
            "lindloc compare",
            f"records: {len(traj_mod)}",
            f"{'':28s}{'modified':>16s}{'naive':>16s}",
            f"{'min entropy production':28s}{min_ep_mod:>16.6e}{min_ep_naive:>16.6e}",
            f"{'max |first law residual|':28s}{max_res_mod:>16.6e}{max_res_naive:>16.6e}",
            "modified second law: " + ("ok" if ok else "VIOLATED"),
        ]
        _write_report(out_dir / "compare_report.txt", lines)
    if not ok:
        log.error("modified generator violated the second law: min = %r", min_ep_mod)
        return 2
    return 0


COMMANDS = {
    "simulate": cmd_simulate,
    "steady": cmd_steady,
    "sweep": cmd_sweep,
    "compare": cmd_compare,
}


# -- entry point -------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    # exit code 1 (not argparse's 2) on usage errors, per the CLI contract
    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lindloc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("config", help="path to a YAML run configuration")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
        p.add_argument(
            "--dump-config",
            action="store_true",
            help="print the parsed config as canonical YAML and exit",
        )
    return parser


def _configure_logging() -> None:
    raw = os.environ.get("LINDLOC_LOG", "warn")
    if raw not in LOG_LEVELS:
        raise ConfigError(
            f"LINDLOC_LOG: unknown level {raw!r}, expected one of {sorted(LOG_LEVELS)}"
        )
    logging.basicConfig(
        level=raw.upper(), format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr
    )


def main(argv: list[str] | None = None) -> int:
    try:
        parser = _build_parser()
        args = parser.parse_args(argv)
        _configure_logging()
        config = load_config(args.config)
        if args.dump_config:
            sys.stdout.write(dump_config(config))
            return 0
        out_dir = Path(args.out) if args.out is not None else Path(config.output.directory)
        return COMMANDS[args.command](config, out_dir)
    except (LindlocError, ValueError, OSError) as exc:
        print(f"lindloc: error: {exc}", file=sys.stderr)
        return 1


def entry_point() -> None:
    sys.exit(main())
