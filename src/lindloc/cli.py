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
import re
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np
import yaml

from .baths import BathSpec, SpectralModel
from .dynamics import SolverConfig, Trajectory, evolve, steady_state, steady_states
from .errors import ConfigError, LindlocError
from .linalg import hermiticity_defect, run_length
from .liouvillian import (
    Generator,
    Subsystem,
    SystemSpec,
    build_modified_local,
    build_naive_local,
    product_gibbs,
)
from .models import TwoQubitParams, qubit_chain_model, single_qubit_model, two_qubit_model
from .thermo import audit, audit_columns, audit_states

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
    back and sweep points edit; ``spec`` is the system built from it, and
    ``rho0`` its explicit initial-state matrix, if it gives one."""

    model: dict
    spec: SystemSpec = field(compare=False, repr=False)
    solver: SolverConfig
    output: OutputSection
    generator: str = "modified"
    sweep: SweepSection | None = None
    rho0: np.ndarray | None = field(default=None, compare=False, repr=False)

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


# a YAML 1.2 float; PyYAML reads YAML 1.1, where 1e-9 and 1e3 are strings
_YAML_FLOAT = re.compile(r"[-+]?(\.[0-9]+|[0-9]+(\.[0-9]*)?)([eE][-+]?[0-9]+)?")


def _as_float(value, path: str) -> float:
    number = float(value) if isinstance(value, str) and _YAML_FLOAT.fullmatch(value) else value
    if isinstance(number, bool) or not isinstance(number, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    try:
        number = float(number)
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
        if not isinstance(value, list):
            raise ConfigError(f"{path}: expected a list, got {type(value).__name__}")
        return [read(v, f"{path}[{k}]") for k, v in enumerate(value)]

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
    unknown = sorted(set(node) - set(keys), key=str)
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
        return checked, Subsystem(**built)


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


def _read_initial_state(node, path: str) -> tuple[str | dict, np.ndarray | None]:
    if isinstance(node, str):
        return _one_of(*STATE_KINDS)(node, path), None
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


def _read_model(node, path: str = "model") -> tuple[dict, SystemSpec, np.ndarray | None]:
    """The checked model, its spec and its explicit initial-state matrix."""
    if isinstance(node, dict) and ("builder" in node) == ("explicit" in node):
        raise ConfigError(f"{path}: give exactly one of 'builder' or 'explicit'")
    if isinstance(node, dict) and "explicit" in node:
        checked, built = _fields(node, path, ("explicit", "initial_state"), ("initial_state",))
        spec = built["explicit"]
    else:
        keys = ("builder", "params", "initial_state")
        checked, built = _fields(node, path, keys, ("initial_state",))
        build, required = BUILDERS[checked["builder"]]
        optional = ("spectral", "grouping_tol")
        checked["params"], kwargs = _fields(
            checked["params"], f"{path}.params", required + optional, optional
        )
        with _section(f"{path}.params"):
            spec = build(**kwargs)
    rho0, d = built.get("initial_state"), spec.dimension
    if rho0 is not None and rho0.shape != (d, d):
        raise ConfigError(
            f"{path}.initial_state: matrix shape {rho0.shape} does not match dimension {d}"
        )
    return checked, spec, rho0


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


def _read_sweep(node, model: dict, path: str = "sweep") -> SweepSection:
    _, kwargs = _fields(node, path, ("parameter", "values"))
    # a point reads only the model again: nothing else it computes could change
    if not kwargs["parameter"].startswith("model."):
        raise ConfigError(
            f"{path}.parameter: expected a path into the model, 'model.<key>...', "
            f"got {kwargs['parameter']!r}"
        )
    _walk({"model": model}, kwargs["parameter"])  # the entry each point sets
    if not kwargs["values"]:
        raise ConfigError(f"{path}.values: need at least one value")
    return SweepSection(**kwargs)


def _read_config(data) -> RunConfig:
    keys = ("model", "generator", "solver", "output", "sweep")
    _, data = _fields(data, "config", keys, optional=("generator", "output", "sweep"))
    model, spec, rho0 = _read_model(data["model"])
    return RunConfig(
        model=model,
        spec=spec,
        rho0=rho0,
        solver=_read_solver(data["solver"]),
        output=_read_output(data.get("output")),
        generator=data.get("generator", "modified"),
        sweep=_read_sweep(data["sweep"], model) if "sweep" in data else None,
    )


def _parse_yaml(fh):
    """The YAML document of an open file, parsed by libyaml where PyYAML has
    it. A file libyaml refuses is parsed again by the pure-Python parser,
    whose result or error stands, so that every error reads as that parser
    words it (libyaml words many otherwise)."""
    if yaml.__with_libyaml__ and fh.seekable():
        try:
            return yaml.load(fh, Loader=yaml.CSafeLoader)
        except (yaml.YAMLError, ValueError):
            fh.seek(0)
    return yaml.load(fh, Loader=yaml.SafeLoader)


def load_config(path: str | Path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = _parse_yaml(fh)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML: {exc}") from exc
    return _read_config(data)


def dump_config(config: RunConfig) -> str:
    return yaml.safe_dump(config.to_dict(), sort_keys=False)


# -- config -> physics objects ----------------------------------------------


def make_generator(config: RunConfig, previous: Generator | None = None) -> Generator:
    """The config's generator, reusing previous's structure where it can."""
    build = build_naive_local if config.generator == "naive" else build_modified_local
    return build(config.spec, previous)


def initial_state(config: RunConfig, gen: Generator) -> np.ndarray:
    if config.rho0 is not None:
        return config.rho0
    return STATE_KINDS[config.model.get("initial_state", "maximally_mixed")](gen)


# -- outputs -----------------------------------------------------------------


def _write_outputs(config: RunConfig, out_dir: Path, **formats) -> None:
    """Write the files of each requested format. ``formats`` maps a format to
    {file name: function that writes the file to the handle it is given}, so
    a file of a format not in ``output.formats`` is never built."""
    out_dir.mkdir(parents=True, exist_ok=True)
    for fmt, files in formats.items():
        if fmt in config.output.formats:
            for name, write in files.items():
                with open(out_dir / name, "w", newline="", encoding="utf-8") as fh:
                    write(fh)
                log.info("wrote %s", out_dir / name)


def _csv(fh, columns: list[tuple[str, np.ndarray | list]]) -> None:
    """A table of (name, values) columns: the names, then one row per value.
    Rows of numeric arrays are joined by hand, each float and int written by
    repr and each row ended by "\r\n", as csv.writer writes them."""
    names, values = zip(*columns)
    writer = csv.writer(fh)
    writer.writerow(names)
    if all(isinstance(v, np.ndarray) and v.dtype.kind in "biuf" for v in values):
        rows = zip(*(v.tolist() for v in values), strict=True)
        fh.writelines(",".join(map(repr, row)) + "\r\n" for row in rows)
    else:
        writer.writerows(zip(*values, strict=True))


def _lines(fh, lines: list[str]) -> None:
    fh.write("\n".join(lines) + "\n")


def _trajectory_columns(gen: Generator, traj: Trajectory, audited: dict) -> list[tuple]:
    basis = gen.eig.eigenvectors
    # the diagonal of U† rho U for every record
    pops = np.einsum("ik,tij,jk->tk", basis.conj(), traj.states, basis).real
    return [
        ("t", traj.times),
        *((f"pop_{k}", p) for k, p in enumerate(pops.T)),
        ("S", audited["entropy"]),
        ("e_dot", audited["e_dot"]),
        *((f"q_dot_{b.label}", q) for b, q in zip(gen.spec.baths, audited["q_dot"].T)),
        ("first_law_residual", audited["first_law_residual"]),
        ("entropy_production", audited["entropy_production"]),
        ("second_law_ok", audited["second_law_ok"].astype(int)),
    ]


def _report_head(command: str, gen: Generator, *lines: str) -> list[str]:
    """The command, the generator, its dimension, the given lines, then the
    spectrum diagnostics."""
    head = [f"lindloc {command}", f"generator: {gen.kind}", f"dimension: {gen.dimension}", *lines]
    diag = gen.diagnostics
    if diag is None:
        return head + ["spectrum diagnostics: skipped (no couplings)"]
    return head + [
        f"spectrum diagnostics: {diag.status}",
        f"  min nonzero Bohr frequency: {diag.min_nonzero_frequency!r}",
        f"  min frequency spacing:      {diag.min_frequency_spacing!r}",
        f"  coupling strength:          {diag.coupling!r}",
    ]


# -- commands ----------------------------------------------------------------


def _evolve_audited(gen: Generator, rho0: np.ndarray, solver: SolverConfig):
    """The trajectory from rho0, the audit columns of its records
    (audit_columns), their min entropy production, max |first-law residual|
    and first second-law violation time (None if there is none)."""
    traj = evolve(gen, rho0, solver)
    audited = audit_columns(gen, traj)
    min_ep = min(audited["entropy_production"].tolist())
    max_res = max(map(abs, audited["first_law_residual"].tolist()))
    ok = audited["second_law_ok"].tolist()
    violations = (t for t, fine in zip(traj.times.tolist(), ok) if not fine)
    return traj, audited, min_ep, max_res, next(violations, None)


def cmd_simulate(config: RunConfig, out_dir: Path) -> int:
    gen = make_generator(config)
    rho0 = initial_state(config, gen)
    traj, audited, min_ep, max_res, violation = _evolve_audited(gen, rho0, config.solver)

    def write_report(fh) -> None:
        records = f"records: {len(traj)} over t in [0, {float(traj.times[-1])!r}]"
        _lines(fh, [
            *_report_head("simulate", gen, records),
            f"min entropy production: {min_ep!r}",
            f"max |first law residual|: {max_res!r}",
            "second law: " + ("ok" if violation is None else f"violated at t = {violation!r}"),
        ])

    tables = {"trajectory.csv": lambda fh: _csv(fh, _trajectory_columns(gen, traj, audited))}
    _write_outputs(config, out_dir, csv=tables, report={"report.txt": write_report})
    if config.generator == "modified" and violation is not None:
        log.error("second law violated by the modified generator at t = %r", violation)
        return 2
    return 0


def cmd_steady(config: RunConfig, out_dir: Path) -> int:
    gen = make_generator(config)
    result = steady_state(gen)
    report = audit(gen, result.rho_ss)
    labels = [b.label for b in gen.spec.baths]

    def write_summary(fh) -> None:
        _csv(fh, [
            ("residual", [result.residual]),
            ("null_dim", [result.null_dim]),
            *((f"q_dot_{lab}", [q]) for lab, q in zip(labels, report.q_dot)),
            ("e_dot", [report.e_dot]),
            ("s_dot", [report.s_dot]),
            ("first_law_residual", [report.first_law_residual]),
            ("entropy_production", [report.entropy_production]),
        ])

    def write_report(fh) -> None:
        _lines(fh, [
            *_report_head("steady", gen),
            f"residual: {result.residual!r}",
            f"null space dimension: {result.null_dim}",
            *(f"q_dot[{lab}]: {q!r}" for lab, q in zip(labels, report.q_dot)),
            f"sum of heat currents: {sum(report.q_dot)!r}",
            f"e_dot: {report.e_dot!r}",
            f"entropy production: {report.entropy_production!r}",
            f"spohn lhs: {report.spohn_lhs!r}  rhs: {report.spohn_rhs!r}"
            f"  residual: {report.spohn_residual!r}",
        ])

    tables = {
        "rho_ss_real.csv": lambda fh: np.savetxt(fh, result.rho_ss.real, delimiter=","),
        "rho_ss_imag.csv": lambda fh: np.savetxt(fh, result.rho_ss.imag, delimiter=","),
        "steady_summary.csv": write_summary,
    }
    _write_outputs(config, out_dir, csv=tables, report={"steady_report.txt": write_report})
    return 0


def _walk(data: dict, dotted: str) -> tuple[dict | list, int | str]:
    """The container and the key of the entry a dotted path names, each step
    of which must exist. Each container below `data` on the path is swapped,
    in its parent, for a shallow copy, so that setting the entry changes no
    container that `data` shares: every node off the path stays shared."""
    where = f"sweep.parameter: {dotted!r}"
    node = data
    for token in dotted.split("."):
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
        parent, node = node, node[key]
        if isinstance(node, (dict, list)):
            node = parent[key] = node.copy()
    return parent, key


def _set_by_path(data: dict, dotted: str, value: float) -> None:
    node, key = _walk(data, dotted)
    node[key] = value


@contextmanager
def _held():
    """Holds back, in the list it yields, every record the package logger
    gets within (a filter that returns None drops the record)."""
    records: list[logging.LogRecord] = []
    log.addFilter(records.append)
    try:
        yield records
    finally:
        log.removeFilter(records.append)


def _point_error(k: int, value: float, exc: Exception) -> ConfigError:
    """The error of sweep point k, named by its value."""
    return ConfigError(f"sweep.values[{k}] = {value!r}: {exc}")


def _sweep_point(config: RunConfig, k: int, value: float, previous: Generator | None):
    """The generator with sweep.values[k] set in the model, which alone is
    read again, built from the previous point's where only rates changed,
    and the log records of its build, held back until the point is solved
    (a point that fails to build logs them at once). The point's model is
    config.model with the containers on the swept path copied (_walk)."""
    data = {"model": config.model}
    _set_by_path(data, config.sweep.parameter, value)
    model = data["model"]
    with _held() as records:
        try:
            _, spec, _ = _read_model(model)
            return make_generator(replace(config, model=model, spec=spec), previous), records
        except (LindlocError, ValueError) as exc:
            failed = exc
    for record in records:
        log.handle(record)
    raise _point_error(k, value, failed) from failed


def _solve_points(points: list[tuple]) -> list[tuple]:
    """Each point's value, steady-state residual and audit, for consecutive
    sweep points (k, value, generator, held build records) that share a
    structure, solved and audited as one stack. If the stack fails, its log
    records are dropped and the points run one by one, each logging its
    build records first, up to the first that fails, which raises, named as
    _sweep_point names it."""
    if not points:
        return []
    stack = Generator.stack([gen for _, _, gen, _ in points])
    try:
        with _held() as held:
            results = steady_states(stack)
            reports = audit_states(stack, [r.rho_ss for r in results])
    except (LindlocError, ValueError):
        pass  # the stack's records are dropped with it
    else:
        for record in held + [r for *_, records in points for r in records]:
            log.handle(record)
        return [(p[1], r.residual, rep) for p, r, rep in zip(points, results, reports)]
    solved = []
    for k, value, gen, records in points:
        for record in records:
            log.handle(record)
        try:
            result = steady_state(gen)
            solved.append((value, result.residual, audit(gen, result.rho_ss)))
        except (LindlocError, ValueError) as exc:
            raise _point_error(k, value, exc) from exc
    return solved


def cmd_sweep(config: RunConfig, out_dir: Path) -> int:
    """Reads and fills the points in order, and solves and audits them in
    chunks of consecutive points that share one generator structure, each
    chunk's stacked arrays holding at most linalg.STACK_BYTES per row (see
    Structure.point_bytes), so its memory is bounded like a run's. A point
    that fails to read or fill is reported after the points before it are
    solved, so the first failing point is the one named."""
    if config.sweep is None:
        raise ConfigError("sweep: section is required by the sweep command")
    parameter, values = config.sweep.parameter, config.sweep.values
    points, chunk, gen, built = [], [], None, 0
    for k, value in enumerate(values):
        previous = gen
        try:
            gen, records = _sweep_point(config, k, value, previous)
        except ConfigError:
            _solve_points(chunk)
            raise
        if chunk and (
            gen.structure is not previous.structure
            or len(chunk) == run_length(gen.structure.point_bytes)
        ):
            points += _solve_points(chunk)
            chunk = []
        built += previous is None or gen.structure is not previous.structure
        chunk.append((k, value, gen, records))
    points += _solve_points(chunk)
    log.info("sweep: generator structure built at %d of %d points", built, len(values))

    def write_table(fh) -> None:
        values, residuals, reports = zip(*points)
        q_dot = zip(*(rep.q_dot for rep in reports))
        _csv(fh, [
            ("parameter", [parameter] * len(points)),
            ("value", values),
            *((f"q_dot_{b.label}", q) for b, q in zip(config.spec.baths, q_dot)),
            ("entropy_production", [rep.entropy_production for rep in reports]),
            ("residual", residuals),
        ])

    def write_report(fh) -> None:
        lines = [f"lindloc sweep over {parameter}", f"points: {len(values)}"]
        lines += [
            f"  {parameter} = {value!r}: q_dot = "
            + ", ".join(repr(q) for q in rep.q_dot)
            + f", entropy production = {rep.entropy_production!r}"
            for value, _, rep in points
        ]
        _lines(fh, lines)

    tables = {"sweep.csv": write_table}
    _write_outputs(config, out_dir, csv=tables, report={"sweep_report.txt": write_report})
    return 0


def cmd_compare(config: RunConfig, out_dir: Path) -> int:
    gen_mod = build_modified_local(config.spec)
    rho0 = initial_state(config, gen_mod)
    traj_mod, mod, ep_mod, res_mod, violation = _evolve_audited(gen_mod, rho0, config.solver)
    gen_naive = build_naive_local(config.spec)
    _, naive, ep_naive, res_naive, _ = _evolve_audited(gen_naive, rho0, config.solver)

    def write_table(fh) -> None:
        _csv(fh, [
            ("t", traj_mod.times),
            ("entropy_production_modified", mod["entropy_production"]),
            ("entropy_production_naive", naive["entropy_production"]),
            ("first_law_residual_modified", mod["first_law_residual"]),
            ("first_law_residual_naive", naive["first_law_residual"]),
        ])

    def write_report(fh) -> None:
        _lines(fh, [
            "lindloc compare",
            f"records: {len(traj_mod)}",
            f"{'':28s}{'modified':>16s}{'naive':>16s}",
            f"{'min entropy production':28s}{ep_mod:>16.6e}{ep_naive:>16.6e}",
            f"{'max |first law residual|':28s}{res_mod:>16.6e}{res_naive:>16.6e}",
            "modified second law: " + ("ok" if violation is None else "VIOLATED"),
        ])

    tables = {"compare.csv": write_table}
    _write_outputs(config, out_dir, csv=tables, report={"compare_report.txt": write_report})
    if violation is not None:
        log.error("modified generator violated the second law: min = %r", ep_mod)
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
