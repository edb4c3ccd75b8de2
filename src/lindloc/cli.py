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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np
import yaml

from .baths import BathSpec, SpectralModel
from .dynamics import SolverConfig, SteadyStateResult, Trajectory, evolve, steady_state
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
from .thermo import SECOND_LAW_TOL, ThermoReport, audit, audit_trajectory

log = logging.getLogger("lindloc")

LOG_LEVELS = {
    "error": logging.ERROR,
    "warn": logging.WARNING,
    "info": logging.INFO,
    "debug": logging.DEBUG,
}

BUILDERS = ("two_qubit", "single_qubit", "qubit_chain")
STATE_KINDS = ("maximally_mixed", "ground", "gibbs_product")


# -- config data -------------------------------------------------------------


@dataclass(frozen=True)
class OutputSection:
    directory: str = "out"
    formats: tuple[str, ...] = ("csv", "report")


@dataclass(frozen=True)
class SweepSection:
    parameter: str
    values: tuple[float, ...]


@dataclass(frozen=True)
class RunConfig:
    model: dict
    solver: SolverConfig
    output: OutputSection
    generator: str = "modified"
    sweep: SweepSection | None = None

    def to_dict(self) -> dict:
        data = {
            "model": copy.deepcopy(self.model),
            "generator": self.generator,
            "solver": asdict(self.solver),
            "output": {
                "directory": self.output.directory,
                "formats": list(self.output.formats),
            },
        }
        if self.sweep is not None:
            data["sweep"] = {
                "parameter": self.sweep.parameter,
                "values": list(self.sweep.values),
            }
        return data

    @classmethod
    def from_dict(cls, data) -> "RunConfig":
        return _validate_config(data)


# -- validation helpers ------------------------------------------------------


def _expect_mapping(node, path: str) -> dict:
    if not isinstance(node, dict):
        raise ConfigError(f"{path}: expected a mapping, got {type(node).__name__}")
    return node


def _expect_list(node, path: str) -> list:
    if not isinstance(node, list):
        raise ConfigError(f"{path}: expected a list, got {type(node).__name__}")
    return node


def _reject_unknown(node: dict, allowed: set[str], path: str) -> None:
    unknown = sorted(set(node) - allowed)
    if unknown:
        raise ConfigError(f"{path}: unknown key(s) {', '.join(map(repr, unknown))}")


def _need(node: dict, key: str, path: str):
    if key not in node:
        raise ConfigError(f"{path}.{key}: missing required key")
    return node[key]


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


def _as_float_list(value, path: str) -> list[float]:
    return [_as_float(v, f"{path}[{k}]") for k, v in enumerate(_expect_list(value, path))]


def _as_float_grid(value, path: str) -> list[list[float]]:
    rows = _expect_list(value, path)
    grid = [_as_float_list(row, f"{path}[{k}]") for k, row in enumerate(rows)]
    if not grid or any(len(row) != len(grid) for row in grid):
        raise ConfigError(f"{path}: expected a square matrix as nested lists")
    return grid


def _validate_matrix(node, path: str, hermitian: bool = True) -> dict:
    """A complex matrix as paired real/imag nested arrays; imag optional."""
    node = _expect_mapping(node, path)
    _reject_unknown(node, {"real", "imag"}, path)
    real = _as_float_grid(_need(node, "real", path), f"{path}.real")
    out = {"real": real}
    if "imag" in node:
        imag = _as_float_grid(node["imag"], f"{path}.imag")
        if len(imag) != len(real):
            raise ConfigError(f"{path}: real and imag parts have different shapes")
        out["imag"] = imag
    if hermitian and hermiticity_defect(_matrix_array(out)) > 1e-10:
        raise ConfigError(f"{path}: matrix is not Hermitian within 1e-10")
    return out


def _matrix_array(matrix: dict) -> np.ndarray:
    real = np.array(matrix["real"], dtype=float)
    if "imag" in matrix:
        return real + 1j * np.array(matrix["imag"], dtype=float)
    return real.astype(complex)


def _validate_spectral(node, path: str) -> dict:
    node = _expect_mapping(node, path)
    _reject_unknown(node, {"kind", "coupling_scale", "cutoff"}, path)
    out = {
        "kind": _as_str(_need(node, "kind", path), f"{path}.kind"),
        "coupling_scale": _as_float(_need(node, "coupling_scale", path), f"{path}.coupling_scale"),
    }
    if "cutoff" in node:
        out["cutoff"] = _as_float(node["cutoff"], f"{path}.cutoff")
    try:
        _spectral_from(out)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return out


def _spectral_from(node: dict | None) -> SpectralModel:
    if node is None:
        from .models import DEFAULT_SPECTRAL

        return DEFAULT_SPECTRAL
    return SpectralModel(
        kind=node["kind"], coupling_scale=node["coupling_scale"], cutoff=node.get("cutoff")
    )


_BUILDER_FIELDS = {
    "two_qubit": (
        {"e1", "e2", "alpha", "beta_coupling", "t1", "t2"},
        {"spectral", "grouping_tol"},
    ),
    "single_qubit": (
        {"energy", "temperature", "beta_coupling"},
        {"spectral", "grouping_tol"},
    ),
    "qubit_chain": (
        {"n", "energies", "temperatures", "alpha", "beta_coupling"},
        {"spectral", "grouping_tol"},
    ),
}


def _validate_params(builder: str, node, path: str) -> dict:
    node = _expect_mapping(node, path)
    required, optional = _BUILDER_FIELDS[builder]
    _reject_unknown(node, required | optional, path)
    out = {}
    for key in sorted(required):
        value = _need(node, key, path)
        if key == "n":
            out[key] = _as_int(value, f"{path}.{key}")
        elif key in ("energies", "temperatures"):
            out[key] = _as_float_list(value, f"{path}.{key}")
        else:
            out[key] = _as_float(value, f"{path}.{key}")
    if "spectral" in node:
        out["spectral"] = _validate_spectral(node["spectral"], f"{path}.spectral")
    if "grouping_tol" in node:
        out["grouping_tol"] = _as_float(node["grouping_tol"], f"{path}.grouping_tol")
    return out


def _validate_explicit(node, path: str) -> dict:
    node = _expect_mapping(node, path)
    allowed = {"subsystems", "interactions", "alpha", "beta_coupling", "baths", "grouping_tol"}
    _reject_unknown(node, allowed, path)
    out: dict = {}

    subs = _expect_list(_need(node, "subsystems", path), f"{path}.subsystems")
    out["subsystems"] = []
    for k, sub in enumerate(subs):
        sp = f"{path}.subsystems[{k}]"
        sub = _expect_mapping(sub, sp)
        _reject_unknown(sub, {"label", "hamiltonian"}, sp)
        out["subsystems"].append(
            {
                "label": _as_str(_need(sub, "label", sp), f"{sp}.label"),
                "hamiltonian": _validate_matrix(_need(sub, "hamiltonian", sp), f"{sp}.hamiltonian"),
            }
        )

    if "interactions" in node:
        terms = _expect_list(node["interactions"], f"{path}.interactions")
        out["interactions"] = [
            _validate_matrix(term, f"{path}.interactions[{k}]") for k, term in enumerate(terms)
        ]

    out["alpha"] = _as_float(_need(node, "alpha", path), f"{path}.alpha")
    out["beta_coupling"] = _as_float(_need(node, "beta_coupling", path), f"{path}.beta_coupling")
    if "grouping_tol" in node:
        out["grouping_tol"] = _as_float(node["grouping_tol"], f"{path}.grouping_tol")

    baths = _expect_list(_need(node, "baths", path), f"{path}.baths")
    out["baths"] = []
    for k, bath in enumerate(baths):
        bp = f"{path}.baths[{k}]"
        bath = _expect_mapping(bath, bp)
        _reject_unknown(bath, {"label", "temperature", "coupling", "spectral"}, bp)
        out["baths"].append(
            {
                "label": _as_str(_need(bath, "label", bp), f"{bp}.label"),
                "temperature": _as_float(_need(bath, "temperature", bp), f"{bp}.temperature"),
                "coupling": _validate_matrix(_need(bath, "coupling", bp), f"{bp}.coupling"),
                "spectral": _validate_spectral(_need(bath, "spectral", bp), f"{bp}.spectral"),
            }
        )
    return out


def _validate_model(node, path: str = "model") -> dict:
    node = _expect_mapping(node, path)
    _reject_unknown(node, {"builder", "params", "explicit", "initial_state"}, path)
    out: dict = {}
    has_builder = "builder" in node
    has_explicit = "explicit" in node
    if has_builder == has_explicit:
        raise ConfigError(f"{path}: give exactly one of 'builder' or 'explicit'")
    if has_builder:
        builder = _as_str(node["builder"], f"{path}.builder")
        if builder not in BUILDERS:
            raise ConfigError(
                f"{path}.builder: unknown builder {builder!r}, expected one of {BUILDERS}"
            )
        out["builder"] = builder
        out["params"] = _validate_params(builder, _need(node, "params", path), f"{path}.params")
    else:
        if "params" in node:
            raise ConfigError(f"{path}.params: only valid together with 'builder'")
        out["explicit"] = _validate_explicit(node["explicit"], f"{path}.explicit")
    if "initial_state" in node:
        state = node["initial_state"]
        if isinstance(state, str):
            if state not in STATE_KINDS:
                raise ConfigError(
                    f"{path}.initial_state: unknown kind {state!r}, expected one of {STATE_KINDS}"
                )
            out["initial_state"] = state
        else:
            out["initial_state"] = _validate_matrix(state, f"{path}.initial_state")
    return out


def _validate_solver(node, path: str = "solver") -> SolverConfig:
    node = _expect_mapping(node, path)
    _reject_unknown(node, {"dt", "t_max", "record_stride", "positivity_tol"}, path)
    kwargs = {
        "dt": _as_float(_need(node, "dt", path), f"{path}.dt"),
        "t_max": _as_float(_need(node, "t_max", path), f"{path}.t_max"),
    }
    if "record_stride" in node:
        kwargs["record_stride"] = _as_int(node["record_stride"], f"{path}.record_stride")
    if "positivity_tol" in node:
        kwargs["positivity_tol"] = _as_float(node["positivity_tol"], f"{path}.positivity_tol")
    return SolverConfig(**kwargs)


def _validate_output(node, path: str = "output") -> OutputSection:
    if node is None:
        return OutputSection()
    node = _expect_mapping(node, path)
    _reject_unknown(node, {"directory", "formats"}, path)
    kwargs = {}
    if "directory" in node:
        kwargs["directory"] = _as_str(node["directory"], f"{path}.directory")
    if "formats" in node:
        formats = _expect_list(node["formats"], f"{path}.formats")
        for k, fmt in enumerate(formats):
            if fmt not in ("csv", "report"):
                raise ConfigError(f"{path}.formats[{k}]: unknown format {fmt!r}")
        kwargs["formats"] = tuple(formats)
    return OutputSection(**kwargs)


def _validate_sweep(node, path: str = "sweep") -> SweepSection:
    node = _expect_mapping(node, path)
    _reject_unknown(node, {"parameter", "values"}, path)
    values = _as_float_list(_need(node, "values", path), f"{path}.values")
    if not values:
        raise ConfigError(f"{path}.values: need at least one value")
    return SweepSection(
        parameter=_as_str(_need(node, "parameter", path), f"{path}.parameter"),
        values=tuple(values),
    )


def _validate_config(data) -> RunConfig:
    data = _expect_mapping(data, "config")
    _reject_unknown(data, {"model", "generator", "solver", "output", "sweep"}, "config")
    generator = "modified"
    if "generator" in data:
        generator = _as_str(data["generator"], "generator")
        if generator not in ("modified", "naive"):
            raise ConfigError(f"generator: expected 'modified' or 'naive', got {generator!r}")
    return RunConfig(
        model=_validate_model(_need(data, "model", "config")),
        solver=_validate_solver(_need(data, "solver", "config")),
        output=_validate_output(data.get("output")),
        generator=generator,
        sweep=_validate_sweep(data["sweep"]) if "sweep" in data else None,
    )


def load_config(path: str | Path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML: {exc}") from exc
    return _validate_config(data)


def dump_config(config: RunConfig) -> str:
    return yaml.safe_dump(config.to_dict(), sort_keys=False)


# -- config -> physics objects ----------------------------------------------


def build_system(config: RunConfig) -> SystemSpec:
    model = config.model
    if "builder" in model:
        p = dict(model["params"])
        spectral = _spectral_from(p.pop("spectral", None))
        builder = model["builder"]
        if builder == "two_qubit":
            return two_qubit_model(TwoQubitParams(spectral=spectral, **p))
        if builder == "single_qubit":
            return single_qubit_model(spectral=spectral, **p)
        return qubit_chain_model(spectral=spectral, **p)

    ex = model["explicit"]
    subsystems = []
    for sub in ex["subsystems"]:
        h = _matrix_array(sub["hamiltonian"])
        subsystems.append(Subsystem(label=sub["label"], hamiltonian=h, dim=h.shape[0]))
    interactions = [_matrix_array(term) for term in ex.get("interactions", [])]
    baths = [
        BathSpec.from_temperature(
            label=b["label"],
            temperature=b["temperature"],
            spectral=_spectral_from(b["spectral"]),
            coupling_op=_matrix_array(b["coupling"]),
        )
        for b in ex["baths"]
    ]
    return SystemSpec(
        subsystems=subsystems,
        interactions=interactions,
        alpha=ex["alpha"],
        baths=baths,
        beta_coupling=ex["beta_coupling"],
        grouping_tol=ex.get("grouping_tol"),
    )


def make_generator(config: RunConfig, spec: SystemSpec | None = None) -> Generator:
    spec = spec if spec is not None else build_system(config)
    if config.generator == "naive":
        return build_naive_local(spec)
    return build_modified_local(spec)


def initial_state(config: RunConfig, gen: Generator) -> np.ndarray:
    kind = config.model.get("initial_state", "maximally_mixed")
    d = gen.dimension
    if isinstance(kind, dict):
        rho = _matrix_array(kind)
        if rho.shape != (d, d):
            raise ConfigError(
                f"model.initial_state: matrix shape {rho.shape} does not match dimension {d}"
            )
        return rho
    if kind == "maximally_mixed":
        return np.eye(d, dtype=complex) / d
    if kind == "ground":
        ground = gen.eig.eigenvectors[:, 0]
        return np.outer(ground, ground.conj())
    return product_gibbs(gen.spec)


# -- output writers ----------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
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
            + [rep.first_law_residual, rep.entropy_production, rep.second_law_ok]
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


def cmd_simulate(config: RunConfig, out_dir: Path, jobs: int = 1) -> int:
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


def _steady_rows(gen: Generator, result: SteadyStateResult, report: ThermoReport):
    labels = [b.label for b in gen.spec.baths]
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
    return header, [row]


def cmd_steady(config: RunConfig, out_dir: Path, jobs: int = 1) -> int:
    gen = make_generator(config)
    result = steady_state(gen)
    report = audit(gen, result.rho_ss)

    out_dir.mkdir(parents=True, exist_ok=True)
    if "csv" in config.output.formats:
        np.savetxt(out_dir / "rho_ss_real.csv", result.rho_ss.real, delimiter=",")
        np.savetxt(out_dir / "rho_ss_imag.csv", result.rho_ss.imag, delimiter=",")
        header, rows = _steady_rows(gen, result, report)
        _write_csv(out_dir / "steady_summary.csv", header, rows)
    if "report" in config.output.formats:
        labels = [b.label for b in gen.spec.baths]
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
    node = data
    tokens = dotted.split(".")
    for i, token in enumerate(tokens):
        last = i == len(tokens) - 1
        key: int | str = token
        if isinstance(node, list):
            try:
                key = int(token)
            except ValueError:
                raise ConfigError(f"sweep.parameter: {dotted!r}: {token!r} is not a list index")
            if not 0 <= key < len(node):
                raise ConfigError(f"sweep.parameter: {dotted!r}: index {key} out of range")
        elif isinstance(node, dict):
            if token not in node:
                raise ConfigError(f"sweep.parameter: {dotted!r}: no key {token!r}")
        else:
            raise ConfigError(f"sweep.parameter: {dotted!r}: cannot descend into {token!r}")
        if last:
            node[key] = value
        else:
            node = node[key]


def _sweep_one(config: RunConfig, parameter: str, value: float):
    data = config.to_dict()
    data.pop("sweep", None)
    _set_by_path(data, parameter, value)
    point = RunConfig.from_dict(data)
    gen = make_generator(point)
    result = steady_state(gen)
    report = audit(gen, result.rho_ss)
    return gen, result, report


def cmd_sweep(config: RunConfig, out_dir: Path, jobs: int = 1) -> int:
    if config.sweep is None:
        raise ConfigError("sweep: section is required by the sweep command")
    parameter, values = config.sweep.parameter, config.sweep.values

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(_sweep_one, config, parameter, v) for v in values]
            results = [f.result() for f in futures]
    else:
        results = [_sweep_one(config, parameter, v) for v in values]

    labels = [b.label for b in results[0][0].spec.baths]
    header = (
        ["parameter", "value"]
        + [f"q_dot_{lab}" for lab in labels]
        + ["entropy_production", "residual"]
    )
    rows = []
    for value, (gen, result, report) in zip(values, results):
        rows.append(
            [parameter, value]
            + list(report.q_dot)
            + [report.entropy_production, result.residual]
        )
    out_dir.mkdir(parents=True, exist_ok=True)
    if "csv" in config.output.formats:
        _write_csv(out_dir / "sweep.csv", header, rows)
    if "report" in config.output.formats:
        lines = [f"lindloc sweep over {parameter}", f"points: {len(values)}"]
        for value, (gen, result, report) in zip(values, results):
            lines.append(
                f"  {parameter} = {value!r}: q_dot = "
                + ", ".join(repr(q) for q in report.q_dot)
                + f", entropy production = {report.entropy_production!r}"
            )
        _write_report(out_dir / "sweep_report.txt", lines)
    return 0


def cmd_compare(config: RunConfig, out_dir: Path, jobs: int = 1) -> int:
    spec = build_system(config)
    gen_mod = build_modified_local(spec)
    gen_naive = build_naive_local(spec)
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
        p.add_argument("--jobs", type=int, default=1, help="worker threads for sweep")
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
        level=LOG_LEVELS[raw], format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr
    )


def main(argv: list[str] | None = None) -> int:
    try:
        parser = _build_parser()
        args = parser.parse_args(argv)
        _configure_logging()
        if args.jobs < 1:
            raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
        config = load_config(args.config)
        if args.dump_config:
            sys.stdout.write(dump_config(config))
            return 0
        out_dir = Path(args.out) if args.out is not None else Path(config.output.directory)
        return COMMANDS[args.command](config, out_dir, jobs=args.jobs)
    except (LindlocError, ValueError, OSError) as exc:
        print(f"lindloc: error: {exc}", file=sys.stderr)
        return 1


def entry_point() -> None:
    sys.exit(main())
