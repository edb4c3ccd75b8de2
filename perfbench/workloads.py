"""The four benchmark workloads: seeded inputs, one job, and its checks.

Each workload makes a pool of inputs from the seed during set-up; job k runs
input k mod pool size. A job is what one user run costs: it builds its own
spec and generator every time, because users pay assembly on every run.
lindloc only ever sees the generated inputs (arguments, or YAML files for
the command-line workloads).

Checks on every job, whatever the seed:

- each returned state has trace 1, is Hermitian and is positive;
- under the modified generator, |first-law residual| <= 1e-10 x the energy
  scale (the norm of H_s) and entropy production >= -1e-9;
- at a steady state the heat currents sum to zero.

For the default seed each job's outputs are also compared with
``reference.json`` to 1e-9, relative to the largest value of each group.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np
import yaml

import lindloc
import lindloc.cli

DEFAULT_SEED = 1
FLAT_SPECTRAL = {"kind": "flat", "coupling_scale": 0.15915494309189535}  # 1 / (2 pi)
ALPHA = 0.01
BETA_COUPLING = 0.01

TRACE_TOL = 1e-9
HERMITIAN_TOL = 1e-12
POSITIVITY_TOL = 1e-9
FIRST_LAW_TOL = 1e-10  # times the energy scale
SECOND_LAW_TOL = 1e-9
HEAT_SUM_TOL = 1e-8  # times the largest current at the steady state
STEADY_RESIDUAL_TOL = 1e-8
REFERENCE_TOL = 1e-9

# C07 of the acceptance scorecard: steady heat current from the hot bath of
# the default resonant pair.
ANCHOR_Q_DOT = 1.5356402288472635e-05


def anchor_problems() -> list[str]:
    gen = lindloc.build_modified_local(lindloc.two_qubit_model(lindloc.TwoQubitParams()))
    q = lindloc.audit(gen, lindloc.steady_state(gen).rho_ss).q_dot
    if abs(q[0] - ANCHOR_Q_DOT) > REFERENCE_TOL * ANCHOR_Q_DOT:
        return [f"anchor: q_dot[0] = {q[0]!r}, expected {ANCHOR_Q_DOT!r}"]
    return []


# -- shared checks -----------------------------------------------------------


def state_problems(rho: np.ndarray, where: str) -> list[str]:
    out = []
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > TRACE_TOL:
        out.append(f"{where}: trace {tr!r}")
    herm = float(np.abs(rho - rho.conj().T).max())
    if herm > HERMITIAN_TOL:
        out.append(f"{where}: not Hermitian, defect {herm:.3e}")
    lo = float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min())
    if lo < -POSITIVITY_TOL:
        out.append(f"{where}: eigenvalue {lo:.3e}")
    return out


def first_law_problems(residual: float, energy_scale: float, where: str) -> list[str]:
    if not abs(residual) <= FIRST_LAW_TOL * energy_scale:
        return [f"{where}: first-law residual {residual!r}"]
    return []


def second_law_problems(entropy_production: float, where: str) -> list[str]:
    if not entropy_production >= -SECOND_LAW_TOL:
        return [f"{where}: entropy production {entropy_production!r}"]
    return []


def heat_sum_problems(q_dot, where: str) -> list[str]:
    q = [float(x) for x in q_dot]
    if not abs(sum(q)) <= HEAT_SUM_TOL * max(abs(x) for x in q) + 1e-15:
        return [f"{where}: steady heat currents sum to {sum(q)!r}"]
    return []


def reference_problems(summary: dict, reference: dict, where: str) -> list[str]:
    """Compare each group of numbers to 1e-9 of the group's largest value."""
    out = []
    for group, ref in reference.items():
        got = np.asarray(summary.get(group, []), dtype=float)
        ref = np.asarray(ref, dtype=float)
        if got.shape != ref.shape:
            out.append(f"{where}: {group} has shape {got.shape}, reference {ref.shape}")
            continue
        scale = float(np.abs(ref).max()) if ref.size else 0.0
        err = float(np.abs(got - ref).max()) if ref.size else 0.0
        if not err <= REFERENCE_TOL * scale:
            out.append(f"{where}: {group} differs from the reference by {err:.3e} (scale {scale:.3e})")
    return out


def random_state(rng: np.random.Generator, d: int) -> np.ndarray:
    """A full-rank density matrix with coherences in every Bohr block."""
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


def _write_yaml(path: Path, data: dict) -> Path:
    path.write_text(yaml.safe_dump(data, sort_keys=False), encoding="utf-8")
    return path


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


# -- workloads ---------------------------------------------------------------


class SteadyChain:
    """Steady state plus audit of a qubit chain under the modified generator.

    Site energies from {1.0, 1.5} give resonant and detuned bonds, so the
    Bohr-block sizes change from input to input.
    """

    name = "steady_chain5"
    unit = "solves"

    def __init__(self, toy: bool):
        self.n = 3 if toy else 5
        self.pool = 2 if toy else 8

    def inputs(self, rng, workdir: Path) -> list[dict]:
        return [
            {
                "energies": rng.choice([1.0, 1.5], self.n).tolist(),
                "temperatures": rng.uniform(0.5, 2.5, self.n).tolist(),
            }
            for _ in range(self.pool)
        ]

    def work(self, inp) -> int:
        return 1

    def run(self, inp, out_dir: Path):
        spec = lindloc.qubit_chain_model(self.n, inp["energies"], inp["temperatures"], alpha=ALPHA, beta_coupling=BETA_COUPLING)
        gen = lindloc.build_modified_local(spec)
        result = lindloc.steady_state(gen)
        return result.rho_ss, lindloc.audit(gen, result.rho_ss)

    def check(self, inp, out) -> list[str]:
        rho, report = out
        scale = 0.5 * sum(inp["energies"])
        return (
            state_problems(rho, "rho_ss")
            + first_law_problems(report.first_law_residual, scale, "rho_ss")
            + second_law_problems(report.entropy_production, "rho_ss")
            + heat_sum_problems(report.q_dot, "rho_ss")
        )

    def summary(self, out) -> dict:
        return {"q_dot": list(out[1].q_dot)}


class CompareChain:
    """One seeded initial state evolved under the modified and the naive
    generator, every record audited; the library form of ``lindloc compare``.

    A full-rank initial state touches every Bohr block; the naive half has to
    stay dense.
    """

    name = "compare_chain5"
    unit = "audited states"

    def __init__(self, toy: bool):
        self.n = 3 if toy else 5
        self.pool = 2 if toy else 4
        self.records = 10 if toy else 100
        self.stride = 4 if toy else 16
        self.dt = 0.01

    def inputs(self, rng, workdir: Path) -> list[dict]:
        return [
            {
                "energies": rng.choice([1.0, 1.5], self.n).tolist(),
                "temperatures": rng.uniform(0.5, 2.5, self.n).tolist(),
                "rho0": random_state(rng, 2**self.n),
            }
            for _ in range(self.pool)
        ]

    def work(self, inp) -> int:
        return 2 * (self.records + 1)

    def run(self, inp, out_dir: Path):
        spec = lindloc.qubit_chain_model(self.n, inp["energies"], inp["temperatures"], alpha=ALPHA, beta_coupling=BETA_COUPLING)
        solver = lindloc.SolverConfig(dt=self.dt, t_max=self.dt * self.stride * self.records, record_stride=self.stride)
        out = {}
        for kind, build in (("modified", lindloc.build_modified_local), ("naive", lindloc.build_naive_local)):
            gen = build(spec)
            traj = lindloc.evolve(gen, inp["rho0"], solver)
            out[kind] = (traj, lindloc.audit_trajectory(gen, traj))
        return out

    def check(self, inp, out) -> list[str]:
        problems = []
        scale = 0.5 * sum(inp["energies"])
        for kind, (traj, reports) in out.items():
            if len(traj.states) != self.records + 1 or len(reports) != len(traj.states):
                problems.append(f"{kind}: {len(traj.states)} records, {len(reports)} reports")
            for t, rho, rep in zip(traj.times, traj.states, reports):
                problems += state_problems(rho, f"{kind} t={t:.6g}")
                if kind == "modified":
                    problems += first_law_problems(rep.first_law_residual, scale, f"{kind} t={t:.6g}")
                    problems += second_law_problems(rep.entropy_production, f"{kind} t={t:.6g}")
        return problems

    def summary(self, out) -> dict:
        summary = {}
        for kind, (traj, reports) in out.items():
            summary[f"{kind}.populations"] = np.diag(traj.states[-1]).real.tolist()
            summary[f"{kind}.rates"] = list(reports[-1].q_dot) + [reports[-1].e_dot, reports[-1].entropy_production]
        return summary


class SimulateTwoQubit:
    """``lindloc simulate`` on a resonant pair, every RK4 step recorded and
    audited: tiny matrices, per-call overhead and CSV writing."""

    name = "simulate_two_qubit_dense"
    unit = "audited states"

    def __init__(self, toy: bool):
        self.pool = 2 if toy else 4
        self.records = 50 if toy else 1500
        self.dt = 0.02

    def inputs(self, rng, workdir: Path) -> list[dict]:
        out = []
        for k in range(self.pool):
            rho0 = random_state(rng, 4)
            config = {
                "model": {
                    "builder": "two_qubit",
                    "params": {
                        "e1": 1.0,
                        "e2": 1.0,
                        "alpha": ALPHA,
                        "beta_coupling": BETA_COUPLING,
                        "t1": float(rng.uniform(0.5, 2.5)),
                        "t2": float(rng.uniform(0.5, 2.5)),
                        "spectral": dict(FLAT_SPECTRAL),
                    },
                    "initial_state": {"real": rho0.real.tolist(), "imag": rho0.imag.tolist()},
                },
                "generator": "modified",
                "solver": {"dt": self.dt, "t_max": self.dt * self.records, "record_stride": 1},
                "output": {"directory": str(workdir / "unused"), "formats": ["csv", "report"]},
            }
            out.append({"config": _write_yaml(workdir / f"simulate{k}.yaml", config)})
        return out

    def work(self, inp) -> int:
        return self.records + 1

    def run(self, inp, out_dir: Path):
        rc = lindloc.cli.main(["simulate", str(inp["config"]), "--out", str(out_dir)])
        return rc, out_dir / "trajectory.csv"

    def check(self, inp, out) -> list[str]:
        """The command writes no states: check populations (trace and the
        diagonal of positivity) and the audited laws in trajectory.csv."""
        rc, path = out
        if rc != 0:
            return [f"exit code {rc}"]
        header, rows = _read_csv(path)
        if len(rows) != self.records + 1:
            return [f"{len(rows)} rows, expected {self.records + 1}"]
        col = {name: i for i, name in enumerate(header)}
        pops = [i for name, i in col.items() if name.startswith("pop_")]
        problems = []
        for row in rows:
            where = f"t={row[col['t']]}"
            p = [float(row[i]) for i in pops]
            if abs(sum(p) - 1.0) > TRACE_TOL:
                problems.append(f"{where}: populations sum to {sum(p)!r}")
            if min(p) < -POSITIVITY_TOL:
                problems.append(f"{where}: population {min(p)!r}")
            if row[col["second_law_ok"]] != "1":
                problems.append(f"{where}: second_law_ok is {row[col['second_law_ok']]}")
            problems += first_law_problems(float(row[col["first_law_residual"]]), 1.0, where)
            problems += second_law_problems(float(row[col["entropy_production"]]), where)
        return problems

    def summary(self, out) -> dict:
        header, rows = _read_csv(out[1])
        last = dict(zip(header, rows[-1]))
        rates = [k for k in header if k.startswith("q_dot_")] + ["e_dot", "entropy_production"]
        return {
            "populations": [float(last[k]) for k in header if k.startswith("pop_")],
            "entropy": [float(last["S"])],
            "rates": [float(last[k]) for k in rates],
        }


class SweepChain:
    """``lindloc sweep`` of the first bath's temperature over a resonant
    3-qubit chain: many small builds, config validation and 64 x 64 solves."""

    name = "sweep_chain3"
    unit = "sweep points"

    def __init__(self, toy: bool):
        self.n = 3
        self.pool = 2 if toy else 4
        self.points = 10 if toy else 200

    def inputs(self, rng, workdir: Path) -> list[dict]:
        out = []
        for k in range(self.pool):
            values = rng.uniform(0.5, 2.5, self.points).tolist()
            config = {
                "model": {
                    "builder": "qubit_chain",
                    "params": {
                        "n": self.n,
                        "energies": [1.0] * self.n,
                        "temperatures": rng.uniform(0.5, 2.5, self.n).tolist(),
                        "alpha": ALPHA,
                        "beta_coupling": BETA_COUPLING,
                        "spectral": dict(FLAT_SPECTRAL),
                    },
                    "initial_state": "gibbs_product",
                },
                "generator": "modified",
                "solver": {"dt": 0.01, "t_max": 1.0, "record_stride": 1},
                "output": {"directory": str(workdir / "unused"), "formats": ["csv", "report"]},
                "sweep": {"parameter": "model.params.temperatures.0", "values": values},
            }
            out.append({"config": _write_yaml(workdir / f"sweep{k}.yaml", config), "values": values})
        return out

    def work(self, inp) -> int:
        return self.points

    def run(self, inp, out_dir: Path):
        rc = lindloc.cli.main(["sweep", str(inp["config"]), "--out", str(out_dir)])
        return rc, out_dir / "sweep.csv"

    def check(self, inp, out) -> list[str]:
        """The command writes no states: check the swept values, the heat
        balance, entropy production and the solver residual in sweep.csv."""
        rc, path = out
        if rc != 0:
            return [f"exit code {rc}"]
        header, rows = _read_csv(path)
        if [float(r[1]) for r in rows] != inp["values"]:
            return ["sweep.csv values differ from the config"]
        q_cols = [i for i, name in enumerate(header) if name.startswith("q_dot_")]
        ep, res = header.index("entropy_production"), header.index("residual")
        problems = []
        for row in rows:
            where = f"value={row[1]}"
            problems += heat_sum_problems([row[i] for i in q_cols], where)
            problems += second_law_problems(float(row[ep]), where)
            if not float(row[res]) <= STEADY_RESIDUAL_TOL:
                problems.append(f"{where}: steady-state residual {row[res]}")
        return problems

    def summary(self, out) -> dict:
        header, rows = _read_csv(out[1])
        q_cols = [i for i, name in enumerate(header) if name.startswith("q_dot_")]
        return {"q_dot": [[float(row[i]) for i in q_cols] for row in rows]}


WORKLOADS = {w.name: w for w in (SteadyChain, CompareChain, SimulateTwoQubit, SweepChain)}
