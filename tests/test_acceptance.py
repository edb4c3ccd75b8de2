"""End-to-end acceptance checks.

Each test is one acceptance criterion and prints a single PASS or FAIL line
outside the capture machinery, so a plain pytest run shows the scorecard.
"""

import math
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import yaml

from lindloc.baths import BathSpec, SpectralModel, rate
from lindloc.cli import RunConfig, dump_config, load_config
from lindloc.dynamics import SolverConfig, evolve, steady_state
from lindloc.linalg import SIGMA_MINUS, SIGMA_PLUS, SIGMA_X, hermitian_eig, kron
from lindloc.liouvillian import (
    build_modified_local,
    product_gibbs,
    vectorize,
)
from lindloc.models import (
    TwoQubitParams,
    qubit_chain_model,
    single_qubit_model,
    two_qubit_model,
)
from lindloc.spectral import decompose_operator, default_grouping_tol, group_levels
from lindloc.thermo import audit, audit_trajectory

from conftest import channel_rates, component, gkls, rand_hermitian, rand_pure, unvec

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

SEED = 20260825


def bundled_fixtures():
    return [
        two_qubit_model(TwoQubitParams()),
        two_qubit_model(TwoQubitParams(e2=1.5)),
        qubit_chain_model(3, [1.0, 1.0, 1.0], [2.0, 1.0, 0.5]),
        single_qubit_model(),
    ]


@contextmanager
def criterion(capsys, name):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"FAIL  {name}", flush=True)
        raise
    with capsys.disabled():
        print(f"PASS  {name}", flush=True)


def test_criterion_01_secular_filter(capsys):
    with criterion(capsys, "C01 filter keeps resonant exchange, kills detuned coupling"):
        gen = build_modified_local(two_qubit_model(TwoQubitParams()))
        expected = 0.01 * (kron(SIGMA_PLUS, SIGMA_MINUS) + kron(SIGMA_MINUS, SIGMA_PLUS))
        assert np.abs(gen.structure.h_interaction - expected).max() <= 1e-12

        detuned = build_modified_local(two_qubit_model(TwoQubitParams(e2=1.5)))
        assert np.abs(detuned.structure.h_interaction).max() <= 1e-12


def test_criterion_02_decomposition_properties(capsys):
    with criterion(capsys, "C02 frequency components resum and conjugate pairwise"):
        rng = np.random.default_rng(SEED)
        for _ in range(50):
            d = int(rng.integers(2, 17))
            h = rand_hermitian(rng, d)
            eig = hermitian_eig(h)
            levels = group_levels(eig, default_grouping_tol(eig.eigenvalues))
            a = rand_hermitian(rng, d)
            scale = np.abs(a).max()
            terms = decompose_operator(a, levels)
            assert np.abs(sum(op for _, op in terms) - a).max() <= 1e-10 * scale
            for w, op in terms:
                partner = component(terms, -w, 1e-7, a)
                assert np.abs(op.conj().T - partner).max() <= 1e-10 * scale


def test_criterion_03_detailed_balance(capsys):
    with criterion(capsys, "C03 rates satisfy detailed balance on a 100-point grid"):
        flat = SpectralModel(kind="flat", coupling_scale=0.5)
        ohmic = SpectralModel(kind="ohmic", coupling_scale=0.5, cutoff=10.0)
        for spectral, beta in ((flat, 1.3), (ohmic, 0.7)):
            bath = BathSpec(label="b", beta=beta, spectral=spectral, coupling_op=SIGMA_X)
            for w in np.linspace(0.05, 25.0, 100):
                down = rate(float(w), bath)
                up = rate(-float(w), bath)
                assert abs(down - up * math.exp(beta * w)) <= 1e-12 * down


def test_criterion_04_product_gibbs_invariance(capsys):
    with criterion(capsys, "C04 partial generator fixes the product of local Gibbs states"):
        for spec in bundled_fixtures():
            gen = build_modified_local(spec)
            tau = product_gibbs(spec)
            assert np.abs(gen.terms(tau)[0]).max() <= 1e-9


def test_criterion_05_first_law(capsys):
    with criterion(capsys, "C05 energy rate equals summed heat currents on random states"):
        rng = np.random.default_rng(SEED)
        start = time.monotonic()
        for spec in bundled_fixtures():
            gen = build_modified_local(spec)
            d = spec.dimension
            for _ in range(100):
                g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                rho = g @ g.conj().T
                rho = rho / np.trace(rho)
                rep = audit(gen, rho)
                scale = max(1.0, abs(rep.e_dot), max(abs(q) for q in rep.q_dot))
                assert abs(rep.first_law_residual) <= 1e-10 * scale
        assert time.monotonic() - start < 10.0


def test_criterion_06_second_law_along_trajectories(capsys):
    with criterion(capsys, "C06 entropy production and the Spohn bound hold along runs"):
        rng = np.random.default_rng(SEED)
        start = time.monotonic()
        for spec in bundled_fixtures():
            gen = build_modified_local(spec)
            rho0 = rand_pure(rng, spec.dimension)
            t_max = 20.0 / gen.rates.min()
            n_steps = max(1, round(t_max / 0.01))
            cfg = SolverConfig(dt=0.01, t_max=t_max, record_stride=max(1, n_steps // 20))
            traj = evolve(gen, rho0, cfg)
            for rep in audit_trajectory(gen, traj):
                assert rep.entropy_production >= -1e-9
                assert rep.spohn_residual <= 1e-9
        assert time.monotonic() - start < 60.0


def test_criterion_07_two_qubit_heat_transport(capsys):
    with criterion(capsys, "C07 steady heat flows hot to cold at the frozen magnitude"):
        gen = build_modified_local(two_qubit_model(TwoQubitParams()))
        rep = audit(gen, steady_state(gen).rho_ss)
        assert rep.q_dot[0] > 0.0
        assert abs(rep.q_dot[0] + rep.q_dot[1]) <= 1e-12
        assert abs(rep.q_dot[0] - 1.5356402288472635e-05) <= 1e-9 * rep.q_dot[0]

        balanced = build_modified_local(two_qubit_model(TwoQubitParams(t1=1.0)))
        rep_b = audit(balanced, steady_state(balanced).rho_ss)
        assert abs(rep_b.q_dot[0]) <= 1e-12

        detuned = build_modified_local(two_qubit_model(TwoQubitParams(e2=1.5)))
        rep_d = audit(detuned, steady_state(detuned).rho_ss)
        assert abs(rep_d.q_dot[0]) <= 1e-10

        # the current's sign change is bracketed by sweeping t1 through t2
        signs = []
        for t1 in (0.75, 1.5):
            g = build_modified_local(two_qubit_model(TwoQubitParams(t1=t1)))
            signs.append(audit(g, steady_state(g).rho_ss).q_dot[0])
        assert signs[0] < 0.0 < signs[1]


def test_criterion_08_single_qubit_relaxation(capsys):
    with criterion(capsys, "C08 qubit relaxation follows the two-level closed form"):
        gen = build_modified_local(single_qubit_model())
        rates = channel_rates(gen)
        gamma = rates[(0, 1.0)] + rates[(0, -1.0)]
        p_ss = rates[(0, -1.0)] / gamma

        rho0 = np.diag([0.0, 1.0]).astype(complex)  # fully de-excited
        cfg = SolverConfig(dt=0.05, t_max=1e5, record_stride=40000)
        traj = evolve(gen, rho0, cfg)
        pops = []
        for t, rho in zip(traj.times, traj.states):
            expected = p_ss * (1.0 - math.exp(-gamma * t))
            assert abs(rho[0, 0].real - expected) <= 1e-6
            pops.append(rho[0, 0].real)
        assert all(b - a >= -1e-12 for a, b in zip(pops, pops[1:]))
        assert np.abs(traj.states[-1] - product_gibbs(gen.spec)).max() <= 1e-6


def test_criterion_09_integrator_order(capsys):
    with criterion(capsys, "C09 halving the step cuts the error by about sixteen"):
        gen = build_modified_local(two_qubit_model(TwoQubitParams()))
        psi = np.array([1.0, 0.0, 1.0, 0.0], dtype=complex) / math.sqrt(2.0)
        rho0 = np.outer(psi, psi.conj())
        t_final = 20.0

        # reference: diagonalize the GKLS formula's L and exponentiate exactly
        w, v = np.linalg.eig(gkls(gen))
        ref = unvec(v @ (np.exp(w * t_final) * np.linalg.solve(v, vectorize(rho0))))

        errs = []
        for dt in (0.02, 0.01, 0.005):
            traj = evolve(gen, rho0, SolverConfig(dt=dt, t_max=t_final, record_stride=10**9))
            errs.append(np.abs(traj.states[-1] - ref).max())
        assert errs[0] > errs[1] > errs[2] > 0.0
        assert 12.0 <= errs[0] / errs[1] <= 20.0
        assert 12.0 <= errs[1] / errs[2] <= 20.0


def test_criterion_10_steady_state_agrees_with_dynamics(capsys):
    with criterion(capsys, "C10 long-horizon evolution lands on the null-space state"):
        for spec in bundled_fixtures():
            gen = build_modified_local(spec)
            rho_ss = steady_state(gen).rho_ss
            t_max = 50.0 / gen.rates.min()
            rho0 = np.eye(spec.dimension, dtype=complex) / spec.dimension
            traj = evolve(gen, rho0, SolverConfig(dt=0.01, t_max=t_max, record_stride=10**9))
            assert np.abs(traj.states[-1] - rho_ss).max() <= 1e-6


def test_criterion_11_cli_end_to_end(capsys, tmp_path):
    with criterion(capsys, "C11 bundled configurations run end to end from the CLI"):
        def run(*args):
            return subprocess.run(
                [sys.executable, "-m", "lindloc", *map(str, args)],
                capture_output=True,
                text=True,
                timeout=300,
            )

        for name in (
            "two_qubit_resonant",
            "two_qubit_detuned",
            "two_qubit_naive",
            "qubit_chain3",
            "ohmic_single_qubit",
        ):
            proc = run("simulate", CONFIG_DIR / f"{name}.yaml", "--out", tmp_path / name)
            assert proc.returncode == 0, f"{name}: {proc.stderr}"
            assert (tmp_path / name / "trajectory.csv").exists()
            assert (tmp_path / name / "report.txt").exists()

        sweep_cfg = CONFIG_DIR / "sweep_t1.yaml"
        proc = run("sweep", sweep_cfg, "--out", tmp_path / "s1")
        assert proc.returncode == 0, proc.stderr
        proc = run("sweep", sweep_cfg, "--out", tmp_path / "s2")
        assert proc.returncode == 0, proc.stderr
        first = (tmp_path / "s1" / "sweep.csv").read_bytes()
        assert first == (tmp_path / "s2" / "sweep.csv").read_bytes()

        lines = first.decode().strip().splitlines()
        assert len(lines) == 6  # header plus the five sweep points
        q1 = [float(line.split(",")[2]) for line in lines[1:]]
        assert q1[0] < 0.0 and q1[1] < 0.0  # colder than the partner bath
        assert abs(q1[2]) <= 1e-12  # equal temperatures
        assert q1[3] > 0.0 and q1[4] > 0.0

        for path in sorted(CONFIG_DIR.glob("*.yaml")):
            cfg = load_config(path)
            assert RunConfig.from_dict(yaml.safe_load(dump_config(cfg))) == cfg

        proc = run("steady", tmp_path / "nowhere.yaml")
        assert proc.returncode == 1
        assert "lindloc: error:" in proc.stderr
