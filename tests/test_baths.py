import math

import numpy as np
import pytest

from lindloc.baths import BathSpec, SpectralModel, bose_einstein, rate
from lindloc.errors import NonHermitianError
from lindloc.linalg import SIGMA_X

FLAT = SpectralModel(kind="flat", coupling_scale=0.5)
OHMIC = SpectralModel(kind="ohmic", coupling_scale=0.5, cutoff=10.0)


def make_bath(beta=1.0, spectral=FLAT):
    return BathSpec(label="b", beta=beta, spectral=spectral, coupling_op=SIGMA_X)


# -- occupation ----------------------------------------------------------------


def test_occupation_frozen_value():
    # 1 / (e - 1), written out once by hand
    assert 1.0 / (math.e - 1.0) == pytest.approx(0.5819767068693265, abs=1e-16)
    assert bose_einstein(1.0, 1.0) == pytest.approx(0.5819767068693265, abs=1e-15)


def test_occupation_limits():
    # high temperature: n ~ 1/(beta w)
    assert bose_einstein(1.0, 1e-8) == pytest.approx(1e8, rel=1e-7)
    # deep quantum regime must not overflow; asymptotic form kicks in past x = 700
    assert bose_einstein(1.0, 710.0) == math.exp(-710.0) > 0.0
    # far past the subnormal floor the occupation underflows cleanly to zero
    assert bose_einstein(1000.0, 2.0) == 0.0
    # where beta * omega underflows to zero the occupation is inf, not 1 / 0
    assert bose_einstein(1e-30, 1e-300) == math.inf


def test_occupation_rejects_bad_arguments():
    with pytest.raises(ValueError):
        bose_einstein(0.0, 1.0)
    with pytest.raises(ValueError):
        bose_einstein(1.0, 0.0)
    with pytest.raises(ValueError):
        bose_einstein(-1.0, 1.0)


# -- rates ----------------------------------------------------------------------


def test_rate_matches_inline_formula():
    bath = make_bath(beta=0.7)
    for w in (0.3, 1.0, 4.2):
        n = 1.0 / math.expm1(0.7 * w)
        assert rate(w, bath) == pytest.approx(2.0 * math.pi * 0.5 * (n + 1.0), rel=1e-14)
        assert rate(-w, bath) == pytest.approx(2.0 * math.pi * 0.5 * n, rel=1e-14)


def test_rate_ohmic_shape():
    bath = make_bath(beta=0.7, spectral=OHMIC)
    w = 2.5
    h2 = 0.5 * w * math.exp(-w / 10.0)
    n = 1.0 / math.expm1(0.7 * w)
    assert rate(w, bath) == pytest.approx(2.0 * math.pi * h2 * (n + 1.0), rel=1e-14)


def test_rate_zero_frequency_and_zero_coupling():
    assert rate(0.0, make_bath()) == 0.0
    silent = SpectralModel(kind="flat", coupling_scale=0.0)
    assert rate(1.0, make_bath(spectral=silent)) == 0.0


def test_detailed_balance():
    for spectral in (FLAT, OHMIC):
        bath = make_bath(beta=1.3, spectral=spectral)
        for w in np.linspace(0.05, 20.0, 40):
            down = rate(float(w), bath)
            up = rate(-float(w), bath)
            assert down == pytest.approx(up * math.exp(1.3 * w), rel=1e-12)


def test_rates_nonnegative_and_emission_dominates():
    bath = make_bath(beta=2.0, spectral=OHMIC)
    for w in np.geomspace(1e-3, 50.0, 25):
        assert rate(float(w), bath) > rate(-float(w), bath) >= 0.0


# -- validation ------------------------------------------------------------------


def test_spectral_model_validation():
    with pytest.raises(ValueError, match="kind"):
        SpectralModel(kind="lorentzian", coupling_scale=1.0)
    with pytest.raises(ValueError, match="cutoff"):
        SpectralModel(kind="ohmic", coupling_scale=1.0)
    with pytest.raises(ValueError, match="cutoff"):
        SpectralModel(kind="flat", coupling_scale=1.0, cutoff=5.0)
    with pytest.raises(ValueError):
        SpectralModel(kind="flat", coupling_scale=-0.1)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            SpectralModel(kind="flat", coupling_scale=bad)
        with pytest.raises(ValueError, match="cutoff"):
            SpectralModel(kind="ohmic", coupling_scale=1.0, cutoff=bad)
    with pytest.raises(ValueError):
        FLAT.coupling_sq(0.0)


def test_bath_spec_validation():
    with pytest.raises(ValueError, match="beta"):
        make_bath(beta=0.0)
    with pytest.raises(NonHermitianError):
        BathSpec(label="b", beta=1.0, spectral=FLAT,
                 coupling_op=np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))
    with pytest.raises(ValueError, match="temperature"):
        BathSpec.from_temperature("b", -1.0, FLAT, SIGMA_X)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="beta must be finite"):
            make_bath(beta=bad)
        with pytest.raises(ValueError, match="temperature must be finite"):
            BathSpec.from_temperature("b", bad, FLAT, SIGMA_X)
    with pytest.raises(NonHermitianError, match="non-finite"):
        BathSpec(label="b", beta=1.0, spectral=FLAT,
                 coupling_op=np.array([[0.0, np.nan], [np.nan, 0.0]], dtype=complex))


def test_temperature_round_trip():
    bath = BathSpec.from_temperature("hot", 2.0, FLAT, SIGMA_X)
    assert bath.beta == pytest.approx(0.5)
    assert 1.0 / bath.beta == pytest.approx(2.0)
