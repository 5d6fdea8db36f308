"""Shared generators for randomized tests, and a guard against leftover child processes."""

import os

import numpy as np
import pytest
from hypothesis import settings
from scipy.linalg import expm

from entdist import (
    Activation,
    CovarianceMatrix,
    EnvironmentParams,
    EnvKind,
    bona_fide_check,
)

from gaussian_reference import SymplecticTransform, symplectic_form

settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


@pytest.fixture(autouse=True)
def no_child_process_left():
    """After each test this process has no child left, running or a zombie: a
    scan that forks a render worker reaps it on every path."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"child process {pid} was left as a zombie" if pid else
                "a child process is still running")


# the documented ScanGrid codes of its int8 ``kind`` and ``activation`` arrays
KIND_CODE = {EnvKind.FORBIDDEN: 0, EnvKind.SEPARABLE: 1, EnvKind.ENTANGLED: 2}
ACTIVATION_CODE = {Activation.NONE: 0, Activation.ENTANGLING: 1, Activation.DISTILLABLE: 2}


def random_symplectic(rng, n_modes, strength=0.5):
    """Random symplectic via the exponential map: S = expm(H @ Omega), H symmetric."""
    h_sym = strength * rng.normal(size=(2 * n_modes, 2 * n_modes))
    h_sym = (h_sym + h_sym.T) / 2.0
    return SymplecticTransform(expm(h_sym @ symplectic_form(n_modes)))


def random_physical_cm(rng, n_modes, nu_max=4.0, strength=0.5):
    """Random physical CM: symplectic conjugation of a thermal spectrum nu >= 1."""
    nus = rng.uniform(1.0, nu_max, size=n_modes)
    diag = np.diag(np.repeat(nus, 2))
    s = random_symplectic(rng, n_modes, strength).matrix
    return CovarianceMatrix(s @ diag @ s.T)


def random_bona_fide_env(rng, tau=None, omega_range=(1.0, 8.0)):
    """Rejection-sample a physical environment; tau is drawn unless given."""
    tau_val = tau if tau is not None else rng.uniform(0.05, 0.95)
    while True:
        omega = rng.uniform(*omega_range)
        g = rng.uniform(-omega, omega)
        gp = rng.uniform(-omega, omega)
        if bona_fide_check(omega, g, gp):
            return EnvironmentParams(tau_val, omega, g, gp)
