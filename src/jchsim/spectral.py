"""Free-field normal modes of the open chain and the dressed (polariton) spectrum.

For a uniform open chain the photon normal modes are standing waves
v_{k,x} = sqrt(2/(N+1)) sin(kx) with k = pi*m/(N+1), m = 1..N, at frequencies
omega_k = omega_c - 2J cos(k); :func:`momenta` gives k and :func:`sine_modes` the
N x N basis v, real but stored complex for the transforms.  Each mode hybridizes
with its atomic counterpart through a 2x2 block, giving two dressed branches per mode.
:func:`mode_table` returns both as the two rows of one ``ModeTable``, '+' then
'-' (``BRANCH_SIGNS``): the table that ``AnalyticPropagator`` applies, and its
weak and strong subclasses replace.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .model import ModelParams


# the branch axis of a ModeTable: row 0 is branch '+', row 1 branch '-'
BRANCH_SIGNS = np.array([[1.0], [-1.0]])
BRANCH_SIGNS.setflags(write=False)


@dataclass(frozen=True)
class ModeTable:
    """Normal modes plus the 2x2 block of each mode.

    ``a``, ``b`` and ``eps`` have shape (2, N), row 0 for branch '+' and row 1
    for branch '-': branch s of mode m has photon weight ``a[s, m-1]``, atomic
    weight ``b[s, m-1]`` and energy ``eps[s, m-1]``.  v is in ``sine_modes``.
    """

    params: ModelParams
    momenta: np.ndarray
    frequencies: np.ndarray
    detunings: np.ndarray
    rabi: np.ndarray
    a: np.ndarray
    b: np.ndarray
    eps: np.ndarray


def momenta(n: int) -> np.ndarray:
    """The momenta k = pi m / (N+1) of the N sine modes, m = 1..N."""
    return np.pi * np.arange(1, n + 1) / (n + 1)


@functools.lru_cache(maxsize=8)
def sine_modes(n: int) -> np.ndarray:
    """The sine vectors ``vectors[m-1, x-1]`` = v_{k,x}, stored complex.

    The vectors are real; the complex dtype spares every transform a cast.  They
    depend on N alone, so every coupling of a sweep shares them; the array is
    read-only.
    """
    vectors = np.sqrt(2.0 / (n + 1)) * np.sin(np.outer(momenta(n), np.arange(1, n + 1)))
    vectors = vectors.astype(complex)
    vectors.setflags(write=False)
    return vectors


def mode_table(params: ModelParams) -> ModeTable:
    """Closed-form normal modes of the open uniform chain and their dressed spectrum."""
    k = momenta(params.n_cavities)
    frequencies = params.cavity_freq - 2.0 * params.hopping * np.cos(k)

    g = params.coupling
    delta = params.atom_freq - frequencies
    rabi = np.hypot(delta, 2.0 * g)
    mean = 0.5 * (params.atom_freq + frequencies)
    num = delta + BRANCH_SIGNS * rabi
    r = np.hypot(num, 2.0 * g)
    # r == 0 only at g == 0; the branch is then a bare mode, the photon unless at
    # exact degeneracy (delta == 0 too), where '-' is the atom so the pair stays orthogonal
    bare_atom = (r == 0) & (delta == 0) & (BRANCH_SIGNS < 0)
    return ModeTable(
        params=params,
        momenta=k,
        frequencies=frequencies,
        detunings=delta,
        rabi=rabi,
        a=np.divide(2.0 * g, r, out=np.where(bare_atom, 0.0, 1.0), where=r > 0),
        b=np.divide(num, r, out=np.where(bare_atom, 1.0, 0.0), where=r > 0),
        eps=mean + 0.5 * BRANCH_SIGNS * rabi,
    )
