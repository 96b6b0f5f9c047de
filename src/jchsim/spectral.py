"""Free-field normal modes of the open chain and the dressed (polariton) spectrum.

For a uniform open chain the photon normal modes are standing waves
v_{k,x} = sqrt(2/(N+1)) sin(kx) with k = pi*m/(N+1), m = 1..N, at frequencies
omega_k = omega_c - 2J cos(k).  Each mode hybridizes with its atomic
counterpart through a 2x2 block, giving two dressed branches per mode.
:func:`mode_table` returns the modes and their branches as one ``ModeTable``,
the table that the mode-basis propagators of :mod:`jchsim.dynamics` apply.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .model import ModelParams


@dataclass(frozen=True)
class ModeTable:
    """Normal modes plus the 2x2 block of each mode.

    ``vectors[m-1, x-1]`` holds v_{k,x}.  Branch '+' or '-' of mode m has
    photon weight ``a_plus``/``a_minus``, atomic weight ``b_plus``/``b_minus``
    and energy ``eps_plus``/``eps_minus`` at index m-1.
    """

    params: ModelParams
    momenta: np.ndarray
    frequencies: np.ndarray
    vectors: np.ndarray
    detunings: np.ndarray
    rabi: np.ndarray
    a_plus: np.ndarray
    a_minus: np.ndarray
    b_plus: np.ndarray
    b_minus: np.ndarray
    eps_plus: np.ndarray
    eps_minus: np.ndarray


@functools.lru_cache(maxsize=8)
def sine_modes(n: int) -> tuple:
    """Momenta k, the sine vectors ``vectors[m-1, x-1]`` and their exact complex copy.

    They depend on N alone, so every coupling of a sweep shares them; the arrays
    are read-only.
    """
    k = np.pi * np.arange(1, n + 1) / (n + 1)
    vectors = np.sqrt(2.0 / (n + 1)) * np.sin(np.outer(k, np.arange(1, n + 1)))
    arrays = (k, vectors, vectors.astype(complex))
    for x in arrays:
        x.setflags(write=False)
    return arrays


def mode_table(params: ModelParams) -> ModeTable:
    """Closed-form normal modes of the open uniform chain and their dressed spectrum."""
    k, vectors, _ = sine_modes(params.n_cavities)
    frequencies = params.cavity_freq - 2.0 * params.hopping * np.cos(k)

    g = params.coupling
    delta = params.atom_freq - frequencies
    rabi = np.hypot(delta, 2.0 * g)
    mean = 0.5 * (params.atom_freq + frequencies)
    eps_plus = mean + 0.5 * rabi
    eps_minus = mean - 0.5 * rabi

    def branch(sign):
        num = delta + sign * rabi
        r = np.hypot(num, 2.0 * g)
        a = np.empty_like(r)
        b = np.empty_like(r)
        ok = r > 0
        a[ok] = 2.0 * g / r[ok]
        b[ok] = num[ok] / r[ok]
        # r == 0 only at g == 0; the branch is then a bare mode.  At exact
        # degeneracy (delta == 0 too) put '+' on the photon and '-' on the
        # atom so the pair stays orthogonal.
        bare_atom = (~ok) & (delta == 0) & (sign < 0)
        a[~ok] = 1.0
        b[~ok] = 0.0
        a[bare_atom] = 0.0
        b[bare_atom] = 1.0
        return a, b

    a_plus, b_plus = branch(+1.0)
    a_minus, b_minus = branch(-1.0)
    return ModeTable(
        params=params,
        momenta=k,
        frequencies=frequencies,
        vectors=vectors,
        detunings=delta,
        rabi=rabi,
        a_plus=a_plus,
        a_minus=a_minus,
        b_plus=b_plus,
        b_minus=b_minus,
        eps_plus=eps_plus,
        eps_minus=eps_minus,
    )


def eigenstate_vector(modes: ModeTable, m: int, branch: str) -> np.ndarray:
    """Full 2N eigenvector of mode m (1-based) on branch '+' or '-'."""
    if branch == "+":
        a, b = modes.a_plus[m - 1], modes.b_plus[m - 1]
    elif branch == "-":
        a, b = modes.a_minus[m - 1], modes.b_minus[m - 1]
    else:
        raise ValueError(f"branch must be '+' or '-', got {branch!r}")
    v = modes.vectors[m - 1]
    return np.concatenate([a * v, b * v]).astype(complex)
