"""Test-only reference: closed forms of the paper's two effective regimes.

The resonant-mode and decoupled-polariton amplitudes, and the Hamiltonian in
the local polariton basis, written from the formulas themselves.  They read
only a ``ModeTable`` or ``ModelParams`` and import nothing from
``jchsim.dynamics``, so they check the weak and strong mode tables, and the
dense oracle, from outside.
"""

import numpy as np

from jchsim.model import ModelParams
from jchsim.spectral import sine_modes


def weak_coupling_amplitudes(x0, t, modes, resonant_mode):
    """Atomic amplitudes of the resonant-mode approximation for |e_x0>.

    c_{a,x}(t) = e^{-i w_a t} [sum_{k != k'} v_{k,x} v_{k,x0}
                               + cos(gt) v_{k',x} v_{k',x0}].
    """
    params = modes.params
    v = sine_modes(params.n_cavities).real
    kr = resonant_mode - 1
    vx0 = v[:, x0 - 1]
    weights = vx0.copy()
    weights[kr] *= np.cos(params.coupling * t)
    return np.exp(-1j * params.atom_freq * t) * (v.T @ weights).astype(complex)


def strong_coupling_amplitudes(x0, t, modes):
    """Atomic amplitudes of the decoupled-polariton approximation for |e_x0>.

    c_{a,x}(t) = cos(gt) sum_k e^{-i w_k t / 2} v_{k,x} v_{k,x0}.
    """
    params = modes.params
    v = sine_modes(params.n_cavities).real
    vx0 = v[:, x0 - 1]
    return np.cos(params.coupling * t) * (v.T @ (np.exp(-1j * modes.frequencies * t / 2.0) * vx0))


def build_polariton_hamiltonian(params: ModelParams, drop_cross_terms: bool) -> np.ndarray:
    """Hamiltonian in the local polariton basis {|+_x>, |-_x>}.

    |+-_x> = (|photon_x> +- |atom_x>)/sqrt(2).  Each branch carries an on-site
    energy (w_c + w_a)/2 +- g and hopping -J/2.  The inter-branch pieces (the
    -J/2 cross hoppings plus an on-site (w_c - w_a)/2 term when the atoms are
    detuned) make the change of basis exact; ``drop_cross_terms`` removes them,
    leaving two decoupled chains.
    """
    n = params.n_cavities
    mean = 0.5 * (params.cavity_freq + params.atom_freq)
    half_j = 0.5 * params.hopping
    chain = np.zeros((n, n))
    chain[np.arange(n - 1), np.arange(1, n)] = -half_j
    chain[np.arange(1, n), np.arange(n - 1)] = -half_j
    h = np.zeros((2 * n, 2 * n))
    h[:n, :n] = chain + (mean + params.coupling) * np.eye(n)
    h[n:, n:] = chain + (mean - params.coupling) * np.eye(n)
    if not drop_cross_terms:
        cross = chain + 0.5 * (params.cavity_freq - params.atom_freq) * np.eye(n)
        h[:n, n:] = cross
        h[n:, :n] = cross
    return h
