"""Independent oracles that only the tests call.

Each restates something the package computes another way, so a test can
hold the package to it: the hard family's closed forms under tau, the
t-step distribution of a profile's Markov chain, the interior point
trace's stages with the potential's descent inside each, and the gaussian
sample that ``certify`` streams, whole.
"""

from dataclasses import dataclass

import numpy as np

from gamelcp.conditioning import _sample_chunks


@dataclass
class HardFamilyForms:
    """Closed forms under tau: costs, values, M c_tau, and the products
    c_tau * (M c_tau) that witness the conditioning bounds."""

    a: float
    beta: float
    c_tau: np.ndarray
    v_tau: np.ndarray
    image: np.ndarray
    products: np.ndarray


def closed_forms(n, gamma, a):
    beta = gamma / (1.0 - gamma)

    c_tau = np.full(n, a)
    c_tau[0] = 1.0
    c_tau[1] = -1.0

    v_tau = np.full(n, a - beta)
    v_tau[0] = 1.0 + beta
    v_tau[1] = -(1.0 + beta)

    image = np.full(n, a - 2.0 * beta)
    image[0] = 1.0
    image[1] = -1.0

    products = c_tau * image
    return HardFamilyForms(
        a=a, beta=beta, c_tau=c_tau, v_tau=v_tau, image=image, products=products
    )


def markov_step_distribution(p_sigma, start, t):
    """Row distribution after t steps of the chain p_sigma from ``start``."""
    p_sigma = np.asarray(p_sigma, dtype=np.float64)
    n = p_sigma.shape[0]
    if not 0 <= start < n:
        raise ValueError(f"start state {start} out of range")
    if t < 0 or int(t) != t:
        raise ValueError(f"step count must be a nonnegative integer, got {t}")
    dist = np.zeros(n)
    dist[start] = 1.0
    for _ in range(int(t)):
        dist = dist @ p_sigma
    return dist


def stages(trace):
    """Trace row index ranges, in order; each predictor row opens one."""
    starts = [i for i, p in enumerate(trace.phases) if i == 0 or p == "predictor"]
    return list(zip(starts, starts[1:] + [len(trace.phases)]))


def monotone_within_stages(trace):
    """True when potentials strictly decrease inside every stage."""
    for lo, hi in stages(trace):
        for i in range(lo + 1, hi):
            if not trace.potentials[i] < trace.potentials[i - 1]:
                return False
    return True


def gaussian_sample(m_mat, samples, seed):
    """The gaussian sample that ``certify`` streams, whole: its ``samples``
    directions drawn from ``seed`` and M times each, as (x_rows, y_rows)."""
    chunks = list(_sample_chunks(np.asarray(m_mat, dtype=np.float64), samples, seed))
    return tuple(np.concatenate(part) for part in zip(*chunks, strict=True))
