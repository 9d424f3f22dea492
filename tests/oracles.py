"""Dense forms that the package keeps only as vectors, rebuilt for tests."""

import numpy as np

from phasebc.codestates import eigen_sigma
from phasebc.fock import FockOperator, FockVector


def class_vectors(b, params):
    """sigma_b's sub-normalized eigenvectors, one FockVector per residue class."""
    _, amps = eigen_sigma(b, params)
    r = np.arange(params.cutoff + 1) % params.M
    return tuple(FockVector(params.cutoff, np.where(r == s, amps, 0.0))
                 for s in range(params.M))


def normalized_vector(b, params, r):
    """sigma_b's unit eigenvector on residue class r."""
    values, amps = eigen_sigma(b, params)
    on_class = np.arange(params.cutoff + 1) % params.M == r
    return np.where(on_class, amps, 0.0) / np.sqrt(values[r])


def projectors(chi, cutoff):
    """Rank-1 projectors onto the rows of chi plus the remainder element."""
    elems = [FockOperator(cutoff, np.outer(c, c.conj())) for c in chi]
    total = sum(e.matrix for e in elems)
    elems.append(FockOperator(cutoff, np.eye(cutoff + 1, dtype=complex) - total))
    return tuple(elems)


def dense_povm(kit, b):
    """The bit-b measurement family of a Mayers kit as dense operators."""
    return projectors(kit.chi1 if b else kit.chi0, kit.params.cutoff)


def helstrom_projector(bob):
    """The dense projector of a HelstromBob: the sum of its per-class |u_r><u_r|."""
    r = np.arange(bob.u.size) % bob._M
    return np.where(r[:, None] == r, np.outer(bob.u, bob.u), 0.0)
