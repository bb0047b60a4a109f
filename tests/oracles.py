"""Closed forms and contractions that only the tests read: oracles for
values the pipeline computes another way.  They import the library's
private helpers where they share them, rather than copying them."""

from dataclasses import dataclass

import numpy as np

from finslercheck.analysis import ZERO_FLOOR
from finslercheck.catalogue import _geom_factors, _sym_aab, _sym_vd
from finslercheck.geometry import TensorValue
from finslercheck.sphsym import _rsu


@dataclass
class ProjectiveFactorJets:
    """Closed-form fiber derivatives of the shared projective factor."""

    P: float
    P_i: np.ndarray
    P_ij: np.ndarray
    P_ijk: np.ndarray

    def assemble_berwald(self, y):
        """G^h_ijk = P_ijk y^h + P_ij d^h_k + P_jk d^h_i + P_ki d^h_j."""
        yv = np.asarray(y, dtype=float)
        d = np.eye(len(yv))
        return (np.einsum("ijk,h->hijk", self.P_ijk, yv)
                + np.einsum("ij,hk->hijk", self.P_ij, d)
                + np.einsum("jk,hi->hijk", self.P_ij, d)
                + np.einsum("ki,hj->hijk", self.P_ij, d))


def projective_factor_jets(at):
    """P and its first three fiber derivatives in closed form, for the
    projectively flat family (Euclidean-lowered indices)."""
    xv, yv, A, c, L = _geom_factors(at.x, at.y)
    n = len(xv)
    d = np.eye(n)
    P = L + c / A
    P_i = (1.0 / L) * (yv / A + c * xv / A ** 2) + xv / A
    P_ij = (-(1.0 / L ** 3) * (np.outer(yv, yv) / A ** 2
                               + c * (np.outer(xv, yv) + np.outer(yv, xv)) / A ** 3
                               + c * c * np.outer(xv, xv) / A ** 4)
            + (1.0 / L) * (d / A + np.outer(xv, xv) / A ** 2))
    P_ijk = ((3.0 * c / (L ** 5 * A ** 4)) * _sym_aab(yv, xv)
             + (3.0 * c * c / (L ** 5 * A ** 5) - 1.0 / (L ** 3 * A ** 3)) * _sym_aab(xv, yv)
             - (1.0 / (L ** 3 * A ** 2)) * _sym_vd(yv, d)
             - (c / (L ** 3 * A ** 3)) * _sym_vd(xv, d)
             + (-3.0 * c / (L ** 3 * A ** 4) + 3.0 * c ** 3 / (L ** 5 * A ** 6))
             * np.einsum("i,j,k->ijk", xv, xv, xv)
             + (3.0 / (L ** 5 * A ** 3)) * np.einsum("i,j,k->ijk", yv, yv, yv))
    return ProjectiveFactorJets(float(P), P_i, P_ij, P_ijk)


def funk_parallel_connection(a, x):
    """Berwald connection q_i d^h_j + q_j d^h_i of funk_parallel, with
    q = -a/(1 + <a,x>), as [h, i, j]; it does not depend on y."""
    q = -np.asarray(a, dtype=float) / (1.0 + float(np.dot(a, x)))
    d = np.eye(len(a))
    return np.einsum("i,hj->hij", q, d) + np.einsum("j,hi->hij", q, d)


def connection_from_pq(pq, at):
    """Nonlinear connection of the (P, Q) spray via its five-term closed
    form."""
    r, s, u = _rsu(at.x, at.y)
    P, P_s, Q, Q_s = pq.jets(r, s)
    x = np.asarray(at.x, dtype=float)
    y = np.asarray(at.y, dtype=float)
    d = np.eye(len(x))
    N = (u * P * d + P_s * np.outer(y, x) + (P - s * P_s) / u * np.outer(y, y)
         + u * Q_s * np.outer(x, x) + (2.0 * Q - s * Q_s) * np.outer(x, y))
    return TensorValue(N)


def kernel_residual(report, x_index, b):
    """|M b|_inf / max-row-scale for a candidate kernel vector at one x of
    an obstruction scan; small values certify that b satisfies all stacked
    constraints.  An all-noise matrix (scale below the zero floor)
    constrains nothing."""
    mat = report.matrices[x_index]
    b = np.asarray(b, dtype=float)
    row_scale = float(np.max(np.abs(mat)))
    if row_scale <= ZERO_FLOOR:
        return 0.0
    return float(np.max(np.abs(mat @ b))) / row_scale


def m_covector(omega, at, ell):
    """m_j = b_j - (beta/F) l_j from the Hilbert form ``ell`` and its
    ``notes["F"]``; may vanish at isolated y but not identically in y."""
    b = omega.values(at.x)
    beta = float(b @ np.asarray(at.y, dtype=float))
    mj = b - (beta / ell.notes["F"]) * ell.components
    return TensorValue(mj, notes={"norm": float(np.linalg.norm(mj))})


def annihilation_check(omega, at, B, ell):
    """(max |l_h G^h_ijk|, max |b_h G^h_ijk|) contraction residuals of the
    Berwald curvature ``B`` with the Hilbert form ``ell`` and with b."""
    b = omega.values(at.x)
    r_ell = float(np.max(np.abs(np.einsum("hijk,h->ijk", B.components,
                                          ell.components))))
    r_b = float(np.max(np.abs(np.einsum("hijk,h->ijk", B.components, b))))
    return r_ell, r_b


def row_bins(alg, rows):
    """The box's output bins of ``alg`` at ``rows`` series."""
    return alg.live(None, None, rows)[2]


def coefficient(t, multi):
    """Raw series coefficient of each row of ``t`` for per-block exponent
    tuples."""
    return t.c[t.alg.flat_index(multi)]
