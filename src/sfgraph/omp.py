"""Greedy sparse approximation with a residual-change stopping rule.

Classic greedy pursuit stops after a fixed number of atoms or when the
residual magnitude crosses a threshold.  Both need per-dataset tuning.  The
solver here instead watches how much each new atom *improves* the residual
and stops when an iteration no longer pays for itself, i.e. when

    |r_k - r_{k-1}| <= epsilon,    r_k = ||q_k||_2^2

with q_k the least-squares residual on the current support.  Sparsity then
adapts to the target: targets that are (nearly) exact combinations of a few
dictionary atoms get tiny supports, while unstructured targets keep only as
many atoms as actually reduce the error.  A fit whose squared residual falls
to the square of the correlation floor is exact and stops as converged too.

By default a fit stops after at most half as many atoms as the dictionary
has rows, ⌊n/2⌋ (at least 1).  With fewer samples than atoms any target is an
exact combination of about n atoms, so a fit that needs more than n/2 of them
describes the span, not the target.  Stopped there, such a fit keeps a
residual, and its reconstruction angle stays large enough for an angle
filter to reject it; it also no longer pays for the longest, costliest fits.

The solver grows an orthonormal basis Q of the support's span, with
``cols[:, support] = Q R``, by classical Gram-Schmidt applied twice, and
removes each new basis direction from the residual in place.  The
coefficients are solved once, after the last atom, from ``R c = Q^T target``;
never forming the Gram matrix avoids squaring the support's condition number.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_triangular

from .errors import ParameterError
from .matrix import FeatureMatrix

__all__ = ["OmpConfig", "SparseRepresentation", "omp", "reconstruct"]

# Columns and targets are required to be unit-norm within this tolerance.
UNIT_NORM_TOL = 1e-6
# An atom whose correlation with the residual falls below this floor cannot
# reduce the objective by more than its square; selecting it would only add
# numerical noise to the support.
CORRELATION_FLOOR = 1e-12
# Squared norm of the component of a candidate atom orthogonal to the span of
# the current support.  Below this R would be numerically singular and the
# atom is skipped.
DEPENDENCE_FLOOR = 1e-12

# stop_reason values
STOP_CONVERGED = "converged"  # residual change fell to <= epsilon, or fit is exact
STOP_SUPPORT_LIMIT = "support_limit"  # reached the allowed support size
STOP_NO_ATOM = "no_usable_atom"  # no remaining atom can make progress
STOP_REASONS = (STOP_CONVERGED, STOP_SUPPORT_LIMIT, STOP_NO_ATOM)


@dataclass
class OmpConfig:
    """Solver knobs.

    epsilon : threshold on the change of the squared residual norm between
        consecutive iterations; must be positive.
    max_support : hard cap on the number of selected atoms.  None (the
        default) caps at ⌊n/2⌋ atoms (at least 1) for a dictionary of n
        rows: when n is below the number of atoms, any target is an exact
        combination of about n of them, and a fit that long carries no
        information about the target.  The cap never exceeds the number of
        usable atoms.
    """

    epsilon: float = 1e-6
    max_support: int | None = None

    def __post_init__(self) -> None:
        if not self.epsilon > 0.0:
            raise ParameterError(f"epsilon must be positive, got {self.epsilon}")
        if self.max_support is not None and self.max_support < 1:
            raise ParameterError(
                f"max_support must be at least 1, got {self.max_support}"
            )


@dataclass
class SparseRepresentation:
    """Result of one greedy fit.

    support : atom indices in selection order.
    coefficients : least-squares coefficients aligned with ``support``.
    residual_norms : squared residual norm trace; entry 0 is the initial
        value before any atom, then one entry per accepted atom.
    final_residual : last entry of the trace.
    stop_reason : one of ``converged``, ``support_limit``, ``no_usable_atom``.
    """

    support: np.ndarray
    coefficients: np.ndarray
    residual_norms: np.ndarray
    stop_reason: str
    final_residual: float = field(init=False)

    def __post_init__(self) -> None:
        self.support = np.asarray(self.support, dtype=np.intp)
        self.coefficients = np.asarray(self.coefficients, dtype=np.float64)
        self.residual_norms = np.asarray(self.residual_norms, dtype=np.float64)
        self.final_residual = float(self.residual_norms[-1])


def _greedy_fit(
    cols: np.ndarray,
    target: np.ndarray,
    epsilon: float,
    max_support: int | None = None,
    exclude: int | None = None,
    pre_banned: np.ndarray | None = None,
) -> tuple[list[int], np.ndarray, list[float], str]:
    """Core pursuit loop over the columns of ``cols``.

    ``exclude`` masks one column (leave-one-out fits reuse the full matrix
    instead of copying it minus a column) and ``pre_banned`` marks columns
    that must never be selected, e.g. zero-norm features.  ``max_support``
    None caps the support at ``max(1, n // 2)`` atoms (see ``OmpConfig``).
    """
    n, p = cols.shape
    banned = np.zeros(p, dtype=bool) if pre_banned is None else pre_banned.copy()
    if exclude is not None:
        banned[exclude] = True
    if max_support is None:
        max_support = max(1, n // 2)
    cap = min(max_support, p - int(banned.sum()))

    support: list[int] = []
    q = target.astype(np.float64, copy=True)
    trace = [float(q @ q)]
    # cols[:, support] = Q R with orthonormal Q, and z = Q^T target (q differs
    # from target only along earlier columns of Q).  No more than n atoms can
    # be independent, so n columns suffice.
    size = min(cap, n)
    Q = np.empty((n, size), order="F")
    R = np.zeros((size, size))
    z = np.empty(size)
    k = 0
    corr = q @ cols
    while True:
        corr[banned] = 0.0
        j = int(np.argmax(np.abs(corr)))
        if abs(corr[j]) <= CORRELATION_FLOOR:
            reason = STOP_NO_ATOM
            break
        banned[j] = True
        # Classical Gram-Schmidt, applied twice so that Q stays orthonormal.
        Qk = Q[:, :k]
        h = Qk.T @ cols[:, j]
        v = cols[:, j] - Qk @ h
        h2 = Qk.T @ v
        v -= Qk @ h2
        v2 = float(v @ v)
        if v2 <= DEPENDENCE_FLOOR:
            # Numerically inside the span of the current support: skip it for
            # good and try the next-best atom.
            continue
        R[:k, k] = h + h2
        R[k, k] = np.sqrt(v2)
        Q[:, k] = v / R[k, k]
        z[k] = Q[:, k] @ q
        q -= z[k] * Q[:, k]
        support.append(j)
        k += 1
        trace.append(float(q @ q))

        if abs(trace[-1] - trace[-2]) <= epsilon:
            reason = STOP_CONVERGED
            break
        if k >= cap:
            reason = STOP_SUPPORT_LIMIT
            break
        if trace[-1] <= CORRELATION_FLOOR**2:
            # An exact fit: |q . a| <= ||q|| for a unit atom a, so no atom can
            # clear the correlation floor and another product would be wasted.
            reason = STOP_CONVERGED
            break
        corr = q @ cols

    coef = solve_triangular(R[:k, :k], z[:k], check_finite=False)
    return support, coef, trace, reason


def _check_unit_columns(cols: np.ndarray, what: str = "dictionary column") -> None:
    norms = np.linalg.norm(cols, axis=0)
    bad = np.flatnonzero(np.abs(norms - 1.0) > UNIT_NORM_TOL)
    if bad.size:
        j = int(bad[0])
        raise ParameterError(
            f"{what} {j} is not unit-norm (norm {norms[j]:.6g}); "
            f"normalize features first"
        )


def omp(dictionary, target, config: OmpConfig | None = None) -> SparseRepresentation:
    """Fit ``target`` as a sparse combination of dictionary columns.

    Parameters
    ----------
    dictionary : ndarray of shape (n, p) or FeatureMatrix
        Atoms as columns, each unit-norm within 1e-6.
    target : ndarray of shape (n,)
        Unit-norm vector to approximate.
    config : OmpConfig, optional
        Stopping parameters; defaults to ``OmpConfig()``.

    Returns
    -------
    SparseRepresentation
    """
    cols = dictionary.values if isinstance(dictionary, FeatureMatrix) else dictionary
    cols = np.asarray(cols, dtype=np.float64)
    if cols.ndim != 2:
        raise ParameterError(f"dictionary must be 2-D, got {cols.ndim}-D")
    t = np.asarray(target, dtype=np.float64).reshape(-1)
    if t.shape[0] != cols.shape[0]:
        raise ParameterError(
            f"target length {t.shape[0]} does not match dictionary rows {cols.shape[0]}"
        )
    cfg = config if config is not None else OmpConfig()
    _check_unit_columns(cols)
    tnorm = np.linalg.norm(t)
    if abs(tnorm - 1.0) > UNIT_NORM_TOL:
        raise ParameterError(
            f"target is not unit-norm (norm {tnorm:.6g}); normalize it first"
        )

    support, coef, trace, reason = _greedy_fit(cols, t, cfg.epsilon, cfg.max_support)
    return SparseRepresentation(support, coef, trace, reason)


def reconstruct(rep: SparseRepresentation, dictionary) -> np.ndarray:
    """Dense reconstruction ``sum_j coef_j * atom_j`` of a sparse fit."""
    cols = dictionary.values if isinstance(dictionary, FeatureMatrix) else dictionary
    cols = np.asarray(cols, dtype=np.float64)
    if rep.support.size == 0:
        return np.zeros(cols.shape[0])
    return cols[:, rep.support] @ rep.coefficients
