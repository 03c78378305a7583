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

The pursuit is carried in coefficient space (Batch-OMP in QR form): with
``cols[:, support] = Q R`` for an orthonormal Q that is never formed, it
keeps ``P[m] = Q[:, m]^T cols``, ``z = Q^T target`` and the correlations
``corr = cols^T q`` of the residual q.  Accepting atom j with Gram row
``G[j] = cols[:, j] @ cols`` takes

    h = P[:k, j],   R[k, k]^2 = G[j, j] - ||h||^2,
    P[k] = (G[j] - h^T P[:k]) / R[k, k],   z[k] = corr[j] / R[k, k],
    corr -= z[k] P[k],   r -= z[k]^2,

so a step costs O(k p) for k atoms and p columns and touches no vector of
sample length.  Gram rows are computed on first use and cached
(``GramRows``); fits over one dictionary, such as the leave-one-out fits of
a graph build or the regressions of one MCFS call, share the cache.
Twins, columns equal up to sign, tie in every correlation; the tie goes to
the lowest-indexed usable twin by rule, not by the rounding of a product.

Two computations from the data keep the fit accurate.  The running ``r``
carries about 1e-16 of absolute error, so once it falls below
``EXPLICIT_RESIDUAL_BELOW`` it is recomputed from the data, which lets the
exact-fit test fire.  And since R comes from the Gram matrix, ``R c = z``
alone is Cholesky-grade: the coefficients, solved once after the last atom,
get one corrected-seminormal-equations step
``c += R^-1 R^-T A^T (t - A c)`` (Björck 1987), which brings them to QR
accuracy, and the trace's last entry is the refined fit's explicit residual.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dtrtrs

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
# Below this the running squared residual ``r = t.t - sum z^2`` is replaced by
# the explicit one of the refined coefficients: its rounding error, about
# 1e-16, is far above the exact-fit test ``r <= CORRELATION_FLOOR**2``.
EXPLICIT_RESIDUAL_BELOW = 1e-8

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


class GramRows:
    """Rows ``G[j] = cols[:, j] @ cols`` of a dictionary's Gram matrix, each
    computed when a fit first selects atom j and kept in one p x p array, so
    a dictionary pays only for the atoms its fits use.  The array is p^2
    float64 values, 8 MB at p = 1024 and 800 MB at p = 10^4, allocated up
    front; ``build_sfg`` starts every live column's fit from its row, so a
    graph build computes and touches all of it.  A failed allocation raises
    ``MemoryError``, which the command line reports as exit 2, "not enough
    memory".

    Threads may share an instance: a row is computed aside and copied in
    before it is marked known, so a thread that computes it again only
    rewrites the same values.

    Twins, columns equal up to sign, tie in every correlation, and a tie goes
    to the lower index.  But a BLAS kernel rounds the columns at the end of a
    block differently from the others, so no product keeps such ties in every
    layout; :meth:`lowest_twin` applies the rule directly instead.
    """

    def __init__(self, cols: np.ndarray) -> None:
        self.cols = cols
        p = cols.shape[1]
        self.rows = np.empty((p, p))
        self.known = np.zeros(p, dtype=bool)
        # Twins share |first entry|, so a column has none below it unless it
        # shares that value with a lower column (a NaN shares it with none).
        self.key = np.abs(cols[0])
        _, first, group = np.unique(
            self.key, return_index=True, return_inverse=True, equal_nan=False
        )
        self.lowest_with_key = first[group.reshape(-1)]
        self.twins: dict[int, np.ndarray] = {}  # column -> its twins, on first need

    def __getitem__(self, j: int) -> np.ndarray:
        if not self.known[j]:
            # Not matmul(..., out=): BLAS accumulates in its output, and
            # another thread may already read this row.
            self.rows[j] = self.cols[:, j] @ self.cols
            self.known[j] = True
        return self.rows[j]

    def lowest_twin(self, j: int, banned: np.ndarray) -> int:
        """The lowest-indexed unbanned twin of column j, or j itself."""
        if self.lowest_with_key[j] == j:
            return j
        twins = self.twins.get(j)
        if twins is None:
            same = np.flatnonzero(self.key == self.key[j])
            others, col = self.cols[:, same], self.cols[:, j, None]
            equal = (others == col).all(axis=0) | (others == -col).all(axis=0)
            twins = same[equal | (same == j)]  # j too, should it hold a NaN
            self.twins.update(dict.fromkeys(twins.tolist(), twins))
        return int(twins[~banned[twins]][0])


def _refined_fit(
    cols: np.ndarray, target: np.ndarray, support: list[int], R: np.ndarray, z: np.ndarray
) -> tuple[np.ndarray, float]:
    """Coefficients on ``support`` and the squared norm of their residual.

    ``R c = z`` alone is only as accurate as a Cholesky solve, since R is
    built from the Gram matrix; one corrected-seminormal-equations step,
    ``c += R^-1 R^-T A^T (t - A c)``, brings c to QR accuracy.
    """
    A = cols[:, support]
    # LAPACK's triangular solve directly: R's diagonal is at least
    # sqrt(DEPENDENCE_FLOOR), and solve_triangular's checks cost more than
    # the solve at these sizes.
    c = dtrtrs(R, z)[0]
    c += dtrtrs(R, dtrtrs(R, A.T @ (target - A @ c), trans=1)[0])[0]
    q = target - A @ c
    return c, float(q @ q)


def _greedy_fit(
    cols: np.ndarray,
    target: np.ndarray,
    epsilon: float,
    max_support: int | None = None,
    exclude: int | None = None,
    pre_banned: np.ndarray | None = None,
    gram: GramRows | None = None,
    corr: np.ndarray | None = None,
) -> tuple[list[int], np.ndarray, list[float], str]:
    """Core pursuit loop over the columns of ``cols``.

    ``exclude`` masks one column (leave-one-out fits reuse the full matrix
    instead of copying it minus a column) and ``pre_banned`` marks columns
    that must never be selected, e.g. zero-norm features.  ``max_support``
    None caps the support at ``max(1, n // 2)`` atoms (see ``OmpConfig``).
    ``gram`` holds the Gram rows of ``cols`` that fits over the same
    dictionary share; ``corr`` is ``target @ cols`` when the caller has it,
    and is overwritten.
    """
    n, p = cols.shape
    banned = np.zeros(p, dtype=bool) if pre_banned is None else pre_banned.copy()
    if exclude is not None:
        banned[exclude] = True
    if max_support is None:
        max_support = max(1, n // 2)
    cap = min(max_support, p - int(banned.sum()))
    if gram is None:
        gram = GramRows(cols)
    if corr is None:
        corr = target @ cols

    support: list[int] = []
    r = float(target @ target)
    trace = [r]
    # cols[:, support] = Q R with orthonormal Q, carried without Q itself:
    # P[m] = Q[:, m]^T cols and z = Q^T target.  No more than n atoms can be
    # independent, so n rows suffice.
    size = min(cap, n)
    P = np.empty((size, p))
    R = np.zeros((size, size))
    z = np.empty(size)
    k = 0
    fit = None  # (coefficients, explicit residual) once r is refit from the data
    while True:
        corr[banned] = 0.0
        j = int(np.argmax(np.abs(corr)))
        if abs(corr[j]) <= CORRELATION_FLOOR:
            reason = STOP_NO_ATOM
            break
        j = gram.lowest_twin(j, banned)
        banned[j] = True
        g = gram[j]
        h = P[:k, j]
        v2 = float(g[j] - h @ h)
        if v2 <= DEPENDENCE_FLOOR or k == n:
            # Numerically inside the span of the current support (n atoms span
            # every column): skip it for good and try the next-best atom.
            continue
        R[:k, k] = h
        R[k, k] = np.sqrt(v2)
        P[k] = (g - h @ P[:k]) / R[k, k]
        z[k] = corr[j] / R[k, k]
        corr -= z[k] * P[k]
        r -= z[k] ** 2
        support.append(j)
        k += 1
        if r < EXPLICIT_RESIDUAL_BELOW:
            # r carries about 1e-16 of absolute error, which would hide an
            # exact fit from the test below.
            fit = _refined_fit(cols, target, support, R[:k, :k], z[:k])
            r = fit[1]
        trace.append(r)

        if abs(trace[-1] - trace[-2]) <= epsilon:
            reason = STOP_CONVERGED
            break
        if k >= cap:
            reason = STOP_SUPPORT_LIMIT
            break
        if trace[-1] <= CORRELATION_FLOOR**2:
            # An exact fit: |q . a| <= ||q|| for a unit atom a, so no atom can
            # clear the correlation floor.
            reason = STOP_CONVERGED
            break

    if not support:
        return support, np.empty(0), trace, reason
    if fit is None or fit[0].size < k:
        fit = _refined_fit(cols, target, support, R[:k, :k], z[:k])
    coef, trace[-1] = fit
    return support, coef, trace, reason


def _not_unit_norm(norms):
    """True where a norm is not 1 within ``UNIT_NORM_TOL``; a NaN norm never
    is, because every comparison with NaN is False."""
    return ~(np.abs(norms - 1.0) <= UNIT_NORM_TOL)


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
    norms = np.linalg.norm(cols, axis=0)
    bad = np.flatnonzero(_not_unit_norm(norms))
    if bad.size:
        j = int(bad[0])
        raise ParameterError(
            f"dictionary column {j} is not unit-norm (norm {norms[j]:.6g}); "
            f"normalize features first"
        )
    tnorm = np.linalg.norm(t)
    if _not_unit_norm(tnorm):
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
