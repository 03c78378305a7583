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

A fit of ``omp()`` or of a graph row also stops at chance level.  Of a
unit atoms in n dimensions, the best removes about a 2 ln(a)/n share of a
residual unrelated to all of them (Cai & Wang, "Orthogonal matching pursuit
for sparse signal recovery with noise", IEEE Trans. Inf. Theory, 2011).  So
after the first atom, the best atom is refused when its gain, the drop
r_{k-1} - r_k it would make, is below

    tau * r_{k-1},    tau = 2 ln(a) / n,

with a the usable atoms (neither zero nor banned when the fit starts), and
the fit stops as ``chance``.  The first atom is always taken, as the
epsilon rule too judges only the change an atom made, so a fit is never
empty while an atom clears the correlation floor.  A noise column's fit
ends after a few atoms, where it would otherwise run on to the cap below,
fitting the span rather than the target.

Those fits stop after at most half as many atoms as the dictionary has rows,
⌊n/2⌋ (at least 1), as a bound.  Neither the cap nor the chance stop is a
setting; only ``mcfs_select`` passes its own cap, m atoms, and its fits do
not stop at chance level.

The pursuit is carried in coefficient space (Batch-OMP in QR form): with
``cols[:, support] = Q R`` for an orthonormal Q that is never formed, it
keeps ``P[m] = Q[:, m]^T cols``, ``z = Q^T target`` and the correlations
``corr = cols^T q`` of the residual q.  Accepting atom j with Gram row
``G[j] = cols[:, j] @ cols`` takes

    h = P[:k, j],   R[k, k]^2 = G[j, j] - ||h||^2,
    P[k] = (G[j] - h^T P[:k]) / R[k, k],   z[k] = corr[j] / R[k, k],
    corr -= z[k] P[k],   r -= z[k]^2,

so a step costs O(k p) for k atoms and p columns and touches no vector of
sample length.  G is formed whole by one ``cols.T @ cols`` (``GramRows``),
p^2 n work and p^2 float64 values, even for a lone ``omp()`` fit; the fits
of a graph build or of one MCFS call share it.
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

__all__ = ["SparseRepresentation", "omp"]

# Default stopping threshold on the change of the squared residual norm
# between consecutive iterations.
EPSILON = 1e-6

# Targets, and dictionary columns that are not exactly zero, must be unit-norm
# within this tolerance.
UNIT_NORM_TOL = 1e-6
# An atom whose correlation with the residual falls below this floor cannot
# reduce the objective by more than its square; selecting it would only add
# numerical noise to the support.
CORRELATION_FLOOR = 1e-12
# Squared norm of the component of a candidate atom orthogonal to the span of
# the current support.  Below this R would be numerically singular and the
# atom is skipped.
DEPENDENCE_FLOOR = 1e-12
# Rows the pursuit's scratch holds before the first atom; it doubles as the
# support fills it (`_greedy_fit`).  The median graph fit keeps one atom.
SCRATCH_ATOMS = 8
# Below this the running squared residual ``r = t.t - sum z^2`` is replaced by
# the explicit one of the refined coefficients: its rounding error, about
# 1e-16, is far above the exact-fit test ``r <= CORRELATION_FLOOR**2``.
EXPLICIT_RESIDUAL_BELOW = 1e-8

# stop_reason values
STOP_CONVERGED = "converged"  # residual change fell to <= epsilon, or fit is exact
STOP_SUPPORT_LIMIT = "support_limit"  # reached the allowed support size
STOP_NO_ATOM = "no_usable_atom"  # no remaining atom can make progress
STOP_CHANCE = "chance"  # the best atom's gain was within chance level
STOP_REASONS = (STOP_CONVERGED, STOP_SUPPORT_LIMIT, STOP_NO_ATOM, STOP_CHANCE)


def _check_epsilon(epsilon: float) -> None:
    """Refuse a stopping threshold that is not positive (NaN never is)."""
    if not epsilon > 0.0:
        raise ParameterError(f"epsilon must be positive, got {epsilon}")


def _support_cap(n_samples: int) -> int:
    """The support cap of ``omp()`` and of graph fits: ⌊n/2⌋ atoms, at least 1."""
    return max(1, n_samples // 2)


@dataclass
class SparseRepresentation:
    """Result of one greedy fit.

    support : atom indices in selection order.
    coefficients : least-squares coefficients aligned with ``support``.
    residual_norms : squared residual norm trace; entry 0 is the initial
        value before any atom, then one entry per accepted atom.
    final_residual : last entry of the trace.
    stop_reason : one of ``converged``, ``support_limit``, ``no_usable_atom``,
        ``chance``.
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
    """Rows ``G[j]`` of a dictionary's Gram matrix, all formed by one product
    ``cols.T @ cols`` when the instance is made: p^2 n work and p^2 float64
    values, 8 MB at p = 1024 and 800 MB at p = 10^4.  A failed allocation
    raises ``MemoryError``, which the command line reports as exit 2, "not
    enough memory".  Fits over one dictionary share an instance.

    The solver's one check of a dictionary runs first: a column that is
    neither unit-norm (within ``UNIT_NORM_TOL``) nor exactly zero is named
    in a ``ParameterError``.  ``zero`` marks the zero columns, never atoms.

    Twins, columns equal up to sign, tie in every correlation, and a tie goes
    to the lower index.  But a BLAS kernel rounds the columns at the end of a
    block differently from the others, so no product keeps such ties in every
    layout; :meth:`lowest_twin` applies the rule directly instead.
    """

    def __init__(self, cols: np.ndarray) -> None:
        with np.errstate(over="ignore"):  # an overflowed norm is inf, refused
            norms = np.linalg.norm(cols, axis=0)
        self.zero = norms == 0.0
        bad = np.flatnonzero(~self.zero & _not_unit_norm(norms))
        if bad.size:
            j = int(bad[0])
            raise ParameterError(
                f"column {j} is not unit-norm (norm {norms[j]:.6g}); "
                f"apply normalize_features first"
            )
        self.cols = cols
        self.rows = cols.T @ cols
        # Twins share |first entry|, so a column has none below it unless it
        # shares that value with a lower column (a NaN shares it with none).
        self.key = np.abs(cols[0])
        _, first, group = np.unique(
            self.key, return_index=True, return_inverse=True, equal_nan=False
        )
        self.lowest_with_key = first[group.reshape(-1)]
        self.twins: dict[int, np.ndarray] = {}  # column -> its twins, on first need

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
    gram: GramRows,
    target: np.ndarray,
    corr: np.ndarray,
    banned: np.ndarray,
    epsilon: float,
    cap: int,
    chance: bool,
) -> tuple[list[int], np.ndarray, list[float], str]:
    """Core pursuit loop over the columns of ``gram.cols``.

    ``corr`` is ``target @ gram.cols`` and ``banned`` marks the columns that
    must never be selected (the fitted column of a leave-one-out fit,
    zero-norm features); the fit overwrites both, so each caller passes
    arrays it owns.  The support holds at most ``cap`` atoms, and never more
    than the unbanned columns.  With ``chance``, an atom after the first
    whose gain ``z**2`` is below ``tau * r``, ``tau = 2 ln(a) / n`` for the
    a columns unbanned at the start, ends the fit as ``chance``.

    The pursuit's scratch (``P``, ``R`` and ``z``, one row per atom) starts
    at ``SCRATCH_ATOMS`` rows and doubles whenever the support fills it, up
    to ``min(cap, n)`` rows: a fit holds memory for the atoms it takes, not
    for its cap.  Growing copies rows and changes no value.
    """
    cols = gram.cols
    n, p = cols.shape
    usable = p - int(banned.sum())
    cap = min(cap, usable)
    tau = 2.0 * np.log(usable) / n if chance and usable else 0.0

    support: list[int] = []
    r = float(target @ target)
    trace = [r]
    # cols[:, support] = Q R with orthonormal Q, carried without Q itself:
    # P[m] = Q[:, m]^T cols and z = Q^T target.  No more than n atoms can be
    # independent, so n rows suffice.
    size = min(cap, n)
    rows = min(size, SCRATCH_ATOMS)
    P = np.empty((rows, p))
    R = np.zeros((rows, rows))
    z = np.empty(rows)
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
        g = gram.rows[j]
        h = P[:k, j]
        v2 = float(g[j] - h @ h)
        if v2 <= DEPENDENCE_FLOOR or k == n:
            # Numerically inside the span of the current support (n atoms span
            # every column): skip it for good and try the next-best atom.
            continue
        if k and corr[j] ** 2 / v2 < tau * r:
            reason = STOP_CHANCE
            break
        if k == z.size:  # the scratch is full: double it
            grow = min(2 * k, size) - k
            P = np.pad(P, ((0, grow), (0, 0)))
            R = np.pad(R, (0, grow))
            z = np.pad(z, (0, grow))
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


def omp(dictionary, target, epsilon: float = EPSILON) -> SparseRepresentation:
    """Fit ``target`` as a sparse combination of dictionary columns.

    After the first atom, the fit stops as ``chance`` when the best atom
    would remove less than a ``2 ln(a) / n`` share of the residual, for n
    rows and a usable (nonzero) columns: what the best of a unrelated atoms
    removes by chance.  It stops after at most ⌊n/2⌋ atoms (at least 1).

    Parameters
    ----------
    dictionary : ndarray of shape (n, p) or FeatureMatrix
        Atoms as columns, each unit-norm within 1e-6 or exactly zero; a zero
        column is never an atom.
    target : ndarray of shape (n,)
        Unit-norm vector to approximate.
    epsilon : float, optional
        Positive threshold on the change of the squared residual norm
        between consecutive iterations.

    Returns
    -------
    SparseRepresentation
    """
    _check_epsilon(epsilon)
    cols = dictionary.values if isinstance(dictionary, FeatureMatrix) else dictionary
    cols = np.asarray(cols, dtype=np.float64)
    if cols.ndim != 2:
        raise ParameterError(f"dictionary must be 2-D, got {cols.ndim}-D")
    if cols.shape[1] == 0:
        raise ParameterError("dictionary has no columns")
    t = np.asarray(target, dtype=np.float64).reshape(-1)
    if t.shape[0] != cols.shape[0]:
        raise ParameterError(
            f"target length {t.shape[0]} does not match dictionary rows {cols.shape[0]}"
        )
    tnorm = np.linalg.norm(t)
    if _not_unit_norm(tnorm):
        raise ParameterError(
            f"target is not unit-norm (norm {tnorm:.6g}); normalize it first"
        )

    gram = GramRows(cols)
    support, coef, trace, reason = _greedy_fit(
        gram, t, t @ cols, gram.zero.copy(), epsilon, _support_cap(cols.shape[0]), True
    )
    return SparseRepresentation(support, coef, trace, reason)

