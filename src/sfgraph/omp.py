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
setting.  ``mcfs_select`` passes caps of its own, one per count m, to one
pursuit (``_pursue``), and its fits do not stop at chance level.

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

Many targets over one dictionary are pursued in lockstep (``_pursue``):
each round, every live target takes one atom or stops, through one set of
array operations over the batch, so a batch pays the interpreter's
overhead once per round rather than once per target.  ``omp()`` is the
one-target case.  Every operation on a target reads that target's rows
only, so a fit has the same bits in a batch of any size or order.

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
# Atoms the pursuit's scratch holds per target when a target first needs
# it; it doubles as the supports fill it (`_pursue`).  The median graph fit
# keeps one atom, and few keep more than four.
SCRATCH_ATOMS = 4
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
    layout; :meth:`lowest_twins` applies the rule directly instead.  The twin
    groups are found here, once: only columns that share |first entry| with
    another can be twins, and among those, the columns that are equal once
    each is signed by its first nonzero entry form a group.
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
        p = cols.shape[1]
        self.has_lower = np.zeros(p, dtype=bool)  # a lower-indexed twin exists
        self.group = np.zeros(p, dtype=np.intp)  # the row of `twins` holding it
        self.twins = np.empty((0, 0), dtype=np.intp)  # groups, ascending, -1 padded
        _, key, count = np.unique(np.abs(cols[0]), return_inverse=True, return_counts=True)
        shared = np.flatnonzero((count[key.reshape(-1)] > 1) & ~self.zero)
        if shared.size:
            self._group_twins(shared)
        self.rows = cols.T @ cols

    def _group_twins(self, shared: np.ndarray) -> None:
        signed = self.cols.T[shared]
        lead = signed[np.arange(shared.size), (signed != 0.0).argmax(axis=1)]
        signed *= np.sign(lead)[:, None]
        signed += 0.0  # -0.0 becomes 0.0: equal columns are now equal bytes
        # Any order of the byte strings puts equal ones next to each other,
        # and a stable one keeps each group ascending.
        bytes_ = signed.view(np.dtype((np.void, signed.itemsize * signed.shape[1])))
        order = np.argsort(bytes_.reshape(-1), kind="stable")
        signed = signed[order]
        start = np.concatenate([[True], (signed[1:] != signed[:-1]).any(axis=1)])
        group = np.cumsum(start) - 1
        size = np.bincount(group)
        rank = np.arange(order.size) - np.flatnonzero(start)[group]
        twin = size[group] > 1  # the sorted columns that have a twin
        members, rank = shared[order][twin], rank[twin]
        group = np.cumsum(start & twin)[twin] - 1  # twin groups only, from 0
        self.twins = np.full((np.count_nonzero(start & twin), size.max()), -1, dtype=np.intp)
        self.twins[group, rank] = members
        self.group[members] = group
        self.has_lower[members] = rank > 0

    def lowest_twins(self, j: np.ndarray, banned: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """For each b, the lowest-indexed twin of column ``j[b]`` that row
        ``rows[b]`` of ``banned`` leaves usable: ``j[b]`` itself when no
        lower twin is."""
        b = np.flatnonzero(self.has_lower[j])
        if b.size:
            members = self.twins[self.group[j[b]]]
            usable = (members >= 0) & ~banned[rows[b, None], members]
            j = j.copy()
            j[b] = members[np.arange(b.size), usable.argmax(axis=1)]
        return j


def _solve(R: np.ndarray, b: np.ndarray, trans: bool = False) -> np.ndarray:
    """``x`` with ``R[t] x[t] = b[t]``, or ``R[t]^T x[t] = b[t]`` with
    ``trans``, for each upper-triangular ``R[t]``: one LAPACK solve per
    target.  The transposed system is solved with its atoms in reverse
    order, which makes it upper-triangular too, so that partial pivoting
    never swaps a row and the solve is a plain back substitution."""
    if R.shape[1] == 1:  # what LAPACK computes for one atom, without its overhead
        return b / R[:, 0]
    if trans:
        return _solve(R.transpose(0, 2, 1)[:, ::-1, ::-1], b[:, ::-1])[:, ::-1]
    return np.linalg.solve(R, b[:, :, None])[:, :, 0]


def _refined_fits(
    cols: np.ndarray, targets: np.ndarray, support: np.ndarray, R: np.ndarray, z: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients on each row of ``support`` and the squared norms of their
    residuals.

    ``R c = z`` alone is only as accurate as a Cholesky solve, since R is
    built from the Gram matrix; one corrected-seminormal-equations step,
    ``c += R^-1 R^-T A^T (t - A c)``, brings c to QR accuracy.
    """
    A = cols.T[support]  # A[t] holds target t's atoms as rows

    def residual(c):
        return targets - (c[:, None, :] @ A)[:, 0]

    c = _solve(R, z)
    c += _solve(R, _solve(R, (A @ residual(c)[:, :, None])[:, :, 0], trans=True))
    q = residual(c)
    return c, np.einsum("ij,ij->i", q, q)


# Indices into STOP_REASONS, as a pursuit records them.
_CONVERGED, _SUPPORT_LIMIT, _NO_ATOM, _CHANCE = range(len(STOP_REASONS))


@dataclass
class Fits:
    """Results of one lockstep pursuit, a row per target.

    Target t kept ``size[t]`` atoms: the first ``size[t]`` entries of
    ``support[t]`` (in selection order) and of ``coefficients[t]``, and the
    first ``size[t] + 1`` entries of ``trace[t]``, the squared-residual trace
    whose last entry is the final residual.  ``reason[t]`` indexes
    ``STOP_REASONS``.
    """

    support: np.ndarray
    coefficients: np.ndarray
    trace: np.ndarray
    size: np.ndarray
    reason: np.ndarray

    @classmethod
    def collect(cls, count: int, parts: list) -> Fits:
        """Gather ``(targets, support, coefficients, trace, reason)`` parts,
        each for targets stopped with the same atom count."""
        width = max((part[1].shape[1] for part in parts), default=0)
        fits = cls(
            np.zeros((count, width), dtype=np.intp),
            np.zeros((count, width)),
            np.zeros((count, width + 1)),
            np.zeros(count, dtype=np.intp),
            np.zeros(count, dtype=np.intp),
        )
        for ids, support, coef, trace, reason in parts:
            k = support.shape[1]
            fits.support[ids, :k] = support
            fits.coefficients[ids, :k] = coef
            fits.trace[ids, : k + 1] = trace
            fits.size[ids] = k
            fits.reason[ids] = reason
        return fits

    def entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Target, atom and coefficient of every atom of every fit, target
        by target in selection order."""
        atoms = np.arange(self.support.shape[1]) < self.size[:, None]
        target = np.repeat(np.arange(self.size.size), self.size)
        return target, self.support[atoms], self.coefficients[atoms]

    def final_residuals(self) -> np.ndarray:
        return self.trace[np.arange(self.size.size), self.size]

    def representation(self, t: int) -> SparseRepresentation:
        k = self.size[t]
        return SparseRepresentation(
            self.support[t, :k], self.coefficients[t, :k], self.trace[t, : k + 1],
            STOP_REASONS[self.reason[t]],
        )


class _Live:
    """Per-target state of the targets a pursuit still fits, a row each."""

    def __init__(self, **arrays) -> None:
        vars(self).update(arrays)

    def keep(self, rows: np.ndarray) -> None:
        for name, value in list(vars(self).items()):
            setattr(self, name, value[rows])


def _grow(a: np.ndarray, axes: tuple[int, ...], by: int) -> np.ndarray:
    """``a`` with ``by`` more entries, zeros, along each of ``axes``."""
    grown = np.zeros([size + by * (axis in axes) for axis, size in enumerate(a.shape)], a.dtype)
    grown[tuple(slice(size) for size in a.shape)] = a
    return grown


def _best_atoms(gram: GramRows, corr: np.ndarray, banned: np.ndarray, P: np.ndarray, k: int):
    """Each row's next atom j, its correlation, ``h = P[:k, j]`` and the
    squared norm ``v2`` of its part outside the span of the support, and
    ``empty`` where no atom clears the correlation floor (``v2`` is 1 there).

    The best atom has the largest |corr| among the columns ``banned`` leaves,
    the twin rule applied.  Every atom tried is banned: one numerically
    inside the span of the support is skipped for good, and its row retries
    with the next-best atom.
    """
    found = None
    at = rows = np.arange(corr.shape[0])
    while True:
        c = corr if found is None else corr[at]
        a = np.abs(c)
        np.copyto(a, 0.0, where=banned if found is None else banned[at])
        j = a.argmax(axis=1)
        empty = a[rows, j] <= CORRELATION_FLOOR
        if gram.twins.size:
            j = gram.lowest_twins(j, banned, at)
        banned[at, j] = True
        h = P[at, :k, j]
        v2 = gram.rows[j, j] - np.einsum("ij,ij->i", h, h)
        np.copyto(v2, 1.0, where=empty)
        new = (j, c[rows, j], h, v2, empty)
        if found is None:
            found = new
        else:
            for old, value in zip(found, new):
                old[at] = value
        dependent = v2 <= DEPENDENCE_FLOOR
        if not dependent.any():
            return found
        at = at[dependent]
        rows = rows[: at.size]


def _pursue(
    gram: GramRows,
    targets: np.ndarray,
    corr: np.ndarray,
    banned: np.ndarray,
    epsilon: float,
    caps: tuple[int, ...],
    chance: bool,
) -> list[Fits]:
    """Core pursuit over the columns of ``gram.cols``, for the rows of
    ``targets`` in lockstep: one ``Fits`` per cap of the ascending, distinct
    ``caps``, with the bits of a pursuit capped there alone.

    ``corr[t]`` is ``targets[t] @ gram.cols`` and ``banned[t]`` marks the
    columns target t must never select (the fitted column of a leave-one-out
    fit, zero-norm features); the pursuit overwrites both.  A support holds
    at most ``caps[-1]`` atoms, and never more than its unbanned columns.
    A smaller cap's ``Fits`` is a snapshot at the end of the round that
    reaches it: it shares the fits stopped before and stops every other fit
    as a pursuit capped there would.  A cap the pursuit never reaches gets
    the final ``Fits``.  With ``chance``, an atom after the first whose gain ``z**2`` is below
    ``tau * r``, ``tau = 2 ln(a) / n`` for the a columns unbanned at the
    start, ends the fit as ``chance``.

    Each round, every live target takes one atom or stops, through a fixed
    number of array operations over the whole batch: it selects its best
    atom, retries in the same round when that atom is dependent, and runs
    the chance test, the stop tests and, if it goes on, the update of its
    correlations.  A target leaves the batch in the round it stops, with its
    refined fit, and no work of a later round touches it.  Every operation
    on a target reads its own row only, so a fit has the same bits in any
    batch.

    The scratch (``P``, one row per atom and target) starts at
    ``SCRATCH_ATOMS`` rows when the first target needs one and doubles
    whenever the supports fill it, up to ``min(caps[-1], n)`` rows: a batch
    holds memory for the atoms its live targets take, not for their cap.
    """
    cols, G = gram.cols, gram.rows
    n, p = cols.shape
    usable = p - banned.sum(axis=1)
    cap = np.minimum(caps[-1], usable)
    tau = 2.0 * np.log(np.maximum(usable, 1)) / n if chance else np.zeros(usable.size)
    # cols[:, support] = Q R with orthonormal Q, carried without Q itself:
    # P[m] = Q[:, m]^T cols and z = Q^T target.  No more than n atoms can be
    # independent, so n rows suffice.
    size = min(int(cap.max(initial=0)), n)
    count = targets.shape[0]
    r = np.einsum("ij,ij->i", targets, targets)
    rows = max(1, min(size, SCRATCH_ATOMS))
    # R's lower triangle stays zero (``_grow`` pads with zeros): the LAPACK
    # solves of the refined fit read the whole matrix.
    live = _Live(
        ids=np.arange(count), targets=targets, corr=corr, banned=banned, r=r, tau=tau,
        cap=cap, P=np.empty((count, 0, p)), R=np.zeros((count, rows, rows)),
        z=np.empty((count, rows)), S=np.empty((count, rows), dtype=np.intp),
        trace=np.empty((count, rows + 1)),
    )
    live.trace[:, 0] = r
    del targets, corr, banned, r  # the compacted rows are live's
    parts: list = []  # the stopped fits
    fits: list[Fits] = []  # the snapshots of the caps reached, but the last

    def stop(at: np.ndarray, k: int, reason, coef=None) -> list:
        """The fits of the live rows ``at`` with k atoms, as zero or one part;
        ``coef`` holds the round's refined coefficients where it is not NaN."""
        if not at.size:
            return []
        trace = live.trace[at, : k + 1]
        if coef is None:
            coef, redo = np.empty((at.size, k)), np.arange(at.size)
        else:
            coef = coef[at]
            redo = np.flatnonzero(np.isnan(coef[:, 0]))
        if k and redo.size:
            t = at[redo]
            coef[redo], trace[redo, k] = _refined_fits(
                cols, live.targets[t], live.S[t, :k], live.R[t, :k, :k], live.z[t, :k]
            )
        return [(live.ids[at], live.S[at, :k], coef, trace, reason)]

    k = 0
    while live.ids.size:
        if k == n:
            # n atoms span every column: each atom left is dependent, and
            # skipping them all leaves none usable.
            parts += stop(np.arange(live.ids.size), k, _NO_ATOM)
            break
        if k == live.S.shape[1]:  # R, z, S and trace are full: double them
            more = min(2 * k, size) - k
            live.z, live.S, live.trace = (_grow(a, (1,), more) for a in (live.z, live.S, live.trace))
            live.R = _grow(live.R, (1, 2), more)
        j, cj, h, v2, empty = _best_atoms(gram, live.corr, live.banned, live.P, k)
        # Targets with no atom, or whose best atom is within chance level,
        # stop with k atoms; the writes below at index k do not touch them.
        held = empty | (cj * cj / v2 < live.tau * live.r) if k else empty
        rkk = np.sqrt(v2)
        live.R[:, :k, k] = h
        live.R[:, k, k] = rkk
        zk = cj / rkk
        live.z[:, k] = zk
        live.S[:, k] = j
        before = live.r
        live.r = before - zk * zk
        k += 1
        coef = None
        if live.r.min() < EXPLICIT_RESIDUAL_BELOW:
            # r carries about 1e-16 of absolute error, which would hide an
            # exact fit from the test below.
            low = np.flatnonzero(~held & (live.r < EXPLICIT_RESIDUAL_BELOW))
            coef = np.full((j.size, k), np.nan)
            if low.size:
                coef[low], live.r[low] = _refined_fits(
                    cols, live.targets[low], live.S[low, :k], live.R[low, :k, :k], live.z[low, :k]
                )
        live.trace[:, k] = live.r
        converged = np.abs(live.r - before) <= epsilon
        limit = k >= live.cap
        # An exact fit: |q . a| <= ||q|| for a unit atom a, so no atom can
        # clear the correlation floor.
        ends = held | converged | limit | (live.r <= CORRELATION_FLOOR**2)
        snapshot = len(fits) < len(caps) - 1 and k == caps[len(fits)]
        if ends.any() or snapshot:
            at = np.flatnonzero(held)
            parts += stop(at, k - 1, np.where(empty[at], _NO_ATOM, _CHANCE))
            if snapshot:  # a pursuit capped at k stops every fit here
                at = np.flatnonzero(~held)
                reason = np.where(converged[at], _CONVERGED, _SUPPORT_LIMIT)
                fits.append(Fits.collect(count, parts + stop(at, k, reason, coef)))
            at = np.flatnonzero(ends & ~held)
            reason = np.where(limit[at] & ~converged[at], _SUPPORT_LIMIT, _CONVERGED)
            parts += stop(at, k, reason, coef)
            if ends.all():
                break
            go = np.flatnonzero(~ends)
            live.keep(go)
            j, h, zk, rkk = j[go], h[go], zk[go], rkk[go]
        if k > live.P.shape[1]:  # the scratch is full: double it
            live.P = _grow(live.P, (1,), min(max(2 * (k - 1), SCRATCH_ATOMS), size) - (k - 1))
        # The new atom's row of P, and the correlations of the new residual.
        row = G[j]
        if k > 1:
            row -= (h[:, None, :] @ live.P[:, : k - 1])[:, 0]
        row /= rkk[:, None]
        live.P[:, k - 1] = row
        row *= zk[:, None]
        live.corr -= row
    return fits + [Fits.collect(count, parts)] * (len(caps) - len(fits))


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
    (fits,) = _pursue(
        gram, t[None], (t @ cols)[None], gram.zero[None].copy(), epsilon,
        (_support_cap(cols.shape[0]),), True,
    )
    return fits.representation(0)

