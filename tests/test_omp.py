"""Tests for the greedy sparse solver.

Coefficient correctness is checked against direct least-squares refits on the
selected support, computed independently with numpy.linalg.lstsq, and the
whole fit against a reference pursuit that re-solves the normal equations
through a Cholesky factor on every iteration.
"""

import importlib
import pkgutil
from collections import Counter

import numpy as np
import pytest
from scipy.linalg import solve_triangular

import sfgraph
from sfgraph import (
    FeatureMatrix,
    ParameterError,
    PipelineConfig,
    SpectralEmbedding,
    SynthSpec,
    build_sfg,
    generate,
    mcfs_select,
    normalize_features,
    omp,
)
from sfgraph.omp import (
    CORRELATION_FLOOR,
    DEPENDENCE_FLOOR,
    SCRATCH_ATOMS,
    STOP_CHANCE,
    STOP_CONVERGED,
    STOP_NO_ATOM,
    STOP_SUPPORT_LIMIT,
    GramRows,
    _pursue,
)


def _orthonormal_dictionary(n, p, seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(n, p)))
    return q[:, :p]


def _random_unit_dictionary(n, p, rng):
    cols = rng.normal(size=(n, p))
    return cols / np.linalg.norm(cols, axis=0)


def _ls_oracle(cols, support, target):
    sol, *_ = np.linalg.lstsq(cols[:, support], target, rcond=None)
    return sol


def test_exact_atom_match_selects_only_that_atom():
    cols = _orthonormal_dictionary(8, 5, seed=0)
    target = cols[:, 3].copy()
    rep = omp(cols, target, epsilon=1e-6)
    assert rep.support.tolist() == [3]
    np.testing.assert_allclose(rep.coefficients, [1.0], atol=1e-12)
    assert rep.residual_norms.shape == (2,)
    assert abs(rep.residual_norms[0] - 1.0) < 1e-12
    assert rep.final_residual < 1e-20
    assert rep.stop_reason == STOP_CONVERGED


def test_duplicate_column_fit_stops_converged_on_its_twin():
    # Leave-one-out, as the graph build fits: column 1 is column 4's twin.
    # The fit is exact after one atom, which ends it as converged even though
    # the residual changed by far more than epsilon.
    rng = np.random.default_rng(5)
    cols = _random_unit_dictionary(12, 6, rng)
    cols[:, 4] = cols[:, 1]
    rep = omp(np.delete(cols, 1, axis=1), cols[:, 1])
    assert rep.support.tolist() == [3]  # column 4, shifted left by the deletion
    assert rep.residual_norms.size == 2 and rep.final_residual <= CORRELATION_FLOOR**2
    assert rep.stop_reason == STOP_CONVERGED


def test_two_atom_combination_recovers_both_weights():
    cols = _orthonormal_dictionary(10, 4, seed=1)
    target = 0.6 * cols[:, 0] + 0.8 * cols[:, 1]  # unit norm by construction
    rep = omp(cols, target, epsilon=1e-10)
    assert sorted(rep.support.tolist()) == [0, 1]
    # larger-coefficient atom is picked first
    assert rep.support.tolist() == [1, 0]
    got = dict(zip(rep.support.tolist(), rep.coefficients))
    assert abs(got[0] - 0.6) < 1e-10
    assert abs(got[1] - 0.8) < 1e-10
    # trace: 1.0, then 1 - 0.8^2, then ~0
    np.testing.assert_allclose(rep.residual_norms[:2], [1.0, 0.36], atol=1e-10)
    assert rep.final_residual < 1e-20


def test_planted_sparse_targets_are_recovered():
    rng = np.random.default_rng(42)
    hits = 0
    for trial in range(20):
        cols = _random_unit_dictionary(20, 30, rng)
        planted = rng.choice(30, size=3, replace=False)
        weights = rng.normal(size=3)
        target = cols[:, planted] @ weights
        target /= np.linalg.norm(target)
        rep = omp(cols, target, epsilon=1e-8)
        if set(rep.support.tolist()) == set(planted.tolist()):
            hits += 1
            oracle = _ls_oracle(cols, rep.support, target)
            np.testing.assert_allclose(rep.coefficients, oracle, atol=1e-8)
    assert hits >= 19


def test_coefficients_match_least_squares_on_any_support():
    rng = np.random.default_rng(100)
    for trial in range(50):
        n = int(rng.integers(6, 20))
        p = int(rng.integers(3, 15))
        cols = _random_unit_dictionary(n, p, rng)
        target = rng.normal(size=n)
        target /= np.linalg.norm(target)
        rep = omp(cols, target, epsilon=1e-7)
        if rep.support.size == 0:
            continue
        oracle = _ls_oracle(cols, rep.support, target)
        np.testing.assert_allclose(rep.coefficients, oracle, atol=1e-8)


def test_coefficients_match_least_squares_on_ill_conditioned_dictionaries():
    # Every atom lies within about 1e-4 of one common direction, so supports
    # are ill-conditioned (coefficients in the thousands).  Solving through
    # the Gram matrix squares the condition number and misses this bound; so
    # does a single Gram-Schmidt pass.
    rng = np.random.default_rng(55)
    for trial in range(20):
        n, p = 30, 20
        cols = rng.normal(size=(n, 1)) + 1e-4 * rng.normal(size=(n, p))
        cols /= np.linalg.norm(cols, axis=0)
        target = rng.normal(size=n)
        target /= np.linalg.norm(target)
        rep = omp(cols, target, epsilon=1e-12)
        oracle = _ls_oracle(cols, rep.support, target)
        scale = max(1.0, float(np.max(np.abs(rep.coefficients))))
        np.testing.assert_allclose(rep.coefficients, oracle, rtol=0, atol=1e-8 * scale)


def test_residual_trace_is_monotone_and_orthogonal():
    rng = np.random.default_rng(2024)
    for trial in range(200):
        n = int(rng.integers(5, 24))
        p = int(rng.integers(2, 20))
        cols = _random_unit_dictionary(n, p, rng)
        target = rng.normal(size=n)
        target /= np.linalg.norm(target)
        rep = omp(cols, target)
        trace = rep.residual_norms
        assert abs(trace[0] - 1.0) < 1e-9
        assert np.all(np.diff(trace) <= 1e-12), f"trace rose on trial {trial}"
        assert trace.shape == (rep.support.size + 1,)
        # the final residual is orthogonal to every selected atom
        residual = target - cols[:, rep.support] @ rep.coefficients
        if rep.support.size:
            overlap = np.abs(residual @ cols[:, rep.support])
            assert float(overlap.max()) <= 1e-8


def _refused_gain(rep, cols, target):
    """Gain ``corr_j^2 / v2`` of the atom a fit would take next: the column
    most correlated with the fit's residual, off its support, with v its
    component orthogonal to the support's span."""
    A = cols[:, rep.support]
    corr = np.abs((target - A @ rep.coefficients) @ cols)
    corr[rep.support] = 0.0
    j = int(np.argmax(corr))
    v = cols[:, j] - A @ np.linalg.lstsq(A, cols[:, j], rcond=None)[0]
    return corr[j] ** 2 / float(v @ v)


def test_stopping_reason_matches_its_condition(capped_fit):
    rng = np.random.default_rng(77)
    seen, seen_with_chance = set(), set()
    for trial in range(300):
        n = int(rng.integers(4, 18))
        p = int(rng.integers(2, 24))
        cap = int(rng.integers(1, p + 1))
        epsilon = float(rng.choice([1e-3, 1e-6, 1e-9]))
        cols = _random_unit_dictionary(n, p, rng)
        target = rng.normal(size=n)
        target /= np.linalg.norm(target)
        tau = _chance_level(n, p)
        for chance, reasons in ((False, seen), (True, seen_with_chance)):
            rep = capped_fit(cols, target, epsilon, cap, chance=chance)
            reasons.add(rep.stop_reason)
            trace = rep.residual_norms
            if chance:
                # every atom after the first removed at least tau of the residual
                gains = -np.diff(trace[1:])
                assert np.all(gains >= tau * trace[1:-1] - 1e-12), trial
            if rep.stop_reason == STOP_CONVERGED:
                # the residual stopped changing, or the fit is exact
                exact = trace[-1] <= CORRELATION_FLOOR**2
                assert abs(trace[-1] - trace[-2]) <= epsilon or exact
            elif rep.stop_reason == STOP_SUPPORT_LIMIT:
                assert rep.support.size == min(cap, p)
            elif rep.stop_reason == STOP_CHANCE:
                # the next atom would remove less than tau of the residual
                assert chance and rep.support.size >= 1, trial
                assert _refused_gain(rep, cols, target) < tau * trace[-1] + 1e-12, trial
            else:
                # the documented last arm: no remaining atom can make progress
                assert rep.stop_reason == STOP_NO_ATOM
                assert rep.support.size <= min(cap, p)
                assert trace[-1] > CORRELATION_FLOOR**2
    assert {STOP_CONVERGED, STOP_SUPPORT_LIMIT} <= seen
    assert STOP_CHANCE not in seen
    assert {STOP_CONVERGED, STOP_SUPPORT_LIMIT, STOP_CHANCE} <= seen_with_chance


def test_numerically_dependent_atom_is_banned_then_nothing_remains(capped_fit):
    # Dictionary: three orthonormal atoms plus one atom that is numerically
    # inside their span (off-span component 1e-7).  After the three clean
    # picks the dependent atom still has correlation above the solver's
    # floor, but accepting it would make the Gram factor singular, so it is
    # banned and the fit stops with nothing usable left.
    n = 6
    e = np.eye(n)
    dep = e[:, 0] - 1e-7 * e[:, 2]
    dep /= np.linalg.norm(dep)
    cols = np.column_stack([e[:, 0], e[:, 1], e[:, 3], dep])
    target = 2.0 * e[:, 0] + e[:, 1] + 0.5 * e[:, 2] + 0.25 * e[:, 3]
    target /= np.linalg.norm(target)
    rep = capped_fit(cols, target, 1e-12, cols.shape[1])
    assert rep.support.tolist() == [0, 1, 2]
    assert rep.stop_reason == STOP_NO_ATOM
    oracle = _ls_oracle(cols, rep.support, target)
    np.testing.assert_allclose(rep.coefficients, oracle, atol=1e-10)
    _assert_same_fit(
        rep, _cholesky_greedy_fit(cols, target, 1e-12, cols.shape[1]), "dependent atom"
    )


def test_nearly_dependent_atom_above_the_floor_is_accepted(capped_fit):
    # The same construction with an off-span component of 2e-6: its square,
    # 4e-12, clears the dependence floor, so the atom is accepted and the fit
    # absorbs the remaining e2 component through a large coefficient.
    n = 6
    e = np.eye(n)
    dep = e[:, 0] - 2e-6 * e[:, 2]
    dep /= np.linalg.norm(dep)
    cols = np.column_stack([e[:, 0], e[:, 1], e[:, 3], dep])
    target = 2.0 * e[:, 0] + e[:, 1] + 0.5 * e[:, 2] + 0.25 * e[:, 3]
    target /= np.linalg.norm(target)
    rep = capped_fit(cols, target, 1e-12, cols.shape[1])
    assert rep.support.tolist() == [0, 1, 2, 3]
    assert rep.final_residual < 1e-12
    oracle = _ls_oracle(cols, rep.support, target)
    scale = float(np.max(np.abs(oracle)))
    np.testing.assert_allclose(rep.coefficients, oracle, rtol=0, atol=1e-8 * scale)


def test_dependent_atom_is_skipped_in_favor_of_next_best(capped_fit):
    # Same span-degenerate atom, but now a weakly correlated clean atom also
    # remains: the dependent atom is the argmax, gets skipped, and the
    # next-best atom is accepted instead.
    n = 6
    e = np.eye(n)
    dep = e[:, 0] - 1e-7 * e[:, 2]
    dep /= np.linalg.norm(dep)
    cols = np.column_stack([e[:, 0], e[:, 1], e[:, 3], dep, e[:, 4]])
    target = 2.0 * e[:, 0] + e[:, 1] + 0.5 * e[:, 2] + 0.25 * e[:, 3]
    target = target + 1e-8 * e[:, 4]
    target /= np.linalg.norm(target)
    rep = capped_fit(cols, target, 1e-12, cols.shape[1])
    assert rep.support.tolist() == [0, 1, 2, 4]
    assert 3 not in rep.support


def test_a_dependent_atom_is_retried_in_the_same_round_of_a_lockstep_batch():
    # The dictionary above, fit for four targets at once: the second meets
    # the dependent atom at its fourth atom and retries with the next-best
    # one, while the others take their atoms in the same rounds.
    n = 6
    e = np.eye(n)
    dep = e[:, 0] - 1e-7 * e[:, 2]
    dep /= np.linalg.norm(dep)
    cols = np.column_stack([e[:, 0], e[:, 1], e[:, 3], dep, e[:, 4]])
    skip = 2.0 * e[:, 0] + e[:, 1] + 0.5 * e[:, 2] + 0.25 * e[:, 3] + 1e-8 * e[:, 4]
    others = np.random.default_rng(12).normal(size=(3, n))
    targets = np.vstack([others[0], skip, others[1:]])
    targets /= np.linalg.norm(targets, axis=1, keepdims=True)
    banned = np.zeros((4, cols.shape[1]), dtype=bool)
    fits = _pursue(GramRows(cols), targets, targets @ cols, banned, 1e-12, 5, False)
    for t, target in enumerate(targets):
        want = _cholesky_greedy_fit(cols, target, 1e-12, cols.shape[1])
        _assert_same_fit(fits.representation(t), want, f"target {t}")
    assert fits.representation(1).support.tolist() == [0, 1, 2, 4]


def test_twin_groups_give_the_lowest_usable_member():
    # Columns 2, 3, 5 and 6 are one twin group, two of them negated; column
    # 1 shares their |first entry| without being a twin.
    rng = np.random.default_rng(31)
    n = 12
    base = rng.normal(size=n)
    base /= np.linalg.norm(base)
    near = rng.normal(size=n)
    near[1:] *= np.sqrt(1.0 - base[0] ** 2) / np.linalg.norm(near[1:])
    near[0] = -base[0]
    noise = _random_unit_dictionary(n, 2, rng)
    cols = np.column_stack([noise[:, 0], near, base, -base, noise[:, 1], base, -base])
    gram = GramRows(cols)
    assert gram.twins.tolist() == [[2, 3, 5, 6]]
    assert gram.has_lower.tolist() == [False, False, False, True, False, True, True]
    ban = np.zeros((4, 7), dtype=bool)
    for row, banned in enumerate(([], [2], [2, 3], [2, 3, 5])):
        ban[row, banned] = True
    # A selected column is usable itself: 5 is not selected where it is banned.
    for j, lowest in ((6, [2, 3, 5, 6]), (5, [2, 3, 5]), (1, [1, 1, 1, 1])):
        rows = np.arange(len(lowest))
        assert gram.lowest_twins(np.full(rows.size, j), ban, rows).tolist() == lowest, j
    # The leave-one-out fits of the group, and omp() over a dictionary that
    # keeps only the group's last two members, take the lowest usable twin
    # as their one atom.
    graph = build_sfg(FeatureMatrix(cols))
    for i, twin in ((2, 3), (3, 2), (5, 2), (6, 2)):
        assert graph.weights[i].indices.tolist() == [twin], i
        assert graph.stop_reasons[i] == STOP_CONVERGED, i
    for target in (base, -base):
        rep = omp(cols[:, [0, 1, 4, 5, 6]], target)
        assert rep.support.tolist() == [3], target[0]
        assert abs(abs(rep.coefficients[0]) - 1.0) <= 1e-12


def test_support_limit_caps_the_fit(capped_fit):
    rng = np.random.default_rng(8)
    cols = _random_unit_dictionary(20, 10, rng)
    target = rng.normal(size=20)
    target /= np.linalg.norm(target)
    rep = capped_fit(cols, target, 1e-15, 2)
    assert rep.support.size == 2
    assert rep.stop_reason == STOP_SUPPORT_LIMIT


@pytest.mark.parametrize("n", [1, 2])
def test_tiny_dictionaries_get_a_default_cap_of_one_atom(n):
    # n // 2 would be 0 at n = 1; the default cap is never below one atom.
    rng = np.random.default_rng(n)
    cols = _random_unit_dictionary(n, 5, rng)
    target = rng.normal(size=n)
    target /= np.linalg.norm(target)
    rep = omp(cols, target, epsilon=1e-12)
    assert rep.support.size == 1
    assert rep.stop_reason == STOP_SUPPORT_LIMIT


def test_omp_stops_at_the_cap_when_every_atom_beats_chance():
    # Orthonormal atoms with coefficients decaying by a factor 0.7 in square:
    # each step removes about 30% of the residual, above tau = 2 ln(30) / 40
    # = 17%, and the change stays above epsilon, so only the cap of
    # 40 // 2 = 20 atoms ends the fit.
    n, p = 40, 30
    cols = _orthonormal_dictionary(n, p, seed=9)
    target = cols @ 0.7 ** (np.arange(p) / 2.0)
    target /= np.linalg.norm(target)
    rep = omp(cols, target)
    assert rep.support.tolist() == list(range(n // 2))
    assert rep.stop_reason == STOP_SUPPORT_LIMIT
    gains = -np.diff(rep.residual_norms)
    assert np.all(gains >= _chance_level(n, p) * rep.residual_norms[:-1])


def test_chance_level_counts_usable_atoms_not_columns():
    # Six orthonormal atoms, five of them in the target, whose steps remove
    # 60, 37.5, 44, 64 and 100% of the residual: above tau = 2 ln(6) / 20 =
    # 18%, but the second below 2 ln(306) / 20 = 57%.  Zero columns are never
    # atoms, so padding the dictionary with 300 of them leaves the chance
    # level, and the fit, as they are.
    n = 20
    cols = _orthonormal_dictionary(n, 6, seed=10)
    target = cols @ np.sqrt([0.6, 0.15, 0.11, 0.09, 0.05, 0.0])
    rep = omp(cols, target)
    assert rep.support.tolist() == [0, 1, 2, 3, 4]
    assert rep.stop_reason == STOP_CONVERGED
    padded = omp(np.hstack([np.zeros((n, 150)), cols, np.zeros((n, 150))]), target)
    assert (padded.support - 150).tolist() == rep.support.tolist()
    assert padded.stop_reason == rep.stop_reason
    np.testing.assert_array_equal(padded.residual_norms, rep.residual_norms)
    # the graph's leave-one-out fits count the fitted column out as well
    graph = build_sfg(FeatureMatrix(np.column_stack([target, cols, np.zeros((n, 300))])))
    assert graph.weights[0].indices.tolist() == [1, 2, 3, 4, 5]
    assert graph.stop_reasons[0] == STOP_CONVERGED


def test_non_unit_dictionary_column_is_rejected_by_index():
    cols = _orthonormal_dictionary(6, 3, seed=2)
    cols[:, 1] *= 2.0
    target = cols[:, 0].copy()
    with pytest.raises(ParameterError) as err:
        omp(cols, target)
    assert "1" in str(err.value)


def test_non_unit_target_is_rejected():
    cols = _orthonormal_dictionary(6, 3, seed=3)
    with pytest.raises(ParameterError):
        omp(cols, 2.0 * cols[:, 0])


def test_nan_dictionary_column_and_nan_target_are_rejected():
    # a NaN norm fails every comparison, so a check written as
    # "norm is off by more than the tolerance" would let it through
    cols = np.eye(3)
    cols[0, 1] = np.nan
    with pytest.raises(ParameterError, match="^column 1 is not unit-norm"):
        omp(cols, [1.0, 0.0, 0.0])
    with pytest.raises(ParameterError, match="target is not unit-norm"):
        omp(np.eye(3), [np.nan, 0.0, 0.0])


def _solver_entry_points():
    """Each entry point of the greedy solver, run on a dictionary of 8 rows,
    with a check that column j of its result was never an atom."""
    rng = np.random.default_rng(6)
    target = rng.normal(size=8)
    target /= np.linalg.norm(target)
    embedding = SpectralEmbedding(rng.normal(size=(8, 2)), np.zeros(2))
    return {
        "omp": (lambda cols: omp(cols, target), lambda rep, j: j not in rep.support),
        "build_sfg": (
            lambda cols: build_sfg(FeatureMatrix(cols)),
            lambda graph, j: j in graph.failed_nodes
            and graph.weights[j].nnz == 0
            and graph.weights[:, j].nnz == 0,
        ),
        "mcfs_select": (
            lambda cols: mcfs_select(FeatureMatrix(cols), embedding, 2),
            lambda sel, j: sel.scores[j] == 0.0 and not sel.coefficients[:, j].any(),
        ),
    }


SOLVER_ENTRY_POINTS = _solver_entry_points()


def _unit_columns(n, p, seed):
    cols = np.random.default_rng(seed).normal(size=(n, p))
    return cols / np.linalg.norm(cols, axis=0)


@pytest.mark.parametrize("entry", SOLVER_ENTRY_POINTS)
@pytest.mark.parametrize("scale, shown", [(2.0, "2"), (np.nan, "nan"), (1e200, "inf")])
def test_solver_entry_points_refuse_a_bad_column_with_one_message(entry, scale, shown):
    cols = _unit_columns(8, 5, seed=7)
    cols[:, 1] *= scale
    message = f"column 1 is not unit-norm (norm {shown}); apply normalize_features first"
    run, _ = SOLVER_ENTRY_POINTS[entry]
    with pytest.raises(ParameterError) as err:
        run(cols)
    assert str(err.value) == message


@pytest.mark.parametrize("entry", SOLVER_ENTRY_POINTS)
def test_solver_entry_points_accept_a_zero_column_and_never_use_it(entry):
    cols = _unit_columns(8, 5, seed=7)
    cols[:, 2] = 0.0
    run, never_an_atom = SOLVER_ENTRY_POINTS[entry]
    assert never_an_atom(run(cols), 2)


def test_shape_mismatch_is_rejected():
    cols = _orthonormal_dictionary(6, 3, seed=4)
    with pytest.raises(ParameterError):
        omp(cols, np.ones(5) / np.sqrt(5.0))


def test_empty_dictionary_is_rejected():
    with pytest.raises(ParameterError, match="^dictionary has no columns$"):
        omp(np.empty((3, 0)), [1.0, 0.0, 0.0])


@pytest.mark.parametrize("epsilon", [0.0, -1e-6, np.nan])
def test_epsilon_is_refused_before_any_work(epsilon, monkeypatch):
    def no_gram(cols):
        raise AssertionError("a Gram matrix was formed")

    monkeypatch.setattr("sfgraph.sfg.GramRows", no_gram)
    cols = _orthonormal_dictionary(6, 3, seed=5)
    with pytest.raises(ParameterError, match="^epsilon must be positive"):
        omp(cols, cols[:, 0], epsilon=epsilon)
    with pytest.raises(ParameterError, match="^epsilon must be positive"):
        build_sfg(FeatureMatrix(cols), epsilon=epsilon)
    with pytest.raises(ParameterError, match="^epsilon must be positive"):
        PipelineConfig(k_clusters=2, epsilon=epsilon)


def test_every_exported_name_exists():
    modules = [sfgraph] + [
        importlib.import_module(f"sfgraph.{info.name}")
        for info in pkgutil.iter_modules(sfgraph.__path__)
    ]
    for module in modules:
        names = getattr(module, "__all__", ())  # errors.py has none
        # the solver takes epsilon, not a settings object
        configs = {name for name in names if name.endswith("Config")}
        assert configs <= {"PipelineConfig"}, module.__name__
        missing = [name for name in names if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names {missing}"


# ---------------------------------------------------------------------------
# reference oracle: the Cholesky pursuit


def _chance_level(n, usable):
    """tau = 2 ln(a) / n: the share of a residual that the best of a unit
    atoms unrelated to it removes, in n dimensions."""
    return 2.0 * np.log(usable) / n


def _cholesky_greedy_fit(cols, target, epsilon, cap, banned=None, tau=0.0):
    """Same pursuit, re-solving every coefficient on every iteration through a
    grown Cholesky factor of the support's Gram matrix.  An atom after the
    first that lowers the squared residual by less than ``tau`` of it is
    taken back and ends the fit as ``chance``; ``tau = 0`` never does."""
    n, p = cols.shape
    banned = np.zeros(p, dtype=bool) if banned is None else banned.copy()
    cap = min(cap, p - int(banned.sum()))

    support = []
    coef = np.empty(0)
    q = target.astype(np.float64, copy=True)
    trace = [float(q @ q)]
    if cap <= 0:
        return support, coef, trace, STOP_NO_ATOM

    L = np.zeros((cap, cap))
    phi_t_target = np.empty(cap)

    while True:
        corr = q @ cols
        corr[banned] = 0.0
        reason = None
        while True:
            j = int(np.argmax(np.abs(corr)))
            if abs(corr[j]) <= CORRELATION_FLOOR:
                reason = STOP_NO_ATOM
                break
            atom = cols[:, j]
            k = len(support)
            if k == 0:
                d2 = float(atom @ atom)
                w = np.empty(0)
            else:
                g = atom @ cols[:, support]
                w = solve_triangular(L[:k, :k], g, lower=True, check_finite=False)
                d2 = float(atom @ atom) - float(w @ w)
            if d2 <= DEPENDENCE_FLOOR:
                banned[j] = True
                corr[j] = 0.0
                continue
            L[k, :k] = w
            L[k, k] = np.sqrt(d2)
            phi_t_target[k] = atom @ target
            support.append(j)
            banned[j] = True
            break
        if reason is not None:
            break

        k = len(support)
        y = solve_triangular(L[:k, :k], phi_t_target[:k], lower=True, check_finite=False)
        new = solve_triangular(L[:k, :k], y, lower=True, trans="T", check_finite=False)
        new_q = target - cols[:, support] @ new
        if k > 1 and trace[-1] - float(new_q @ new_q) < tau * trace[-1]:
            support.pop()
            reason = STOP_CHANCE
            break
        coef, q = new, new_q
        trace.append(float(q @ q))

        if abs(trace[-1] - trace[-2]) <= epsilon:
            reason = STOP_CONVERGED
            break
        if k >= cap:
            reason = STOP_SUPPORT_LIMIT
            break
        if trace[-1] <= CORRELATION_FLOOR**2:
            reason = STOP_CONVERGED
            break

    return support, coef, trace, reason


def _assert_same_fit(got, want, where):
    ref_support, ref_coef, ref_trace, ref_reason = want
    assert got.support.tolist() == ref_support, where
    assert got.stop_reason == ref_reason, where
    assert got.residual_norms.size == len(ref_trace), where
    if ref_support:
        scale = max(1.0, float(np.max(np.abs(ref_coef))))
        np.testing.assert_allclose(
            got.coefficients, ref_coef, rtol=0, atol=1e-8 * scale, err_msg=where
        )


@pytest.mark.parametrize("seed", [3, 11])
def test_matches_cholesky_oracle_on_leave_one_out_fits(seed, capped_fit):
    # n < d with planted duplicates and mixtures: several rows saturate, i.e.
    # their supports reach 0.9 n or more, where the Gram matrix is worst
    # conditioned.
    n = 40
    spec = SynthSpec(
        n_samples=n, base_features=n, clusters=4, separation=8.0,
        duplicate_pairs=30, mixture_features=20, noise_features=13, seed=seed,
    )
    features = normalize_features(generate(spec)[0])[0]
    values = features.values
    d = values.shape[1]
    saturated = 0
    for i in range(d):
        args = (values, values[:, i], 1e-6, d - 1)
        got = capped_fit(*args, np.arange(d) == i)
        _assert_same_fit(got, _cholesky_greedy_fit(*args, np.arange(d) == i), f"row {i}")
        saturated += got.support.size >= 0.9 * n
    assert saturated >= 5
    # The graph's own fits: capped at n // 2 and stopped at chance level,
    # with d - 1 usable atoms each.
    graph = build_sfg(features)
    tau = _chance_level(n, d - 1)
    for i in range(d):
        where = f"graph row {i}"
        args = (values, values[:, i], 1e-6, n // 2)
        got = capped_fit(*args, np.arange(d) == i, chance=True)
        _assert_same_fit(got, _cholesky_greedy_fit(*args, np.arange(d) == i, tau), where)
        assert graph.stop_reasons[i] == got.stop_reason, where
        assert graph.weights[i].indices.tolist() == sorted(got.support.tolist()), where
    assert Counter(graph.stop_reasons)[STOP_CHANCE] >= 5


def test_a_graph_fit_across_two_scratch_doublings_matches_the_oracle(capped_fit):
    # Column 0 mixes 30 others with weights 0.8^j: each next atom holds about
    # a third of what is left, well above chance, so the graph fit's support
    # outgrows the scratch's first rows and their first doubling.
    n, p = 80, 100
    values = _random_unit_dictionary(n, p, np.random.default_rng(41))
    mix = values[:, 1:31] @ 0.8 ** np.arange(30)
    values[:, 0] = mix / np.linalg.norm(mix)
    args = (values, values[:, 0], 1e-6, n // 2)
    got = capped_fit(*args, np.arange(p) == 0, chance=True)
    assert got.support.size > 2 * SCRATCH_ATOMS
    want = _cholesky_greedy_fit(*args, np.arange(p) == 0, _chance_level(n, p - 1))
    _assert_same_fit(got, want, "row 0")
    graph = build_sfg(FeatureMatrix(values))
    assert graph.weights[0].indices.tolist() == sorted(got.support.tolist())
    assert graph.stop_reasons[0] == got.stop_reason


def test_matches_cholesky_oracle_on_random_dictionaries(capped_fit):
    rng = np.random.default_rng(314)
    reasons, reasons_with_chance = set(), set()
    for trial in range(300):
        n = int(rng.integers(4, 20))
        p = int(rng.integers(2, 30))
        cols = _random_unit_dictionary(n, p, rng)
        target = rng.normal(size=n)
        target /= np.linalg.norm(target)
        args = (cols, target, float(rng.choice([1e-3, 1e-6, 1e-9])), int(rng.integers(1, p + 1)))
        got = capped_fit(*args)
        _assert_same_fit(got, _cholesky_greedy_fit(*args), f"trial {trial}")
        reasons.add(got.stop_reason)
        got = capped_fit(*args, chance=True)
        want = _cholesky_greedy_fit(*args, tau=_chance_level(n, p))
        _assert_same_fit(got, want, f"trial {trial} with the chance stop")
        reasons_with_chance.add(got.stop_reason)
    # Gaussian atoms run out only on exact fits, which stop as converged; the
    # no-usable-atom arm is compared on the dependent-atom dictionary above.
    assert reasons == {STOP_CONVERGED, STOP_SUPPORT_LIMIT}
    assert STOP_CHANCE in reasons_with_chance


def test_twins_resolve_alike_in_the_graph_omp_and_the_oracle():
    # Exact twins at the first and, negated, at the last column, across a
    # block of 4 columns (3 and 4) and inside one (9 and 10); mixtures over one
    # member of each pair make many fits meet a tie between twins.  A BLAS
    # product rounds the columns at the end of a block differently, so the
    # tie would follow the layout (omp() below sees 23 columns, the graph
    # 24).  The rule, the lowest-indexed usable twin, is given to the oracle
    # as banned columns; the solver must find it alone.  The oracle stops at
    # the chance level of the 23 atoms usable in each fit, and at the cap,
    # n // 2 = 18 atoms.
    rng = np.random.default_rng(21)
    n, d = 36, 24
    cols = rng.normal(size=(n, d))
    pairs = [(0, 7), (3, 4), (9, 10), (13, 23)]
    for a, b in pairs:
        cols[:, b] = cols[:, a]
    cols[:, 23] *= -1.0
    for m, (a, b) in zip((15, 16, 17, 18), pairs):
        cols[:, m] = 0.7 * cols[:, b] + 0.5 * cols[:, m - 10] + 0.01 * rng.normal(size=n)
    values = cols / np.linalg.norm(cols, axis=0)
    graph = build_sfg(FeatureMatrix(values))
    twins = {a: b for a, b in pairs} | {b: a for a, b in pairs}
    for i in range(d):
        where = f"row {i}"
        row = graph.weights[i]
        rep = omp(np.delete(values, i, axis=1), values[:, i])
        dst = np.where(rep.support < i, rep.support, rep.support + 1)
        rule = np.arange(d) == i
        for a, b in pairs:
            rule[b] |= i != a
        support, coef, _, reason = _cholesky_greedy_fit(
            values, values[:, i], 1e-6, n // 2, rule, _chance_level(n, d - 1)
        )
        np.testing.assert_array_equal(dst, support, err_msg=where)
        np.testing.assert_array_equal(np.sort(dst), row.indices, err_msg=where)
        assert graph.stop_reasons[i] == rep.stop_reason == reason, where
        scale = max(1.0, float(np.max(np.abs(coef))))
        np.testing.assert_allclose(
            row.data, coef[np.argsort(support)], rtol=0, atol=1e-8 * scale, err_msg=where
        )
        if i in twins:
            assert support == [twins[i]] and reason == STOP_CONVERGED, where
            assert abs(abs(coef[0]) - 1.0) <= 1e-12, where

