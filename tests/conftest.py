"""Shared test fixtures."""

import numpy as np
import pytest

from sfgraph.omp import GramRows, SparseRepresentation, _greedy_fit


def _capped_fit(cols, target, epsilon, cap, banned=None, chance=False):
    """Fit ``target`` over ``cols`` with a support cap of ``cap`` atoms, the
    path ``mcfs_select`` runs; ``omp()`` always caps at ⌊n/2⌋.  ``banned``
    marks columns never to select, and the fit overwrites it.  ``chance``
    adds the chance stop of ``omp()`` and graph fits."""
    if banned is None:
        banned = np.zeros(cols.shape[1], dtype=bool)
    fit = _greedy_fit(GramRows(cols), target, target @ cols, banned, epsilon, cap, chance)
    return SparseRepresentation(*fit)


@pytest.fixture
def capped_fit():
    return _capped_fit
