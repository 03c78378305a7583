"""Shared test fixtures."""

import numpy as np
import pytest

from sfgraph.omp import GramRows, _pursue


def _capped_fit(cols, target, epsilon, cap, banned=None, chance=False):
    """Fit ``target`` over ``cols`` with a support cap of ``cap`` atoms, the
    path ``mcfs_select`` runs; ``omp()`` always caps at ⌊n/2⌋.  ``banned``
    marks columns never to select, and the fit overwrites it.  ``chance``
    adds the chance stop of ``omp()`` and graph fits."""
    if banned is None:
        banned = np.zeros(cols.shape[1], dtype=bool)
    (fits,) = _pursue(
        GramRows(cols), target[None], (target @ cols)[None], banned[None], epsilon, (cap,), chance
    )
    return fits.representation(0)


@pytest.fixture
def capped_fit():
    return _capped_fit
