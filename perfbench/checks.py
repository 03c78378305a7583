"""Output checks, each against an oracle that shares no code with the program.

* graph rows: ``numpy.linalg.lstsq`` on the row's own support;
* reconstruction angles: one sparse product and column dot products;
* partitions: ``scipy.sparse.csgraph.connected_components`` of the
  thresholded, symmetrised graph, with representatives chosen by in-degree;
* graph files: parsed with ``numpy.loadtxt``, not with ``load_sfg``.

Every function returns a list of problems; an empty list means the check
passed.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

# Largest accepted |coefficient - lstsq coefficient|, relative to the row's
# largest coefficient (and never looser than this in absolute terms for rows
# whose coefficients are below 1).  Nearly dependent supports on the tall
# shape carry weights near 100, where both solvers agree to ~1e-9 relative.
LSTSQ_RTOL = 1e-8
# Slack on the angle bound for rounding between two ways of computing it.
ANGLE_TOL_RAD = 1e-9


def sample_rows(d: int, count: int, seed: int, salt: int) -> np.ndarray:
    """Seeded, sorted sample of row indices; ``salt`` separates the uses."""
    rng = np.random.default_rng([seed, salt])
    return np.sort(rng.choice(d, size=min(count, d), replace=False))


def graph_rows(values: np.ndarray, weights: sp.csr_matrix, rows) -> list[str]:
    """Each sampled row equals least squares on its support; no self-loops."""
    problems = []
    if weights.diagonal().any():
        problems.append("graph has a self-loop")
    for i in rows:
        lo, hi = weights.indptr[i], weights.indptr[i + 1]
        support, coef = weights.indices[lo:hi], weights.data[lo:hi]
        if support.size == 0:
            continue
        ref = np.linalg.lstsq(values[:, support], values[:, i], rcond=None)[0]
        err = float(np.max(np.abs(ref - coef)))
        if err > LSTSQ_RTOL * max(1.0, float(np.max(np.abs(coef)))):
            problems.append(f"row {i}: coefficients differ from lstsq by {err:.3g}")
    return problems


def surviving_angles(values: np.ndarray, weights: sp.csr_matrix, failed, max_angle_deg: float):
    """Every node not marked failed has out-edges and angle <= the bound."""
    live = np.setdiff1d(np.arange(weights.shape[0]), np.fromiter(failed, dtype=np.intp))
    recon = np.asarray((weights @ values.T).T)  # column i reconstructs feature i
    dots = np.einsum("ij,ij->j", values, recon)
    norms = np.linalg.norm(values, axis=0) * np.linalg.norm(recon, axis=0)
    problems = []
    empty = live[norms[live] == 0.0]
    if empty.size:
        problems.append(f"{empty.size} surviving nodes have no reconstruction")
    live = live[norms[live] > 0.0]
    angles = np.arccos(np.clip(dots[live] / norms[live], -1.0, 1.0))
    bad = live[angles > np.deg2rad(max_angle_deg) + ANGLE_TOL_RAD]
    if bad.size:
        problems.append(f"{bad.size} surviving nodes exceed {max_angle_deg} deg, e.g. {bad[0]}")
    return problems


def components(weights: sp.csr_matrix, theta: float) -> np.ndarray:
    """Component label per node of the graph thresholded at ``theta``."""
    coo = weights.tocoo()
    d = weights.shape[0]
    keep = np.zeros(coo.nnz, dtype=bool)
    if coo.nnz:
        keep = np.abs(coo.data) / np.max(np.abs(coo.data)) >= theta
    adj = sp.coo_matrix(
        (np.ones(int(keep.sum())), (coo.row[keep], coo.col[keep])), shape=(d, d)
    )
    return connected_components(adj, directed=False)[1]


def same_partition(a, b) -> bool:
    """Two labelings group the nodes identically."""
    a, b = np.asarray(a), np.asarray(b)
    pairs = set(zip(a.tolist(), b.tolist()))
    return a.shape == b.shape and len(pairs) == len(set(a.tolist())) == len(set(b.tolist()))


def expected_kept(weights: sp.csr_matrix, labels: np.ndarray) -> np.ndarray:
    """Highest in-degree member of every component (ties to the lower index)."""
    in_deg = np.bincount(weights.indices[weights.data != 0], minlength=weights.shape[0])
    order = np.lexsort((np.arange(labels.size), -in_deg))
    _, first = np.unique(labels[order], return_index=True)
    return np.sort(order[first])


def planted_recall(labels: np.ndarray, pairs) -> float:
    """Share of planted ``[copy, base]`` pairs that landed in one group."""
    if not pairs:
        return 0.0
    pairs = np.asarray(pairs)
    return float(np.mean(labels[pairs[:, 0]] == labels[pairs[:, 1]]))


def monotone_retained(retained_by_theta: dict[float, int]) -> list[str]:
    """Retained counts never increase as theta falls."""
    thetas = sorted(retained_by_theta, reverse=True)
    problems = []
    for hi, lo in zip(thetas, thetas[1:]):
        if retained_by_theta[lo] > retained_by_theta[hi]:
            problems.append(f"retained rises from theta {hi} to {lo}")
    return problems


def read_graph_tsv(path) -> tuple[sp.csr_matrix, frozenset[int]]:
    """Parse a graph TSV with numpy only (independent of ``load_sfg``)."""
    with open(path) as fh:
        header = fh.readline().split()
    fields = dict(tok.split("=", 1) for tok in header if "=" in tok)
    d = int(fields["d"])
    failed = frozenset(int(t) for t in fields.get("failed", "").split(",") if t)
    edges = np.loadtxt(path, comments="#", ndmin=2)
    if edges.size == 0:
        return sp.csr_matrix((d, d)), failed
    rows, cols = edges[:, 0].astype(np.intp), edges[:, 1].astype(np.intp)
    return sp.csr_matrix((edges[:, 2], (rows, cols)), shape=(d, d)), failed


def read_partition(path, d: int) -> tuple[np.ndarray, list[int]]:
    """Group label per node, and the representative of each multi-node group,
    from a partition file written by ``sfgraph lcs``."""
    labels = np.full(d, -1, dtype=np.int64)
    reps = []
    with open(path) as fh:
        for g, line in enumerate(fh):
            text = line.strip()
            members = [int(text[2:])] if text.startswith("S:") else [int(t) for t in text.split(",")]
            if not text.startswith("S:"):
                reps.append(members[0])
            labels[members] = g
    return labels, reps
