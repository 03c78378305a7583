"""Synthetic datasets with planted redundancy and known cluster structure.

Columns come out in four blocks, in this order:

1. *base* features: independent noise around per-cluster centroids, so they
   carry the cluster signal;
2. *duplicates*: exact copies of base features (one copy per pair, cycling
   through the base block);
3. *mixtures*: convex combinations of 2-4 base features plus a small noise
   term, scaled relative to the signal norm;
4. *noise*: pure Gaussian columns with no structure at all.

The returned ground truth records exactly which column plays which role, so
tests can check that a reduction keeps one member per redundant group and an
evaluation can score clusterings against the true labels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .matrix import FeatureMatrix

__all__ = ["SynthSpec", "generate"]


@dataclass
class SynthSpec:
    """Recipe for one synthetic dataset.

    separation is the minimum distance between cluster centroids measured in
    units of the within-cluster standard deviation; mixture_noise is the
    noise-to-signal norm ratio of mixture columns.
    """

    n_samples: int
    base_features: int
    clusters: int = 1
    separation: float = 6.0
    duplicate_pairs: int = 0
    mixture_features: int = 0
    noise_features: int = 0
    mixture_noise: float = 1e-3
    within_std: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_samples < 2:
            raise ParameterError(f"need at least 2 samples, got {self.n_samples}")
        if self.base_features < 1:
            raise ParameterError("need at least 1 base feature")
        if self.clusters < 1 or self.clusters > self.n_samples:
            raise ParameterError(
                f"clusters must lie in [1, {self.n_samples}], got {self.clusters}"
            )
        if not np.isfinite(self.separation):
            raise ParameterError(f"separation must be finite, got {self.separation}")
        if self.clusters > 1 and not self.separation > 0.0:
            raise ParameterError("separation must be positive with multiple clusters")
        if self.mixture_features > 0 and self.base_features < 2:
            raise ParameterError("mixtures need at least 2 base features")
        for name in ("duplicate_pairs", "mixture_features", "noise_features"):
            if getattr(self, name) < 0:
                raise ParameterError(f"{name} must be non-negative")
        if not self.within_std > 0.0:
            raise ParameterError("within_std must be positive")
        if self.mixture_noise < 0.0:
            raise ParameterError("mixture_noise must be non-negative")
        if self.seed < 0:
            raise ParameterError(f"seed must be non-negative, got {self.seed}")

    @property
    def n_features(self) -> int:
        return (
            self.base_features
            + self.duplicate_pairs
            + self.mixture_features
            + self.noise_features
        )


def generate(spec: SynthSpec) -> tuple[FeatureMatrix, np.ndarray, dict]:
    """Draw one dataset from a spec; same seed, same bytes.

    Returns
    -------
    (FeatureMatrix, labels, ground_truth)
        ground_truth is a JSON-ready dict mapping every column to its role:
        ``base`` / ``noise`` index lists, ``duplicates`` as
        ``[copy_index, base_index]`` pairs, and ``mixtures`` as records with
        parent indices and convex weights.

    Raises
    ------
    ParameterError
        A spec whose scales overflow float64, so that a value would be
        infinite or NaN.
    """
    # Overflow is reported once, as the ParameterError below.
    with np.errstate(over="ignore", invalid="ignore"):
        matrix, labels, truth = _draw(spec)
    if not np.isfinite(matrix.values).all():
        raise ParameterError(
            "the spec's scales overflow: the generated data holds non-finite values"
        )
    return matrix, labels, truth


def _draw(spec: SynthSpec) -> tuple[FeatureMatrix, np.ndarray, dict]:
    """The dataset of ``spec``, finite or not; see :func:`generate`."""
    rng = np.random.default_rng(spec.seed)
    n, b = spec.n_samples, spec.base_features

    labels = np.arange(n, dtype=np.int64) % spec.clusters
    rng.shuffle(labels)

    centroids = rng.normal(size=(spec.clusters, b))
    if spec.clusters > 1:
        gaps = [
            np.linalg.norm(centroids[i] - centroids[j])
            for i in range(spec.clusters)
            for j in range(i + 1, spec.clusters)
        ]
        centroids *= spec.separation * spec.within_std / min(gaps)
    base = centroids[labels] + rng.normal(0.0, spec.within_std, size=(n, b))

    columns = [base]
    names = [f"base{i}" for i in range(b)]
    truth: dict = {
        "n_samples": n,
        "n_features": spec.n_features,
        "clusters": spec.clusters,
        "base": list(range(b)),
        "duplicates": [],
        "mixtures": [],
        "noise": [],
    }

    next_col = b
    for t in range(spec.duplicate_pairs):
        src = t % b
        columns.append(base[:, [src]])
        names.append(f"dup{t}")
        truth["duplicates"].append([next_col, src])
        next_col += 1

    for t in range(spec.mixture_features):
        count = int(rng.integers(2, min(4, b) + 1))
        parents = np.sort(rng.choice(b, size=count, replace=False))
        weights = rng.uniform(0.2, 1.0, size=count)
        weights /= weights.sum()
        signal = base[:, parents] @ weights
        col = signal
        if spec.mixture_noise > 0.0:
            scale = spec.mixture_noise * np.linalg.norm(signal) / np.sqrt(n)
            col = signal + rng.normal(0.0, scale, size=n)
        columns.append(col[:, None])
        names.append(f"mix{t}")
        truth["mixtures"].append(
            {
                "index": next_col,
                "parents": [int(p) for p in parents],
                "weights": [float(w) for w in weights],
            }
        )
        next_col += 1

    if spec.noise_features > 0:
        columns.append(rng.normal(size=(n, spec.noise_features)))
        names.extend(f"noise{i}" for i in range(spec.noise_features))
        truth["noise"] = list(range(next_col, next_col + spec.noise_features))

    return FeatureMatrix(np.hstack(columns), tuple(names)), labels, truth
