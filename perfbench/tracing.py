"""Spans around calls into the program, recorded from outside the program.

The recorder replaces public function names in the namespaces of the modules
that call them (``sfgraph.pipeline``, ``sfgraph.cli``, and the few internal
call sites in ``sfgraph.evaluate`` and ``sfgraph.sfg``) with thin wrappers,
and puts the originals back on ``restore``.  Spans stay in memory until the
run ends.  With ``timing`` off the wrappers only keep return values, which
the output checks need; they take no clock readings.
"""

from __future__ import annotations

import functools
import os
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass

# Public name -> (layer, index of the positional file-path argument or None).
PUBLIC = {
    "normalize_features": ("matrix", None),
    "pairwise_euclidean": ("matrix", None),
    "load_csv": ("matrix", 0),
    "load_labels": ("matrix", 0),
    "save_csv": ("matrix", 0),
    "build_sfg": ("sfg", None),
    "representation_angle": ("sfg", None),
    "angle_histogram": ("sfg", None),
    "filter_failed": ("sfg", None),
    "save_sfg": ("sfg", 1),
    "load_sfg": ("sfg", 0),
    "find_lcs": ("lcs", None),
    "select_representatives": ("lcs", None),
    "reduce_matrix": ("lcs", None),
    "save_partition": ("lcs", 2),
    "gaussian_similarity": ("evaluate", None),
    "spectral_embedding": ("evaluate", None),
    "kmeans": ("evaluate", None),
    "njw_cluster": ("evaluate", None),
    "nmi": ("evaluate", None),
    "acc": ("evaluate", None),
    "mcfs_select": ("evaluate", None),
    "generate": ("synth", None),
}

READS = ("load_csv", "load_labels", "load_sfg")
WRITES = ("save_csv", "save_sfg", "save_partition")


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: str
    bytes: int = 0  # size of the file the call read or wrote, if any

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Recorder:
    """Wraps program functions by name; keeps results, and spans when timing."""

    def __init__(self, timing: bool, keep=()):
        self.timing = timing
        self.keep = frozenset(keep)
        self.spans: list[Span] = []
        self.results: dict[str, list] = {}
        self.run = "setup"
        self._stack: list[int] = []
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, path=None):
        """Time the enclosed block as one span; a no-op when timing is off."""
        if not self.timing:
            yield
            return
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            size = os.path.getsize(path) if path is not None and os.path.isfile(path) else 0
            self.spans.append(Span(sid, name, start, end, parent, self.run, size))

    def install(self, sites, names=None) -> None:
        """Wrap, in each ``(module, allowed names or None)`` call site, every
        name of ``PUBLIC`` that the module holds (limited to ``names``)."""
        for module, allowed in sites:
            for attr, (layer, path_arg) in PUBLIC.items():
                if (allowed is not None and attr not in allowed) or (
                    names is not None and attr not in names
                ):
                    continue
                original = vars(module).get(attr)
                if original is None:
                    continue
                setattr(module, attr, self._wrap(original, f"{layer}.{attr}", attr, path_arg))
                self._patched.append((module, attr, original))

    def _wrap(self, func, span_name: str, attr: str, path_arg):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            path = args[path_arg] if path_arg is not None and len(args) > path_arg else None
            with self.span(span_name, path):
                result = func(*args, **kwargs)
            if attr in self.keep:
                self.results.setdefault(attr, []).append(result)
            return result

        return wrapper

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def take(self, attr: str) -> list:
        """Return and forget the results kept for one wrapped name."""
        return self.results.pop(attr, [])

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def self_seconds(spans: list[Span]) -> dict[int, float]:
    """Span id -> its duration minus the part its direct children cover."""
    own = {s.id: s.seconds for s in spans}
    for s in spans:
        if s.parent in own:
            own[s.parent] -= s.seconds
    return own
