"""Span tracer that wraps library functions at the names their callers use.

A wrapped call records one span: its name, start, end and the span that was
open when it began (its parent). Spans are kept in memory; the measuring
process writes them out when the run ends. Python looks a callee up in the
caller's module namespace at call time, so replacing
``subnetmine.evaluation.fit_spectral`` times every call that evaluation makes
to the solver without touching the library's source. Calls that a module
makes to its own private helpers are timed only when that helper is listed
in ``LAYER_SPANS``.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import time

import numpy as np

# (module, attribute, span name); the span name's prefix is the layer
LAYER_SPANS = (
    ("subnetmine.data", "build_generalized_network", "data.generalized"),
    ("subnetmine.evaluation", "build_generalized_network", "data.generalized"),
    ("subnetmine.evaluation", "_cosine_matrix", "metagraph.cosine"),
    ("subnetmine.evaluation", "_affinity_pair", "metagraph.knn"),
    ("subnetmine.evaluation", "build_affinities", "metagraph.knn"),
    ("subnetmine.evaluation", "build_laplacian_set", "metagraph.laplacian"),
    ("subnetmine.evaluation", "build_constraint_matrix", "metagraph.constraint"),
    ("subnetmine.evaluation", "fit_spectral", "solver.fit"),
    ("subnetmine.solver", "truncated_svd_basis", "solver.svd"),
    ("subnetmine.solver", "_top_eigenpairs", "solver.eig"),
    ("subnetmine.evaluation", "train_linear_classifier", "evaluation.classifier"),
    ("subnetmine.evaluation", "_subset_network", "evaluation.fold_network"),
    ("subnetmine.evaluation", "_make_context", "evaluation.context"),
    ("subnetmine.evaluation", "evaluate_dataset", "evaluation"),
    ("subnetmine.evaluation", "sweep_alpha", "evaluation"),
    ("subnetmine.evaluation", "run_cv", "evaluation"),
    ("subnetmine.evaluation", "fit_model", "evaluation"),
    ("subnetmine.evaluation", "_fit_subset", "evaluation"),
    ("subnetmine.evaluation", "_fit_and_score", "evaluation"),
    ("subnetmine.evaluation", "ranking_auc", "evaluation"),
    ("subnetmine.evaluation", "stratified_folds", "evaluation"),
    ("subnetmine.evaluation", "score_nodes", "selection.report"),
    ("subnetmine.selection", "build_report", "selection.report"),
)


def _svd_key(v, d_plus) -> bytes:
    """Fingerprint of the training matrix V (D+)^(1/2) an SVD call gets:
    the column sums of V and the degrees D+, which differ between distinct
    training sets of continuous data."""
    digest = hashlib.blake2b(np.ascontiguousarray(v.matrix.sum(axis=0)).tobytes())
    digest.update(np.ascontiguousarray(d_plus, dtype=np.float64).tobytes())
    return digest.digest()


class Tracer:
    """Installs the wrappers in ``install`` and removes them in ``restore``."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.absent: list[str] = []
        self.constraint_edges = 0
        self.svd_keys: set[bytes] = set()
        self._open: list[int] = []
        self._patches: list[tuple] = []

    def _wrap(self, original, name):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer._open[-1] if tracer._open else -1
            span = [name, 0.0, 0.0, parent]
            tracer.spans.append(span)
            tracer._open.append(index)
            span[1] = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._open.pop()
                if name == "metagraph.constraint":
                    tracer.constraint_edges += len(args[0].edges)
                elif name == "solver.svd":
                    tracer.svd_keys.add(_svd_key(*args[:2]))

        return wrapper

    def install(self) -> None:
        for module_name, attr, name in LAYER_SPANS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(original, name))
            self._patches.append((module, attr, original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def span_time(self, name: str) -> float:
        """Total length of the spans called ``name`` that do not sit inside
        another span of that name."""
        total = 0.0
        for span in self.spans:
            if span[0] == name and not self._inside(span, name):
                total += span[2] - span[1]
        return total

    def calls(self, *names: str) -> int:
        return sum(1 for span in self.spans if span[0] in names)

    def self_time(self, name: str) -> float:
        """Summed self time of the spans called ``name``: each span's length
        minus the length of its direct children."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[3] >= 0:
                child_time[span[3]] += span[2] - span[1]
        return sum(
            span[2] - span[1] - child_time[i]
            for i, span in enumerate(self.spans)
            if span[0] == name
        )

    def _inside(self, span, name: str) -> bool:
        parent = span[3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def dump(self) -> dict:
        return {
            "absent": self.absent,
            "spans": [
                {"name": s[0], "start": s[1], "end": s[2], "parent": s[3]}
                for s in self.spans
            ],
        }
