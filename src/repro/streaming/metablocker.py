"""Query-time meta-blocking: per-node weighting + node-centric pruning.

Where the batch :class:`~repro.graph.metablocking.MetaBlocker` weights and
prunes the *whole* blocking graph, a :class:`StreamingMetaBlocker` answers
``candidates(profile, k)`` by computing edge weights for just the query
node against the live index and applying a node-centric pruning scheme to
that neighbourhood.

Weighting supports CBS, ECBS, JS, ARCS and BLAST's CHI_H (EJS needs the
global degree distribution and is rejected).  The arithmetic deliberately
mirrors the batch implementations operation-for-operation — shared-block
masses are accumulated in block order, ECBS log factors and the
chi-squared contingency cells are evaluated in the canonical ``(i, j)``
endpoint order — so that, over the ``exact`` view of a frozen index, a
query reproduces the batch edge weights *bit for bit* and the retained
neighbourhood equals the batch pruning output (the property suite in
``tests/property/test_prop_streaming.py`` enforces this).

Pruning supports the node-centric schemes: BLAST's max-based rule, WNP and
CNP (redefined and reciprocal).  On views that can answer neighbor-side
thresholds (``exact``), the full two-endpoint rules run, with per-node
threshold summaries cached per index version; on one-sided views
(``fast``) only the query node's local threshold applies.  The
edge-centric WEP/CEP have no per-node formulation and are rejected.

Two arithmetic backends exist, mirroring the batch registry names:
``vectorized`` evaluates a neighbourhood with numpy kernels,
``python`` with the reference scalar formulas — both produce identical
results and the python path doubles as the test oracle.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from repro.graph.contingency import chi_squared
from repro.graph.pruning import (
    BlastPruning,
    CardinalityNodePruning,
    PruningScheme,
    WeightNodePruning,
)
from repro.graph.vectorized import (
    _chi_squared,
    _clears as _clears_arr,
    _safe_log as _safe_log_arr,
    _sequential_sum,
)
from repro.graph.weights import WeightingScheme, _safe_log
from repro.streaming.index import IncrementalBlockIndex
from repro.streaming.views import NeighborStats

__all__ = ["Candidate", "StreamingMetaBlocker"]

#: Pruning schemes with a per-node (node-centric) formulation.
_NODE_CENTRIC = (BlastPruning, WeightNodePruning, CardinalityNodePruning)

#: Streaming query backends (arithmetic paths, result-identical).
_BACKENDS = ("vectorized", "python")


@dataclass(frozen=True)
class Candidate:
    """One retained comparison partner of a query profile."""

    profile_id: str
    source: int
    weight: float


@dataclass
class _NodeSummary:
    """Cached per-node threshold statistics (one index version)."""

    max_weight: float
    mean_weight: float
    #: Sort key ``(-w, i, j)`` of the node's (k+1)-th best incident edge,
    #: or ``None`` when the node has at most k incident edges (CNP keeps
    #: an edge iff its key sorts strictly before this cutoff).
    cnp_cutoff: tuple[float, int, int] | None


class StreamingMetaBlocker:
    """Per-node meta-blocking over an :class:`IncrementalBlockIndex`.

    Parameters
    ----------
    index:
        The live block index queries run against.
    weighting:
        A :class:`~repro.graph.weights.WeightingScheme` or its string name.
        ``EJS`` and custom weighting callables are rejected — both need
        whole-graph statistics a per-node query cannot see.
    pruning:
        A node-centric pruning scheme (BLAST's max-based rule by default,
        or WNP / CNP in either variant).  WEP/CEP raise.
    entropy_boost:
        Multiply traditional weights by ``h(B_uv)`` (the ``wsh`` ablation).
    consistency:
        Name of the query view, resolved through
        :data:`repro.core.registry.STREAM_VIEWS` (``"exact"`` or
        ``"fast"`` built in).
    backend:
        ``"vectorized"`` (numpy kernels) or ``"python"`` (reference scalar
        arithmetic); result-identical.
    """

    def __init__(
        self,
        index: IncrementalBlockIndex,
        *,
        weighting: WeightingScheme | str = WeightingScheme.CHI_H,
        pruning: PruningScheme | None = None,
        entropy_boost: bool = False,
        consistency: str = "exact",
        backend: str = "vectorized",
    ) -> None:
        if callable(weighting) and not isinstance(weighting, (str, WeightingScheme)):
            raise TypeError(
                "streaming queries need a named WeightingScheme; custom "
                "weighting callables see the whole graph and cannot be "
                "evaluated per node"
            )
        weighting = WeightingScheme(weighting)
        if weighting is WeightingScheme.EJS:
            raise ValueError(
                "EJS weighting needs the global node-degree distribution "
                "and is not available at query time; use cbs/ecbs/js/arcs/chi_h"
            )
        pruning = pruning if pruning is not None else BlastPruning()
        if type(pruning) not in _NODE_CENTRIC:
            raise ValueError(
                f"{type(pruning).__name__} is not node-centric; streaming "
                "pruning must be one of BlastPruning, WeightNodePruning, "
                "CardinalityNodePruning"
            )
        if backend not in _BACKENDS:
            raise ValueError(
                f"unknown streaming backend {backend!r}; "
                f"choose from {', '.join(_BACKENDS)}"
            )
        self.index = index
        self.weighting = weighting
        self.pruning = pruning
        self.entropy_boost = entropy_boost
        self.consistency = consistency
        self.backend = backend
        self._view = None
        self._view_version: int | None = None
        self._summaries: dict[int, _NodeSummary] = {}
        self._cnp_k_value: tuple[object, int] | None = None
        #: Views built so far, and the wall time spent building them.
        self.view_builds = 0
        self.view_build_seconds = 0.0

    # -- view management -----------------------------------------------------

    def view(self):
        """The current query view, rebuilt lazily after index mutations."""
        if self._view is None or self._view_version != self.index.version:
            from repro.core.registry import STREAM_VIEWS

            start = time.perf_counter()
            self._view = STREAM_VIEWS.get(self.consistency)(self.index)
            self.view_build_seconds += time.perf_counter() - start
            self.view_builds += 1
            self._view_version = self.index.version
            self._summaries.clear()
        return self._view

    # -- public queries ------------------------------------------------------

    def neighborhood(self, ref, source: int = 0) -> list[Candidate]:
        """All co-occurring profiles of *ref* with their edge weights.

        *ref* is a profile id or an (already upserted)
        :class:`~repro.data.profile.EntityProfile`; the result is sorted by
        descending weight (ties by id) and is *unpruned*.
        """
        view, canonical = self._resolve(ref, source)
        stats = view.gather(canonical)
        weights = self._weights(stats, canonical, view)
        return self._to_candidates(
            stats.neighbors, weights, np.ones(weights.size, dtype=bool), view
        )

    def candidates(self, ref, k: int | None = None, source: int = 0) -> list[Candidate]:
        """The retained comparison partners of *ref* after pruning.

        ``k`` optionally caps the result to the top-k by weight (applied
        after pruning; it does not alter the pruning decision itself).
        """
        if k is not None and k < 1:
            raise ValueError(f"k must be positive, got {k}")
        view, canonical = self._resolve(ref, source)
        stats = view.gather(canonical)
        weights = self._weights(stats, canonical, view)
        mask = self._retained_mask(canonical, stats.neighbors, weights, view)
        out = self._to_candidates(stats.neighbors, weights, mask, view)
        return out if k is None else out[:k]

    # -- weighting kernels ---------------------------------------------------

    def _resolve(self, ref, source: int):
        profile_id = getattr(ref, "profile_id", ref)
        node = self.index.node_of(profile_id, source)
        view = self.view()
        return view, view.canonical_of(node)

    def _to_candidates(
        self,
        neighbors: np.ndarray,
        weights: np.ndarray,
        mask: np.ndarray,
        view,
    ) -> list[Candidate]:
        kept = neighbors[mask]
        kept_weights = weights[mask]
        order = np.lexsort((kept, -kept_weights))
        nodes = view.nodes_of(kept[order])
        index = self.index
        return [
            Candidate(
                profile_id=index.profile_of(node).profile_id,
                source=index.source_of(node),
                weight=weight,
            )
            for node, weight in zip(nodes, kept_weights[order].tolist())
        ]

    def _weights(self, stats: NeighborStats, canonical: int, view) -> np.ndarray:
        if stats.degree == 0:
            return np.zeros(0, dtype=np.float64)
        if self.backend == "python":
            return self._weights_python(stats, canonical, view)
        return self._weights_vectorized(stats, canonical, view)

    def _weights_vectorized(self, stats: NeighborStats, q: int, view) -> np.ndarray:
        scheme = self.weighting
        shared = stats.shared
        total = view.total_blocks
        blocks_q = view.node_blocks_scalar(q)
        blocks_n = view.node_blocks(stats.neighbors)
        # Canonical endpoint order (i < j): arithmetic below evaluates the
        # i-side factor first, exactly like the batch loop, so rounding
        # agrees whether the query node is the smaller or larger endpoint.
        n_is_lower = stats.neighbors < q
        blocks_i = np.where(n_is_lower, blocks_n, blocks_q)
        blocks_j = np.where(n_is_lower, blocks_q, blocks_n)

        if scheme is WeightingScheme.CBS:
            weights = shared.astype(np.float64)
        elif scheme is WeightingScheme.ECBS:
            log_n = _safe_log_arr(total, blocks_n)
            ratio = total / blocks_q if blocks_q else 0.0
            log_q = math.log10(ratio) if ratio > 1.0 else 0.0
            log_i = np.where(n_is_lower, log_n, log_q)
            log_j = np.where(n_is_lower, log_q, log_n)
            weights = shared * log_i * log_j
        elif scheme is WeightingScheme.JS:
            weights = shared / (blocks_i + blocks_j - shared)
        elif scheme is WeightingScheme.ARCS:
            weights = stats.arcs_mass.copy()
        else:  # CHI_H
            expected = blocks_i * blocks_j / total
            chi = _chi_squared(shared, blocks_i, blocks_j, total)
            weights = np.where(
                shared <= expected,
                0.0,
                chi * (stats.entropy_mass / shared),
            )
        if self.entropy_boost and scheme is not WeightingScheme.CHI_H:
            weights = weights * (stats.entropy_mass / shared)
        return weights

    def _weights_python(self, stats: NeighborStats, q: int, view) -> np.ndarray:
        scheme = self.weighting
        total = view.total_blocks
        blocks_q = view.node_blocks_scalar(q)
        blocks_n = view.node_blocks(stats.neighbors).tolist()
        out = np.zeros(stats.degree, dtype=np.float64)
        for position, neighbor in enumerate(stats.neighbors.tolist()):
            shared = int(stats.shared[position])
            b_n = blocks_n[position]
            b_i, b_j = (b_n, blocks_q) if neighbor < q else (blocks_q, b_n)
            if scheme is WeightingScheme.CBS:
                weight = float(shared)
            elif scheme is WeightingScheme.ECBS:
                weight = shared * _safe_log(total / b_i) * _safe_log(total / b_j)
            elif scheme is WeightingScheme.JS:
                weight = shared / (b_i + b_j - shared)
            elif scheme is WeightingScheme.ARCS:
                weight = float(stats.arcs_mass[position])
            else:  # CHI_H
                expected = b_i * b_j / total
                if shared <= expected:
                    weight = 0.0
                else:
                    weight = chi_squared(shared, b_i, b_j, total) * (
                        float(stats.entropy_mass[position]) / shared
                    )
            if self.entropy_boost and scheme is not WeightingScheme.CHI_H:
                weight *= float(stats.entropy_mass[position]) / shared
            out[position] = weight
        return out

    # -- node-centric pruning ------------------------------------------------

    def _summary(self, canonical: int, view) -> _NodeSummary:
        """Threshold statistics of one node, cached per index version."""
        summary = self._summaries.get(canonical)
        if summary is None:
            stats = view.gather(canonical)
            weights = self._weights(stats, canonical, view)
            summary = self._summarize(canonical, stats.neighbors, weights)
            self._summaries[canonical] = summary
        return summary

    def _summarize(
        self, canonical: int, neighbors: np.ndarray, weights: np.ndarray
    ) -> _NodeSummary:
        if weights.size == 0:
            return _NodeSummary(0.0, 0.0, None)
        # Neighbors arrive ascending, so the sequential sum reproduces the
        # batch per-node accumulation order (edges in lexicographic order).
        mean = _sequential_sum(weights) / weights.size
        maximum = max(0.0, float(weights.max()))
        cutoff = None
        k = self._cnp_k(None)
        if k is not None and weights.size > k:
            ranked = sorted(self._edge_sort_keys(canonical, neighbors, weights))
            cutoff = ranked[k]
        return _NodeSummary(maximum, mean, cutoff)

    @staticmethod
    def _edge_sort_keys(
        canonical: int, neighbors: np.ndarray, weights: np.ndarray
    ) -> list[tuple[float, int, int]]:
        """Batch CNP ranking keys ``(-w, i, j)`` for one node's edges."""
        return [
            (-w, min(canonical, n), max(canonical, n))
            for n, w in zip(neighbors.tolist(), weights.tolist())
        ]

    def _cnp_k(self, view) -> int | None:
        """The CNP per-node k, or ``None`` when pruning is not CNP.

        Lazily resolved from the view-global block statistics exactly as
        the batch default does (``ceil(sum_i |B_i| / |V|)``); cached per
        view build in ``_cnp_k_value``, keyed by the view it was computed
        from.
        """
        if not isinstance(self.pruning, CardinalityNodePruning):
            return None
        if self.pruning.k is not None:
            return self.pruning.k
        cached = self._cnp_k_value
        if cached is not None and cached[0] is self._view:
            return cached[1]
        view = view if view is not None else self.view()
        k = max(1, math.ceil(view.total_assignments / max(1, view.num_nodes)))
        self._cnp_k_value = (self._view, k)
        return k

    def _retained_mask(
        self,
        q: int,
        neighbors: np.ndarray,
        weights: np.ndarray,
        view,
    ) -> np.ndarray:
        if weights.size == 0:
            return np.zeros(0, dtype=bool)
        pruning = self.pruning
        two_hop = view.supports_neighbor_thresholds

        if isinstance(pruning, BlastPruning):
            theta_q = max(0.0, float(weights.max())) / pruning.c
            if two_hop:
                theta_n = np.fromiter(
                    (
                        self._summary(n, view).max_weight / pruning.c
                        for n in neighbors.tolist()
                    ),
                    dtype=np.float64,
                    count=neighbors.size,
                )
            else:
                theta_n = np.full(neighbors.size, theta_q)
            thresholds = (theta_q + theta_n) / pruning.d
            return (weights > 0.0) & _clears_arr(weights, thresholds)

        if isinstance(pruning, WeightNodePruning):
            theta_q = _sequential_sum(weights) / weights.size
            above_q = _clears_arr(weights, np.full(neighbors.size, theta_q))
            if not two_hop:
                return above_q
            theta_n = np.fromiter(
                (self._summary(n, view).mean_weight for n in neighbors.tolist()),
                dtype=np.float64,
                count=neighbors.size,
            )
            above_n = _clears_arr(weights, theta_n)
            return (above_q & above_n) if pruning.reciprocal else (above_q | above_n)

        # CardinalityNodePruning
        k = self._cnp_k(view)
        keys = self._edge_sort_keys(q, neighbors, weights)
        order = sorted(range(len(keys)), key=keys.__getitem__)
        in_top_q = np.zeros(neighbors.size, dtype=bool)
        in_top_q[order[:k]] = True
        if not two_hop:
            return in_top_q
        in_top_n = np.zeros(neighbors.size, dtype=bool)
        for position, neighbor in enumerate(neighbors.tolist()):
            cutoff = self._summary(neighbor, view).cnp_cutoff
            in_top_n[position] = cutoff is None or keys[position] < cutoff
        return (in_top_q & in_top_n) if pruning.reciprocal else (in_top_q | in_top_n)

    def __repr__(self) -> str:
        return (
            f"StreamingMetaBlocker(weighting={self.weighting.value}, "
            f"pruning={type(self.pruning).__name__}, "
            f"consistency={self.consistency!r}, backend={self.backend!r})"
        )
