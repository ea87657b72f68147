"""Query-time views over a live block index.

A *view* is the bridge between the mutable
:class:`~repro.streaming.index.IncrementalBlockIndex` and the per-node
meta-blocking kernels: it decides how Block Purging / Block Filtering and
the graph statistics (``|B_i|``, ``|B|``, per-block entropy) are evaluated
at query time.  Two built-ins are registered under
:data:`repro.core.registry.STREAM_VIEWS`:

``exact``
    Lazily materializes the *batch* semantics: on the first query after a
    mutation, the live postings are lowered straight from their cached
    sorted arrays into a key-sorted CSR block layout and restructured by
    :func:`~repro.blocking.filtering.purge_and_filter_csr` — the purge
    mask and filter ranking batch Block Purging and Block Filtering run,
    no Python sets or ``Block`` objects — into the CSR
    :class:`~repro.graph.entity_index.EntityIndex` cached until the next
    mutation.  ``tests/property/test_prop_purge_filter_csr.py`` asserts
    the kernel reproduces the keys and CSR arrays of the frozenset oracle
    (``tests/oracles/blocking.py``) exactly, so queries against a frozen
    index reproduce the batch blocking graph statistic-for-statistic —
    this is the mode the stream-vs-batch equivalence property is proven
    against.

``fast``
    Reads the live structures directly with incrementally maintained
    statistics: purging is a per-key size check against the live profile
    count, filtering keeps only the *query* profile in its smallest key
    fraction (co-occurring profiles are not re-filtered), and ``|B_i|`` is
    the raw per-node key count.  O(neighbourhood) per query with zero
    rebuild cost per mutation — the arrival-time serving mode — at the
    price of approximating the batch restructurings.

Both views hand the kernels the same :class:`NeighborStats` arrays, so the
weighting code upstream is shared.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

import numpy as np

from repro.blocking.filtering import purge_and_filter_csr
from repro.graph.entity_index import EntityIndex
from repro.streaming.index import IncrementalBlockIndex

__all__ = ["NeighborStats", "ExactStreamView", "FastStreamView"]


@dataclass(frozen=True)
class NeighborStats:
    """Per-neighbor co-occurrence statistics of one query node.

    ``neighbors`` holds *canonical* ids (view-dependent space), strictly
    ascending; the parallel arrays accumulate, over the shared blocks in
    block order, exactly what :class:`repro.graph.blocking_graph.EdgeStats`
    accumulates edge-wide.
    """

    neighbors: np.ndarray
    shared: np.ndarray
    arcs_mass: np.ndarray
    entropy_mass: np.ndarray

    @property
    def degree(self) -> int:
        return int(self.neighbors.size)


_EMPTY_STATS = NeighborStats(
    neighbors=np.zeros(0, dtype=np.int64),
    shared=np.zeros(0, dtype=np.int64),
    arcs_mass=np.zeros(0, dtype=np.float64),
    entropy_mass=np.zeros(0, dtype=np.float64),
)


def _aggregate(
    members: np.ndarray,
    arcs_share: np.ndarray,
    entropies: np.ndarray,
) -> NeighborStats:
    """Deduplicate co-occurring members into :class:`NeighborStats`.

    ``members`` lists one entry per (block, co-member) incidence in block
    order; ``bincount`` over the ``unique`` inverse accumulates each
    neighbor's float masses in that original order, matching the reference
    path's sequential ``stats.x += ...`` rounding.
    """
    if members.size == 0:
        return _EMPTY_STATS
    neighbors, inverse = np.unique(members, return_inverse=True)
    shared = np.bincount(inverse, minlength=neighbors.size)
    arcs = np.bincount(inverse, weights=arcs_share, minlength=neighbors.size)
    entropy = np.bincount(inverse, weights=entropies, minlength=neighbors.size)
    return NeighborStats(
        neighbors=neighbors.astype(np.int64),
        shared=shared.astype(np.int64),
        arcs_mass=arcs,
        entropy_mass=entropy,
    )


class ExactStreamView:
    """Batch-faithful view: lazily purged + filtered snapshot of the index.

    Canonical ids follow the batch global-indexing convention: source-0
    nodes (in node-id order, i.e. first-upsert order) occupy ``[0, n1)``,
    source-1 nodes ``[n1, n1 + n2)``.  Replaying a dataset in its profile
    order therefore assigns every profile its batch global index.
    """

    name = "exact"
    #: Exact views answer neighbor-side thresholds, enabling the full
    #: two-endpoint node-centric pruning rules.
    supports_neighbor_thresholds = True

    def __init__(self, index: IncrementalBlockIndex) -> None:
        self.index = index
        self.version = index.version
        clean_clean = index.clean_clean

        live = np.asarray(index.live_nodes(), dtype=np.int64)
        if clean_clean:
            sources = np.fromiter(
                map(index.source_of, live.tolist()), dtype=np.int64, count=live.size
            )
            live = live[np.argsort(sources, kind="stable")]
            self.offset2 = int(np.count_nonzero(sources == 0))
        else:
            self.offset2 = int(live.size)
        self._nodes = live  # canonical id -> index node id
        # index node id -> canonical id (-1: not live)
        self._canonical = np.full(
            int(live.max()) + 1 if live.size else 0, -1, dtype=np.int64
        )
        self._canonical[live] = np.arange(live.size, dtype=np.int64)

        # The live postings as a key-sorted CSR layout: one chunk per side
        # of every posting.  Canonical ids preserve node order within a
        # source, so each side stays sorted through the id lookup.
        tokens = list(index.key_dictionary)
        key_ids = sorted(index.key_ids(), key=tokens.__getitem__)
        chunks = [
            side
            for kid in key_ids
            for side in index.posting_by_id(kid).arrays()
            if side is not None
        ]
        sizes = np.fromiter(map(len, chunks), dtype=np.int64, count=len(chunks))
        sizes = sizes.reshape(len(key_ids), 2 if clean_clean else 1)  # key x side
        block_ptr = np.zeros(len(key_ids) + 1, dtype=np.int64)
        np.cumsum(sizes.sum(axis=1), out=block_ptr[1:])
        members = np.concatenate(chunks) if chunks else np.zeros(0, dtype=np.int64)

        positions, ptr, split, ids, comparisons = purge_and_filter_csr(
            block_ptr,
            block_ptr[:-1] + sizes[:, 0],
            self._canonical[members],
            is_clean_clean=clean_clean,
            num_profiles=index.num_profiles,
            purging_ratio=index.purging_ratio,
            max_comparisons=index.max_comparisons,
            filtering_ratio=index.filtering_ratio,
        )
        surviving = [key_ids[position] for position in positions.tolist()]
        ei = EntityIndex.from_arrays(
            clean_clean,
            tuple(map(tokens.__getitem__, surviving)),
            ptr,
            split,
            ids,
            comparisons,
        )
        self._entity_index = ei
        self.total_blocks = ei.num_blocks
        self._node_blocks = ei.node_block_counts
        self._block_ptr = ptr
        self._block_split = split
        self._entity_ids = ids
        self._arcs_share = np.zeros(ei.num_blocks, dtype=np.float64)
        np.divide(1.0, comparisons, out=self._arcs_share, where=comparisons > 0)
        if index.partitioning is None:
            self._entropies = np.ones(ei.num_blocks, dtype=np.float64)
        else:
            self._entropies = np.fromiter(
                map(index.key_entropy_by_id, surviving),
                dtype=np.float64,
                count=len(surviving),
            )

    # -- id mapping ----------------------------------------------------------

    def canonical_of(self, node: int) -> int:
        """Canonical (batch global) id of an index node id."""
        canonical = -1
        if 0 <= node < self._canonical.size:
            canonical = int(self._canonical[node])
        if canonical < 0:
            raise KeyError(f"node {node} is not live")
        return canonical

    def nodes_of(self, canonical: np.ndarray) -> list[int]:
        """Map canonical ids back to index node ids."""
        return self._nodes[canonical].tolist()

    # -- graph statistics ----------------------------------------------------

    @property
    def entity_index(self) -> EntityIndex:
        """CSR index of the purged + filtered blocks, in key order."""
        return self._entity_index

    @property
    def num_nodes(self) -> int:
        """Profiles appearing in at least one (surviving) block."""
        return self._entity_index.num_indexed_profiles

    @property
    def total_assignments(self) -> int:
        """``sum_i |B_i|`` over the purged + filtered collection."""
        return int(self._node_blocks.sum())

    def node_blocks(self, canonical: np.ndarray) -> np.ndarray:
        """``|B_i|`` (filtered) for an array of canonical ids."""
        return self._node_blocks[canonical]

    def node_blocks_scalar(self, canonical: int) -> int:
        if not 0 <= canonical < self._node_blocks.size:
            return 0
        return int(self._node_blocks[canonical])

    def gather(self, canonical: int) -> NeighborStats:
        """Co-occurrence statistics of one canonical node."""
        blocks = self._entity_index.blocks_of(canonical)
        if blocks.size == 0:
            return _EMPTY_STATS
        if self.index.clean_clean:
            if canonical < self.offset2:  # query node on the E1 side
                starts = self._block_split[blocks]
                ends = self._block_ptr[blocks + 1]
            else:
                starts = self._block_ptr[blocks]
                ends = self._block_split[blocks]
        else:
            starts = self._block_ptr[blocks]
            ends = self._block_ptr[blocks + 1]
        lengths = ends - starts
        total = int(lengths.sum())
        if total == 0:
            return _EMPTY_STATS
        offsets = np.zeros(blocks.size, dtype=np.int64)
        np.cumsum(lengths[:-1], out=offsets[1:])
        flat = np.repeat(starts - offsets, lengths) + np.arange(total, dtype=np.int64)
        members = self._entity_ids[flat]
        block_rep = np.repeat(blocks, lengths)
        if not self.index.clean_clean:
            mask = members != canonical
            members = members[mask]
            block_rep = block_rep[mask]
        return _aggregate(
            members,
            self._arcs_share[block_rep],
            self._entropies[block_rep],
        )


class FastStreamView:
    """Read-through view with incremental statistics (serving mode).

    Canonical ids are the index node ids themselves.  Purging is evaluated
    per key against the live profile count; filtering restricts only the
    query node to its smallest-key fraction (ties broken by key, matching
    the batch position order of key-sorted collections); ``|B_i|`` is the
    raw live key count per node.  The batch restructurings are therefore
    approximated, not reproduced — use the ``exact`` view when batch
    parity matters more than arrival-time latency.
    """

    name = "fast"
    supports_neighbor_thresholds = False

    def __init__(self, index: IncrementalBlockIndex) -> None:
        self.index = index
        self.version = index.version

    # -- id mapping ----------------------------------------------------------

    def canonical_of(self, node: int) -> int:
        self.index.profile_of(node)  # KeyError for dead nodes
        return node

    def nodes_of(self, canonical: np.ndarray) -> list[int]:
        return canonical.tolist()

    # -- graph statistics ----------------------------------------------------

    @property
    def total_blocks(self) -> int:
        return self.index.num_blocks

    @property
    def num_nodes(self) -> int:
        return self.index.num_profiles

    @property
    def total_assignments(self) -> int:
        return self.index.total_block_assignments

    def node_blocks(self, canonical: np.ndarray) -> np.ndarray:
        index = self.index
        return np.fromiter(
            (index.node_block_count(n) for n in canonical.tolist()),
            dtype=np.int64,
            count=canonical.size,
        )

    def node_blocks_scalar(self, canonical: int) -> int:
        return self.index.node_block_count(canonical)

    def surviving_keys(self, node: int) -> list[str]:
        """The query node's keys after lazy purging + query-side filtering."""
        index = self.index
        return [index.key_string(kid) for kid in self._surviving_key_ids(node)]

    def _surviving_key_ids(self, node: int) -> list[int]:
        """Interned-id form of :meth:`surviving_keys` (same order).

        Filtering ties on equal posting sizes break by key *string* — the
        batch position order of key-sorted collections — so the sort key
        materializes the string while the result stays in id space.
        """
        index = self.index
        size_cap = index.purging_ratio * index.num_profiles
        max_comparisons = index.max_comparisons
        key_string = index.key_string
        active: list[tuple[int, str, int]] = []
        # Append order is erased by the total-order active.sort() below:
        # the (size, key string, kid) sort key has no ties.
        # repro-lint: disable-next=RL001
        for kid in index.key_ids_of(node):
            posting = index.posting_by_id(kid)
            if posting.num_comparisons == 0:
                continue
            if posting.size > size_cap:
                continue
            if (
                max_comparisons is not None
                and posting.num_comparisons > max_comparisons
            ):
                continue
            active.append((posting.size, key_string(kid), kid))
        if not active:
            return []
        active.sort()
        keep = ceil(index.filtering_ratio * len(active))
        return [kid for _, _, kid in active[:keep]]

    def gather(self, canonical: int) -> NeighborStats:
        index = self.index
        key_ids = self._surviving_key_ids(canonical)
        if not key_ids:
            return _EMPTY_STATS
        source = index.source_of(canonical)
        member_chunks: list[np.ndarray] = []
        arcs_chunks: list[np.ndarray] = []
        entropy_chunks: list[np.ndarray] = []
        for kid in key_ids:
            posting = index.posting_by_id(kid)
            left, right = posting.arrays()
            if index.clean_clean:
                others = right if source == 0 else left
            else:
                others = left[left != canonical]
            if others.size == 0:
                continue
            member_chunks.append(others)
            arcs_chunks.append(np.full(others.size, 1.0 / posting.num_comparisons))
            entropy_chunks.append(np.full(others.size, index.key_entropy_by_id(kid)))
        if not member_chunks:
            return _EMPTY_STATS
        return _aggregate(
            np.concatenate(member_chunks),
            np.concatenate(arcs_chunks),
            np.concatenate(entropy_chunks),
        )
