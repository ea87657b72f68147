"""Block Filtering [Papadakis et al., EDBT 2016] — Section 4.1 of the paper.

A light-weight, schema-free pre-meta-blocking step: each profile stays only
in the most significant fraction of its blocks (the smallest ones, since
small blocks carry more discriminating keys).  The paper filters out the 20%
least significant blocks per profile (footnote 9).

One implementation, on CSR block layouts: :func:`filter_csr` ranks every
profile's blocks with a single sort and keeps the first
``ceil(ratio * |B_i|)``.  :func:`block_filtering` runs it on a collection's
:class:`~repro.graph.entity_index.EntityIndex`, and
:func:`purge_and_filter_csr` composes it with the Block Purging mask for
the ``exact`` streaming view.  The frozenset formulation the paper states
is the test oracle (``tests/oracles/blocking.py``).
"""

from __future__ import annotations

import numpy as np

from repro.blocking.base import BlockCollection
from repro.blocking.purging import purge_mask
from repro.graph.entity_index import EntityIndex
from repro.utils.arrays import segment_positions


def block_filtering(collection: BlockCollection, ratio: float = 0.8) -> BlockCollection:
    """Retain each profile in the ``ceil(ratio * |B_i|)`` smallest of its blocks.

    Parameters
    ----------
    collection:
        The block collection to restructure.
    ratio:
        Fraction of blocks each profile is kept in (0 < ratio <= 1).  The
        paper's default keeps 80%.

    Returns
    -------
    BlockCollection
        A new collection in which every block retains only the memberships
        that survived filtering; blocks left without any comparison are
        dropped.  It is stored as an entity index; its ``Block`` objects
        are built only if something iterates it.
    """
    if not 0.0 < ratio <= 1.0:
        raise ValueError(f"ratio must be in (0, 1], got {ratio}")
    index = collection.entity_index
    positions, ptr, split, ids, comparisons = filter_csr(
        index.block_ptr,
        index.block_split,
        index.entity_ids,
        np.arange(index.num_blocks, dtype=np.int64),
        is_clean_clean=index.is_clean_clean,
        ratio=ratio,
    )
    keys = index.keys
    return BlockCollection.from_entity_index(
        EntityIndex.from_arrays(
            is_clean_clean=index.is_clean_clean,
            keys=tuple(keys[p] for p in positions.tolist()),
            block_ptr=ptr,
            block_split=split,
            entity_ids=ids,
            block_comparisons=comparisons,
        )
    )


def _comparisons(
    left: np.ndarray, right: np.ndarray, is_clean_clean: bool
) -> np.ndarray:
    """``||b||`` per block from its per-side member counts."""
    if is_clean_clean:
        return left * right
    return left * (left - 1) // 2


def filter_csr(
    block_ptr: np.ndarray,
    block_split: np.ndarray,
    entity_ids: np.ndarray,
    blocks: np.ndarray,
    *,
    is_clean_clean: bool,
    ratio: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Block Filtering of the blocks at *blocks* of a CSR block layout.

    Parameters
    ----------
    block_ptr / block_split / entity_ids:
        The blocks laid out as in
        :class:`~repro.graph.entity_index.EntityIndex`: block *b*'s members
        are ``entity_ids[block_ptr[b]:block_ptr[b + 1]]``, E1 members
        before ``block_split[b]`` and E2 members from it, each side sorted
        ascending.
    blocks:
        Ascending positions of the blocks to filter (the others are
        ignored, as if absent).  Blocks without comparisons still count
        towards their members' ``|B_i|``, as in the paper's definition.
    is_clean_clean:
        Whether only cross-source pairs are comparisons.
    ratio:
        Fraction of its blocks each profile is kept in, validated by the
        callers.

    Returns
    -------
    tuple
        ``(positions, block_ptr, block_split, entity_ids,
        block_comparisons)``: the input positions of the blocks that still
        imply a comparison, ascending, and their restructured CSR arrays
        (``int64``).
    """
    ptr = np.asarray(block_ptr, dtype=np.int64)
    split = np.asarray(block_split, dtype=np.int64)
    blocks = np.asarray(blocks, dtype=np.int64)
    starts = ptr[:-1][blocks]
    counts = ptr[1:][blocks] - starts

    # One row per (block, member) incidence, in block-major order.
    flat, _ = segment_positions(starts, counts)
    local = np.repeat(np.arange(blocks.size, dtype=np.int64), counts)
    entity = np.asarray(entity_ids, dtype=np.int64)[flat]
    is_left = flat < np.repeat(split[blocks], counts)

    # Rank each entity's blocks by (size, position) and keep the
    # ceil(ratio * |B_i|) first.  The blocks are ordered by (size,
    # position) once; one sort of (entity, that order) then ranks every
    # entity's blocks.
    block_order = np.empty(blocks.size, dtype=np.int64)
    block_order[np.argsort(counts, kind="stable")] = np.arange(
        blocks.size, dtype=np.int64
    )
    order = np.argsort(entity * max(1, blocks.size) + block_order[local])
    ranked = entity[order]
    degree = (
        np.bincount(ranked) if ranked.size else np.zeros(0, dtype=np.int64)
    )
    first = np.zeros(degree.size, dtype=np.int64)
    np.cumsum(degree[:-1], out=first[1:])
    rank = np.arange(ranked.size, dtype=np.int64) - first[ranked]
    retained = np.zeros(ranked.size, dtype=bool)
    retained[order] = rank < np.ceil(ratio * degree)[ranked]

    # Drop the blocks filtering left without comparisons.
    left = np.bincount(local[retained & is_left], minlength=blocks.size)
    right = np.bincount(local[retained & ~is_left], minlength=blocks.size)
    kept_comparisons = _comparisons(left, right, is_clean_clean)
    survives = kept_comparisons > 0
    out_sizes = (left + right)[survives]
    out_ptr = np.zeros(out_sizes.size + 1, dtype=np.int64)
    np.cumsum(out_sizes, out=out_ptr[1:])
    return (
        blocks[survives],
        out_ptr,
        out_ptr[:-1] + left[survives],
        entity[retained & survives[local]],
        kept_comparisons[survives],
    )


def purge_and_filter_csr(
    block_ptr: np.ndarray,
    block_split: np.ndarray,
    entity_ids: np.ndarray,
    *,
    is_clean_clean: bool,
    num_profiles: int,
    purging_ratio: float = 0.5,
    max_comparisons: int | None = None,
    filtering_ratio: float = 0.8,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Block Purging + Block Filtering on a CSR block layout.

    The array form of ``block_filtering(block_purging(build_blocks(...)))``
    for a key-sorted block layout: the result equals that chain's
    :class:`~repro.graph.entity_index.EntityIndex` array for array.

    Parameters
    ----------
    block_ptr / block_split / entity_ids:
        The input blocks in key-sorted order, laid out as in
        :func:`filter_csr`.  Blocks without comparisons are allowed (and
        dropped, as :func:`~repro.blocking.base.build_blocks` drops them).
    is_clean_clean:
        Whether only cross-source pairs are comparisons.
    num_profiles:
        Profiles in the dataset; the purging cap is
        ``purging_ratio * num_profiles`` members.
    purging_ratio / max_comparisons:
        Block Purging parameters, as in
        :func:`~repro.blocking.purging.block_purging`.
    filtering_ratio:
        Block Filtering ratio, as in :func:`block_filtering`.

    Returns
    -------
    tuple
        As :func:`filter_csr`: the input positions of the surviving
        blocks, ascending, and their restructured CSR arrays (``int64``).
    """
    if not 0.0 < purging_ratio <= 1.0:
        raise ValueError(f"purging_ratio must be in (0, 1], got {purging_ratio}")
    if not 0.0 < filtering_ratio <= 1.0:
        raise ValueError(f"filtering_ratio must be in (0, 1], got {filtering_ratio}")
    ptr = np.asarray(block_ptr, dtype=np.int64)
    split = np.asarray(block_split, dtype=np.int64)
    comparisons = _comparisons(split - ptr[:-1], ptr[1:] - split, is_clean_clean)
    keep = (comparisons > 0) & purge_mask(
        ptr[1:] - ptr[:-1],
        comparisons,
        num_profiles=num_profiles,
        max_profile_ratio=purging_ratio,
        max_comparisons=max_comparisons,
    )
    return filter_csr(
        ptr,
        split,
        entity_ids,
        np.flatnonzero(keep),
        is_clean_clean=is_clean_clean,
        ratio=filtering_ratio,
    )
