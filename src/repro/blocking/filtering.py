"""Block Filtering [Papadakis et al., EDBT 2016] — Section 4.1 of the paper.

A light-weight, schema-free pre-meta-blocking step: each profile stays only
in the most significant fraction of its blocks (the smallest ones, since
small blocks carry more discriminating keys).  The paper filters out the 20%
least significant blocks per profile (footnote 9).

Two implementations live here.  :func:`block_filtering` restructures a
:class:`~repro.blocking.base.BlockCollection` of ``Block`` objects (the
batch path, and the reference oracle).  :func:`purge_and_filter_csr` runs
Block Purging and Block Filtering together on a CSR block layout, with no
Python sets or ``Block`` objects; the ``exact`` streaming view rebuilds
from it, and ``tests/property/test_prop_purge_filter_csr.py`` binds its
output to ``block_filtering(block_purging(build_blocks(...)))``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.blocking.base import Block, BlockCollection


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
        dropped.
    """
    if not 0.0 < ratio <= 1.0:
        raise ValueError(f"ratio must be in (0, 1], got {ratio}")

    # Rank each profile's blocks by ascending size (ties broken by position
    # for determinism) and mark the retained (profile, block) memberships.
    sizes = [block.size for block in collection]
    retained: dict[int, set[int]] = {}  # block position -> kept profiles
    for profile, positions in collection.profile_block_sets.items():
        ranked = sorted(positions, key=lambda pos: (sizes[pos], pos))
        keep = math.ceil(ratio * len(ranked))
        for pos in ranked[:keep]:
            retained.setdefault(pos, set()).add(profile)

    blocks: list[Block] = []
    for position, block in enumerate(collection):
        kept = retained.get(position)
        if not kept:
            continue
        if collection.is_clean_clean:
            left = frozenset(block.left & kept)
            right = frozenset((block.right or frozenset()) & kept)
            if left and right:
                blocks.append(Block(block.key, left, right))
        else:
            members = frozenset(block.left & kept)
            if len(members) >= 2:
                blocks.append(Block(block.key, members))
    return BlockCollection(blocks, collection.is_clean_clean)


def _comparisons(
    left: np.ndarray, right: np.ndarray, is_clean_clean: bool
) -> np.ndarray:
    """``||b||`` per block from its per-side member counts."""
    if is_clean_clean:
        return left * right
    return left * (left - 1) // 2


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
        :class:`~repro.graph.entity_index.EntityIndex`: block *b*'s members
        are ``entity_ids[block_ptr[b]:block_ptr[b + 1]]``, E1 members
        before ``block_split[b]`` and E2 members from it, each side sorted
        ascending.  Blocks without comparisons are allowed (and dropped).
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
        ``(positions, block_ptr, block_split, entity_ids,
        block_comparisons)``: the input positions of the surviving blocks,
        ascending, and their restructured CSR arrays (``int64``).
    """
    if not 0.0 < purging_ratio <= 1.0:
        raise ValueError(f"purging_ratio must be in (0, 1], got {purging_ratio}")
    if not 0.0 < filtering_ratio <= 1.0:
        raise ValueError(f"filtering_ratio must be in (0, 1], got {filtering_ratio}")
    ptr = np.asarray(block_ptr, dtype=np.int64)
    split = np.asarray(block_split, dtype=np.int64)
    members = np.asarray(entity_ids, dtype=np.int64)
    starts = ptr[:-1]
    sizes = ptr[1:] - starts
    comparisons = _comparisons(split - starts, ptr[1:] - split, is_clean_clean)

    # build_blocks drops blocks without comparisons; Block Purging drops
    # oversized ones.
    keep = (comparisons > 0) & (sizes <= purging_ratio * num_profiles)
    if max_comparisons is not None:
        keep &= comparisons <= max_comparisons
    blocks = np.flatnonzero(keep)
    counts = sizes[blocks]

    # One row per (block, member) incidence of the purged blocks, in
    # block-major order.
    total = int(counts.sum())
    local = np.repeat(np.arange(blocks.size, dtype=np.int64), counts)
    offsets = np.zeros(blocks.size, dtype=np.int64)
    np.cumsum(counts[:-1], out=offsets[1:])
    flat = starts[blocks][local] + np.arange(total, dtype=np.int64) - offsets[local]
    entity = members[flat]
    is_left = flat < split[blocks][local]

    # Block Filtering: rank each entity's blocks by (size, position) and
    # keep the ceil(ratio * |B_i|) first, with the float expression of
    # block_filtering's math.ceil(ratio * len(ranked)).
    order = np.lexsort((blocks[local], counts[local], entity))
    ranked = entity[order]
    degree = np.bincount(ranked) if total else np.zeros(0, dtype=np.int64)
    first = np.zeros(degree.size, dtype=np.int64)
    np.cumsum(degree[:-1], out=first[1:])
    rank = np.arange(total, dtype=np.int64) - first[ranked]
    retained = np.zeros(total, dtype=bool)
    retained[order] = rank < np.ceil(filtering_ratio * degree)[ranked]

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
