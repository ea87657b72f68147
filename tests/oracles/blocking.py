"""Block Purging and Block Filtering over ``Block`` objects and frozensets.

The direct transcription of Section 4.1: purging tests every block against
the size and comparison caps, filtering ranks each profile's block
positions by ``(size, position)`` in a Python sort.  The program runs both
steps on CSR arrays (``repro.blocking.purging`` /
``repro.blocking.filtering``); the property suites require its output to
equal these functions' block for block and array for array.
"""

from __future__ import annotations

import math

from repro.blocking.base import Block, BlockCollection


def block_purging(
    collection: BlockCollection,
    num_profiles: int,
    max_profile_ratio: float = 0.5,
    max_comparisons: int | None = None,
) -> BlockCollection:
    """Drop blocks with more than ``ratio * num_profiles`` members or more
    than *max_comparisons* comparisons."""
    if not 0.0 < max_profile_ratio <= 1.0:
        raise ValueError(f"max_profile_ratio must be in (0, 1], got {max_profile_ratio}")
    if num_profiles <= 0:
        raise ValueError(f"num_profiles must be positive, got {num_profiles}")
    size_cap = max_profile_ratio * num_profiles

    def keep(block) -> bool:
        if block.size > size_cap:
            return False
        if max_comparisons is not None and block.num_comparisons > max_comparisons:
            return False
        return True

    return collection.filter_blocks(keep)


def block_filtering(collection: BlockCollection, ratio: float = 0.8) -> BlockCollection:
    """Retain each profile in the ``ceil(ratio * |B_i|)`` smallest of its
    blocks; drop blocks left without comparisons."""
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
