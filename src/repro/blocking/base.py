"""Blocks and block collections.

A *block* groups profiles that share a blocking key; a *block collection*
(the paper's ``B``) is the set of blocks a blocking technique emits.  Profiles
are referenced by their global indices (see :class:`repro.data.ERDataset`).

Clean-clean blocks keep the two sources separate (``left`` from E1, ``right``
from E2) because only cross-source pairs are comparisons; dirty blocks have a
single member set (``right is None``).
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from functools import cached_property


@dataclass(frozen=True, slots=True)
class Block:
    """One block: a key and the member profiles it indexes.

    Attributes
    ----------
    key:
        The blocking key (token, q-gram, suffix, or ``token#cluster``).
    left:
        Global indices of the members from E1 (all members, for dirty ER).
    right:
        Global indices of the members from E2, or ``None`` for dirty ER.
    """

    key: str
    left: frozenset[int]
    right: frozenset[int] | None = None
    # Lazily-filled cache of the sorted member tuples (a block is
    # immutable, so iter_pairs would otherwise re-sort on every call —
    # a hot path when large blocks are enumerated repeatedly).  Excluded
    # from __eq__/__hash__/repr; written via object.__setattr__ because
    # the dataclass is frozen.
    _sorted_members: tuple[tuple[int, ...], tuple[int, ...] | None] | None = (
        field(default=None, init=False, repr=False, compare=False)
    )

    @property
    def is_clean_clean(self) -> bool:
        return self.right is not None

    @property
    def profiles(self) -> frozenset[int]:
        """All member profiles, regardless of source."""
        if self.right is None:
            return self.left
        return self.left | self.right

    @property
    def size(self) -> int:
        """Number of member profiles."""
        return len(self.left) + (len(self.right) if self.right else 0)

    @property
    def num_comparisons(self) -> int:
        """``||b||``: comparisons the block entails (Section 2)."""
        if self.right is not None:
            return len(self.left) * len(self.right)
        n = len(self.left)
        return n * (n - 1) // 2

    def _pair_order(self) -> tuple[tuple[int, ...], tuple[int, ...] | None]:
        """The member sets as sorted tuples, computed once per block."""
        cached = self._sorted_members
        if cached is None:
            cached = (
                tuple(sorted(self.left)),
                tuple(sorted(self.right)) if self.right is not None else None,
            )
            object.__setattr__(self, "_sorted_members", cached)
        return cached

    def iter_pairs(self) -> Iterator[tuple[int, int]]:
        """Yield the comparison pairs as canonical ``(i, j)`` with ``i < j``,
        in lexicographic order.

        For clean-clean blocks global indexing already guarantees every E1
        index is smaller than every E2 index.  Both member sets are sorted
        before iteration (RL001): frozenset order depends on insertion
        history, so yielding raw set order would stream the same block's
        pairs differently between equal collections built along different
        paths (e.g. batch vs snapshot-restored).  The sorted tuples are
        cached on the (immutable) block, so repeated enumeration pays the
        O(n log n) sort only once.
        """
        left, right = self._pair_order()
        if right is not None:
            for i in left:
                for j in right:
                    yield (i, j)
        else:
            yield from itertools.combinations(left, 2)


class BlockCollection(Sequence[Block]):
    """An ordered collection of blocks emitted by one blocking technique.

    A collection has two views of the same blocks: the ``Block`` objects
    and the CSR :attr:`entity_index`.  It is built from either one
    (``BlockCollection(blocks, ...)`` or :meth:`from_entity_index`) and
    derives the other on first use.  The blockers and the restructuring
    steps produce CSR-built collections, so their ``Block`` objects exist
    only once something iterates or indexes the collection; ``len`` and
    :attr:`aggregate_cardinality` read whichever view is already there.
    """

    def __init__(self, blocks: Iterable[Block], is_clean_clean: bool) -> None:
        self.is_clean_clean = is_clean_clean
        checked: list[Block] = []
        for block in blocks:
            if block.is_clean_clean != is_clean_clean:
                raise ValueError(
                    f"block {block.key!r} kind does not match the collection"
                )
            checked.append(block)
        self._blocks = checked

    @classmethod
    def from_entity_index(cls, index) -> "BlockCollection":
        """A collection stored as *index*; its ``Block`` objects come lazily.

        *index* is a :class:`repro.graph.entity_index.EntityIndex`.
        """
        collection = cls.__new__(cls)
        collection.is_clean_clean = index.is_clean_clean
        collection.entity_index = index
        return collection

    @cached_property
    def _blocks(self) -> list[Block]:
        """The ``Block`` objects of a CSR-built collection, built once."""
        index = self.__dict__.get("entity_index")
        if index is None:
            raise RuntimeError("collection has neither Block objects nor an index")
        ids = index.entity_ids.tolist()
        ptr = index.block_ptr.tolist()
        if not self.is_clean_clean:
            return [
                Block(key, frozenset(ids[start:end]))
                for key, start, end in zip(index.keys, ptr, ptr[1:])
            ]
        return [
            Block(key, frozenset(ids[start:split]), frozenset(ids[split:end]))
            for key, start, split, end in zip(
                index.keys, ptr, index.block_split.tolist(), ptr[1:]
            )
        ]

    def __len__(self) -> int:
        blocks = self.__dict__.get("_blocks")
        if blocks is None:
            return self.entity_index.num_blocks
        return len(blocks)

    def __iter__(self) -> Iterator[Block]:
        return iter(self._blocks)

    def __getitem__(self, index):  # type: ignore[override]
        return self._blocks[index]

    def __repr__(self) -> str:
        return (
            f"BlockCollection(blocks={len(self)}, "
            f"comparisons={self.aggregate_cardinality})"
        )

    @cached_property
    def aggregate_cardinality(self) -> int:
        """``||B||``: total comparisons across all blocks (with redundancy)."""
        index = self.__dict__.get("entity_index")
        if index is None:
            return sum(block.num_comparisons for block in self._blocks)
        return index.total_comparisons

    @cached_property
    def profile_block_sets(self) -> dict[int, frozenset[int]]:
        """``B_i`` for every profile: the set of block positions containing it."""
        mutable: dict[int, set[int]] = {}
        for position, block in enumerate(self._blocks):
            for profile in block.profiles:
                mutable.setdefault(profile, set()).add(position)
        return {profile: frozenset(s) for profile, s in mutable.items()}

    @property
    def num_indexed_profiles(self) -> int:
        """How many distinct profiles appear in at least one block."""
        return len(self.profile_block_sets)

    @cached_property
    def entity_index(self):
        """CSR array view of the collection (cached).

        The flat ``block_ptr``/``entity_ids``/cardinality arrays that Block
        Purging, Block Filtering, the vectorized meta-blocking backend and
        the pair-streaming helpers operate on; see
        :class:`repro.graph.entity_index.EntityIndex`.  The storage of a
        CSR-built collection; lowered from the ``Block`` objects otherwise.
        """
        from repro.graph.entity_index import EntityIndex

        return EntityIndex.from_collection(self)

    def iter_distinct_pairs(self) -> Iterator[tuple[int, int]]:
        """Stream the distinct comparison pairs in lexicographic order.

        Deduplication happens array-side when this method is *called*
        (one enumeration + sort, transiently O(||B||) array memory, a
        fraction of a Python set of tuples); the returned iterator then
        yields without further per-pair work.  Prefer this over
        :meth:`distinct_pairs` whenever a single pass is enough
        (matching, counting, writing pairs out).
        """
        src, dst = self.entity_index.distinct_pair_arrays()

        def generate() -> Iterator[tuple[int, int]]:
            chunk = 1 << 16
            for start in range(0, len(src), chunk):
                yield from zip(
                    src[start : start + chunk].tolist(),
                    dst[start : start + chunk].tolist(),
                )

        return generate()

    def count_distinct_pairs(self) -> int:
        """Number of distinct comparison pairs, without a Python pair set.

        Still enumerates every comparison array-side (transiently
        O(||B||) memory, like :meth:`iter_distinct_pairs`) — cheaper than
        a set of tuples by a large constant factor, not asymptotically.
        """
        return len(self.entity_index.distinct_pair_arrays()[0])

    def distinct_pairs(self) -> set[tuple[int, int]]:
        """All distinct comparison pairs implied by the collection.

        Materializes the pair set — only call when set semantics are
        actually needed; :meth:`iter_distinct_pairs` streams the same
        pairs and :meth:`count_distinct_pairs` counts them.
        """
        return set(self.iter_distinct_pairs())

    def filter_blocks(self, predicate: Callable[[Block], bool]) -> "BlockCollection":
        """A new collection keeping only blocks satisfying *predicate*."""
        return BlockCollection(
            (block for block in self._blocks if predicate(block)),
            self.is_clean_clean,
        )


def build_blocks(
    keyed_members: dict[str, tuple[set[int], set[int]]] | dict[str, set[int]],
    is_clean_clean: bool,
) -> BlockCollection:
    """Assemble a :class:`BlockCollection` from a key -> members mapping.

    Blocks that imply no comparison (single-member dirty blocks, clean-clean
    blocks missing one side) are dropped here, once, instead of in every
    blocker.  Keys are emitted in sorted order for determinism.
    """
    blocks: list[Block] = []
    for key in sorted(keyed_members):
        members = keyed_members[key]
        if is_clean_clean:
            left, right = members  # type: ignore[misc]
            if left and right:
                blocks.append(Block(key, frozenset(left), frozenset(right)))
        else:
            group = members  # type: ignore[assignment]
            if len(group) >= 2:
                blocks.append(Block(key, frozenset(group)))
    return BlockCollection(blocks, is_clean_clean)
