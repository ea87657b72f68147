"""Property-based equivalence: the CSR purge/filter kernel vs the oracle.

The ``exact`` streaming view restructures its blocks with
:func:`~repro.blocking.filtering.purge_and_filter_csr`.  The batch chain
``build_blocks -> block_purging -> block_filtering ->
EntityIndex.from_collection`` over ``Block`` objects, with the frozenset
oracles of ``tests/oracles/blocking.py``, is the reference: on
random live indexes — clean-clean and dirty, after upsert/delete/re-upsert
cycles, with and without a comparison cap, with ratios from tiny to 1.0 —
the view's entity index must equal the oracle's keys and all five CSR
arrays exactly.  A small vocabulary makes many blocks the same size, so
the position tie-break of Block Filtering is exercised constantly.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles.blocking import block_filtering, block_purging
from repro.blocking.base import build_blocks
from repro.blocking.filtering import purge_and_filter_csr
from repro.data import EntityProfile
from repro.graph.entity_index import EntityIndex
from repro.streaming import IncrementalBlockIndex
from repro.streaming.views import ExactStreamView

WORDS = ("abram", "ellen", "smith", "jones", "retail", "york", "main")

ARRAYS = (
    "block_ptr",
    "block_split",
    "entity_ids",
    "block_comparisons",
    "node_block_counts",
)


def oracle_index(index: IncrementalBlockIndex) -> EntityIndex:
    """The live index lowered through the Python ``Block`` path."""
    live = sorted(index.live_nodes(), key=lambda n: (index.source_of(n), n))
    canonical = {node: position for position, node in enumerate(live)}
    keyed: dict = {}
    for key in index.keys():
        posting = index.posting(key)
        left = {canonical[n] for n in posting.left}
        if index.clean_clean:
            keyed[key] = (left, {canonical[n] for n in posting.right or ()})
        else:
            keyed[key] = left
    collection = build_blocks(keyed, is_clean_clean=index.clean_clean)
    if len(collection) and index.num_profiles:
        collection = block_purging(
            collection,
            index.num_profiles,
            max_profile_ratio=index.purging_ratio,
            max_comparisons=index.max_comparisons,
        )
        collection = block_filtering(collection, ratio=index.filtering_ratio)
    return EntityIndex.from_collection(collection)


def assert_same_index(got: EntityIndex, expected: EntityIndex) -> None:
    assert got.keys == expected.keys
    for name in ARRAYS:
        got_array, expected_array = getattr(got, name), getattr(expected, name)
        assert got_array.dtype == expected_array.dtype, name
        np.testing.assert_array_equal(got_array, expected_array, err_msg=name)


ratios = st.one_of(
    st.just(1.0),
    st.sampled_from([0.05, 0.2, 0.5, 0.8]),
    st.floats(min_value=0.01, max_value=1.0),
)

# One operation: (kind, profile slot, source, words).
operations = st.lists(
    st.tuples(
        st.sampled_from(["upsert", "upsert", "upsert", "delete"]),
        st.integers(min_value=0, max_value=11),
        st.integers(min_value=0, max_value=1),
        st.lists(st.sampled_from(WORDS), min_size=0, max_size=4),
    ),
    max_size=40,
)


@settings(max_examples=300, deadline=None)
@given(
    clean_clean=st.booleans(),
    ops=operations,
    purging_ratio=ratios,
    filtering_ratio=ratios,
    max_comparisons=st.one_of(st.none(), st.integers(min_value=0, max_value=12)),
)
def test_view_index_matches_the_block_oracle(
    clean_clean, ops, purging_ratio, filtering_ratio, max_comparisons
):
    index = IncrementalBlockIndex(
        clean_clean=clean_clean,
        purging_ratio=purging_ratio,
        filtering_ratio=filtering_ratio,
        max_comparisons=max_comparisons,
    )
    for kind, slot, source, words in ops:
        source = source if clean_clean else 0
        if kind == "delete":
            index.delete(f"p{slot}", source)
        else:
            profile = EntityProfile.from_dict(f"p{slot}", {"name": " ".join(words)})
            index.upsert(profile, source)
        assert_same_index(ExactStreamView(index).entity_index, oracle_index(index))


@pytest.mark.parametrize("clean_clean", [False, True])
def test_empty_index(clean_clean):
    index = IncrementalBlockIndex(clean_clean=clean_clean)
    assert_same_index(ExactStreamView(index).entity_index, oracle_index(index))


@pytest.mark.parametrize("clean_clean", [False, True])
def test_every_block_purged(clean_clean):
    index = IncrementalBlockIndex(clean_clean=clean_clean, purging_ratio=0.01)
    for slot in range(6):
        profile = EntityProfile.from_dict(f"p{slot}", {"name": "john smith"})
        index.upsert(profile, slot % 2 if clean_clean else 0)
    view = ExactStreamView(index)
    assert view.total_blocks == 0
    assert_same_index(view.entity_index, oracle_index(index))


@pytest.mark.parametrize("clean_clean", [False, True])
def test_every_profile_deleted(clean_clean):
    index = IncrementalBlockIndex(clean_clean=clean_clean)
    for slot in range(4):
        profile = EntityProfile.from_dict(f"p{slot}", {"name": "john smith"})
        index.upsert(profile, slot % 2 if clean_clean else 0)
    for slot in range(4):
        index.delete(f"p{slot}", slot % 2 if clean_clean else 0)
    assert_same_index(ExactStreamView(index).entity_index, oracle_index(index))


def test_equal_sizes_tie_break_by_position():
    # Entity 0 sits in three two-member blocks; ceil(0.5 * 3) = 2 keeps it
    # in the first two positions only.
    positions, ptr, split, ids, comparisons = purge_and_filter_csr(
        np.array([0, 2, 4, 6]),
        np.array([2, 4, 6]),
        np.array([0, 1, 0, 2, 0, 3]),
        is_clean_clean=False,
        num_profiles=4,
        purging_ratio=1.0,
        filtering_ratio=0.5,
    )
    assert positions.tolist() == [0, 1]
    assert ptr.tolist() == [0, 2, 4]
    assert split.tolist() == [2, 4]
    assert ids.tolist() == [0, 1, 0, 2]
    assert comparisons.tolist() == [1, 1]


@pytest.mark.parametrize(
    "kwargs",
    [{"purging_ratio": 0.0}, {"filtering_ratio": 1.5}],
)
def test_ratio_validation(kwargs):
    empty = np.zeros(0, dtype=np.int64)
    with pytest.raises(ValueError, match="ratio"):
        purge_and_filter_csr(
            np.zeros(1, dtype=np.int64),
            empty,
            empty,
            is_clean_clean=False,
            num_profiles=1,
            **kwargs,
        )
