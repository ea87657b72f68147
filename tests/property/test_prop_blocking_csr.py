"""Property-based equivalence: CSR-stored blocking vs the frozenset oracle.

Every interned blocker returns a collection stored as its CSR
:class:`~repro.graph.entity_index.EntityIndex`, and Block Purging and Block
Filtering run on those arrays.  On random clean-clean and dirty datasets,
for every such blocker and for a collection assembled from ``Block``
objects (canopy clustering), ``block_filtering(block_purging(...))`` must
equal the frozenset oracles of ``tests/oracles/blocking.py`` block for
block (keys, order, member sets) and array for array (dtypes included).

The file also pins the properties the lazy ``Block`` view relies on: a
CSR-stored collection survives ``pickle`` and ``copy``, and a default
``Blast().run`` builds no ``Block`` before meta-blocking.
"""

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import blocking as oracle
from repro import Blast, load_clean_clean
from repro.blocking.base import Block, BlockCollection
from repro.blocking.canopy import CanopyBlocking
from repro.blocking.filtering import block_filtering
from repro.blocking.purging import block_purging
from repro.blocking.qgrams import QGramsBlocking
from repro.blocking.schema_aware import LooselySchemaAwareBlocking
from repro.blocking.standard import StandardBlocking
from repro.blocking.suffix_array import SuffixArrayBlocking
from repro.blocking.token import TokenBlocking
from repro.core.stages import SchemaExtraction
from repro.data import EntityCollection, EntityProfile, ERDataset, GroundTruth
from repro.graph.entity_index import EntityIndex
from repro.graph.metablocking import MetaBlocker

ATTRIBUTES = ("name", "job", "city")
WORDS = ("abram", "ellen", "smith", "jones", "retail", "york", "main", "st")

ARRAYS = (
    "block_ptr",
    "block_split",
    "entity_ids",
    "block_comparisons",
    "node_block_counts",
)

BLOCKERS = {
    "token": lambda dataset: TokenBlocking(),
    "schema-aware": lambda dataset: LooselySchemaAwareBlocking(
        SchemaExtraction().extract(dataset)
    ),
    "schema-aware-qgram": lambda dataset: LooselySchemaAwareBlocking(
        SchemaExtraction().extract(dataset), transformation="qgram"
    ),
    "standard-token": lambda dataset: StandardBlocking(
        {"name": "name", "job": "city"}, key_mode="token"
    ),
    "qgrams": lambda dataset: QGramsBlocking(q=3),
    "suffix-array": lambda dataset: SuffixArrayBlocking(3, 6),
    "canopy": lambda dataset: CanopyBlocking(0.2, 0.6, seed=7),
}


def _profiles(prefix):
    return st.lists(
        st.lists(
            st.tuples(
                st.sampled_from(ATTRIBUTES),
                st.lists(st.sampled_from(WORDS), min_size=1, max_size=3).map(
                    " ".join
                ),
            ),
            max_size=3,
        ),
        min_size=1,
        max_size=9,
    ).map(
        lambda rows: [
            EntityProfile(f"{prefix}{n}", tuple(pairs)) for n, pairs in enumerate(rows)
        ]
    )


datasets = st.one_of(
    _profiles("d").map(
        lambda items: ERDataset(
            EntityCollection(items, "web"),
            None,
            GroundTruth([], clean_clean=False),
            name="prop-dirty",
        )
    ),
    st.tuples(_profiles("a"), _profiles("b")).map(
        lambda pair: ERDataset(
            EntityCollection(pair[0], "S1"),
            EntityCollection(pair[1], "S2"),
            GroundTruth([]),
            name="prop-cc",
        )
    ),
)

ratios = st.one_of(
    st.just(1.0),
    st.sampled_from([0.05, 0.2, 0.5, 0.8]),
    st.floats(min_value=0.01, max_value=1.0),
)


def assert_same_collection(got: BlockCollection, expected: BlockCollection) -> None:
    """Same blocks in the same order, and the same CSR arrays and dtypes."""
    assert got.is_clean_clean == expected.is_clean_clean
    # Counted before iterating: a CSR-stored collection answers from its index.
    assert len(got) == len(expected)
    assert got.aggregate_cardinality == expected.aggregate_cardinality
    assert [(b.key, b.left, b.right) for b in got] == [
        (b.key, b.left, b.right) for b in expected
    ]
    ours, reference = got.entity_index, EntityIndex.from_collection(expected)
    assert ours.keys == reference.keys
    for name in ARRAYS:
        got_array, want_array = getattr(ours, name), getattr(reference, name)
        assert got_array.dtype == want_array.dtype, name
        np.testing.assert_array_equal(got_array, want_array, err_msg=name)


@pytest.mark.parametrize("blocker", sorted(BLOCKERS))
@settings(deadline=None, max_examples=30)
@given(
    dataset=datasets,
    purging_ratio=ratios,
    filtering_ratio=ratios,
    max_comparisons=st.one_of(st.none(), st.integers(min_value=0, max_value=12)),
)
def test_purge_then_filter_matches_the_oracle(
    blocker, dataset, purging_ratio, filtering_ratio, max_comparisons
):
    raw = BLOCKERS[blocker](dataset).build(dataset)
    purged = block_purging(
        raw,
        dataset.num_profiles,
        max_profile_ratio=purging_ratio,
        max_comparisons=max_comparisons,
    )
    filtered = block_filtering(purged, ratio=filtering_ratio)
    unpurged = block_filtering(raw, ratio=filtering_ratio)

    blocks = BlockCollection(list(raw), raw.is_clean_clean)
    expected_purged = oracle.block_purging(
        blocks,
        dataset.num_profiles,
        max_profile_ratio=purging_ratio,
        max_comparisons=max_comparisons,
    )
    assert_same_collection(purged, expected_purged)
    assert_same_collection(
        filtered, oracle.block_filtering(expected_purged, ratio=filtering_ratio)
    )
    assert_same_collection(
        unpurged, oracle.block_filtering(blocks, ratio=filtering_ratio)
    )


def test_interned_blockers_store_their_index():
    dataset = load_clean_clean("ar1", scale=0.1, seed=3)
    for name, make in BLOCKERS.items():
        collection = make(dataset).build(dataset)
        stored = "entity_index" in vars(collection)
        assert stored == (name != "canopy"), name
        assert "_blocks" not in vars(block_filtering(collection)), name


def _collections():
    dataset = load_clean_clean("ar1", scale=0.1, seed=3)
    dirty = ERDataset(
        dataset.collection1, None, GroundTruth([], clean_clean=False), name="d"
    )
    for source in (dataset, dirty):
        raw = TokenBlocking().build(source)
        yield block_filtering(block_purging(raw, source.num_profiles))


@pytest.mark.parametrize("materialize", [False, True])
@pytest.mark.parametrize(
    "round_trip",
    [
        lambda c: pickle.loads(pickle.dumps(c)),
        copy.copy,
        copy.deepcopy,
    ],
    ids=["pickle", "copy", "deepcopy"],
)
def test_csr_collection_round_trips(round_trip, materialize):
    for collection in _collections():
        if materialize:
            list(collection)
        clone = round_trip(collection)
        assert_same_collection(
            clone, BlockCollection(list(collection), collection.is_clean_clean)
        )


def test_empty_csr_collection():
    empty = block_filtering(
        block_purging(BlockCollection([], is_clean_clean=False), 10)
    )
    assert len(empty) == 0
    assert empty.aggregate_cardinality == 0
    assert list(empty) == []
    assert_same_collection(empty, BlockCollection([], is_clean_clean=False))


def test_default_blast_run_builds_no_block_before_metablocking(monkeypatch):
    dataset = load_clean_clean("ar1", scale=0.2, seed=5)
    built = []
    seen_at_metablocking = []
    original_init = Block.__init__
    original_run = MetaBlocker.run

    def counting_init(self, *args, **kwargs):
        built.append(1)
        original_init(self, *args, **kwargs)

    def spying_run(self, collection):
        seen_at_metablocking.append(len(built))
        return original_run(self, collection)

    monkeypatch.setattr(Block, "__init__", counting_init)
    monkeypatch.setattr(MetaBlocker, "run", spying_run)
    result = Blast().run(dataset)

    assert seen_at_metablocking == [0]
    # The meta-blocking output is built eagerly: one block per retained pair.
    assert len(built) == len(result.blocks) > 0
    assert "_blocks" not in vars(result.initial_blocks)
