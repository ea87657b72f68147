"""Batch workloads: one whole BLAST run, from in-memory profiles to blocks.

Untraced runs time ``Blast(config).run(dataset)`` end to end.  Traced
runs alternate that call with a layer-by-layer execution of the same
pipeline through each layer's public function, timed from outside, and
check that both produce the same retained pairs.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from measure import (
    PeakMemory,
    Result,
    TreeMemory,
    children_of,
    cpu_seconds,
    median,
    mib,
    pair_digest,
    source_fingerprint,
)

#: Setups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Timed iterations a run makes even when ``--seconds`` is shorter.
MIN_ITERATIONS = 3


@dataclass(frozen=True)
class BatchWorkload:
    """A generated dataset and the BLAST configuration run over it."""

    name: str
    dataset: str
    scale: float
    config: dict = field(default_factory=dict)


def generate(spec: BatchWorkload, seed: int):
    from repro import load_clean_clean, load_dirty

    if spec.dataset == "census":
        return load_dirty("census", scale=spec.scale, seed=seed)
    return load_clean_clean(spec.dataset, scale=spec.scale, seed=seed)


def fresh(dataset):
    """The same profiles in a new ``ERDataset``.

    ``ERDataset.corpus`` is cached per instance; reusing one instance
    would let every iteration after the first skip the corpus layer.
    """
    from repro.data.dataset import ERDataset

    return ERDataset(
        dataset.collection1,
        dataset.collection2,
        dataset.ground_truth,
        name=dataset.name,
    )


def retained_pairs(blocks) -> list[tuple[int, int]]:
    """The comparisons of a restructured (one pair per block) collection."""
    pairs = []
    for block in blocks:
        if blocks.is_clean_clean:
            pairs.extend((i, j) for i in block.left for j in block.right)
        else:
            members = sorted(block.left)
            pairs.extend(
                (a, b)
                for k, a in enumerate(members)
                for b in members[k + 1 :]
            )
    return pairs


def pool_workers() -> list[int]:
    """Pids of this process's worker children (the persistent pool)."""
    workers = []
    for pid in children_of(os.getpid()):
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as handle:
                cmdline = handle.read()
        except OSError:
            continue
        if b"resource_tracker" not in cmdline:
            workers.append(pid)
    return workers


def oracle_digest(spec: BatchWorkload, seed: int, dataset, root: Path, cache: Path) -> str:
    """Digest of the ``python`` reference backend's output.

    Cached per workload definition, seed and program source, so the
    slow reference runs once per input, not once per run.
    """
    from repro import Blast, BlastConfig

    inputs = hashlib.sha256(f"{spec!r} {seed} {source_fingerprint(root / 'src')}".encode())
    path = cache / "oracle" / f"{spec.name}-{seed}-{inputs.hexdigest()[:16]}.json"
    if path.is_file():
        return json.loads(path.read_text())["digest"]
    result = Blast(BlastConfig(backend="python")).run(fresh(dataset))
    digest = pair_digest(retained_pairs(result.blocks))
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps({"digest": digest}))
    tmp.replace(path)
    return digest


class _Setup:
    """Dataset generation plus one warm-up run (plus pool spawn)."""

    def __init__(self, spec: BatchWorkload, seed: int, repeats: int) -> None:
        from repro import Blast, BlastConfig
        from repro.graph.pool import shutdown_pool

        self.config = BlastConfig(**spec.config)
        self.times: list[float] = []
        self.digests: list[str] = []
        for rep in range(repeats):
            if rep:
                shutdown_pool()  # each setup pays the pool spawn again
            start = time.perf_counter()
            dataset = generate(spec, seed)
            blocks = Blast(self.config).run(fresh(dataset)).blocks
            self.times.append(time.perf_counter() - start)
            self.digests.append(pair_digest(retained_pairs(blocks)))
        self.dataset = dataset


def _finish_pool(result: Result, workers: list[int]) -> None:
    """Shut the pool down; no segment and no worker may survive it."""
    from repro.graph.pool import live_segments, shutdown_pool

    shutdown_pool()
    result.check(not live_segments(), f"shared segments leaked: {sorted(live_segments())}")
    suspects = set(workers) | set(pool_workers())
    deadline = time.monotonic() + 5
    alive = [pid for pid in suspects if os.path.exists(f"/proc/{pid}")]
    while alive and time.monotonic() < deadline:
        time.sleep(0.05)
        alive = [pid for pid in suspects if os.path.exists(f"/proc/{pid}")]
    result.check(not alive, f"pool workers outlived the run: {alive}")
    # Shared memory started multiprocessing's resource-tracker process;
    # stop and reap it too, so nothing outlives the run.
    from multiprocessing import resource_tracker

    stop_tracker = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop_tracker is not None:
        stop_tracker()


def run(spec: BatchWorkload, seed: int, seconds: float, root: Path, cache: Path, result: Result) -> None:
    """Untraced run: every end-to-end metric of a batch workload."""
    from repro import Blast
    from repro.metrics import evaluate_blocks

    setup = _Setup(spec, seed, SETUP_REPEATS)
    dataset, config = setup.dataset, setup.config
    walls: list[float] = []
    peaks: list[int] = []
    digests = list(setup.digests)
    workers = pool_workers()
    spent = 0.0
    with TreeMemory(os.getpid()) as memory:
        while spent < seconds or len(walls) < MIN_ITERATIONS:
            blocks = None
            target = fresh(dataset)
            gc.collect()  # the previous run's garbage is not this run's work
            memory.start()
            start = time.perf_counter()
            blocks = Blast(config).run(target).blocks
            wall = time.perf_counter() - start
            peaks.append(memory.peak())
            walls.append(wall)
            spent += wall
            digests.append(pair_digest(retained_pairs(blocks)))
    if config.backend == "parallel":
        _finish_pool(result, workers)

    expected = oracle_digest(spec, seed, dataset, root, cache)
    for index, digest in enumerate(digests):
        result.check(digest == expected, f"run {index}: pair digest differs from the python oracle")

    quality = evaluate_blocks(blocks, dataset)
    p50 = median(walls)
    result.put("setup_s", median(setup.times), "s")
    result.put("latency_p50_ms", p50 * 1e3, "ms")
    result.put("throughput_ops_s", dataset.num_profiles / p50, "ops/s")
    result.put("peak_rss_mb", mib(median(peaks)), "MiB")
    result.put("pc", quality.pair_completeness, "ratio")
    result.put("pq", quality.pair_quality, "ratio")
    result.notes.append(
        f"{spec.name}: {dataset.num_profiles} profiles, {len(walls)} timed runs "
        f"(median {p50:.3f} s), setups {['%.2f' % t for t in setup.times]}, "
        f"walls {['%.3f' % t for t in walls]}"
    )


# -- traced run ------------------------------------------------------------------


class _Tracer:
    """Spans around calls into the program's layers, from outside."""

    def __init__(self) -> None:
        self.spans: dict[str, dict[str, float]] = {}

    @contextmanager
    def span(self, name: str, workers: list[int] | None = None):
        """Wall, CPU and peak memory (see ``PeakMemory``) of the enclosed calls."""
        counts: dict[str, float] = {}
        workers = workers or []
        memory = PeakMemory(os.getpid(), workers)
        memory.start()
        workers_cpu = [cpu_seconds(pid) for pid in workers]
        cpu = time.process_time()
        start = time.perf_counter()
        yield counts
        wall = time.perf_counter() - start
        cpu = time.process_time() - cpu
        row = {"wall_s": wall, "cpu_s": cpu, "peak_mb": mib(memory.peak())}
        if workers:
            spent = sum(cpu_seconds(p) - c for p, c in zip(workers, workers_cpu))
            row["workers_cpu_s"] = spent
            row["parallelism"] = (cpu + spent) / wall if wall > 0 else 0.0
        row.update(counts)
        self.spans[name] = row


def _traced_pipeline(dataset, config, tracer: _Tracer):
    """``Blast(config).run`` spelled out layer by layer; returns the blocks."""
    from repro.blocking.filtering import block_filtering
    from repro.blocking.purging import block_purging
    from repro.blocking.schema_aware import LooselySchemaAwareBlocking, make_key_entropy
    from repro.core.stages import SchemaExtraction
    from repro.graph.metablocking import blocks_from_edges
    from repro.graph.parallel import parallel_metablocking
    from repro.graph.pruning import BlastPruning
    from repro.graph.vectorized import ArrayBlockingGraph, prune_mask

    span = tracer.span
    with span("data.corpus") as c:
        c["occurrences"] = dataset.corpus.num_occurrences
    with span("schema.extract") as c:
        partitioning = SchemaExtraction(config).extract(dataset)
        c["clusters"] = partitioning.num_clusters
    with span("blocking.build") as c:
        blocks = LooselySchemaAwareBlocking(
            partitioning, min_token_length=config.min_token_length
        ).build(dataset)
        c["comparisons"] = raw = blocks.aggregate_cardinality
    # Each layer replaces ``blocks``, so the collection it consumed is
    # freed inside its span, as in the pipeline's own stages.
    with span("blocking.purging") as c:
        blocks = block_purging(
            blocks, dataset.num_profiles, max_profile_ratio=config.purging_ratio
        )
        c["kept_frac"] = (purged := blocks.aggregate_cardinality) / raw
    with span("blocking.filtering") as c:
        blocks = block_filtering(blocks, ratio=config.filtering_ratio)
        c["kept_frac"] = blocks.aggregate_cardinality / purged
    key_entropy = make_key_entropy(partitioning) if config.use_entropy else None
    pruning = BlastPruning(c=config.pruning_c, d=config.pruning_d)
    clean_clean = blocks.is_clean_clean
    with span("graph.index"):
        blocks.entity_index
    if config.backend == "parallel":
        with span("graph.parallel", workers=pool_workers()) as c:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                edges = parallel_metablocking(
                    blocks,
                    weighting=config.weighting,
                    pruning=pruning,
                    entropy_boost=config.entropy_boost,
                    key_entropy=key_entropy,
                    **config.backend_options(),
                )
            c["dispatch_warnings"] = sum(
                issubclass(w.category, RuntimeWarning) for w in caught
            )
        with span("graph.materialize"):
            blocks = None
            out = blocks_from_edges(edges, clean_clean, presorted=True)
        return out
    with span("graph.enumerate") as c:
        graph = ArrayBlockingGraph(blocks, key_entropy=key_entropy)
        c["distinct_frac"] = graph.num_edges / blocks.aggregate_cardinality
    with span("graph.weights"):
        weights = graph.weights(config.weighting, entropy_boost=config.entropy_boost)
    with span("graph.pruning") as c:
        mask = prune_mask(pruning, graph, weights)
        c["retained_frac"] = int(mask.sum()) / max(1, graph.num_edges)
    with span("graph.materialize"):
        edges = list(zip(graph.src[mask].tolist(), graph.dst[mask].tolist()))
        blocks = graph = weights = mask = None
        out = blocks_from_edges(edges, clean_clean, presorted=True)
    return out


#: Per-layer metrics of the batch layers and the unit of each.
LAYER_METRICS = {
    "data.corpus": {"wall_s": "s", "cpu_s": "s", "peak_mb": "MiB", "occurrences": "count"},
    "schema.extract": {"wall_s": "s", "cpu_s": "s", "peak_mb": "MiB", "clusters": "count"},
    "blocking.build": {"wall_s": "s", "cpu_s": "s", "peak_mb": "MiB", "comparisons": "count"},
    "blocking.purging": {"wall_s": "s", "cpu_s": "s", "kept_frac": "ratio"},
    "blocking.filtering": {"wall_s": "s", "cpu_s": "s", "peak_mb": "MiB", "kept_frac": "ratio"},
    "graph.index": {"wall_s": "s", "cpu_s": "s"},
    "graph.enumerate": {"wall_s": "s", "cpu_s": "s", "peak_mb": "MiB", "distinct_frac": "ratio"},
    "graph.weights": {"wall_s": "s", "cpu_s": "s"},
    "graph.pruning": {"wall_s": "s", "cpu_s": "s", "retained_frac": "ratio"},
    "graph.materialize": {"wall_s": "s", "cpu_s": "s"},
    "graph.parallel": {
        "wall_s": "s", "cpu_s": "s", "workers_cpu_s": "s", "parallelism": "ratio",
        "peak_mb": "MiB", "dispatch_warnings": "count",
    },
}


def run_traced(spec: BatchWorkload, seed: int, seconds: float, root: Path, cache: Path, result: Result) -> None:
    """Traced run: per-layer metrics, layer-sum and digest checks."""
    from repro import Blast

    setup = _Setup(spec, seed, 1)
    dataset, config = setup.dataset, setup.config
    untraced: list[float] = []
    totals: list[float] = []
    unattributed: list[float] = []
    rows: dict[str, list[dict]] = {}
    digests = list(setup.digests)
    traced_digests = []
    spent = 0.0
    while spent < seconds or len(totals) < MIN_ITERATIONS:
        target = fresh(dataset)
        gc.collect()
        start = time.perf_counter()
        blocks = Blast(config).run(target).blocks
        untraced.append(time.perf_counter() - start)
        digests.append(pair_digest(retained_pairs(blocks)))
        blocks = None

        tracer = _Tracer()
        target = fresh(dataset)
        gc.collect()
        start = time.perf_counter()
        blocks = _traced_pipeline(target, config, tracer)
        total = time.perf_counter() - start
        totals.append(total)
        traced_digests.append(pair_digest(retained_pairs(blocks)))
        blocks = None
        layered = sum(row["wall_s"] for row in tracer.spans.values())
        unattributed.append(1 - layered / total)
        for name, row in tracer.spans.items():
            rows.setdefault(name, []).append(row)
        spent += untraced[-1] + total
    if config.backend == "parallel":
        _finish_pool(result, pool_workers())

    expected = oracle_digest(spec, seed, dataset, root, cache)
    for index, digest in enumerate(digests):
        result.check(digest == expected, f"run {index}: pair digest differs from the python oracle")
    for index, digest in enumerate(traced_digests):
        result.check(digest == digests[-1], f"traced run {index}: pair digest differs from the untraced run")
    layer_gap = median(unattributed)
    result.check(
        abs(layer_gap) <= 0.05,
        f"layer walls sum to {1 - layer_gap:.3f} of the traced total (must be within 5%)",
    )

    for layer, metrics in LAYER_METRICS.items():
        for metric, unit in metrics.items():
            samples = [row[metric] for row in rows.get(layer, [])]
            result.put(f"{layer}.{metric}", median(samples) if samples else 0.0, unit)
    result.put("pipeline.iterations", len(totals), "count")
    result.put("trace.overhead_frac", median(totals) / median(untraced) - 1, "ratio")
    result.put("trace.unattributed_frac", layer_gap, "ratio")
    result.notes.append(
        f"{spec.name} traced: {len(totals)} traced + {len(untraced)} untraced runs, "
        f"traced median {median(totals):.3f} s vs untraced {median(untraced):.3f} s"
    )
