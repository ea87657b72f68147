"""The repository benchmark: batch BLAST and the multi-tenant server.

Run from the root of a checkout (BENCHMARK.json holds the full command,
with the fixed open-loop rate of the serving workload)::

    python3 perfbench/run.py --rate serve-exact=12 --workload batch-dbp \
        --seed 1 --seconds 24 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the
workload again with spans around each layer and prints the per-layer
metrics instead.  Either way the run checks the program's outputs (pair
digests against the ``python`` oracle, final serving state against an
in-process session, leaked pool segments) and exits non-zero when a
check fails.  Human-readable notes go to stderr; the last line of stdout
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

Workloads (see BENCHMARK.json for why each exists):

* ``batch-dbp``    clean-clean dbp, default BLAST, ``vectorized`` backend;
* ``batch-census`` dirty census, ``parallel`` backend, persistent pool;
* ``serve-exact``  ``repro serve --consistency exact``, read-heavy mix.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import batch
import serve
from measure import Result, effective_parallelism

WORKLOADS = {
    "batch-dbp": batch.BatchWorkload("batch-dbp", "dbp", scale=1.0),
    "batch-census": batch.BatchWorkload(
        "batch-census", "census", scale=8.0,
        config={"backend": "parallel", "workers": 2, "pool": "persistent"},
    ),
    "serve-exact": serve.ServeWorkload("serve-exact", consistency="exact", cycle="quqd"),
}

END_TO_END = (
    "setup_s", "latency_p50_ms", "throughput_ops_s", "peak_rss_mb", "pc", "pq", "ok_frac",
)


#: Every per-layer metric and its unit; a traced run prints all of them.
PER_LAYER = {
    **{
        f"{layer}.{metric}": unit
        for layer, metrics in batch.LAYER_METRICS.items()
        for metric, unit in metrics.items()
    },
    "pipeline.iterations": "count",
    **serve.LAYER_METRICS,
    "host.effective_parallelism": "ratio",
    "trace.overhead_frac": "ratio",
    "trace.unattributed_frac": "ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--rate", action="append", default=[], metavar="WORKLOAD=OPS_PER_S",
        help="fixed open-loop arrival rate of a serving workload",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(
            "error: src/repro not found; run the benchmark from the root "
            "of a checkout of the repository",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(src))
    os.environ["PYTHONPATH"] = str(src)
    cache = root / ".bench_build" / "perfbench"
    cache.mkdir(parents=True, exist_ok=True)
    rates = dict(item.split("=", 1) for item in args.rate)

    spec = WORKLOADS[args.workload]
    result = Result()
    parallelism = effective_parallelism()
    result.notes.append(f"host effective parallelism (2 vs 1 process): {parallelism:.3f}")
    if isinstance(spec, batch.BatchWorkload):
        runner = batch.run_traced if args.trace else batch.run
        runner(spec, args.seed, args.seconds, root, cache, result)
    else:
        if args.workload not in rates:
            print(f"error: --rate {args.workload}=OPS_PER_S is required", file=sys.stderr)
            return 2
        runner = serve.run_traced if args.trace else serve.run
        runner(spec, args.seed, args.seconds, float(rates[args.workload]), root, cache, result)

    result.put("host.effective_parallelism", parallelism, "ratio")
    result.put("ok_frac", 1 - result.failed / max(1, result.attempted), "ratio")
    selected = list(PER_LAYER) if args.trace else END_TO_END
    for name in selected:
        if name not in result.metrics and name in PER_LAYER:
            # A layer this workload does not exercise did no work.
            result.put(name, 0.0, PER_LAYER[name])
    for note in result.notes:
        print(note, file=sys.stderr)
    for name in selected:
        value, unit = result.metrics[name]
        print(f"  {name:<40} {value:>14.6g} {unit}", file=sys.stderr)
    print(json.dumps(result.record(selected)))
    sys.stdout.flush()
    return 0 if result.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
