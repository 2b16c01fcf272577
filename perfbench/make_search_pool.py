"""Regenerate ``search_pool.json``, the instance pool of the ``search`` workload.

Usage, from the repository root::

    PYTHONPATH=src python3 perfbench/make_search_pool.py

Candidates follow one recipe: q=2, k=4 (16 messages), H=3 random partitions
of at most 4 blocks each, distances drawn from 2..5 and sorted. Each
candidate is solved once with ``optimal_redundancy_exact`` under the
workload's node limit. A candidate whose solve never reached the parity DFS
(0 nodes) within ``EASY_SECONDS`` is *easy*; one whose local search failed
at some length, so that the DFS ran, is *hard* and costs seconds. The pool
keeps the first ``N_EASY`` easy candidates and the first hard one whose
exact value lies above ``max(lower_bound_pairwise, lower_bound_triples)``.
Candidates in between (local search succeeded, but slowly) are left out:
their cost ranges over 0.2-1.5 s, so drawing them by seed would make a
pass's cost depend on the seed.

The benchmark runs the hard instance in every pass and draws the easy ones
by its seed, so the number of hard instances per pass does not depend on
the seed. The classes describe the solver at the commit that wrote the
pool; the recorded values are the reference the benchmark checks against.
"""

from __future__ import annotations

import json
import random
import sys
import time
from pathlib import Path

from gfcpc import (
    Partition,
    SearchBudget,
    Space,
    canonicalize_problem,
    gfcpc_drm,
    lower_bound_pairwise,
    lower_bound_triples,
    optimal_redundancy_exact,
)

POOL_SEED = 1
NODE_LIMIT = 100_000
N_EASY = 40
EASY_SECONDS = 0.2
SPACE = Space(2, 4)
OUT = Path(__file__).with_name("search_pool.json")


def candidate(rng: random.Random) -> tuple[list[list[int]], list[int]]:
    labels = []
    for _ in range(3):
        n_blocks = rng.randint(1, 4)
        labels.append([rng.randrange(n_blocks) for _ in range(SPACE.size)])
    distances = sorted(rng.randint(2, 5) for _ in range(3))
    return labels, distances


def problem(labels: list[list[int]], distances: list[int]):
    vectors = SPACE.vectors()
    parts = []
    for row in labels:
        blocks: dict[int, list] = {}
        for u, b in zip(vectors, row):
            blocks.setdefault(b, []).append(u)
        parts.append(Partition.from_blocks(SPACE, blocks.values()))
    return canonicalize_problem(parts, distances)


def pool_text(pool: dict) -> str:
    """The pool as JSON with one instance per line."""
    head = json.dumps({k: v for k, v in pool.items() if k not in ("hard", "easy")})
    easy = ",\n".join("  " + json.dumps(rec) for rec in pool["easy"])
    return f'{head[:-1]},\n "hard": {json.dumps(pool["hard"])},\n "easy": [\n{easy}\n]}}\n'


def main() -> int:
    rng = random.Random(POOL_SEED)
    easy: list[dict] = []
    hard: dict | None = None
    tried = 0
    while len(easy) < N_EASY or hard is None:
        labels, distances = candidate(rng)
        tried += 1
        prob = problem(labels, distances)
        mat = gfcpc_drm(prob, SPACE.vectors())
        lb = max(lower_bound_pairwise(mat), lower_bound_triples(mat, SPACE.q))
        t0 = time.perf_counter()
        rep = optimal_redundancy_exact(prob, SearchBudget(node_limit=NODE_LIMIT))
        seconds = time.perf_counter() - t0
        nodes = rep.certificate["nodes"]
        rec = {
            "labels": labels, "distances": distances, "lb": lb,
            "status": rep.status, "value": rep.value,
            "upper": rep.certificate.get("upper"), "nodes": nodes,
            "seconds": round(seconds, 3),
        }
        if nodes == 0 and seconds <= EASY_SECONDS:
            if len(easy) < N_EASY:
                easy.append(rec)
        elif hard is None and rep.status == "exact" and rep.value > lb:
            hard = rec
        print(f"candidate {tried}: {rep.status} {rep.value} lb {lb} nodes {nodes} "
              f"{seconds:.2f}s", file=sys.stderr)
    pool = {
        "recipe": "q=2 k=4 H=3; blocks per partition 1..4; distances 2..5 sorted",
        "pool_seed": POOL_SEED, "node_limit": NODE_LIMIT, "candidates_tried": tried,
        "hard": hard, "easy": easy,
    }
    OUT.write_text(pool_text(pool), encoding="utf-8")
    print(f"wrote {OUT} from {tried} candidates", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
