"""Program side of one benchmark call, run in a fresh interpreter.

    python3 perfbench/child.py [--trace-out F --spawn T] cli <repro args...>
    python3 perfbench/child.py --result F [--trace-out F --spawn T] \
        walk-corpus GRAPH SEED WALKS LENGTH WINDOW

``cli`` runs ``repro.cli.main`` — the code the ``repro`` console script
runs — and exits with its return code. ``walk-corpus`` drives the public
walk API, then checks and digests what it produced; it writes counts,
digest, errors and the check's own wall and CPU time to ``--result``,
so the caller can take them out of the timed phase. With
``--trace-out`` the layer tracer (``tracer.py``) is installed first and
its summary is written there on exit; ``--spawn`` is the caller's
``time.perf_counter()`` just before it spawned this process (the clock
is system-wide on Linux), which dates the interpreter start-up.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time


def _walk_corpus(graph_path: str, seed: int, walks: int, length: int, window: int) -> dict:
    from repro import ExecutionContext, RandomWalkConfig, generate_walks
    from repro.graph.io import read_edge_list

    graph = read_edge_list(graph_path)
    corpus = generate_walks(
        graph,
        RandomWalkConfig(walks_per_vertex=walks, walk_length=length, seed=seed),
        context=ExecutionContext(workers=1),
    )
    centers, contexts = corpus.context_arrays(window)
    t0, cpu0 = time.perf_counter(), time.process_time()
    out = _check_walk_corpus(graph_path, corpus.walks, centers, contexts, walks, window, seed)
    out["verify_s"] = time.perf_counter() - t0
    out["verify_cpu_s"] = time.process_time() - cpu0
    return out


def _check_walk_corpus(graph_path, walk_matrix, centers, contexts, walks, window, seed) -> dict:
    """Check the corpus against the edge-list file itself, not against
    the program's parsed graph, and digest it."""
    import numpy as np

    errors = []
    with open(graph_path) as fh:
        lines = [line for line in fh if not line.startswith("#")]
    edges = np.array(" ".join(lines).split(), dtype=np.int64).reshape(len(lines), -1)[:, :2]
    n = int(edges.max()) + 1
    is_arc = np.zeros(n * n, dtype=bool)  # n^2 bytes: 25 MB at n = 5000
    is_arc[edges[:, 0] * n + edges[:, 1]] = True
    is_arc[edges[:, 1] * n + edges[:, 0]] = True
    num_walks, length = walk_matrix.shape
    tokens = int(np.count_nonzero(walk_matrix >= 0))
    if num_walks != n * walks:
        errors.append(f"{num_walks} walks, expected {n * walks}")
    if tokens != walk_matrix.size:
        errors.append(f"{walk_matrix.size - tokens} padded slots on a sink-free graph")
    if not np.array_equal(np.bincount(walk_matrix[:, 0], minlength=n), np.full(n, walks)):
        errors.append("start vertices are not t walks per vertex")
    bad_steps = int(np.count_nonzero(~is_arc[walk_matrix[:, :-1] * n + walk_matrix[:, 1:]]))
    if bad_steps:
        errors.append(f"{bad_steps} consecutive pairs are not arcs of the graph")
    if centers.shape != (tokens,) or contexts.shape != (tokens, 2 * window):
        errors.append(f"examples {centers.shape}/{contexts.shape}, expected ({tokens},)")
    elif not np.array_equal(centers, walk_matrix.ravel()):
        errors.append("centers are not the walk tokens in order")
    else:
        # Spot-check context rows against the walks they came from.
        rows = np.random.default_rng(seed).integers(0, tokens, size=min(tokens, 4096))
        offsets = np.concatenate([np.arange(-window, 0), np.arange(1, window + 1)])
        walk, pos = rows // length, rows % length
        at = pos[:, None] + offsets[None, :]
        inside = (at >= 0) & (at < length)
        expected = np.where(inside, walk_matrix[walk[:, None], np.clip(at, 0, length - 1)], -1)
        if not np.array_equal(contexts[rows], expected):
            errors.append("context rows disagree with their walks")
    digest = hashlib.sha256()
    for array in (walk_matrix, centers, contexts):
        digest.update(memoryview(np.ascontiguousarray(array)).cast("B"))
    return {
        "tokens": tokens,
        "examples": int(centers.shape[0]),
        "digest": digest.hexdigest(),
        "errors": errors,
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/child.py")
    parser.add_argument("--trace-out")
    parser.add_argument("--spawn", type=float)
    parser.add_argument("--result")
    parser.add_argument("mode", choices=["cli", "walk-corpus"])
    parser.add_argument("args", nargs=argparse.REMAINDER)
    opts = parser.parse_args(argv)

    tracer = None
    if opts.trace_out:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)
    try:
        if opts.mode == "cli":
            from repro.cli import main as repro_main

            rc = repro_main(opts.args)
        else:
            graph, seed, walks, length, window = opts.args
            out = _walk_corpus(graph, int(seed), int(walks), int(length), int(window))
            with open(opts.result, "w") as fh:
                json.dump(out, fh)
            rc = 0
    finally:
        if tracer is not None:
            from tracer import stale_bindings

            t0 = time.perf_counter()
            summary = tracer.summary()
            summary["startup_s"] = (
                summary["first_start"] - opts.spawn
                if summary["first_start"] is not None
                else None
            )
            summary["stale_bindings"] = stale_bindings(tracer)
            # The tracer's own tail, taken out of the traced wall time.
            summary["tracer_s"] = time.perf_counter() - t0
            with open(opts.trace_out, "w") as fh:
                json.dump(summary, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
