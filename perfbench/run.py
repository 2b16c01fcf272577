"""gfcpc benchmark: four seeded closed-loop workloads, end to end or traced per layer.

Run from the repository root (the package is imported from ``src/``; nothing
is installed or built)::

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 20 --trace 0

Workloads (one caller, no threads started here; HiGHS runs its own pool):

* ``reference``: ``gfcpc.cli.main(["reproduce", exN])`` for ex1..ex6.
* ``ladder``: ``multi_step_construct``, ``verify_gfcpc`` and full-space
  ``gfcpc_drm`` at (q, k) = (2, 10) and (3, 6).
* ``decode``: a seeded stream of received words through ``decode_block`` on
  the two ladder encodings.
* ``search``: ``optimal_redundancy_exact`` on instances from
  ``search_pool.json`` under a fixed node limit.

A run sets up ``SETUP_REPS`` times, then runs as many whole passes of the
workload as fit in ``--seconds`` (at least ``MIN_PASSES``), checking every
output. ``--trace 0`` prints the end-to-end metrics.
``--trace 1`` spends half the time untraced and then repeats the same
passes with every public layer function wrapped (``tracer.py``); it prints
the per-layer metrics, the tracing overhead, and writes the spans to
``perfbench/out/``. Every reported time is scaled to a fixed host speed
(``HostSpeed``). The last line of standard output is the JSON result; the
line before it holds the run's environment and sample counts.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"

MIN_PASSES = 2
SETUP_REPS = 3
MIN_IMPORT_SAMPLES = 5
MIN_FRESH_SETUP_SAMPLES = 3
# (q, k, expected per-step redundancies) of the ladder family: P1 is the
# Hamming distance to a seeded centre at d=3, P2 a seeded coordinate at d=5.
LADDER = ((2, 10, (3, 2)), (3, 6, (2, 2)))
# Five of every six decodes use the (2, 10) encoding, so the median falls
# well inside one encoding's latency cluster rather than between the two.
DECODES_PER_PASS = 1200
SEARCH_EASY_PER_PASS = 15
# Least spacing of the samples taken between library calls.
PROBE_EVERY_S = 0.25
IMPORT_EVERY_S = 2.0
PROBE_REFERENCE_S = 0.006


def fail_fast(msg: str) -> None:
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(2)


if not (SRC / "gfcpc" / "__init__.py").is_file():
    fail_fast(f"no package source at {SRC / 'gfcpc'}; run from a gfcpc checkout")
sys.path.insert(0, str(SRC))
import gfcpc  # noqa: E402
from gfcpc import bounds, cli, codec, drm, partition, solver  # noqa: E402
from gfcpc.space import Space, hamming_distance  # noqa: E402

# Checks call the library through these names. The tracer wraps only names
# inside the gfcpc modules, so the work of a check never shows in a layer.
check_drm = drm.gfcpc_drm
check_verify = codec.verify_gfcpc

if Path(gfcpc.__file__).resolve().parent != (SRC / "gfcpc").resolve():
    fail_fast(f"imported gfcpc from {gfcpc.__file__}, not from {SRC}")

import numpy  # noqa: E402
import scipy  # noqa: E402
from tracer import Tracer  # noqa: E402


class Op:
    """One timed call into the library and the verdict of its checks."""

    __slots__ = ("seconds", "ok", "solved", "fingerprint")

    def __init__(self, seconds: float, ok: bool, solved: bool, fingerprint: Any):
        self.seconds = seconds
        self.ok = ok
        self.solved = solved
        self.fingerprint = fingerprint


class HostSpeed:
    """How fast the shared host runs pure-Python code during this run.

    On a shared host the same pass can take 1.5 times longer from one
    minute to the next, while passes within a run agree to a few percent.
    So a fixed loop that owes nothing to gfcpc (4,096 Hamming distances
    between 10-symbol tuples, about 6 ms) is timed between library calls,
    at most every PROBE_EVERY_S. Every time the run reports is multiplied by
    `factor()`, PROBE_REFERENCE_S over the probe's median, so it reads as if
    the host ran at one fixed speed. The info line records the factor, so a
    raw time is the reported one divided by it.
    """

    VECTORS = tuple(tuple((i >> b) & 1 for b in range(10)) for i in range(64))

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.last = float("-inf")

    def probe(self, force: bool = False) -> None:
        if not force and time.perf_counter() - self.last < PROBE_EVERY_S:
            return
        t0 = time.perf_counter()
        total = 0
        for u in self.VECTORS:
            for v in self.VECTORS:
                total += sum(a != b for a, b in zip(u, v))
        self.last = time.perf_counter()
        self.samples.append(self.last - t0)

    def factor(self) -> float:
        return PROBE_REFERENCE_S / statistics.median(self.samples)


class Workload:
    """build() makes the inputs from the seed and is what set-up repeats;
    run_pass() returns one Op per library call, each timed by timed().
    `idle` runs before every timed call, outside the timing."""

    def __init__(self, idle: Callable[[], None]) -> None:
        self.idle = idle

    def timed(self, fn: Callable, *args) -> tuple[float, Any]:
        self.idle()
        t0 = time.perf_counter()
        out = fn(*args)
        return time.perf_counter() - t0, out


def failed_op(what: str) -> Op:
    """Record a raised error as a failed operation; the harness keeps going."""
    print(f"error in {what}:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)
    return Op(0.0, False, False, ("error", what))


def ladder_problem(q: int, k: int, rng: random.Random):
    space = Space(q, k)
    centre = tuple(rng.randrange(q) for _ in range(k))
    coord = rng.randrange(k)
    p1 = partition.from_function(space, lambda u: hamming_distance(u, centre))
    p2 = partition.from_function(space, lambda u: u[coord])
    return drm.canonicalize_problem([p1, p2], [3, 5])


# ---------------------------------------------------------------------------
# Workloads


class Reference(Workload):
    def build(self, seed: int) -> None:
        self.order = list(gfcpc.EXAMPLE_IDS)
        random.Random(seed).shuffle(self.order)

    def run_pass(self, index: int, tracer: Tracer | None) -> list[Op]:
        ops = []
        for exid in self.order:
            buf = io.StringIO()
            span = tracer.span(f"cli.reproduce.{exid}") if tracer else contextlib.nullcontext()
            try:
                with span, contextlib.redirect_stdout(buf):
                    seconds, code = self.timed(cli.main, ["reproduce", exid])
            except Exception:
                ops.append(failed_op(f"reproduce {exid}"))
                continue
            text = buf.getvalue()
            rows = text.splitlines()[:-1]
            ok = code == 0 and bool(rows) and all(r.endswith("  ok") for r in rows)
            ops.append(Op(seconds, ok, ok, text))
        return ops


class Ladder(Workload):
    def build(self, seed: int) -> None:
        rng = random.Random(seed)
        self.problems = [(ladder_problem(q, k, rng), steps) for q, k, steps in LADDER]

    def run_pass(self, index: int, tracer: Tracer | None) -> list[Op]:
        ops = []
        rng = random.Random(index)
        for prob, want_steps in self.problems:
            try:
                seconds, (enc, trace) = self.timed(codec.multi_step_construct, prob)
                ok = trace.per_step_r == want_steps and enc.r == sum(want_steps)
                ops.append(Op(seconds, ok, ok, (trace.per_step_r, hash(tuple(enc.parity.items())))))
                seconds, report = self.timed(codec.verify_gfcpc, enc, prob)
                ops.append(Op(seconds, report.valid, report.valid, report.valid))
                del enc, report
                msgs = prob.space.vectors()
                seconds, mat = self.timed(drm.gfcpc_drm, prob, msgs)
                ok = mat.m == len(msgs) and drm_sample_ok(prob, mat, rng)
                ops.append(Op(seconds, ok, ok, hash(mat.entries)))
                del mat
            except Exception:
                ops.append(failed_op(f"ladder {prob.space}"))
        return ops


def drm_sample_ok(prob, mat, rng: random.Random, samples: int = 256) -> bool:
    """Recompute sampled entries from the definition: the largest separating level's
    distance minus the message distance, floored at 0; 0 where no level separates."""
    for _ in range(samples):
        i, j = rng.randrange(mat.m), rng.randrange(mat.m)
        u, v = mat.messages[i], mat.messages[j]
        want = 0
        for h in range(prob.H, 0, -1):
            if prob.partitions[h - 1].block_of(u) != prob.partitions[h - 1].block_of(v):
                want = max(prob.distances[h - 1] - hamming_distance(u, v), 0)
                break
        if mat.entries[i][j] != want or mat.entries[j][i] != want:
            return False
    return True


class Decode(Workload):
    def build(self, seed: int) -> None:
        self.seed = seed
        rng = random.Random(seed)
        self.codes = []
        for q, k, _ in LADDER:
            prob = ladder_problem(q, k, rng)
            enc, _ = codec.multi_step_construct(prob)
            self.codes.append((prob, enc, prob.space.vectors()))

    def words(self, index: int) -> list[tuple[int, int, tuple, int]]:
        """(code, level, received word, expected block) for one pass."""
        rng = random.Random(self.seed * 1_000_003 + index)
        out = []
        for i in range(DECODES_PER_PASS):
            c = 0 if i % 6 else 1
            prob, enc, vectors = self.codes[c]
            h = rng.randint(1, 2)
            u = vectors[rng.randrange(len(vectors))]
            word = list(enc.codeword(u))
            q = prob.space.q
            for pos in rng.sample(range(enc.n), rng.randint(0, prob.t(h))):
                word[pos] = (word[pos] + rng.randrange(1, q)) % q
            out.append((c, h, tuple(word), prob.partitions[h - 1].block_of(u)))
        return out

    def run_pass(self, index: int, tracer: Tracer | None) -> list[Op]:
        ops = []
        for c, h, word, want in self.words(index):
            prob, enc, _ = self.codes[c]
            try:
                seconds, got = self.timed(codec.decode_block, enc, prob, h, word)
            except Exception:
                ops.append(failed_op("decode_block"))
                continue
            ops.append(Op(seconds, got == want, got is not None, got))
        return ops


class Search(Workload):
    def build(self, seed: int) -> None:
        pool = json.loads((HERE / "search_pool.json").read_text(encoding="utf-8"))
        rng = random.Random(seed)
        chosen = [pool["hard"]] + rng.sample(pool["easy"], SEARCH_EASY_PER_PASS)
        rng.shuffle(chosen)
        self.budget = solver.SearchBudget(node_limit=pool["node_limit"])
        space = Space(2, 4)
        rank = space.rank
        self.instances = []
        for rec in chosen:
            parts = [partition.from_function(space, lambda u, row=row: row[rank(u)])
                     for row in rec["labels"]]
            self.instances.append((drm.canonicalize_problem(parts, rec["distances"]), rec))

    def run_pass(self, index: int, tracer: Tracer | None) -> list[Op]:
        ops = []
        for prob, rec in self.instances:
            try:
                seconds, rep = self.timed(bounds.optimal_redundancy_exact, prob, self.budget)
                ok = search_result_ok(prob, rep, rec)
            except Exception:
                ops.append(failed_op("optimal_redundancy_exact"))
                continue
            ops.append(Op(seconds, ok, rep.status == "exact", (rep.status, rep.value)))
        return ops


def search_result_ok(prob, rep, rec: dict) -> bool:
    """An exact value carries a verifying witness; every value respects the public
    lower bounds and agrees with the pool's recorded answer."""
    mat = check_drm(prob, prob.space.vectors())
    lower = max(solver.lower_bound_pairwise(mat), solver.lower_bound_triples(mat, prob.space.q),
                bounds.lower_bound_trivial(prob).value)
    if rep.value < lower:
        return False
    if rep.status == "exact":
        enc = rep.certificate["encoding"]
        if enc.r != rep.value or not check_verify(enc, prob).valid:
            return False
        if rec["status"] == "exact":
            return rep.value == rec["value"]
        return rec["value"] <= rep.value and (rec["upper"] is None or rep.value <= rec["upper"])
    if rep.status != "interval":
        return False
    upper = rep.certificate["upper"]
    if rec["status"] == "exact":
        return rep.value <= rec["value"] and (upper is None or rec["value"] <= upper)
    return True


WORKLOADS = {"reference": Reference, "ladder": Ladder, "decode": Decode, "search": Search}


# ---------------------------------------------------------------------------
# Harness


def warm_up() -> None:
    """First MILP call imports scipy.optimize (~0.5 s); pay it in set-up."""
    space = Space(2, 3)
    prob = drm.canonicalize_problem(
        [partition.from_function(space, sum), partition.from_function(space, lambda u: u[0])], [3, 4])
    enc, _ = codec.multi_step_construct(prob)
    if not check_verify(enc, prob).valid:
        raise RuntimeError("warm-up encoding does not verify")


class FreshInterpreter:
    """Wall time of a fresh interpreter that runs `code` with gfcpc on its path.

    Samples are taken between passes and, when `sample` is called between
    calls, at most every IMPORT_EVERY_S, so the median spans the whole run
    rather than one moment of a shared machine.
    """

    def __init__(self, code: str) -> None:
        self.cmd = [sys.executable, "-c", code]
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.samples: list[float] = []
        self._run()  # the first import may compile bytecode; not a sample
        self.last = float("-inf")

    def _run(self) -> float:
        t0 = time.perf_counter()
        subprocess.run(self.cmd, cwd=ROOT, env=self.env, check=True)
        return time.perf_counter() - t0

    def sample(self, force: bool = False) -> None:
        if force or time.perf_counter() - self.last >= IMPORT_EVERY_S:
            self.samples.append(self._run())
            self.last = time.perf_counter()

    def median(self, at_least: int) -> float:
        while len(self.samples) < at_least:
            self.sample(force=True)
        return statistics.median(self.samples)


class Threads:
    """Peak OS thread count of this process, sampled from /proc/self/status."""

    def __init__(self) -> None:
        self.peak = 0

    def sample(self) -> None:
        try:
            with open("/proc/self/status", encoding="ascii") as fh:
                for line in fh:
                    if line.startswith("Threads:"):
                        self.peak = max(self.peak, int(line.split()[1]))
                        return
        except OSError:
            pass


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="ascii").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text(encoding="ascii").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text(encoding="ascii").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_passes(work, seconds: float, between: Callable[[], None], count: int | None = None,
               tracer: Tracer | None = None) -> list[list[Op]]:
    """Exactly `count` passes, or MIN_PASSES and then more while one more pass,
    as long as the median one so far, still fits in `seconds` of pass time."""
    passes: list[list[Op]] = []
    times: list[float] = []

    def more() -> bool:
        if count is not None:
            return len(passes) < count
        return len(passes) < MIN_PASSES or sum(times) + statistics.median(times) <= seconds

    while more():
        gc.collect()
        t0 = time.perf_counter()
        span = tracer.span("pass") if tracer else contextlib.nullcontext()
        with span:
            ops = work.run_pass(len(passes), tracer)
        times.append(time.perf_counter() - t0)
        between()
        passes.append(ops)
    return passes


def pass_seconds(passes: list[list[Op]]) -> list[float]:
    return [sum(op.seconds for op in ops) for ops in passes]


def typical_pass_seconds(passes: list[list[Op]]) -> float:
    """Sum over a pass's operations of each one's median across passes.

    Every pass makes the same sequence of calls, so this is the median pass
    assembled call by call: a slow spell of the machine that hits one call
    of one pass does not move it.
    """
    return sum(statistics.median(col) for col in zip(*([op.seconds for op in ops] for ops in passes)))


def per_pass_quantile(passes: list[list[Op]], q: float) -> float:
    """Median over passes of the q-quantile of one pass's call latencies, in ms.

    Every pass makes the same mix of calls, so a pass's quantile picks the
    same kind of call each time; its median over passes is robust to a
    slow spell of the machine in a way a quantile of the pooled calls of
    a few passes is not.
    """
    values = []
    for ops in passes:
        lat = sorted(op.seconds * 1e3 for op in ops if op.ok)
        if len(lat) > 1:
            values.append(statistics.quantiles(lat, n=100, method="inclusive")[round(q * 100) - 1])
        elif lat:
            values.append(lat[0])
    return statistics.median(values) if values else 0.0


def end_to_end(passes, setup_s: float, import_s: float) -> dict[str, tuple[float, str]]:
    ops = [op for p in passes for op in p]
    return {
        "setup_s": (setup_s, "s"),
        "import_s": (import_s, "s"),
        "pass_s": (typical_pass_seconds(passes), "s"),
        "op_p50_ms": (per_pass_quantile(passes, 0.50), "ms"),
        "op_p99_ms": (per_pass_quantile(passes, 0.99), "ms"),
        "solved_ratio": (sum(op.solved for op in ops) / len(ops), "ratio"),
        "ok_ratio": (sum(op.ok for op in ops) / len(ops), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def trace_targets(solves: list) -> list[tuple]:
    def solver_hook(args, kwargs, res):
        D, q = args[0], args[1]
        if res.is_exact:
            solves.append((D, q, res.n))
        return {"m": D.m, "nodes": res.nodes, "exact": int(res.is_exact)}

    def verify_hook(args, kwargs, res):
        m = args[1].space.size
        return {"pairs": m * (m - 1) // 2}

    def drm_hook(args, kwargs, res):
        return {"pairs": res.m * (res.m - 1) // 2}

    return [
        ("gfcpc.solver", "min_length_dcode", "solver.min_length_dcode", solver_hook),
        ("gfcpc.codec", "multi_step_construct", "codec.multi_step_construct", None),
        ("gfcpc.codec", "verify_gfcpc", "codec.verify_gfcpc", verify_hook),
        ("gfcpc.codec", "decode_block", "codec.decode_block", None),
        ("gfcpc.drm", "gfcpc_drm", "drm.gfcpc_drm", drm_hook),
        ("gfcpc.drm", "single_drm", "drm.single_drm", None),
        ("gfcpc.partition", "from_function", "partition.from_function", None),
        ("gfcpc.partition", "join_many", "partition.join_many", None),
        ("gfcpc.bounds", "optimal_redundancy_exact", "bounds.optimal_redundancy_exact", None),
        ("gfcpc.bounds", "upper_bound_grouping", "bounds.upper_bound_grouping", None),
        ("gfcpc.bounds", "lower_bound_joins", "bounds.lower_bound_joins", None),
        ("gfcpc.bounds", "lower_bound_drm_submatrix", "bounds.lower_bound_drm_submatrix", None),
        ("gfcpc.examples", "load_example", "examples.load_example", None),
    ]


def per_layer(tracer: Tracer, first_pass_span: int, n_passes: int, solves: list,
              overhead_s: float, overhead_ratio: float, threads_peak: int):
    """Per-layer values for one set-up plus one pass: spans before `first_pass_span`
    belong to the traced set-up and count once; later spans are averaged over passes."""
    selfs = tracer.self_times()
    agg: dict[str, dict[str, float]] = {}
    for i, (name, start, end, parent, counts) in enumerate(tracer.spans):
        w = 1.0 if i < first_pass_span else 1.0 / n_passes
        a = agg.setdefault(name, {"calls": 0.0, "s": 0.0, "self_s": 0.0, "m_max": 0.0})
        a["calls"] += w
        a["s"] += w * (end - start)
        a["self_s"] += w * selfs[i]
        for key, val in (counts or {}).items():
            a[key] = a.get(key, 0.0) + w * val
            if key == "m":
                a["m_max"] = max(a["m_max"], val)

    def get(name: str, key: str) -> float:
        return agg.get(name, {}).get(key, 0.0)

    out: dict[str, tuple[float, str]] = {}
    sol = "solver.min_length_dcode"
    out[f"{sol}.calls"] = (get(sol, "calls"), "count")
    out[f"{sol}.s"] = (get(sol, "s"), "s")
    out[f"{sol}.nodes"] = (get(sol, "nodes"), "count")
    out[f"{sol}.messages_max"] = (get(sol, "m_max"), "count")
    calls = get(sol, "calls")
    out[f"{sol}.exact_ratio"] = (get(sol, "exact") / calls if calls else 0.0, "ratio")
    tight = sum(n == max(solver.lower_bound_pairwise(D), solver.lower_bound_triples(D, q))
                for D, q, n in solves)
    out["solver.lb_tight_ratio"] = (tight / len(solves) if solves else 0.0, "ratio")
    for name in ("codec.multi_step_construct", "bounds.optimal_redundancy_exact",
                 "bounds.upper_bound_grouping", "bounds.lower_bound_joins",
                 "bounds.lower_bound_drm_submatrix"):
        out[f"{name}.s"] = (get(name, "s"), "s")
        out[f"{name}.self_s"] = (get(name, "self_s"), "s")
    for name in ("codec.verify_gfcpc", "drm.gfcpc_drm"):
        out[f"{name}.s"] = (get(name, "s"), "s")
        out[f"{name}.pairs"] = (get(name, "pairs"), "count")
    out["drm.single_drm.s"] = (get("drm.single_drm", "s"), "s")
    for name in ("codec.decode_block", "partition.from_function", "partition.join_many"):
        out[f"{name}.calls"] = (get(name, "calls"), "count")
        out[f"{name}.s"] = (get(name, "s"), "s")
    out["examples.load_example.s"] = (get("examples.load_example", "s"), "s")
    for exid in gfcpc.EXAMPLE_IDS:
        out[f"cli.reproduce.{exid}_s"] = (get(f"cli.reproduce.{exid}", "s"), "s")
    out["trace.overhead_s"] = (overhead_s, "s")
    out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    out["process.threads_peak"] = (float(threads_peak), "count")
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    threads = Threads()
    host = HostSpeed()
    host.probe(force=True)
    # What each CLI call pays, and what a fresh process pays before its first
    # solve: the one-time part of set-up.
    cold_import = FreshInterpreter("import gfcpc")
    fresh_setup = FreshInterpreter("import gfcpc, scipy.optimize")
    cold_import.sample()
    fresh_setup.sample()

    def idle() -> None:
        host.probe()
        cold_import.sample()

    def between() -> None:
        threads.sample()
        cold_import.sample(force=True)
        fresh_setup.sample(force=True)
        host.probe(force=True)

    work = WORKLOADS[args.workload](idle)

    warm_up()
    builds = []
    for _ in range(SETUP_REPS):
        gc.collect()
        t0 = time.perf_counter()
        work.build(args.seed)
        builds.append(time.perf_counter() - t0)
        host.probe(force=True)
    threads.sample()

    info: dict[str, Any] = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "git_sha": git_sha(),
        "setup_reps": SETUP_REPS, "setup_build_s": builds,
    }
    if args.trace == 0:
        passes = run_passes(work, args.seconds, between)
        all_passes = passes
        setup_s = fresh_setup.median(MIN_FRESH_SETUP_SAMPLES) + statistics.median(builds)
        metrics = end_to_end(passes, setup_s, cold_import.median(MIN_IMPORT_SAMPLES))
        correct = True
    else:
        plain = run_passes(work, args.seconds / 2, between)
        tracer = Tracer()
        solves: list = []
        tracer.install(trace_targets(solves))
        try:
            with tracer.span("setup"):
                work.build(args.seed)
            first_pass_span = len(tracer.spans)
            traced = run_passes(work, 0.0, between, count=len(plain), tracer=tracer)
        finally:
            tracer.restore()
        all_passes = plain + traced
        correct = all(
            [op.fingerprint for op in a] == [op.fingerprint for op in b]
            for a, b in zip(plain, traced))
        untraced_s = statistics.median(pass_seconds(plain))
        overhead = statistics.median(pass_seconds(traced)) - untraced_s
        metrics = per_layer(tracer, first_pass_span, len(traced), solves,
                            overhead, overhead / untraced_s, threads.peak)
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_jsonl(spans_path)
        info["spans"] = str(spans_path.relative_to(ROOT))
        info["traced_matches_untraced"] = correct

    factor = host.factor()
    metrics = {name: (v * factor if u in ("s", "ms") else v, u) for name, (v, u) in metrics.items()}
    if args.trace:
        metrics["host.probe_ms"] = (statistics.median(host.samples) * 1e3, "ms")
    info.update(host_factor=factor, host_probe_samples=len(host.samples))
    ops = [op for p in all_passes for op in p]
    failed = sum(not op.ok for op in ops)
    info.update(passes=len(all_passes), ops=len(ops), threads_peak=threads.peak,
                import_samples=len(cold_import.samples),
                fresh_setup_s_samples=fresh_setup.samples,
                pass_s_samples=pass_seconds(all_passes))
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": correct and failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
