#!/usr/bin/env python3
"""vallab benchmark: four seeded workloads, end to end and layer by layer.

    python3 perfbench/run.py --workload engine-lct --seed 1 --seconds 25 \
        --trace 0

Run from the root of a checkout; vallab is imported from ``src/`` of
that checkout and nowhere else.  One caller runs a closed loop in this
process: each operation starts when the previous one and its check have
finished.  The run attempts whole rounds (see ``workloads.py``) until
the timed operations have used ``--seconds`` of wall time.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs a fixed
number of rounds, each once untraced and once traced, and prints the
per-layer metrics; their counts depend on the seed only.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Spans of a traced run are written to
``perfbench/out/``.
"""

import argparse
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import CheckFailed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("engine-lct", "oracle-lattice", "sequences-zhou", "cli-readme")
SETUP_SAMPLES = 9        # fresh interpreters per run; setup_s is their median
IMPORT_SAMPLES = 3       # fresh interpreters for cli.import_s
WALL_LIMIT_S = 120       # no new round starts after this much wall time
TRACE_ROUNDS = {"engine-lct": 3, "oracle-lattice": 2, "sequences-zhou": 20,
                "cli-readme": 12}


def import_vallab(cli):
    """Import vallab from this checkout's src/, refusing any other copy."""
    package = SRC / "vallab"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: {package} not found; run from a vallab checkout")
    sys.path.insert(0, str(SRC))
    import vallab
    if Path(vallab.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: imported vallab from {vallab.__file__}, "
                 f"not from {package}")
    if cli:
        import vallab.cli  # noqa: F401


# ---------------------------------------------------------------------------
# running operations


class Deadline(BaseException):
    """Raised by SIGALRM inside an operation that outlived its deadline.

    A BaseException, so no ``except Exception`` in the library absorbs it.
    """


def _on_alarm(signum, frame):
    raise Deadline()


def execute(op):
    """Run one operation: ("ok" | "deadline" | "error", seconds, result)."""
    if op.deadline is not None:
        signal.setitimer(signal.ITIMER_REAL, op.deadline)
    start = time.perf_counter()
    try:
        result = op.call()
    except Deadline:
        return "deadline", time.perf_counter() - start, None
    except Exception as exc:  # any library error fails this operation only
        return "error", time.perf_counter() - start, exc
    finally:
        if op.deadline is not None:
            signal.setitimer(signal.ITIMER_REAL, 0)
    return "ok", time.perf_counter() - start, result


class Tally:
    """Counts and latencies of the timed operations of one pass."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.timed_s = 0.0
        self.latencies = []          # (dimension, seconds) of successes

    def record(self, op, status, seconds, result, memo):
        self.attempted += 1
        if op.deadline is None:
            self.timed_s += seconds
        if status == "ok":
            try:
                op.check(result, memo)
            except (CheckFailed, LookupError, TypeError, ValueError) as exc:
                self.failed += 1
                self.wrong += 1
                print(f"check failed: {op.kind} (n={op.dim}): {exc}",
                      file=sys.stderr)
                return
            self.latencies.append((op.dim, seconds))
            return
        self.failed += 1
        if status == "error":
            print(f"operation failed: {op.kind} (n={op.dim}): "
                  f"{type(result).__name__}: {result}", file=sys.stderr)


def merge(into, part):
    into.attempted += part.attempted
    into.failed += part.failed
    into.wrong += part.wrong
    into.timed_s += part.timed_s
    into.latencies += part.latencies
    return into


def run_pass(rounds, tracer=None):
    tally = Tally()
    for ops in rounds:
        memo = {}
        for op in ops:
            traced = tracer is not None and op.deadline is None
            root = tracer.begin_op() if traced else None
            status, seconds, result = execute(op)
            if traced:
                tracer.end_op(root)
            tally.record(op, status, seconds, result, memo)
    return tally


def warmup_ops(workload, ctx):
    """The first operation of each kind from a round of the warm-up stream.

    The stream is the same for every seed, so ``setup_s`` measures the
    same work on every run.  It is disjoint from the timed rounds'
    streams, and ``ctx`` keeps the oracle's denominators distinct from
    every later round, so no cache filled here serves a timed operation.
    """
    import corpus
    import workloads
    ops = workloads.WORKLOADS[workload](
        corpus.round_rng(workload, "warm-up", "w0"), ctx)
    first = {}
    for op in ops:
        if op.deadline is None:
            first.setdefault(op.kind, op)
    return list(first.values())


# ---------------------------------------------------------------------------
# fresh-interpreter probes


def probe(args):
    """Child mode: time imports (and warm-up) in this fresh interpreter."""
    start = time.perf_counter()
    import_vallab(cli=args.probe == "import-cli" or
                  args.workload == "cli-readme")
    imported = time.perf_counter() - start
    if args.probe == "import-cli":
        print(json.dumps({"seconds": imported}))
        return
    import workloads
    ops = warmup_ops(args.workload, workloads.Context())
    warm = 0.0
    for op in ops:
        start = time.perf_counter()
        op.call()
        warm += time.perf_counter() - start
    print(json.dumps({"seconds": imported + warm}))


def probe_median(kind, workload, seed, samples):
    """Median over ``samples`` fresh interpreters, after one unmeasured
    run that fills the bytecode cache of a new checkout."""
    cmd = [sys.executable, str(HERE / "run.py"), "--probe", kind,
           "--workload", workload, "--seed", str(seed)]
    values = []
    for k in range(samples + 1):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120)
        if done.returncode != 0:
            sys.exit(f"error: probe failed: {done.stderr.strip()}")
        if k > 0:
            values.append(json.loads(done.stdout.strip().splitlines()[-1])
                          ["seconds"])
    return statistics.median(values)


# ---------------------------------------------------------------------------
# modes


def metric(value, unit):
    return {"value": value, "unit": unit}


def percentile(values, q):
    """q-th percentile (0 < q < 100) by statistics.quantiles, n = 100."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[q - 1]


def plain(args):
    import_vallab(cli=args.workload == "cli-readme")
    setup_s = probe_median("setup", args.workload, args.seed, SETUP_SAMPLES)
    import corpus
    import workloads
    ctx = workloads.Context()
    run_pass([warmup_ops(args.workload, ctx)])

    build = workloads.WORKLOADS[args.workload]
    tally = Tally()
    started = time.perf_counter()
    index = 0
    while index == 0 or (tally.timed_s < args.seconds and
                         time.perf_counter() - started < WALL_LIMIT_S):
        ops = build(corpus.round_rng(args.workload, args.seed, index), ctx)
        merge(tally, run_pass([ops]))
        index += 1

    lat = [s for _, s in tally.latencies]
    succeeded = tally.attempted - tally.failed
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "ops_per_s": metric(succeeded / tally.timed_s, "ops/s"),
        "latency_p50_ms": metric(statistics.median(lat) * 1e3, "ms"),
        "latency_p90_ms": metric(percentile(lat, 90) * 1e3, "ms"),
        "peak_rss_mib": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    print(f"rounds {index}, timed {tally.timed_s:.3f} s, "
          f"{len(lat)} latency samples")
    return tally, metrics


def traced(args):
    import_vallab(cli=args.workload == "cli-readme")
    import_s = probe_median("import-cli", args.workload, args.seed,
                            IMPORT_SAMPLES)
    import corpus
    import tracing
    import vallab
    import workloads
    ctx = workloads.Context()
    run_pass([warmup_ops(args.workload, ctx)])
    build = workloads.WORKLOADS[args.workload]
    rounds = [build(corpus.round_rng(args.workload, args.seed, k), ctx)
              for k in range(TRACE_ROUNDS[args.workload])]

    # Each round runs untraced, then traced, from an empty Newton cache
    # both times; alternating by round keeps a drift in machine speed
    # out of trace.overhead_s.
    newton = vallab.geometry.newton_polyhedron
    tracer = tracing.Tracer()
    plain_tally, tally, misses = Tally(), Tally(), 0
    for ops in rounds:
        newton.cache_clear()
        merge(plain_tally, run_pass([ops]))
        tracer.install()
        try:
            newton.cache_clear()
            merge(tally, run_pass([ops], tracer))
            misses += newton.cache_info().misses
        finally:
            tracer.uninstall()
    tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.tsv.gz")

    by_name, derived = tracer.summary()
    ns = 1e-9

    def calls(name):
        return by_name.get(name, {}).get("calls", 0)

    def self_s(*names):
        return sum(by_name.get(n, {}).get("self_ns", 0) for n in names) * ns

    def count(name, key):
        return by_name.get(name, {}).get(key, 0)

    def module(prefix):
        return [n for n in by_name if n.startswith(prefix + ".")]

    wall_s = self_s(*by_name)
    bench_s = self_s(tracing.ROOT_SPAN)
    zhou = module("zhou")
    tree = module("tree2d")
    m = {}
    for name in ("geometry.critical_rays", "geometry.kernel_basis",
                 "geometry.newton_polyhedron", "valuations.value_on_ideal",
                 "valuations.value_on_graded", "jumping.lct",
                 "tian.tian_function", "ideals.minimal_antichain",
                 "oracle.howald_multiplier", "oracle.jumping_number_oracle"):
        m[name + ".calls"] = metric(calls(name), "count")
        m[name + ".self_s"] = metric(self_s(name), "s")
    rays_out = count("geometry.critical_rays", "rays_out")
    under = derived["kernel_under_critical"]
    m["geometry.critical_rays.rays_out"] = metric(rays_out, "count")
    m["geometry.critical_rays.ray_yield"] = metric(
        rays_out / under if under else 0.0, "rays/call")
    m["geometry.newton_polyhedron.misses"] = metric(misses, "count")
    m["geometry.newton_polyhedron.facets"] = metric(
        count("geometry.newton_polyhedron", "facets"), "count")
    m["jumping.certificates"] = metric(count("jumping.lct", "certificates"),
                                       "count")
    m["jumping.minimizers"] = metric(count("jumping.lct", "minimizers"),
                                     "count")
    m["tian.lower_envelope.self_s"] = metric(self_s("tian.lower_envelope"),
                                             "s")
    m["tian.lower_envelope.lines_in"] = metric(
        count("tian.lower_envelope", "lines_in"), "count")
    m["tian.lower_envelope.pieces_out"] = metric(
        count("tian.lower_envelope", "pieces_out"), "count")
    m["zhou.calls"] = metric(sum(calls(n) for n in zhou), "count")
    m["zhou.self_s"] = metric(self_s(*zhou), "s")
    m["ideals.minimal_antichain.points_in"] = metric(
        count("ideals.minimal_antichain", "points_in"), "count")
    m["ideals.product.calls"] = metric(calls("ideals.product"), "count")
    m["oracle.lattice_candidates"] = metric(derived["lattice_candidates"],
                                            "count")
    m["oracle.generators_out"] = metric(
        count("oracle.howald_multiplier", "generators_out"), "count")
    m["oracle.engine_calls"] = metric(derived["engine_calls"], "count")
    for name in ("cli.build_parser", "cli.build_problem", "cli.run_command"):
        m[name + ".self_s"] = metric(self_s(name), "s")
    m["cli.import_s"] = metric(import_s, "s")
    m["tree2d.self_s"] = metric(self_s(*tree), "s")
    for layer in ("geometry", "valuations", "jumping", "tian", "ideals",
                  "oracle", "cli"):
        m[layer + ".self_s"] = metric(self_s(*module(layer)), "s")
    for n in (2, 3, 4):
        lat = [s for d, s in plain_tally.latencies if d == n]
        m[f"lct.n{n}.latency_p50_ms"] = metric(
            statistics.median(lat) * 1e3 if lat else 0.0, "ms")
    m["trace.wall_s"] = metric(wall_s, "s")
    m["trace.untraced_wall_s"] = metric(plain_tally.timed_s, "s")
    m["trace.bench_self_s"] = metric(bench_s, "s")
    m["trace.overhead_s"] = metric(wall_s - plain_tally.timed_s, "s")

    layers_s = sum(v["value"] for k, v in m.items()
                   if k.endswith(".self_s") and k.count(".") == 1)
    print(f"traced {len(tracer.start)} spans; layer self times "
          f"{layers_s:.6f} s + benchmark {bench_s:.6f} s = "
          f"wall {wall_s:.6f} s")
    if abs(layers_s + bench_s - wall_s) > 1e-6 * max(wall_s, 1.0):
        print("error: layer self times do not add up to the traced wall time",
              file=sys.stderr)
        tally.wrong += 1
    tally.wrong += plain_tally.wrong
    return tally, m


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", choices=("setup", "import-cli"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.probe:
        probe(args)
        return
    signal.signal(signal.SIGALRM, _on_alarm)
    tally, metrics = traced(args) if args.trace else plain(args)
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']} {m['unit']}")
    print(f"{args.workload} attempted = {tally.attempted}, "
          f"failed = {tally.failed}")
    print(json.dumps({"correct": tally.wrong == 0,
                      "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
