#!/usr/bin/env python3
"""quadspline end-to-end benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload tables --seed 1 --seconds 30 --trace 0

One process runs a closed loop of ops through `quadspline.cli.main` (the
next op starts when the previous one ends) for --seconds, and at least
MIN_OPS ops. Every op's output is checked (see workloads.py).

--trace 0 reports the end-to-end metrics; set-up time comes from
SETUP_PROBES fresh interpreters, each running one op (probe.py). Times
are scaled to the machine's quiet speed (see Calibration).
--trace 1 alternates untraced and traced ops and reports the per-layer
metrics of the traced ops (tracer.py) plus the tracing overhead, and
writes the spans to perfbench/results/.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics. Lines before it give the same metrics in readable form, the
failed-op share, and the environment.
"""
import os

NPROC = len(os.sched_getaffinity(0))
# One BLAS thread, set before numpy is first imported (children inherit).
# With one per vCPU, the idle OpenBLAS worker spins on the other vCPU; when
# a neighbour holds that vCPU the two compete, and a converge-cold op
# swung between 0.54 s and 0.97 s where one thread gave 0.56-0.64 s.
BLAS_THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter, process_time  # noqa: E402

import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"
MIN_OPS = 14  # op_tail_s needs 10 samples beyond it, and a few below
MAX_LOOP_S = 120.0  # MIN_OPS yields to this, to end well inside 180 s
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 60.0
# Seconds the calibration kernel takes on the reference machine (2-vCPU
# Xeon VM, Python 3.11.7, numpy 2.4.6) when no neighbour slows it down.
CAL_NOMINAL_S = 0.055


class Calibration:
    """A fixed kernel, timed between ops to track the machine's speed.

    On a shared VM the same code runs up to 1.5x slower for stretches of
    tens of seconds, as neighbours load the shared cores and caches. Each
    op's times are scaled by CAL_NOMINAL_S over the mean time of the
    kernel runs just before and just after it, so that a run made on a
    slow stretch reads about the same as one made on a quiet stretch. The
    kernel mixes the kinds of work the workloads do: interpreter loops,
    numpy calls on tiny arrays, Python objects spread over a few MB, and
    streaming numpy over large arrays. It uses no quadspline code, so
    changes to the library cannot move it.
    """

    def __init__(self):
        import random

        import numpy as np

        self.np = np
        self.small = np.arange(100.0).reshape(10, 10)
        self.large = np.linspace(0.0, 1.0, 1_000_000)
        rng = random.Random(0)
        self.items = [rng.random() for _ in range(100_000)]
        self.last = self.run()

    def run(self) -> float:
        np = self.np
        t0 = perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i * i
        a = self.small.copy()
        for _ in range(500):
            int(np.argmax(np.abs(a[2:, 2])))
            a[3:, 3:] -= np.outer(a[3:, 2] * 1e-9, a[2, 3:])
        ordered = sorted(self.items)
        index = {x: i for i, x in enumerate(ordered[::2])}
        acc += sum(index.get(x, 0) for x in self.items[::3])
        float(np.sin(self.large).sum())
        return perf_counter() - t0

    def scale(self, wall: float) -> float:
        """The factor for `wall` seconds of work timed since the last call.

        Runs the kernel for about a tenth of `wall` (1 to 4 times): one
        short sample tracks the speed of a long op less well.
        """
        reps = min(4, max(1, round(0.1 * wall / CAL_NOMINAL_S)))
        before, self.last = self.last, statistics.fmean(self.run() for _ in range(reps))
        return CAL_NOMINAL_S / (0.5 * (before + self.last))


def run_op(cli, wl, i):
    """Run op i, then check its output; returns (wall_s, cpu_s)."""
    outputs = []
    t0, c0 = perf_counter(), process_time()
    for argv in wl.op(i):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
        outputs.append((argv, rc, buf.getvalue()))
    wall, cpu = perf_counter() - t0, process_time() - c0
    for argv, rc, out in outputs:
        if rc != 0:
            raise workloads.CheckError(f"{' '.join(argv)} exited with {rc}")
        wl.check(argv, out)
    return wall, cpu


def probe_setup(name, seed, k):
    """Seconds from spawning a fresh interpreter to the end of its first op (op k)."""
    argvs = workloads.make(name, seed).op(k)
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "probe.py"), json.dumps(argvs)],
                            cwd=Path.cwd(), stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.wait(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "done" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe {k} failed (exit {proc.returncode})")
    return elapsed


def tail(values):
    """Highest nearest-rank percentile with >= 10 samples above it: (value, pct)."""
    ordered = sorted(values)
    rank = max(len(ordered) - 10, 1)
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def environment(quadspline):
    import numpy

    backend = getattr(quadspline, "backend_name", None)
    return {"nproc": NPROC, "python": platform.python_version(),
            "numpy": numpy.__version__, "blas_threads": BLAS_THREADS,
            "backend": backend() if backend else "numpy",
            "machine": platform.machine()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        quadspline = workloads.load_quadspline(Path.cwd())
    except ImportError as exc:
        print(f"perfbench: {exc}; run from the root of a quadspline checkout",
              file=sys.stderr)
        return 2
    from quadspline import cli

    env = environment(quadspline)
    cal = Calibration()
    setup_raw, setup = [], []
    if not args.trace:
        for k in range(SETUP_PROBES):
            setup_raw.append(probe_setup(args.workload, args.seed, k))
            setup.append(setup_raw[-1] * cal.scale(setup_raw[-1]))

    wl = workloads.make(args.workload, args.seed)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(quadspline)
    # scaled op times (see Calibration); raw ones go to the results file
    walls, cpus, traced_walls, ops = [], [], [], []
    attempted = failed = 0
    start = perf_counter()
    while True:
        elapsed = perf_counter() - start
        if elapsed >= args.seconds and attempted >= MIN_OPS or elapsed >= MAX_LOOP_S:
            break
        traced = tracer is not None and attempted % 2 == 1
        record = {"op": attempted, "traced": traced, **wl.op_info(attempted)}
        if traced:
            before = {k: tracer.stats[k].calls for k in
                      ("linsolve.determinant", "integral_eq.kernel_piece_weights")}
            tracer.install(attempted)
        try:
            wall, cpu = run_op(cli, wl, attempted)
        except Exception:  # one broken op must not end the run
            failed += 1
            record["error"] = traceback.format_exc()
            print(record["error"], file=sys.stderr)
        else:
            scale = cal.scale(wall)
            (traced_walls if traced else walls).append(wall * scale)
            if not traced:
                cpus.append(cpu * scale)
            record.update(wall_s=wall, cpu_s=cpu, scale=scale)
        finally:
            if traced:
                tracer.uninstall()
                record.update({f"{k}.calls": tracer.stats[k].calls - v
                               for k, v in before.items()})
        ops.append(record)
        attempted += 1
    loop_wall = perf_counter() - start

    if not walls or (tracer and not traced_walls):
        print("perfbench: no op completed", file=sys.stderr)
        return 1

    if tracer:
        metrics = tracer.layer_metrics(sum(r["traced"] for r in ops))
        overhead = statistics.median(traced_walls) / statistics.median(walls) - 1.0
        metrics["trace.overhead_frac"] = (overhead, "ratio")
    else:
        tail_s, tail_pct = tail(walls)
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "op_p50_s": (statistics.median(walls), "s"),
            "op_tail_s": (tail_s, "s"),
            "cpu_op_p50_s": (statistics.median(cpus), "s"),
            "ops_per_s": (len(walls) / sum(walls), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "MB"),
        }
    fail_frac = failed / attempted
    csv_sha256 = getattr(wl, "csv_sha256", None)
    raw = [r["wall_s"] for r in ops if "wall_s" in r and not r["traced"]]

    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"ops={attempted} failed={failed} loop_s={loop_wall:.1f}")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<45} {value:>14.6g} {unit}")
    print(f"  {'fail_frac':<45} {fail_frac:>14.6g} ratio")
    print(f"  times are scaled to the calibration kernel's nominal {CAL_NOMINAL_S} s; "
          f"median raw op wall {statistics.median(raw):.4f} s, median scale "
          f"{statistics.median(r['scale'] for r in ops if 'scale' in r):.3f}")
    if not tracer:
        print(f"  setup_s is the median of {SETUP_PROBES} fresh interpreters, raw "
              + ", ".join(f"{s:.3f}" for s in setup_raw) + " s")
        print(f"  op_tail_s is p{tail_pct:.1f} of {len(walls)} ops")
    else:
        print(f"  trace.overhead_frac: median traced op {statistics.median(traced_walls):.4f} s"
              f" vs untraced {statistics.median(walls):.4f} s")
    if csv_sha256:
        print(f"  reproduce CSV sha256 {csv_sha256} (recorded, not gated)")

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    summary = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "seconds": args.seconds, "env": env, "fail_frac": fail_frac,
               "csv_sha256": csv_sha256, "cal_nominal_s": CAL_NOMINAL_S,
               "setup_probes_raw_s": setup_raw, **result, "ops": ops}
    (RESULTS / f"{stem}.json").write_text(json.dumps(summary, indent=1))
    if tracer:
        with open(RESULTS / f"{stem}-spans.jsonl", "w") as fh:
            for span in tracer.span_records():
                fh.write(json.dumps(span) + "\n")

    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
