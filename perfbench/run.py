"""hyperspin benchmark: end-to-end metrics untraced, per-layer metrics traced.

Run from the root of a checkout (hyperspin is imported from ``./src``)::

    python3 perfbench/run.py --workload verify-default --seed 1 --seconds 20 --trace 0

Workloads, each in this fresh single process with ``--threads`` at its
default of 1:

- ``verify-default``: ``hyperspin.cli.main(["verify"])`` (genera 3..8), the
  command users run; about 85 % of it is untraced ``class_index`` calls at
  small g over arrays that fit in L2.
- ``verify-enum``: ``main(["verify", "9..12"])``, the enumeration path; the
  key kernels and the BFS sweep label and key arrays of up to 2^24 entries.
- ``reduce-stream``: one caller in a closed loop, timing
  ``reduce_to_canonical(SpinMatrix.from_text(t), record=True)`` on seeded
  uniform random matrices at g = 64, in batches of ``REDUCE_BATCH``.

A pass is one fixed unit of work: one verify command, or one batch of
reductions.  Every pass's output is checked outside the timed region (see
``checks.py``); an operation is a verify row or one reduction, and the
result's ``attempted``/``failed`` count operations.

With ``--trace 0`` the run sets up, runs passes while the next one should
end within ``--seconds``, and reports the end-to-end metrics:

- ``setup_s``: import, input generation and warm-up; the median of three
  set-ups, this process's and two in fresh ``--setup-only`` processes;
- ``wall_s``: the median pass time;
- ``peak_rss_mb``: ``ru_maxrss`` of this process;
- ``ops_per_s``: the median over passes of operations per second.

Times are in reference seconds: wall time less the speed probe's own time,
scaled to the host's quiet speed (see ``speed.py``).  The raw wall times,
and on reduce-stream the per-reduction wall latency p50 and p99 with their
sample count, are on the line before the result.

With ``--trace 1`` it runs one untraced and one traced pass (see
``tracing.py``), in plain wall time, and reports the per-layer metrics.

The last stdout line is the result object; the line before it records the
run conditions (seed, nproc, CPU model, Python and numpy versions).  A copy
of both, and the spans of a traced run, go to ``.perfbench_out/`` in the
checkout.
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
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import check_reduction, check_verify, load_reference  # noqa: E402
from speed import NO_PROBE, SpeedProbe, probe_chunk  # noqa: E402
from tracing import Tracer  # noqa: E402

WORKLOADS = ("verify-default", "verify-enum", "reduce-stream")
VERIFY_ARGV = {"verify-default": ["verify"], "verify-enum": ["verify", "9..12"]}
VERIFY_WARMUP_ARGV = ["verify", "3"]
REDUCE_GENUS = 64
REDUCE_BATCH = 1000
REDUCE_WARMUP = 100
SETUP_REPEATS = 3  # this process plus two fresh --setup-only processes
SETUP_PROBES = 16  # probe bursts before and after each set-up
OUT_DIR = ".perfbench_out"

clock = time.perf_counter


def import_checkout_source(root: Path):
    """Import hyperspin from ``root/src`` and nowhere else."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import hyperspin

    if Path(hyperspin.__file__).resolve().parent != src / "hyperspin":
        raise ImportError(f"hyperspin was imported from {hyperspin.__file__}, not {src}")


def _capture(func, *args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = func(*args)
    return code, out.getvalue()


class VerifyWorkload:
    """One pass is one in-process ``verify`` command with stdout captured."""

    def __init__(self, name: str, seed: int) -> None:
        self.argv = VERIFY_ARGV[name]
        self.reference = load_reference(HERE / "ref" / f"{name}.txt")

    def set_up(self) -> None:
        from hyperspin import cli

        code, _ = _capture(cli.main, list(VERIFY_WARMUP_ARGV))
        if code != 0:
            raise RuntimeError(f"warm-up verify exited {code}")

    def prepare(self) -> None:
        """Inputs for the next pass (none: verify takes no input)."""

    def execute(self, probe):
        """(per-op latencies, raw output) of one pass."""
        from hyperspin import cli

        try:
            code, stdout = _capture(cli.main, list(self.argv))
        except Exception as exc:  # a crash fails every row of the pass
            code, stdout = f"raised {exc!r}", ""
        return [], (code, stdout)

    def check(self, raw) -> tuple[int, int]:
        code, stdout = raw
        return check_verify(stdout, code if isinstance(code, int) else -1, self.reference)


class ReduceStream:
    """One pass is a batch of traced reductions of fresh random matrices."""

    def __init__(self, name: str, seed: int) -> None:
        self.rng = random.Random(seed)

    def _texts(self, count: int) -> list[str]:
        g, bits = REDUCE_GENUS, self.rng.getrandbits
        return [
            format(bits(g), f"0{g}b")[::-1] + "/" + format(bits(g), f"0{g}b")[::-1]
            for _ in range(count)
        ]

    def set_up(self) -> None:
        _, raw = self._run(self._texts(REDUCE_WARMUP), NO_PROBE)
        attempted, failed = self.check(raw)
        if failed:
            raise RuntimeError(f"{failed} of {attempted} warm-up reductions failed")

    def prepare(self) -> None:
        self.batch = self._texts(REDUCE_BATCH)

    def execute(self, probe):
        return self._run(self.batch, probe)

    @staticmethod
    def _run(texts: list[str], probe):
        """Per-op latencies (wall, less any probe run inside the op) and results."""
        from hyperspin import gf2, normalform

        latencies, results = [], []
        for text in texts:
            probed = probe.total_s
            t0 = clock()
            try:
                trace = normalform.reduce_to_canonical(gf2.SpinMatrix.from_text(text), record=True)
            except Exception as exc:  # counted as a failed operation
                trace = exc
            latencies.append(clock() - t0 - (probe.total_s - probed))
            results.append(trace)
        return latencies, (texts, results)

    @staticmethod
    def check(raw) -> tuple[int, int]:
        from hyperspin import braid, gf2

        texts, results = raw
        failed = 0
        for text, trace in zip(texts, results):
            if isinstance(trace, Exception):
                failed += 1
                continue
            try:
                replayed = braid.apply_word(gf2.SpinMatrix.from_text(text), trace.total_word)
                problem = check_reduction(
                    text, trace.class_index, str(trace.result), str(replayed)
                )
            except Exception as exc:
                problem = repr(exc)
            failed += problem is not None
        return len(texts), failed


def make_workload(name: str, seed: int):
    cls = ReduceStream if name == "reduce-stream" else VerifyWorkload
    return cls(name, seed)


def set_up(root: Path, name: str, seed: int):
    """Import, generate inputs and warm up.

    Returns the workload and the set-up's (work, reference) seconds.
    """
    probe = SpeedProbe()
    probe_chunk()  # untimed: load the probe's own code first
    probe.sample(SETUP_PROBES)
    started = clock()
    import_checkout_source(root)
    workload = make_workload(name, seed)
    workload.set_up()
    work = clock() - started
    probe.sample(SETUP_PROBES)
    return workload, (work, probe.reference(work, probe.total_s, probe.count))


def fresh_setup_seconds(name: str, seed: int) -> tuple[float, float]:
    """Set-up (work, reference) seconds in a fresh process, so the import
    counts again."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--setup-only",
         "--workload", name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=170, check=True,
    )
    return tuple(json.loads(done.stdout.splitlines()[-1])["setup_s"])


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def conditions(args) -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                cpu,
            )
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def run_untraced(workload, args, setups: list[tuple[float, float]]):
    """Passes until --seconds are used; times are probe-scaled (see speed.py)."""
    walls, refs, rates, latencies = [], [], [], []
    attempted = failed = 0
    started = clock()
    with SpeedProbe() as probe:
        while True:
            workload.prepare()
            gc.collect()
            mark = probe.mark()
            lat, raw = workload.execute(probe)
            wall, ref = probe.since(mark)
            a, f = workload.check(raw)
            walls.append(wall)
            refs.append(ref)
            rates.append(a / ref)
            latencies.extend(lat)
            attempted += a
            failed += f
            # Start another pass only if it should end within --seconds.
            if clock() - started + statistics.median(walls) > args.seconds:
                break
    metrics = {
        "setup_s": (statistics.median(ref for _, ref in setups), "s"),
        "wall_s": (statistics.median(refs), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ops_per_s": (statistics.median(rates), "1/s"),
    }
    extra = {
        "passes": len(walls),
        "pass_wall_s": walls,
        "pass_reference_s": refs,
        "setup_wall_s": [wall for wall, _ in setups],
        "setup_reference_s": [ref for _, ref in setups],
        "probes": probe.count,
        "probe_mean_us": 1e6 * probe.total_s / max(probe.count, 1),
    }
    if latencies:
        extra["reduce_latency_wall"] = {
            "samples": len(latencies),
            "p50_us": 1e6 * percentile(latencies, 0.50),
            "p99_us": 1e6 * percentile(latencies, 0.99),
            "samples_beyond_p99": len(latencies) - 1 - int(0.99 * len(latencies)),
        }
    return metrics, extra, attempted, failed


def run_traced(workload, args, out_dir: Path):
    """One untraced and one traced pass, both in plain wall time."""
    workload.prepare()
    gc.collect()
    started = clock()
    _, raw = workload.execute(NO_PROBE)
    untraced_wall = clock() - started
    attempted, failed = workload.check(raw)
    workload.prepare()
    gc.collect()
    with Tracer() as tracer:
        started = clock()
        _, raw = workload.execute(NO_PROBE)
        traced_wall = clock() - started
    a, f = workload.check(raw)
    metrics = tracer.metrics(traced_wall, untraced_wall)
    spans = out_dir / f"spans-{args.workload}-seed{args.seed}.npz"
    tracer.save_spans(spans)
    extra = {"untraced_wall_s": untraced_wall, "spans": len(tracer.start), "spans_file": str(spans)}
    return metrics, extra, attempted + a, failed + f


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    root = Path.cwd()

    try:
        workload, setup = set_up(root, args.workload, args.seed)
    except (ImportError, OSError, RuntimeError, ValueError) as exc:
        print(f"perfbench: set-up failed: {exc}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(json.dumps({"setup_s": setup}))
        return 0

    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    if args.trace:
        metrics, extra, attempted, failed = run_traced(workload, args, out_dir)
    else:
        setups = [setup] + [
            fresh_setup_seconds(args.workload, args.seed) for _ in range(SETUP_REPEATS - 1)
        ]
        metrics, extra, attempted, failed = run_untraced(workload, args, setups)

    info = {"conditions": conditions(args), **extra}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    with open(out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as handle:
        json.dump({**info, "result": result}, handle, indent=1)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
