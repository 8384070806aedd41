"""roofkit benchmark: one workload per process, checked outputs, one JSON result.

    python3 perfbench/run.py --workload eof-wootters --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py ... --record results.jsonl     # also append the run to a file
    python3 perfbench/run.py --compare before.jsonl after.jsonl

Run from the root of a roofkit checkout; roofkit is imported from its `src`.
The run sets itself up, repeats whole rounds of the workload's items until
--seconds of wall time have gone into items, checks every output, and prints
as its last line {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics with --trace 0, the per-layer metrics of a traced run with --trace 1.
Item and set-up times are calibrated against a fixed probe (see Probe).
See README.md in this directory for the workloads and the metrics.
"""

from __future__ import annotations

import os
import sys

# One thread everywhere: BLAS pools must be capped before numpy loads, and the
# scan thread pool measures slower than the serial path.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("ROOFKIT_THREADS", None)
sys.dont_write_bytecode = True

import argparse
import json
import platform
import resource
import statistics
import subprocess
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUPS = 3
# Typical wall time of one probe here (2 CPUs, Python 3.11.7, numpy 2.4.6,
# OpenBLAS 0.3.31): the unit of calibrated seconds.
PROBE_REF_S = 0.055


def import_roofkit():
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import roofkit
        import roofkit.cli  # noqa: F401  (the scan workload and the tracer need it loaded)
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import roofkit from {src}: {exc}")
    if not os.path.abspath(roofkit.__file__).startswith(src + os.sep):
        raise SystemExit(f"perfbench: roofkit resolved to {roofkit.__file__}, not under {src}")
    return roofkit


class Probe:
    """Fixed LAPACK work whose wall time tracks the speed of the core right now.

    The host this was built on drifts in speed by about 10% over tens of
    seconds, and by more between minutes, while nothing in the process
    changes.  Over four minutes of one EoF item alternating with this probe,
    their times correlated at 0.97 in 10-second windows, and the item's time
    divided by the probe's varied 2.6% where the item's own time varied 10.5%.
    So each item's wall time is scaled by the probes run just before and
    after it: calibrated seconds = wall seconds * PROBE_REF_S / probe time.
    """

    def __init__(self):
        rng = np.random.default_rng(0)

        def herm(*shape):
            g = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            return g + np.swapaxes(g, -1, -2).conj()

        self.small, self.large = herm(16, 4, 4), herm(8, 9, 9)
        self.tall = rng.normal(size=(16, 4)) + 1j * rng.normal(size=(16, 4))

    def __call__(self, reps: int = 300) -> float:
        start = time.perf_counter()
        for _ in range(reps):
            np.linalg.eigh(self.small)
            np.linalg.eigvalsh(self.large)
            np.linalg.svd(self.tall, full_matrices=False)
        return time.perf_counter() - start

    @staticmethod
    def calibrate(wall: float, before: float, after: float) -> float:
        return wall * 2.0 * PROBE_REF_S / (before + after)


def warm_up() -> None:
    """Run each numpy kernel the workloads use once, so lazy set-up is not timed."""
    Probe()(reps=1)
    a = np.eye(4, dtype=complex)
    np.linalg.qr(a)
    np.einsum("op,pq->oq", a, a)


def machine_record() -> dict:
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": deps.get("blas", {}),
        "lapack": deps.get("lapack", {}),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "ROOFKIT_THREADS": os.environ.get("ROOFKIT_THREADS"),
    }


def time_setups(workload: str, seed: int, probe: Probe) -> tuple[list[float], list[float]]:
    """(calibrated, wall) seconds from launching a fresh process to its first item."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    calibrated, wall = [], []
    for _ in range(SETUPS):
        before = probe()
        start = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait()
        if line.strip() != "ready" or code != 0:
            raise SystemExit(f"perfbench: set-up process exited {code} before its first item")
        wall.append(elapsed)
        calibrated.append(Probe.calibrate(elapsed, before, probe()))
    return calibrated, wall


class Run:
    """Repeats whole rounds of one workload and checks every output."""

    def __init__(self, workload, probe: Probe):
        self.workload = workload
        self.probe = probe
        self.items = workload.items()
        self.wall = []              # seconds of each item, in run order
        self.calibrated = []
        self.probes = []
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.first = None
        self.upper = []
        self.lower = []

    def round(self) -> None:
        outs = []
        before = self.probe()
        self.probes.append(before)
        for item in self.items:
            start = time.perf_counter()
            try:
                outs.append((self.workload.run(item), None))
            except Exception as exc:  # a failing item is counted, the run goes on
                outs.append((None, f"{type(exc).__name__}: {exc}"))
            wall = time.perf_counter() - start
            after = self.probe()
            self.wall.append(wall)
            self.calibrated.append(Probe.calibrate(wall, before, after))
            self.probes.append(after)
            before = after
        self.rounds += 1
        self._check(outs)

    def _check(self, outs) -> None:
        prints = []
        for k, (item, (out, error)) in enumerate(zip(self.items, outs)):
            self.attempted += 1
            problem = error or self.workload.check(item, out)
            if problem is None:
                prints.append(self.workload.fingerprint(out))
                if self.first is None:
                    upper, lower = self.workload.bounds(item, out)
                    self.upper += upper
                    self.lower += lower
                elif self.first[k] != prints[-1]:
                    problem = "output differs from the first round"
            else:
                prints.append(None)
            if problem:
                self.failed += 1
                self.problems.append(f"item {k}: {problem}")
        if self.first is None:
            self.first = prints

    def until(self, seconds: float) -> None:
        while True:
            self.round()
            if sum(self.wall) >= seconds:
                return

    def round_seconds(self) -> list[float]:
        """Calibrated seconds of each round."""
        n = len(self.items)
        return [sum(self.calibrated[i : i + n]) for i in range(0, len(self.calibrated), n)]


def end_to_end(run: Run, setups: list[float]) -> dict:
    return {
        "setup_s": (statistics.median(setups), "s"),
        "items_per_s": (len(run.calibrated) / sum(run.calibrated), "1/s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "upper_bound_mean_nats": (statistics.fmean(run.upper), "nats"),
        "lower_bound_mean_nats": (statistics.fmean(run.lower), "nats"),
    }


def per_layer(run: Run, rk, seconds: float) -> dict:
    from spans import Tracer

    run.round()
    untraced = run.round_seconds()[-1]
    tracer = Tracer()
    tracer.install(rk)
    try:
        traced = Run(run.workload, run.probe)
        traced.first = run.first
        traced.until(max(seconds - sum(run.wall), 0.0))
    finally:
        tracer.uninstall()
    metrics = tracer.summary(traced.rounds)
    metrics["trace.overhead_ratio"] = (statistics.median(traced.round_seconds()) / untraced, "ratio")
    for name in ("wall", "calibrated", "probes", "problems"):
        getattr(run, name).extend(getattr(traced, name))
    run.rounds += traced.rounds
    run.attempted += traced.attempted
    run.failed += traced.failed
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append this run, with a machine record, to a JSON-lines file")
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"),
                        help="compare two files written by --record")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    sys.path.insert(0, HERE)

    if args.compare:
        from compare import compare

        return compare(*args.compare, os.path.join(ROOT, "BENCHMARK.json"))

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    rk = import_roofkit()
    warm_up()
    workload = WORKLOADS[args.workload](rk, args.seed, ROOT)
    if args.setup_only:
        print("ready", flush=True)
        workload.close()
        return 0

    wall = {}
    try:
        run = Run(workload, Probe())
        if args.trace:
            metrics = per_layer(run, rk, args.seconds)
        else:
            run.until(args.seconds)
            setups, wall_setups = time_setups(args.workload, args.seed, run.probe)
            metrics = end_to_end(run, setups)
            wall = {"setup_s": statistics.median(wall_setups),
                    "items_per_s": len(run.wall) / sum(run.wall)}
    finally:
        workload.close()

    for problem in run.problems:
        print(f"perfbench: {args.workload} seed {args.seed} {problem}", file=sys.stderr)
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    machine = machine_record()
    speed = PROBE_REF_S / statistics.median(run.probes)
    print("machine " + json.dumps(machine, sort_keys=True))
    print("wall " + json.dumps(dict(wall, relative_speed=speed), sort_keys=True))
    if args.record:
        record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                      trace=args.trace, rounds=run.rounds, wall=wall, relative_speed=speed,
                      item_seconds=run.calibrated, item_wall=run.wall, probe_seconds=run.probes,
                      machine=machine)
        with open(args.record, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
