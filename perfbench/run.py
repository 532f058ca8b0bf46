"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload plt-capture --seed 1 --seconds 20 --trace 0

The process sets up (imports, lazy initialisation, and golden-verified
warm-up campaigns), then runs a closed loop of cold campaigns, one after
another, each on a seed derived from ``--seed``, and checks every result.

* ``--trace 0`` times campaigns for ``--seconds`` and reports the end-to-end
  metrics: ``campaign_s``, ``setup_s``, ``peak_rss_mb`` and ``ok_share``.
* ``--trace 1`` runs the workload's fixed number of traced campaigns, each
  paired with an untraced run of the same seed, and reports the per-layer
  self times, shares and work counts (see ``layers.py`` and the README).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from time import perf_counter

# Set-up time counts from here, so the imports below are part of it.
PROCESS_START = perf_counter()

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from pathlib import Path

import layers  # stdlib only: the program itself is imported in set-up

ROOT = Path(__file__).resolve().parent.parent

#: Golden-verified warm-up campaigns in set-up; ``setup_s`` uses their median.
WARMUPS = 5

#: Fewest timed campaigns in a ``--trace 0`` run, however long they take.
MIN_CAMPAIGNS = 3


def repetition_seed(seed: int, index: int) -> int:
    """The campaign seed of repetition ``index`` of a run seeded ``seed``."""
    digest = hashlib.sha256(f"perfbench:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def fingerprint() -> dict:
    """The machine the run measured: Python, numpy, CPUs and CPU model."""
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    cpu_model = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
    }


class Bench:
    """Runs and checks campaigns of one workload."""

    def __init__(self, workload, scratch: Path) -> None:
        from repro.capture.webpeg import DEFAULT_CAPTURE_CACHE

        self.workload = workload
        self.scratch = scratch
        self.cache = DEFAULT_CAPTURE_CACHE
        self.attempted = 0
        self.failed = 0

    def campaign(self, seed: int, tracer=None):
        """Run one cold campaign and check it.

        Returns ``(seconds from the driver call to a checked result, result)``;
        the result is None when the campaign raised or failed a check.
        """
        from repro.warehouse import ResultsWarehouse

        self.attempted += 1
        self.cache.clear()
        hits, misses = self.cache.hits, self.cache.misses
        with tempfile.TemporaryDirectory(dir=self.scratch) as root:
            warehouse = ResultsWarehouse(root)
            start = perf_counter()
            try:
                if tracer is None:
                    result = self.workload.run(seed, warehouse)
                else:
                    result = tracer.call(layers.ROOT, self.workload.run, (seed, warehouse), {})
                problems = self.workload.check(result, Path(root))
            except Exception:
                traceback.print_exc(file=sys.stderr)
                problems = ["the campaign raised"]
            elapsed = perf_counter() - start
        if problems:
            self.failed += 1
            print(f"campaign seed {seed} failed: {'; '.join(problems)}", file=sys.stderr)
            return elapsed, None
        if tracer is not None:
            tracer.counts.update(self.workload.counts(result))
            tracer.counts["capture.webpeg.cache_hits"] += self.cache.hits - hits
            tracer.counts["capture.webpeg.cache_misses"] += self.cache.misses - misses
        return elapsed, result


def set_up(workload) -> tuple:
    """Import, initialise and run the golden-verified warm-up campaigns.

    Returns ``(setup seconds, golden problems)``: the one-time import and
    initialisation time plus the median of :data:`WARMUPS` warm-ups.  Each
    warm-up is the bench-scale golden campaign of the workload's RNG scheme
    (seed 2016), checked bit for bit against ``repro.goldens``.
    """
    from repro.goldens import verify_golden

    layers.import_layers()
    initialised = perf_counter() - PROCESS_START
    warmups, problems = [], []
    for _ in range(WARMUPS):
        start = perf_counter()
        problems += verify_golden(workload.scheme, "bench")
        warmups.append(perf_counter() - start)
    print(f"set-up: {initialised:.3f} s to initialise, warm-ups "
          f"{' '.join(f'{t:.3f}' for t in warmups)}")
    return initialised + statistics.median(warmups), problems


def measure(bench: Bench, seed: int, seconds: float) -> dict:
    """The closed loop of ``--trace 0``: campaign after campaign for ``seconds``."""
    times = []
    start = perf_counter()
    while len(times) < MIN_CAMPAIGNS or perf_counter() - start < seconds:
        elapsed, _result = bench.campaign(repetition_seed(seed, len(times)))
        times.append(elapsed)
    print(f"timed campaigns: {len(times)} in {perf_counter() - start:.1f} s: "
          f"{' '.join(f'{t:.3f}' for t in times)}")
    return {"campaign_s": (statistics.median(times), "s")}


#: Work counts of the traced run: totals over its campaigns.
COUNTS = (
    "web.corpus.pages",
    "web.corpus.objects",
    "httpsim.engine.loads",
    "httpsim.engine.fetches",
    "capture.webpeg.captures",
    "capture.webpeg.cache_hits",
    "capture.webpeg.cache_misses",
    "crowd.recruitment.participants",
    "core.server.admitted",
    "core.server.rejected",
    "core.session.sessions",
    "core.session_kernel.sessions",
    "core.session_kernel.chunks",
    "core.campaign.sessions",
    "core.campaign.clean_responses",
    "core.validation.engagement_filtered",
    "core.validation.soft_filtered",
    "core.validation.control_filtered",
    "warehouse.ingest.rows",
    "warehouse.ingest.records",
    "warehouse.triage.records",
)


def trace(bench: Bench, seed: int) -> dict:
    """The traced run: per-layer self time, shares and work counts."""
    tracer = layers.LayerTracer()
    untraced, traced = [], []
    for index in range(bench.workload.trace_reps):
        campaign_seed = repetition_seed(seed, index)
        untraced.append(bench.campaign(campaign_seed)[0])
        tracer.install()
        try:
            traced.append(bench.campaign(campaign_seed, tracer)[0])
        finally:
            tracer.uninstall()

    reps = len(traced)
    driver_s = sum(tracer.self_s.values())
    metrics = {}
    for layer in layers.LAYERS:
        metrics[f"{layer}.self_s"] = (tracer.self_s[layer] / reps, "s")
        metrics[f"{layer}.share"] = (tracer.self_s[layer] / driver_s, "share")
    for group, members in (("capture", layers.CAPTURE_LAYERS), ("crowd", layers.CROWD_LAYERS)):
        metrics[f"trace.{group}_share"] = (sum(tracer.self_s[m] for m in members) / driver_s,
                                           "share")
    metrics["trace.unattributed_s"] = (tracer.self_s[layers.ROOT] / reps, "s")
    metrics["trace.attributed_share"] = (1.0 - tracer.self_s[layers.ROOT] / driver_s, "share")
    metrics["trace.campaign_s"] = (statistics.median(traced), "s")
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(untraced), "s")
    metrics["trace.campaigns"] = (reps, "count")
    hits = tracer.counts["capture.webpeg.cache_hits"]
    lookups = hits + tracer.counts["capture.webpeg.cache_misses"]
    metrics["capture.webpeg.cache_hit_ratio"] = (hits / lookups if lookups else 0.0, "share")
    for name in COUNTS:
        metrics[name] = (tracer.counts[name], "count")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # Every temporary file of the run (warehouses, streaming spools) stays
    # inside the checkout and is removed at exit.
    scratch = ROOT / ".perfbench_tmp" / str(os.getpid())
    scratch.mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(scratch)
    try:
        from workloads import WORKLOADS

        if args.workload not in WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
        workload = WORKLOADS[args.workload]
        setup_s, golden_problems = set_up(workload)
        for problem in golden_problems:
            print(f"golden {workload.scheme} bench: {problem}", file=sys.stderr)

        bench = Bench(workload, scratch)
        if args.trace:
            metrics = trace(bench, args.seed)
        else:
            metrics = measure(bench, args.seed, args.seconds)
            metrics["setup_s"] = (setup_s, "s")
            metrics["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
            metrics["ok_share"] = (1.0 - bench.failed / bench.attempted, "share")
    finally:
        tempfile.tempdir = None
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass

    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: "
          f"{json.dumps(fingerprint())}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": not golden_problems and bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
