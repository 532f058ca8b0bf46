"""Outside-in per-layer tracing for the benchmark.

The tracer wraps each layer's public entry points from outside the program:
:meth:`LayerTracer.install` replaces the functions and methods named in
:data:`ENTRY_POINTS` with timing wrappers, and :meth:`LayerTracer.uninstall`
puts the originals back.  Nothing under ``src/`` knows it is being traced.

Every wrapped call is a span.  A span's *self time* is its wall duration
minus the durations of the wrapped calls made inside it, and a layer's self
time is the sum over its spans.  Nested spans of the same layer (for example
``Webpeg.capture_batch`` around ``Webpeg.capture``) therefore never count
twice.  The benchmark opens one root span around the driver call; the
root's self time is the part of a campaign that no named layer claims.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from importlib import import_module
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Root span name: the driver call itself.  Its self time is unattributed.
ROOT = "driver"

#: The capture stack: corpus, transport, browser, frames, capture, metrics.
CAPTURE_LAYERS = (
    "web.corpus",
    "httpsim.engine",
    "browser.load",
    "browser.renderer",
    "capture.frames",
    "capture.webpeg",
    "metrics.plt",
)

#: The crowd stack: recruitment, admission, sessions, filtering, storage.
CROWD_LAYERS = (
    "crowd.recruitment",
    "core.server",
    "core.session",
    "core.session_kernel",
    "core.validation",
    "core.campaign",
    "warehouse.ingest",
    "warehouse.triage",
)

#: Every named layer, in report order.
LAYERS = CAPTURE_LAYERS + CROWD_LAYERS + ("core.analysis",)

Count = Optional[Callable[[Counter, object, tuple], None]]


def _count_pages(counts: Counter, pages, args) -> None:
    counts["web.corpus.pages"] += len(pages)
    counts["web.corpus.objects"] += sum(page.object_count for page in pages)


def _count_load(counts: Counter, schedule, args) -> None:
    counts["httpsim.engine.loads"] += 1
    counts["httpsim.engine.fetches"] += len(schedule.fetches)


def _count_capture(counts: Counter, report, args) -> None:
    counts["capture.webpeg.captures"] += 1


def _count_recruited(counts: Counter, report, args) -> None:
    counts["crowd.recruitment.participants"] += report.count


def _count_arrival(counts: Counter, recruited, args) -> None:
    counts["crowd.recruitment.participants"] += 1


def _count_admission(counts: Counter, admitted, args) -> None:
    counts["core.server.admitted" if admitted else "core.server.rejected"] += 1


def _count_session(counts: Counter, result, args) -> None:
    counts["core.session.sessions"] += 1


def _count_chunk(counts: Counter, results, args) -> None:
    counts["core.session_kernel.chunks"] += 1
    counts["core.session_kernel.sessions"] += len(args[1])


def _count_row(counts: Counter, result, args) -> None:
    counts["warehouse.ingest.rows"] += 1


def _count_record(counts: Counter, record, args) -> None:
    counts["warehouse.ingest.records"] += 1


def _count_triage(counts: Counter, record, args) -> None:
    counts["warehouse.triage.records"] += 1


#: ``(module, attribute path, layer, counter, wraps an iterator factory)``.
#: A plain function is patched wherever a ``repro`` module binds it, so a
#: name imported with ``from x import f`` is traced where it is called.
ENTRY_POINTS: Tuple[Tuple[str, str, str, Count, bool], ...] = (
    ("repro.web.corpus", "CorpusGenerator.http2_sample", "web.corpus", _count_pages, False),
    ("repro.httpsim.engine", "FetchEngine.run", "httpsim.engine", _count_load, False),
    ("repro.browser.browser", "Browser.load", "browser.load", None, False),
    ("repro.browser.renderer", "Renderer.render", "browser.renderer", None, False),
    ("repro.capture.webpeg", "frames_from_timeline", "capture.frames", None, False),
    ("repro.capture.webpeg", "Webpeg.capture", "capture.webpeg", _count_capture, False),
    ("repro.capture.webpeg", "Webpeg.capture_batch", "capture.webpeg", None, False),
    ("repro.capture.webpeg", "capture_protocol_pair", "capture.webpeg", None, False),
    ("repro.metrics.plt", "metrics_from_video", "metrics.plt", None, False),
    ("repro.crowd.recruitment", "Recruiter.recruit", "crowd.recruitment", _count_recruited, False),
    ("repro.crowd.recruitment", "Recruiter.recruit_iter", "crowd.recruitment", _count_arrival, True),
    ("repro.core.server", "EyeorgServer.admit", "core.server", _count_admission, False),
    ("repro.core.server", "EyeorgServer.assign_tasks", "core.server", None, False),
    ("repro.core.server", "EyeorgServer.admit_and_assign", "core.server", None, False),
    ("repro.core.session", "ParticipantSession.run_timeline", "core.session", _count_session, False),
    ("repro.core.session", "ParticipantSession.run_ab", "core.session", _count_session, False),
    ("repro.core.session_kernel", "run_cohort_kernel", "core.session_kernel", _count_chunk, False),
    ("repro.core.validation", "FilteringPipeline.run", "core.validation", None, False),
    ("repro.core.campaign", "CampaignRunner.run_timeline", "core.campaign", None, False),
    ("repro.core.campaign", "CampaignRunner.run_ab", "core.campaign", None, False),
    ("repro.core.campaign", "CampaignRunner.run_timeline_streaming", "core.campaign", None, False),
    ("repro.core.analysis", "mean_uplt_per_site", "core.analysis", None, False),
    ("repro.core.analysis", "compare_uplt_with_metrics", "core.analysis", None, False),
    ("repro.core.analysis", "slider_vs_submitted", "core.analysis", None, False),
    ("repro.core.analysis", "score_per_site", "core.analysis", None, False),
    ("repro.core.analysis", "no_difference_fraction_per_site", "core.analysis", None, False),
    ("repro.core.analysis", "agreement_vs_metric_delta", "core.analysis", None, False),
    ("repro.metrics.comparison", "compare_metrics", "core.analysis", None, False),
    ("repro.warehouse.store", "ResultsWarehouse.ingest", "warehouse.ingest", _count_record, False),
    ("repro.warehouse.store", "ResultsWarehouse.streaming_ingest", "warehouse.ingest", None, False),
    ("repro.warehouse.store", "StreamingIngest.add_participant", "warehouse.ingest", _count_row, False),
    ("repro.warehouse.store", "StreamingIngest.add_timeline_response", "warehouse.ingest",
     _count_row, False),
    ("repro.warehouse.store", "StreamingIngest.add_ab_response", "warehouse.ingest", _count_row, False),
    ("repro.warehouse.store", "StreamingIngest.finalize", "warehouse.ingest", _count_record, False),
    ("repro.warehouse.triage", "auto_triage_ingested", "warehouse.triage", _count_triage, False),
)


def import_layers() -> None:
    """Import every traced module, so that lazy imports happen in set-up."""
    for module, _path, _layer, _count, _is_iter in ENTRY_POINTS:
        import_module(module)


class _TimedIterator:
    """An iterator whose every ``next`` is a span of one layer."""

    def __init__(self, tracer: "LayerTracer", layer: str, inner, count: Count) -> None:
        self._tracer = tracer
        self._layer = layer
        self._next = inner.__next__
        self._count = count

    def __iter__(self) -> "_TimedIterator":
        return self

    def __next__(self):
        return self._tracer.call(self._layer, self._next, (), {}, self._count)


class LayerTracer:
    """Per-layer self time and work counts, gathered by wrapping entry points.

    ``self_s`` maps a layer (or :data:`ROOT`) to its accumulated self time in
    seconds; ``counts`` holds the work counts.  Both accumulate over every
    traced call.
    """

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self._open: List[float] = []  # child seconds of each open span
        self._patches: List[Tuple[object, str, object]] = []

    def call(self, layer: str, fn, args: Sequence, kwargs: Dict, count: Count = None):
        """Run ``fn(*args, **kwargs)`` as one span of ``layer``."""
        open_spans = self._open
        open_spans.append(0.0)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
            if count is not None:
                count(self.counts, result, args)
            return result
        finally:
            elapsed = perf_counter() - start
            self.self_s[layer] += elapsed - open_spans.pop()
            if open_spans:
                open_spans[-1] += elapsed

    def _wrapper(self, layer: str, original, count: Count, is_iter: bool):
        tracer = self
        if is_iter:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                inner = tracer.call(layer, original, args, kwargs)
                return _TimedIterator(tracer, layer, inner, count)
        else:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                return tracer.call(layer, original, args, kwargs, count)
        return wrapper

    def _patch(self, owner, name: str, replacement) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    def install(self) -> None:
        """Wrap every entry point of :data:`ENTRY_POINTS`."""
        if self._patches:
            raise RuntimeError("layer tracer is already installed")
        for module_name, path, layer, count, is_iter in ENTRY_POINTS:
            module = import_module(module_name)
            owner_name, _, name = path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[name]
                self._patch(owner, name, self._wrapper(layer, original, count, is_iter))
                continue
            original = getattr(module, name)
            wrapper = self._wrapper(layer, original, count, is_iter)
            for loaded_name, loaded in list(sys.modules.items()):
                if loaded_name.split(".")[0] == "repro" and vars(loaded).get(name) is original:
                    self._patch(loaded, name, wrapper)

    def uninstall(self) -> None:
        """Restore every original entry point."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)
