"""The streaming fold: campaign aggregates in bounded memory.

:class:`~repro.core.campaign.CampaignRunner` has one engine — a lazy
admission generator, a chunk loop and a checkpoint protocol — and two folds
over its ``(participant, result)`` pairs.  The batch fold materialises the
raw dataset, the telemetry and the filter rosters.  This module is the other
fold: it runs the same engine on a lazy arrival stream in ``chunk_size``
chunks and folds each finished session straight into O(videos + sites)
aggregates, so no more than one chunk of sessions is ever in memory.  Every
observable output — Table 1 row, filter counts, per-site UserPerceivedPLT,
helper effect, the warehouse record id — is **bit-identical** to the batch
fold's, under every RNG scheme, because the engine is shared and:

* the participant-level filters (engagement, soft rules, controls) are pure
  per-participant predicates of that participant's telemetry, so each
  session is judged the moment it finishes;
* the wisdom-of-the-crowd filter needs each video's full submitted-time
  distribution, so clean responses are spooled to per-video temp files
  (canonical-JSON fragments, append-only, one flush per chunk) and the
  percentile windows are applied video by video at the end — the only
  second pass in the pipeline, and it streams from disk.

With ``warehouse``, cleaned fragments feed a
:class:`~repro.warehouse.store.StreamingIngest` sink as they are emitted,
so the warehouse record also lands without the dataset ever existing in
memory.
"""

from __future__ import annotations

import json
import tempfile
from dataclasses import dataclass, field
from itertools import count
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional

from ..crowd.participant import Participant
from ..crowd.recruitment import Recruiter, RecruitmentSummary
from ..errors import CampaignError
from ..faults import ResilienceReport
from .campaign import CampaignConfig, _CampaignOutcome
from .responses import ResponseDataset
from .storage import timeline_response_from_dict, timeline_response_to_dict
from .validation import FilteringPipeline, percentile


def _canonical(data: Dict[str, object]) -> str:
    """Canonical JSON (the warehouse record convention) for one fragment."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


@dataclass
class StreamingFilterSummary:
    """Filtering outcome of a streaming campaign: counts, never rosters.

    Carries exactly the numbers the batch :class:`~repro.core.validation.
    FilterReport` feeds into Table 1 and the warehouse record.  Per-filter
    counts equal the lengths of the batch report's dropped lists because
    each participant filter is an independent per-participant predicate.
    """

    initial_participants: int = 0
    engagement_count: int = 0
    soft_count: int = 0
    control_count: int = 0
    responses_dropped_wisdom: int = 0
    kept_count: int = 0

    def summary_row(self) -> Dict[str, int]:
        """The Engagement / Soft / Control columns of Table 1."""
        return {
            "engagement": self.engagement_count,
            "soft": self.soft_count,
            "control": self.control_count,
        }


@dataclass
class StreamingCampaignResult(_CampaignOutcome):
    """Everything a streaming campaign run produces.

    The bounded-memory counterpart of :class:`~repro.core.campaign.
    CampaignResult`: aggregates instead of datasets.  ``clean_dataset`` is
    populated only when the run was asked to ``keep_dataset`` (equivalence
    testing); ``warehouse_record`` only when a warehouse sink was attached.

    Attributes:
        config: the campaign configuration.
        experiment_type: "timeline" or "ab".
        recruitment: incrementally accumulated recruitment totals.
        filter_summary: per-filter counts.
        videos_served: video tasks served across all admitted participants.
        site_count: distinct sites in the raw (pre-filter) responses.
        admitted_count / rejected_count: captcha outcomes.
        clean_response_count: responses surviving the full pipeline.
        chunks_total / chunks_executed: chunk accounting (executed excludes
            chunks loaded from a checkpoint).
        uplt_by_site: per-site mean UserPerceivedPLT of the clean responses
            (timeline campaigns; empty for A/B).
        helper_effect: per-video mean slider / frame-helper / submitted
            times of the clean responses (timeline campaigns; empty for
            A/B), the Figure 7(a) aggregate.
        resilience: fault-plan survival report (None for fault-free runs).
        clean_dataset: the materialised clean dataset, only with
            ``keep_dataset=True``.
        warehouse_record: the ingested record, only with a warehouse.
    """

    filter_summary: StreamingFilterSummary
    videos_served: int
    site_count: int
    admitted_count: int
    rejected_count: int
    clean_response_count: int
    chunks_total: int
    chunks_executed: int
    uplt_by_site: Dict[str, float] = field(default_factory=dict)
    helper_effect: Dict[str, Dict[str, float]] = field(default_factory=dict)
    resilience: Optional[ResilienceReport] = None
    clean_dataset: Optional[ResponseDataset] = None
    warehouse_record: object = None

    def _filter_summary(self) -> Dict[str, int]:
        return self.filter_summary.summary_row()


class _StreamingCollector:
    """Folds finished sessions into the campaign aggregates, one at a time.

    Participant-level filters are applied the moment a session finishes
    (single-entry telemetry dicts through the same
    :class:`~repro.core.validation.FilteringPipeline` rules the batch path
    uses).  Kept responses then either:

    * **passthrough** (A/B, or wisdom filter off): feed the aggregates and
      sinks immediately, in registration order — the clean dataset *is* the
      kept participants' responses; or
    * **wisdom** (timeline with the percentile filter on): spool to
      per-video temp files and finish in :meth:`finalize`, because
      each video's percentile window needs the full distribution.  Video
      files are keyed by first-seen order over *all* kept responses
      (control frames included — they shape ``video_ids()`` order even
      though the wisdom filter discards them), which reproduces the batch
      clean dataset's traversal order exactly.
    """

    def __init__(self, config: CampaignConfig, mode: str, sink=None,
                 keep_dataset: bool = False) -> None:
        self.mode = mode
        self.pipeline = FilteringPipeline(config.filter_config)
        self.summary = StreamingFilterSummary()
        self.videos_served = 0
        self.clean_responses = 0
        self.raw_sites: set = set()
        cfg = self.pipeline.config
        self.wisdom = cfg.apply_wisdom and mode == "timeline"
        self.dataset: Optional[ResponseDataset] = None
        if keep_dataset:
            self.dataset = ResponseDataset(
                campaign_id=config.campaign_id, experiment_type=mode,
                rng_scheme=config.rng_scheme,
                network_profile=config.network_profile,
            )
        # The kept dataset and the warehouse sink share one intake interface.
        self._targets = [target for target in (self.dataset, sink) if target is not None]
        # site -> [sum, count] and video -> [slider_sum, n, helper_sum,
        # helper_n, submitted_sum], both insertion-ordered by first clean
        # appearance; accumulating from 0 matches sum()'s starting value, so
        # the final means are bit-identical to the batch mean() calls.
        self._uplt: Dict[str, List[float]] = {}
        self._video_stats: Dict[str, List[float]] = {}
        self._spool: Optional[tempfile.TemporaryDirectory] = None
        self._spool_dir: Optional[Path] = None
        self._video_index: Dict[str, int] = {}
        self._chunk_buffers: Dict[int, List[str]] = {}
        if self.wisdom:
            self._spool = tempfile.TemporaryDirectory(prefix="streaming-wisdom-")
            self._spool_dir = Path(self._spool.name)

    # -- per-session intake ------------------------------------------------------

    def _judge(self, participant_id: str, telemetry) -> bool:
        """Apply the participant-level filters to one finished session."""
        cfg = self.pipeline.config
        single = {participant_id: telemetry}
        violated = False
        if cfg.apply_engagement and self.pipeline.engagement_violations(single):
            self.summary.engagement_count += 1
            violated = True
        if cfg.apply_soft_rules and self.pipeline.soft_rule_violations(single):
            self.summary.soft_count += 1
            violated = True
        if cfg.apply_controls and self.pipeline.control_violations(single):
            self.summary.control_count += 1
            violated = True
        return not violated

    def _keep(self, response) -> None:
        """Fold one clean response into the aggregates and the targets."""
        self.clean_responses += 1
        if self.mode == "ab":
            for target in self._targets:
                target.add_ab_response(response)
            return
        stats = self._video_stats.get(response.video_id)
        if stats is None:
            stats = self._video_stats[response.video_id] = [0, 0, 0, 0, 0]
        # Controls are excluded from UPLT and helper-effect analysis but
        # still pin the video's first-seen position.
        if not response.saw_control_frame:
            stats[0] += response.slider_time
            stats[1] += 1
            if response.helper_time is not None:
                stats[2] += response.helper_time
                stats[3] += 1
            stats[4] += response.submitted_time
            site = self._uplt.get(response.site_id)
            if site is None:
                site = self._uplt[response.site_id] = [0, 0]
            site[0] += response.submitted_time
            site[1] += 1
        for target in self._targets:
            target.add_timeline_response(response)

    def consume(self, participant: Participant, result) -> None:
        """Fold one finished session (and its filter judgement) in."""
        telemetry = result.telemetry
        responses = result.responses
        self.videos_served += telemetry.videos_assigned
        for response in responses:
            self.raw_sites.add(response.site_id)
        self.summary.initial_participants += 1
        if not self._judge(participant.participant_id, telemetry):
            return
        self.summary.kept_count += 1
        for target in self._targets:
            target.add_participant(participant)
        if not self.wisdom:
            for response in responses:
                self._keep(response)
            return
        for response in responses:
            index = self._video_index.setdefault(response.video_id, len(self._video_index))
            if not response.saw_control_frame:
                self._chunk_buffers.setdefault(index, []).append(
                    _canonical(timeline_response_to_dict(response))
                )

    def flush_chunk(self) -> None:
        """Append this chunk's spooled wisdom fragments to their video files."""
        if not self.wisdom or not self._chunk_buffers:
            return
        for index, lines in self._chunk_buffers.items():
            path = self._spool_dir / f"{index}.jsonl"
            with path.open("a", encoding="utf-8") as handle:
                handle.write("\n".join(lines) + "\n")
        self._chunk_buffers = {}

    # -- finalisation ------------------------------------------------------------

    def finalize(self) -> None:
        """Apply the wisdom filter (second pass, streamed per video)."""
        if not self.wisdom:
            return
        cfg = self.pipeline.config
        low = cfg.wisdom_low_percentile
        high = cfg.wisdom_high_percentile
        for index in range(len(self._video_index)):
            path = self._spool_dir / f"{index}.jsonl"
            if not path.exists():
                continue  # every response for this video was a control frame
            # Two passes over the spool so live memory stays one row plus a
            # float per response: materialising every parsed row dict for a
            # video would grow as O(participants / sites), the exact shape
            # the streaming pipeline exists to avoid.
            values = [row["submitted_time"] for row in self._iter_spool_rows(path)]
            if not values:
                continue
            lower = percentile(values, low)
            upper = percentile(values, high)
            values = []
            for row in self._iter_spool_rows(path):
                if lower <= row["submitted_time"] <= upper:
                    self._keep(timeline_response_from_dict(row))
                else:
                    self.summary.responses_dropped_wisdom += 1

    @staticmethod
    def _iter_spool_rows(path) -> Iterator[Dict[str, object]]:
        """Parse one spooled wisdom row at a time (bounded live memory)."""
        with path.open("r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if line:
                    yield json.loads(line)

    def uplt_by_site(self) -> Dict[str, float]:
        """Per-site mean UPLT, identical to ``mean_uplt_per_site(clean)``."""
        return {site: total / count for site, (total, count) in self._uplt.items() if count}

    def helper_effect(self) -> Dict[str, Dict[str, float]]:
        """Per-video means, identical to ``slider_vs_submitted(clean)``."""
        effect: Dict[str, Dict[str, float]] = {}
        for video_id, stats in self._video_stats.items():
            slider_sum, n, helper_sum, helper_n, submitted_sum = stats
            if not n:
                continue
            effect[video_id] = {
                "slider": slider_sum / n,
                "frame_helper": (helper_sum / helper_n) if helper_n else 0.0,
                "submitted": submitted_sum / n,
            }
        return effect

    def close(self) -> None:
        """Release the wisdom spool directory."""
        if self._spool is not None:
            self._spool.cleanup()
            self._spool = None


def _observed(arrivals: Iterable, summary: RecruitmentSummary) -> Iterator:
    """Pass arrivals through, folding each into the recruitment totals."""
    for recruited in arrivals:
        summary.observe(recruited)
        yield recruited


def run_streaming_campaign(runner, experiment, mode: str, *,
                           chunk_size: int = 256, warehouse=None,
                           kind: Optional[str] = None, metrics_by_site=None,
                           keep_dataset: bool = False, checkpoint_dir=None,
                           stop_after_chunks: Optional[int] = None) -> StreamingCampaignResult:
    """Run one campaign as a bounded-memory stream of participant chunks.

    Args:
        runner: the configured :class:`~repro.core.campaign.CampaignRunner`
            whose engine (admission, chunk loop, checkpoints) is driven; a
            streaming run is interchangeable with a batch run of the same
            runner configuration.
        experiment: the timeline or A/B experiment to run.
        mode: "timeline" or "ab".
        chunk_size: participants per execution chunk; peak memory scales
            with this, not with the campaign size.
        warehouse: optional :class:`~repro.warehouse.ResultsWarehouse`;
            cleaned fragments are ingested incrementally and the landed
            record (bit-identical id to a batch ingest) is attached to the
            result.
        kind: experiment kind for the warehouse record (defaults to the
            experiment type, matching batch ingest).
        metrics_by_site: per-site machine metrics for the warehouse record.
        keep_dataset: also materialise the clean dataset on the result
            (defeats the memory bound; for equivalence testing).
        checkpoint_dir: chunk checkpoint directory for kill+resume.
        stop_after_chunks: chaos hook — with a checkpoint directory, raise
            :class:`~repro.errors.CampaignInterrupted` before the next fresh
            chunk once this many fresh chunks are durable.

    Raises:
        CampaignError: for a non-positive ``chunk_size`` or an unknown mode.
        CheckpointError: when a checkpointed chunk does not match its
            recomputed roster slice.
        CampaignInterrupted: see ``stop_after_chunks``.
    """
    if mode not in ("timeline", "ab"):
        raise CampaignError(f"unknown streaming campaign mode {mode!r}")
    config = runner.config
    runner._check_task_schemes(experiment)
    server = runner._server(experiment)
    recruitment = RecruitmentSummary(campaign_id=config.campaign_id, service=config.service)
    arrivals = Recruiter(seed=config.seed, rng_scheme=config.rng_scheme).recruit_iter(
        config.campaign_id, config.participant_count, config.service
    )
    dropouts: Dict[str, Dict[str, int]] = {}
    sink = (
        warehouse.streaming_ingest(
            config.campaign_id, mode, config.rng_scheme, config.network_profile
        )
        if warehouse is not None else None
    )
    collector = _StreamingCollector(config, mode, sink=sink, keep_dataset=keep_dataset)
    obs = runner._obs
    chunk_numbers = count()

    def fold(chunk: List, results: List) -> None:
        for (participant, _tasks), result in zip(chunk, results):
            collector.consume(participant, result)
        collector.flush_chunk()
        if obs.enabled:
            # Chunk boundaries are an execution choice (chunk_size), so the
            # span stays out of the deterministic digest.
            obs.record("streaming.chunk", deterministic=False,
                       index=next(chunk_numbers), sessions=len(chunk))
            obs.counter_add("streaming.chunks_processed")

    try:
        admissions = runner._admissions(
            experiment, mode, _observed(arrivals, recruitment), server, dropouts
        )
        chunks_total, chunks_executed = runner._run_chunks(
            experiment, mode, admissions, chunk_size, fold,
            checkpoint_dir=checkpoint_dir, stop_after_chunks=stop_after_chunks,
        )
        collector.finalize()

        # Same deterministic span family as the batch fold, from the
        # streaming aggregates the equivalence contracts already pin to the
        # batch outputs — so both folds digest identically.
        runner._emit_campaign_spans(
            mode, admitted=server.admitted_count,
            videos_served=collector.videos_served,
            filter_summary=collector.summary.summary_row(),
            clean_responses=collector.clean_responses,
        )

        result = StreamingCampaignResult(
            config=config,
            experiment_type=mode,
            recruitment=recruitment,
            filter_summary=collector.summary,
            videos_served=collector.videos_served,
            site_count=len(collector.raw_sites),
            admitted_count=server.admitted_count,
            rejected_count=server.rejected_count,
            clean_response_count=collector.clean_responses,
            chunks_total=chunks_total,
            chunks_executed=chunks_executed,
            uplt_by_site=collector.uplt_by_site(),
            helper_effect=collector.helper_effect(),
            resilience=runner._injector.report(dropouts) if runner._injector else None,
            clean_dataset=collector.dataset,
        )
        if sink is not None:
            from ..warehouse.store import _record_fields

            fields = _record_fields(
                kind=kind or mode,
                campaign_id=config.campaign_id,
                experiment_type=mode,
                rng_scheme=config.rng_scheme,
                network_profile=config.network_profile,
                seed=config.seed,
                participants=config.participant_count,
                sites=result.site_count,
                videos_per_participant=config.videos_per_participant,
                table1=result.table1_row,
                filter_summary=result.filter_summary.summary_row(),
                videos_served=result.videos_served,
                uplt_by_site=result.uplt_by_site or None,
                metrics_by_site=metrics_by_site,
                resilience=result.resilience,
            )
            result.warehouse_record = sink.finalize(fields)
            sink = None  # finalize closed it; nothing to abort
        return result
    except BaseException:
        if sink is not None:
            sink.abort()
        raise
    finally:
        collector.close()
