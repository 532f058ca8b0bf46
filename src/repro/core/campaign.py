"""Campaign execution: one engine, two folds.

A *campaign* is what Table 1 enumerates: one experiment (timeline or A/B),
one participant pool, a target participant count, and the resulting
responses.  :class:`CampaignRunner` runs the loop of paper §4 — recruit,
admit through the captcha, assign tasks, run sessions, filter — on one
engine of three parts:

* **admission** (:meth:`~CampaignRunner._admissions`): a lazy generator
  that admits and assigns each arrival, injects A/B control pairs and
  applies the fault plan's dropout, serially in arrival order (its draws
  are sequential on campaign streams);
* **the chunk loop** (:meth:`~CampaignRunner._run_chunks`): runs each
  chunk of admitted participants through :func:`_run_chunk` — in-process,
  or with ``parallel_workers > 1`` in contiguous slices on the run's one
  process pool — or loads it from a checkpoint, then hands the results to
  a fold.  Sessions draw only from streams forked with their participant
  id, so chunking, slicing and execution order change no outcome;
* **the checkpoint protocol**: the manifest pins the participant count,
  not the roster; each chunk is a ``{"pids", "results"}`` envelope checked
  against the recomputed slice; ``stop_after_chunks=N`` raises before a
  fresh chunk executes once ``N`` fresh chunks are durable.

The batch fold (:meth:`~CampaignRunner.run_timeline`, :meth:`~CampaignRunner.
run_ab`) builds the raw dataset and telemetry and filters them into a
:class:`CampaignResult`; without a checkpoint directory it runs the whole
roster as one chunk.  The streaming fold (:mod:`repro.core.streaming`)
aggregates each session as it finishes, in memory bounded by the chunk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple, Union

from ..config import VIDEOS_PER_PARTICIPANT
from ..crowd.participant import Participant
from ..crowd.recruitment import Recruiter, RecruitmentReport, RecruitmentSummary
from ..errors import CampaignError, CampaignInterrupted, CheckpointError
from ..faults import BOUNDARY_WORKER, CheckpointStore, FaultInjector, ResilienceReport
from ..obs import resolve_obs
from ..rng import (
    DEFAULT_RNG_SCHEME,
    SCHEME_SPLITMIX64_BATCH_V3,
    SeededRNG,
    require_same_scheme,
    validate_scheme,
)
from .experiment import ABExperiment, TimelineExperiment
from .frame_helper import FrameSelectionHelper
from .responses import ResponseDataset
from .server import EyeorgServer
from .session import ParticipantSession, SessionTelemetry
from .session_kernel import run_cohort_kernel
from .validation import FilterConfig, FilteringPipeline, FilterReport


@dataclass(frozen=True)
class CampaignConfig:
    """Configuration of one campaign.

    Attributes:
        campaign_id: identifier (e.g. "final-plt-timeline").
        participant_count: recruitment target.
        service: recruiting service ("crowdflower", "microworkers", "invited").
        videos_per_participant: task-list size per participant.
        preload_video: whether timeline tests preload the full video.
        frame_helper_enabled: whether the frame-selection helper runs.
        filter_config: filtering thresholds (None for the defaults).
        seed: campaign-level random seed.
        rng_scheme: versioned RNG scheme the whole campaign runs under (see
            :mod:`repro.rng`); videos captured under a different scheme are
            rejected with :class:`~repro.errors.RNGSchemeMismatchError`.
        parallel_workers: number of worker processes for participant
            sessions; 0 or 1 runs sessions serially (the default).  A
            pooled run opens one process pool for the whole run and is
            deterministic and bit-identical to the serial one.
        network_profile: name of the network-emulation profile the
            campaign's videos were captured under (None when the caller did
            not record one).  Purely descriptive — it seeds no stream — but
            it lets sweep results self-describe their condition.
    """

    campaign_id: str
    participant_count: int
    service: str = "crowdflower"
    videos_per_participant: int = VIDEOS_PER_PARTICIPANT
    preload_video: bool = True
    frame_helper_enabled: bool = True
    filter_config: Optional[FilterConfig] = None
    seed: int = 2016
    rng_scheme: str = DEFAULT_RNG_SCHEME
    parallel_workers: int = 0
    network_profile: Optional[str] = None

    def __post_init__(self) -> None:
        validate_scheme(self.rng_scheme)
        if self.participant_count <= 0:
            raise CampaignError("participant_count must be positive")
        if self.videos_per_participant <= 0:
            raise CampaignError("videos_per_participant must be positive")
        if self.parallel_workers < 0:
            raise CampaignError("parallel_workers must be non-negative")


def build_table1_row(campaign_id: str, experiment_type: str, *, participants: int,
                     gender_split: Dict[str, int], duration_hours: float,
                     total_cost_usd: float, filter_summary: Dict[str, int]) -> Dict[str, object]:
    """One row of Table 1 from plain aggregates.

    Shared by the batch and the streaming result; the streaming fold never
    materialises the recruitment report or the filter rosters — only these
    totals.
    """
    duration = (
        f"{duration_hours:.1f} hours" if duration_hours < 48 else f"{duration_hours / 24.0:.1f} days"
    )
    return {
        "campaign": campaign_id,
        "type": experiment_type,
        "participants": participants,
        "male": gender_split["male"],
        "female": gender_split["female"],
        "duration": duration,
        "cost_usd": round(total_cost_usd, 2),
        "engagement_filtered": filter_summary["engagement"],
        "soft_filtered": filter_summary["soft"],
        "control_filtered": filter_summary["control"],
    }


@dataclass
class _CampaignOutcome:
    """What the batch and the streaming result share: identity and Table 1.

    Subclasses name their filter counts through :meth:`_filter_summary`.
    """

    config: CampaignConfig
    experiment_type: str
    recruitment: Union[RecruitmentReport, RecruitmentSummary]

    def _filter_summary(self) -> Dict[str, int]:
        raise NotImplementedError

    @property
    def table1_row(self) -> Dict[str, object]:
        """One row of Table 1 for this campaign (identical across the folds)."""
        return build_table1_row(
            self.config.campaign_id, self.experiment_type,
            participants=self.recruitment.count,
            gender_split=self.recruitment.gender_split,
            duration_hours=self.recruitment.duration_hours,
            total_cost_usd=self.recruitment.total_cost_usd,
            filter_summary=self._filter_summary(),
        )

    @property
    def rng_scheme(self) -> str:
        """The versioned RNG scheme that produced this result."""
        return self.config.rng_scheme

    @property
    def network_profile(self) -> Optional[str]:
        """The capture network profile this campaign's videos ran under."""
        return self.config.network_profile


@dataclass
class CampaignResult(_CampaignOutcome):
    """Everything produced by one batch campaign run.

    Attributes:
        config: the campaign configuration.
        experiment_type: "timeline" or "ab".
        recruitment: the recruitment report (duration, cost, demographics).
        raw_dataset: all responses before filtering.
        clean_dataset: responses after the filtering pipeline.
        telemetry: per-participant session telemetry.
        filter_report: per-technique filtering counts (Table 1 columns).
        resilience: how the run survived its fault plan (None for fault-free
            runs, which keeps fault-free results byte-identical to before
            fault injection existed).
    """

    raw_dataset: ResponseDataset
    clean_dataset: ResponseDataset
    telemetry: Dict[str, SessionTelemetry]
    filter_report: FilterReport
    resilience: Optional[ResilienceReport] = None

    def _filter_summary(self) -> Dict[str, int]:
        return self.filter_report.summary_row()

    @property
    def videos_served(self) -> int:
        """Total number of video tasks served to participants."""
        return sum(t.videos_assigned for t in self.telemetry.values())


# -- the session chunk function -------------------------------------------------
#
# Every chunk of sessions runs through :func:`_run_chunk`, in the parent or
# on a pool worker.  A pooled run ships the (heavy) shared task pool once per
# worker through the pool initializer; a task from it travels as its int
# index, so only participant-specific objects (e.g. injected A/B control
# pairs) are pickled per slice.

#: The shared task pool of a pooled run; written only in pool workers.
_WORKER_POOL_TASKS: List = []


def _init_worker_pool(tasks: List) -> None:
    global _WORKER_POOL_TASKS
    _WORKER_POOL_TASKS = tasks


def ab_control_flags(control_rng: SeededRNG, participant_id: str, count: int,
                     probability: float) -> List[bool]:
    """Which of one participant's A/B task slots become control pairs.

    Under ``splitmix64-batch-v3`` the flags come from one batched Bernoulli
    block per participant; earlier schemes keep their original per-slot
    label forks.  Either way a flag depends only on (campaign seed,
    participant id, slot index), so chunking and dropout truncation cannot
    shift which slots are controls.
    """
    if control_rng.scheme == SCHEME_SPLITMIX64_BATCH_V3:
        return control_rng.fork_once(f"controls:{participant_id}").bernoulli_array(
            probability, count
        )
    return [
        control_rng.fork_once(f"{participant_id}:{index}").bernoulli(probability)
        for index in range(count)
    ]


def _run_chunk(mode: str, batch: List[Tuple[Participant, List]], parent_seed: int,
               scheme: str, helper: Optional[FrameSelectionHelper], preload: bool,
               obs=None) -> List:
    """Run one chunk of ``(participant, tasks)`` sessions; results in batch order.

    Under ``splitmix64-batch-v3`` the whole chunk goes through the
    struct-of-arrays cohort kernel in one call; other schemes run one
    :class:`ParticipantSession` per participant.  Forking only reads the
    parent's seed and scheme, so rebuilding the campaign generator from them
    yields the same child streams in the parent and on any worker.
    """
    if scheme == SCHEME_SPLITMIX64_BATCH_V3:
        return run_cohort_kernel(mode, batch, parent_seed, helper=helper, preload=preload,
                                 obs=obs)
    rng = SeededRNG(parent_seed, scheme)
    results = []
    for participant, tasks in batch:
        session = ParticipantSession(participant, rng, frame_helper=helper, preload_video=preload)
        results.append(
            session.run_timeline(tasks) if mode == "timeline" else session.run_ab(tasks)
        )
    return results


def _run_pool_slice(mode: str, encoded: List[Tuple[Participant, List]],
                    session_args: Tuple, plan) -> List:
    """Worker entry: decode one slice and run it through :func:`_run_chunk`.

    A participant whose worker the fault plan crashes is left out; their
    slot in the returned list is None, so the parent can re-run them.
    """
    crashed = [plan is not None and plan.fires(BOUNDARY_WORKER, participant.participant_id)
               for participant, _tasks in encoded]
    done = iter(_run_chunk(mode, [
        (participant, [_WORKER_POOL_TASKS[t] if isinstance(t, int) else t for t in tasks])
        for (participant, tasks), left_out in zip(encoded, crashed) if not left_out
    ], *session_args))
    return [None if left_out else next(done) for left_out in crashed]


class CampaignRunner:
    """Runs campaigns end-to-end.

    Args:
        config: the campaign configuration.
        perf: optional :class:`repro.perf.PerfReport`; when provided, the
            runner records "sessions" and "filtering" stage timings into it
            (used by ``benchmarks/bench_perf_pipeline.py``).
        injector: optional :class:`repro.faults.FaultInjector`; when
            provided, the runner injects the plan's participant dropouts and
            worker crashes (and absorbs them), and attaches a
            :class:`~repro.faults.ResilienceReport` to the result.
        obs: optional :class:`repro.obs.Observer`; the runner emits one
            deterministic ``campaign`` span (with ``campaign.sessions`` and
            ``campaign.filtering`` children) per run, derived purely from
            the run's outputs so batch, pooled, checkpointed and streaming
            execution all produce the identical trace digest.
    """

    def __init__(self, config: CampaignConfig, perf=None,
                 injector: Optional[FaultInjector] = None, obs=None) -> None:
        self.config = config
        self.perf = perf
        self._injector = injector
        self._obs = resolve_obs(obs)
        self._rng = SeededRNG(config.seed, config.rng_scheme).fork(
            f"campaign:{config.campaign_id}"
        )

    # -- internals --------------------------------------------------------------

    def _check_task_schemes(self, experiment) -> None:
        """Reject task videos captured under a scheme other than the campaign's.

        Timeline tasks are :class:`~repro.capture.video.Video` objects and
        A/B tasks are pairs whose ``spliced`` artefact exposes the underlying
        captures' scheme; either way an artifact produced under a different
        versioned RNG scheme must not be mixed into this campaign.
        """
        expected = self.config.rng_scheme
        for task in experiment.task_pool():
            spliced = getattr(task, "spliced", None)
            artifact = spliced if spliced is not None else task
            scheme = getattr(artifact, "rng_scheme", None)
            if scheme is not None:
                require_same_scheme(
                    expected, scheme,
                    f"campaign {self.config.campaign_id!r} task "
                    f"{getattr(artifact, 'video_id', artifact)!r}",
                )

    def _server(self, experiment) -> EyeorgServer:
        """The campaign's captcha gate and task assigner (counts, no rosters)."""
        return EyeorgServer(
            experiment, videos_per_participant=self.config.videos_per_participant,
            seed=self.config.seed, rng_scheme=self.config.rng_scheme,
            track_rosters=False,
        )

    def _apply_dropout(self, participant: Participant, tasks: List,
                       dropouts: Dict[str, Dict[str, int]]) -> List:
        """Admission hook: truncate a task list when the plan drops the participant.

        Dropout is decided during (always re-executed, serial) admission, so
        an uninterrupted run and a checkpoint-resumed run reach the exact
        same roster.  The truncated list models a participant abandoning the
        session after ``completed`` submissions; their partial work stays in
        the dataset like the real platform kept partial sessions.
        """
        if self._injector is None:
            return tasks
        point = self._injector.plan.dropout_after(participant.participant_id, len(tasks))
        if point is None:
            return tasks
        self._injector.counters.dropouts_injected += 1
        dropouts[participant.participant_id] = {
            "completed": point, "assigned": len(tasks),
        }
        return list(tasks)[:point]

    def _emit_campaign_spans(self, experiment_type: str, *, admitted: int,
                             videos_served: int, filter_summary: Dict[str, int],
                             clean_responses: int) -> None:
        """Emit the deterministic campaign/sessions/filtering span family.

        Every attribute is a pure function of the run's *outputs* (roster
        size, served videos, filter counts), all of which the batch,
        pooled, checkpoint-resumed and streaming paths are already
        contractually bit-identical on — so all of them digest the same.
        """
        obs = self._obs
        if not obs.enabled:
            return
        with obs.span("campaign", deterministic=True,
                      campaign_id=self.config.campaign_id,
                      experiment_type=experiment_type,
                      seed=self.config.seed,
                      rng_scheme=self.config.rng_scheme,
                      participants=self.config.participant_count,
                      network_profile=self.config.network_profile):
            obs.record("campaign.sessions", admitted=admitted,
                       videos_served=videos_served)
            obs.record("campaign.filtering",
                       engagement=filter_summary["engagement"],
                       soft=filter_summary["soft"],
                       control=filter_summary["control"],
                       clean_responses=clean_responses)
        obs.counter_add("campaign.runs", deterministic=True)
        obs.counter_add("campaign.participants_admitted", admitted,
                        deterministic=True)
        obs.counter_add("campaign.responses_clean", clean_responses,
                        deterministic=True)

    def _session_args(self, experiment, mode: str) -> Tuple:
        """``(parent_seed, scheme, helper, preload)``: :func:`_run_chunk`'s run-wide arguments."""
        if mode != "timeline":
            return self._rng.seed, self.config.rng_scheme, None, True
        helper = FrameSelectionHelper(
            control_probability=experiment.control_frame_probability,
            enabled=self.config.frame_helper_enabled,
        )
        preload = self.config.preload_video and experiment.preload_video
        return self._rng.seed, self.config.rng_scheme, helper, preload

    def _run_pooled(self, pool, index_by_id: Dict[int, int], mode: str,
                    chunk: List[Tuple[Participant, List]], session_args: Tuple) -> List:
        """Fan one chunk out over ``pool`` in contiguous slices; merge in order.

        A participant the fault plan crashes on its worker is re-run here,
        in-process, and counted once.
        """
        injector = self._injector
        plan = injector.plan if injector is not None else None
        size = max(1, len(chunk) // (min(self.config.parallel_workers, len(chunk)) * 4))
        slices = [chunk[start:start + size] for start in range(0, len(chunk), size)]
        futures = [pool.submit(_run_pool_slice, mode, [
            (participant, [index_by_id.get(id(task), task) for task in tasks])
            for participant, tasks in piece
        ], session_args, plan) for piece in slices]
        results: List = []
        for piece, future in zip(slices, futures):
            try:
                done = future.result()
            except Exception as exc:
                # KeyboardInterrupt is a BaseException and escapes untouched.
                raise CampaignError(
                    f"parallel session batch failed at participant "
                    f"{piece[0][0].participant_id!r}: {exc}"
                ) from exc
            for item, result in zip(piece, done):
                if result is None:
                    injector.counters.worker_crashes_injected += 1
                    injector.counters.worker_crash_retries += 1
                    injector.counters.backoff_seconds_total += injector.policy.retry.backoff_delay(
                        plan, f"worker:{item[0].participant_id}", 0
                    )
                    [result] = _run_chunk(mode, [item], *session_args, obs=self._obs)
                results.append(result)
        return results

    # -- the engine ---------------------------------------------------------------

    def _admissions(self, experiment, mode: str, arrivals: Iterable,
                    server: EyeorgServer,
                    dropouts: Dict[str, Dict[str, int]]) -> Iterator[Tuple[Participant, List]]:
        """Yield ``(participant, tasks)`` for each admitted arrival, lazily.

        The one place participants enter a campaign: captcha and assignment
        (:meth:`EyeorgServer.admit_and_assign`), then — for A/B campaigns —
        control-pair injection, then the fault plan's dropout.  Each step
        draws sequentially from a campaign stream, so arrivals are consumed
        strictly in order; the generator never looks ahead, which keeps a
        streaming run's admission state O(1).
        """
        control_rng = self._rng.fork("ab-controls") if mode == "ab" else None
        for recruited in arrivals:
            participant = recruited.participant
            tasks = server.admit_and_assign(participant)
            if tasks is None:
                continue
            if control_rng is not None:
                # Replace a random subset of slots with control pairs.
                tasks = list(tasks)
                flags = ab_control_flags(
                    control_rng, participant.participant_id, len(tasks),
                    experiment.control_pair_probability,
                )
                for index, is_control in enumerate(flags):
                    if is_control:
                        tasks[index] = experiment.make_control_pair(
                            tasks[index], control_rng, index
                        )
            # Dropout truncates only after control injection has consumed its
            # (label-derived) streams, so the control draws of participants
            # who stay are unaffected by who drops out.
            yield participant, self._apply_dropout(participant, tasks, dropouts)

    def _run_chunks(self, experiment, mode: str,
                    admissions: Iterable[Tuple[Participant, List]], chunk_size: int,
                    fold: Callable[[List, List], None], *, checkpoint_dir=None,
                    stop_after_chunks: Optional[int] = None) -> Tuple[int, int]:
        """Execute or load ``admissions`` chunk by chunk, folding every chunk.

        ``fold(chunk, results)`` receives each chunk's ``(participant,
        tasks)`` pairs and their session results, in admission order.  With
        ``checkpoint_dir`` every executed chunk is saved as a ``{"pids",
        "results"}`` envelope before the next one starts, a chunk already on
        disk is loaded instead of re-run (after checking its ``pids``
        against the recomputed slice), and ``stop_after_chunks`` raises
        :class:`~repro.errors.CampaignInterrupted` before a fresh chunk
        executes once that many fresh chunks are durable.

        Returns:
            ``(chunks, fresh)``: chunks folded, and how many of them were
            executed rather than loaded.

        Raises:
            CampaignError: for a chunk size below 1.
            CheckpointError: when a stored chunk does not match its slice.
            CampaignInterrupted: see ``stop_after_chunks``.
        """
        if chunk_size < 1:
            raise CampaignError(f"chunk size must be at least 1, got {chunk_size}")
        # A materialised (batch) roster knows its chunk count; a stream does not.
        total_chunks = -(-len(admissions) // chunk_size) if isinstance(admissions, list) else 0
        session_args = self._session_args(experiment, mode)
        store = None
        if checkpoint_dir is not None:
            # The roster is a pure function of the config, so pinning its
            # count keeps the manifest O(1); each chunk's envelope still
            # pins that chunk's participant ids.
            store = CheckpointStore(checkpoint_dir, {
                "campaign_id": self.config.campaign_id,
                "seed": self.config.seed,
                "rng_scheme": self.config.rng_scheme,
                "mode": mode,
                "chunk_size": chunk_size,
                "participant_count": self.config.participant_count,
                "fault_plan": self._injector.plan.as_dict() if self._injector else None,
            })
        workers = self.config.parallel_workers
        pool = None
        index = fresh = 0
        try:
            for chunk in _chunked(admissions, chunk_size):
                pids = [participant.participant_id for participant, _tasks in chunk]
                if store is not None and store.has_chunk(index):
                    payload = store.load_chunk(index)
                    if not (isinstance(payload, dict) and payload.get("pids") == pids):
                        raise CheckpointError(
                            f"checkpoint chunk {index} at {checkpoint_dir} does not "
                            f"match the recomputed participant slice; refusing to resume"
                        )
                    results = payload["results"]
                    self._obs.counter_add("checkpoint.chunks_loaded")
                else:
                    if (store is not None and stop_after_chunks is not None
                            and fresh >= stop_after_chunks):
                        raise CampaignInterrupted(
                            f"campaign {self.config.campaign_id!r} stopped after {fresh} "
                            f"fresh chunk(s); {index} chunk(s) checkpointed at {checkpoint_dir}",
                            completed_chunks=index, total_chunks=total_chunks,
                        )
                    if workers > 1 and len(chunk) > 1:
                        if pool is None:
                            # One pool per run, opened at the first fresh
                            # chunk, so a fully checkpointed resume opens none.
                            from concurrent.futures import ProcessPoolExecutor

                            pool_tasks = experiment.task_pool()
                            index_by_id = {id(task): i for i, task in enumerate(pool_tasks)}
                            pool = ProcessPoolExecutor(
                                max_workers=min(workers, chunk_size),
                                initializer=_init_worker_pool, initargs=(pool_tasks,),
                            )
                        results = self._run_pooled(pool, index_by_id, mode, chunk, session_args)
                    else:
                        results = _run_chunk(mode, chunk, *session_args, obs=self._obs)
                    if store is not None:
                        store.save_chunk(index, {"pids": pids, "results": results})
                        self._obs.counter_add("checkpoint.chunks_executed")
                    fresh += 1
                fold(chunk, results)
                index += 1
                # Release this chunk before the next one is admitted, so a
                # streaming run holds one chunk of sessions at a time.
                del chunk, pids, results
        finally:
            if pool is not None:
                # Tears the workers down on success, error and interrupt alike.
                pool.shutdown(cancel_futures=True)
        return index, fresh

    def _run_batch(self, experiment, mode: str, checkpoint_dir,
                   checkpoint_chunk_size: int,
                   stop_after_chunks: Optional[int]) -> CampaignResult:
        """The batch fold: materialise the datasets, then filter them."""
        self._check_task_schemes(experiment)
        recruitment = Recruiter(
            seed=self.config.seed, rng_scheme=self.config.rng_scheme
        ).recruit(self.config.campaign_id, self.config.participant_count, self.config.service)
        dataset = ResponseDataset(campaign_id=self.config.campaign_id, experiment_type=mode,
                                  rng_scheme=self.config.rng_scheme,
                                  network_profile=self.config.network_profile)
        add_response = (
            dataset.add_timeline_response if mode == "timeline" else dataset.add_ab_response
        )
        telemetry: Dict[str, SessionTelemetry] = {}
        dropouts: Dict[str, Dict[str, int]] = {}
        admitted = list(self._admissions(
            experiment, mode, recruitment.participants, self._server(experiment), dropouts
        ))

        def fold(chunk: List, results: List) -> None:
            for (participant, _tasks), result in zip(chunk, results):
                dataset.add_participant(participant)
                for response in result.responses:
                    add_response(response)
                telemetry[participant.participant_id] = result.telemetry

        # Without a checkpoint the whole roster is one chunk: one kernel
        # call, one process pool.
        chunk_size = max(1, len(admitted))
        if checkpoint_dir is not None:
            chunk_size = checkpoint_chunk_size
        timer = self.perf.stage("sessions") if self.perf else None
        if timer:
            timer.start()
        self._run_chunks(experiment, mode, admitted, chunk_size, fold,
                         checkpoint_dir=checkpoint_dir, stop_after_chunks=stop_after_chunks)
        if timer:
            timer.finish(events=len(admitted))

        filter_timer = self.perf.stage("filtering") if self.perf else None
        if filter_timer:
            filter_timer.start()
        clean, report = FilteringPipeline(self.config.filter_config).run(dataset, telemetry)
        if filter_timer:
            filter_timer.finish(events=len(dataset.timeline_responses))
        self._emit_campaign_spans(
            mode, admitted=len(admitted),
            videos_served=sum(t.videos_assigned for t in telemetry.values()),
            filter_summary=report.summary_row(),
            clean_responses=len(clean.timeline_responses) + len(clean.ab_responses),
        )
        return CampaignResult(
            config=self.config,
            experiment_type=mode,
            recruitment=recruitment,
            raw_dataset=dataset,
            clean_dataset=clean,
            telemetry=telemetry,
            filter_report=report,
            resilience=self._injector.report(dropouts) if self._injector else None,
        )

    # -- public API -------------------------------------------------------------

    def run_timeline(self, experiment: TimelineExperiment, *,
                     checkpoint_dir=None, checkpoint_chunk_size: int = 16,
                     stop_after_chunks: Optional[int] = None) -> CampaignResult:
        """Run a timeline campaign against ``experiment``.

        Args:
            experiment: the timeline experiment to run.
            checkpoint_dir: when given, sessions are checkpointed in chunks
                to this directory and a re-run resumes from surviving chunks
                with byte-identical results.
            checkpoint_chunk_size: sessions per checkpoint chunk.
            stop_after_chunks: chaos hook — with a checkpoint directory,
                raise :class:`~repro.errors.CampaignInterrupted` before the
                next fresh chunk once this many fresh chunks are durable
                (simulating a mid-run kill at a chunk boundary).

        Raises:
            RNGSchemeMismatchError: when the experiment's videos were
                captured under a scheme other than the campaign's.
            CheckpointError: when ``checkpoint_dir`` holds another run's
                checkpoint, or a chunk that does not match its slice.
            CampaignInterrupted: see ``stop_after_chunks``.
        """
        return self._run_batch(experiment, "timeline", checkpoint_dir,
                               checkpoint_chunk_size, stop_after_chunks)

    def run_ab(self, experiment: ABExperiment, *,
               checkpoint_dir=None, checkpoint_chunk_size: int = 16,
               stop_after_chunks: Optional[int] = None) -> CampaignResult:
        """Run an A/B campaign against ``experiment``.

        Control pairs are injected per participant: each task slot is
        replaced by a delayed-copy control with the experiment's configured
        probability, so every participant sees roughly one control.

        Checkpointing works exactly as in :meth:`run_timeline` (same
        ``checkpoint_dir`` / ``checkpoint_chunk_size`` / ``stop_after_chunks``
        contract).

        Raises:
            RNGSchemeMismatchError: when the experiment's videos were
                captured under a scheme other than the campaign's.
            CheckpointError: see :meth:`run_timeline`.
            CampaignInterrupted: see :meth:`run_timeline`.
        """
        return self._run_batch(experiment, "ab", checkpoint_dir,
                               checkpoint_chunk_size, stop_after_chunks)

    def run_timeline_streaming(self, experiment: TimelineExperiment, *,
                               chunk_size: int = 256, warehouse=None,
                               kind: Optional[str] = None, metrics_by_site=None,
                               keep_dataset: bool = False, checkpoint_dir=None,
                               stop_after_chunks: Optional[int] = None):
        """Run a timeline campaign as a bounded-memory streaming pipeline.

        The engine of :meth:`run_timeline` with the streaming fold: each
        session is judged and aggregated as it finishes, so at most one
        ``chunk_size`` chunk of sessions is in memory, and every aggregate
        (Table 1 row, filter counts, per-site UPLT, helper effect, the
        warehouse record) is bit-identical to :meth:`run_timeline`'s.
        Arguments as for :func:`repro.core.streaming.run_streaming_campaign`;
        returns a :class:`~repro.core.streaming.StreamingCampaignResult`.
        """
        from .streaming import run_streaming_campaign

        return run_streaming_campaign(
            self, experiment, "timeline", chunk_size=chunk_size,
            warehouse=warehouse, kind=kind, metrics_by_site=metrics_by_site,
            keep_dataset=keep_dataset, checkpoint_dir=checkpoint_dir,
            stop_after_chunks=stop_after_chunks,
        )

    def run_ab_streaming(self, experiment: ABExperiment, *,
                         chunk_size: int = 256, warehouse=None,
                         kind: Optional[str] = None, metrics_by_site=None,
                         keep_dataset: bool = False, checkpoint_dir=None,
                         stop_after_chunks: Optional[int] = None):
        """Run an A/B campaign as a bounded-memory streaming pipeline.

        The streaming counterpart of :meth:`run_ab`, exactly as
        :meth:`run_timeline_streaming` is of :meth:`run_timeline`.
        """
        from .streaming import run_streaming_campaign

        return run_streaming_campaign(
            self, experiment, "ab", chunk_size=chunk_size,
            warehouse=warehouse, kind=kind, metrics_by_site=metrics_by_site,
            keep_dataset=keep_dataset, checkpoint_dir=checkpoint_dir,
            stop_after_chunks=stop_after_chunks,
        )


def _chunked(items: Iterable, size: int) -> Iterator[List]:
    """Group ``items`` into lists of ``size`` (the last may be shorter).

    A chunk is handed over and forgotten before the next one is filled, so
    a lazy source is never held more than one chunk at a time.
    """
    chunk: List = []
    for item in items:
        chunk.append(item)
        if len(chunk) == size:
            yield chunk
            chunk = []
    if chunk:
        yield chunk


def format_table1(rows: List[Dict[str, object]]) -> str:
    """Render Table-1-style rows as an aligned text table."""
    if not rows:
        raise CampaignError("cannot format an empty table")
    columns = list(rows[0].keys())
    widths = {c: max(len(str(c)), max(len(str(row.get(c, ""))) for row in rows)) for c in columns}
    header = " | ".join(str(c).ljust(widths[c]) for c in columns)
    separator = "-+-".join("-" * widths[c] for c in columns)
    lines = [header, separator]
    for row in rows:
        lines.append(" | ".join(str(row.get(c, "")).ljust(widths[c]) for c in columns))
    return "\n".join(lines)
