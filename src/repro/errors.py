"""Exception hierarchy for the Eyeorg reproduction.

All library-raised exceptions derive from :class:`ReproError` so that callers
can catch everything coming from the library with a single ``except`` clause
while still being able to discriminate on the specific failure.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by the ``repro`` package."""


class ConfigurationError(ReproError):
    """An invalid configuration value was supplied."""


class RNGDomainError(ConfigurationError, ValueError):
    """An RNG draw was requested with arguments outside the distribution's domain.

    Raised by :class:`repro.rng.SeededRNG` for requests that have no defined
    answer — a non-positive ``expovariate`` rate, a Pareto shape ``alpha <= 0``,
    an empty ``truncated_gauss`` window (``low > high``), empty/negative/all-zero
    weights, or a ``sample`` size outside ``[0, len(population)]``.  Subclasses
    :class:`ValueError` so callers treating these as plain value errors keep
    working, while the message always names the offending argument.
    """


class RNGSchemeMismatchError(ConfigurationError):
    """Artifacts produced under different versioned RNG schemes were mixed.

    Every stochastic artifact (capture-cache entry, captured video, campaign
    result, golden snapshot, perf report) records the RNG scheme that
    produced it; combining artifacts from different schemes would silently
    compare or reuse streams that are not bit-compatible, so it is an error.
    """


class NetworkError(ReproError):
    """A network-substrate operation failed (unreachable host, DNS failure...)."""


class DNSResolutionError(NetworkError):
    """A hostname could not be resolved."""


class ProtocolError(ReproError):
    """An HTTP-substrate operation violated protocol rules."""


class PageModelError(ReproError):
    """A web page model is malformed (cycles, dangling references...)."""


class CaptureError(ReproError):
    """webpeg failed to capture a page-load video."""


class VideoError(ReproError):
    """A video operation (splicing, frame lookup) failed."""


class ExperimentError(ReproError):
    """An experiment definition is invalid or inconsistent."""


class CampaignError(ReproError):
    """A campaign could not be assembled or executed."""


class RecruitmentError(ReproError):
    """Participant recruitment failed (quota exhausted, unknown service...)."""


class ValidationError(ReproError):
    """Response validation/filtering was asked to do something impossible."""


class AnalysisError(ReproError):
    """Analysis was asked to operate on empty or inconsistent data."""


class StorageError(ReproError):
    """A dataset could not be serialised or deserialised."""


class WarehouseError(StorageError):
    """A results-warehouse operation violated the store's contract.

    Raised when an ingest would silently rewrite history (a result with the
    same campaign key but different content), when a record id cannot be
    resolved, or when a stored record fails its content-address integrity
    check.
    """


class WarehouseCorruptionError(WarehouseError):
    """A stored warehouse file is corrupt on disk.

    Raised when a record file's bytes no longer hash to its content-address
    id, when a record or the sidecar index is unparsable, or when the index
    format tag is wrong.  Carries the offending ``path`` so operators (and
    ``python -m repro.warehouse fsck``) can point at the exact file.
    """

    def __init__(self, message: str, path=None) -> None:
        super().__init__(message)
        #: Filesystem path of the corrupt file (``None`` when unknown).
        self.path = str(path) if path is not None else None


class CheckpointError(StorageError):
    """A campaign checkpoint directory is unusable for resume.

    Raised when a checkpoint manifest does not match the resuming campaign
    (different config, chunk size, participant set, or fault plan), or when
    a stored chunk cannot be read back.
    """


class FaultInjectionError(ReproError):
    """Base class for every *injected* fault (see :mod:`repro.faults`).

    Injected faults are deterministic, seeded simulations of real-world
    failures; the resilience machinery (retry, circuit breaker, checkpoint/
    resume) is expected to absorb them.  One escaping to a caller means a
    fault exceeded the configured resilience budget.
    """


class TransientCaptureFault(FaultInjectionError):
    """An injected transient capture failure (one webpeg attempt aborted)."""


class CaptureStallFault(TransientCaptureFault):
    """An injected capture stall that exceeded the per-stage timeout."""


class WorkerCrashFault(FaultInjectionError):
    """An injected crash of one process-pool worker."""


class TornWriteFault(FaultInjectionError):
    """An injected torn (partial) write of a warehouse file."""


class RetryExhaustedError(ReproError):
    """Every retry attempt of an operation failed.

    Carries ``attempts`` (how many were made) and ``last_fault`` (the final
    failure) so callers can report the whole retry history.
    """

    def __init__(self, message: str, attempts: int = 0, last_fault=None) -> None:
        super().__init__(message)
        self.attempts = attempts
        self.last_fault = last_fault


class CircuitOpenError(ReproError):
    """The circuit breaker has quarantined this unit (too many failures)."""


class CampaignInterrupted(CampaignError):
    """A checkpointed campaign was deliberately killed at a chunk boundary.

    Raised by the ``stop_after_chunks=N`` chaos hook of the campaign
    engine, batch and streaming alike, under one rule: before a fresh chunk
    executes, once ``N`` fresh chunks are durable in the checkpoint.  A run
    whose remaining chunks are all on disk is never interrupted.
    ``completed_chunks`` counts the chunks folded so far; ``total_chunks``
    is the roster's chunk count when the run knows it (batch) and 0 for a
    stream.  Re-running the same campaign with the same ``checkpoint_dir``
    resumes from the surviving chunks and yields byte-identical results.
    """

    def __init__(self, message: str, completed_chunks: int = 0, total_chunks: int = 0) -> None:
        super().__init__(message)
        self.completed_chunks = completed_chunks
        self.total_chunks = total_chunks
