"""The append-only, content-addressed campaign results store.

A :class:`ResultsWarehouse` is rooted at a directory::

    root/
      index.json                 # sidecar index: record id -> key metadata
      records/<id[:2]>/<id>.json # one immutable record per ingested campaign

Records shard into 256 two-hex-digit subdirectories of ``records/`` keyed
by their id prefix, so multi-campaign stores never accumulate thousands of
entries in one directory.  The sharded path is the only one read: a record
file left flat at ``records/<id>.json`` is not a record of the store, so
``load`` reports it missing and ``fsck`` lists its id under ``missing``.

Every record is the **canonical JSON** serialisation of one campaign's
observable outputs (Table 1 row, filter counts, per-site UserPerceivedPLT,
machine metrics, and the full cleaned response dataset).  The record id is
the SHA-256 of exactly the bytes written to disk, so:

* ingest is **idempotent** — re-ingesting a bit-identical result hashes to
  the same id and is a no-op;
* ingest is **append-only** — a result whose campaign key
  ``(campaign_id, rng_scheme, network_profile, seed)`` matches a stored
  record but whose content differs raises
  :class:`~repro.errors.WarehouseError` instead of silently rewriting
  history (re-baselining means ingesting under a new campaign id or into a
  fresh warehouse);
* records are **self-verifying** — loading a record re-hashes the file and
  rejects tampered or corrupted content.

Floats are serialised through ``json`` (shortest-repr), matching the
digit-for-digit convention of the goldens store, so record ids are stable
across processes and machines for a deterministic pipeline.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Union

from ..core.campaign import CampaignResult
from ..core.responses import ResponseDataset
from ..core.storage import dataset_from_dict, dataset_to_dict
from ..errors import WarehouseCorruptionError, WarehouseError
from ..faults import atomic_write_bytes
from ..metrics.plt import METRIC_NAMES, PLTMetrics
from ..obs import resolve_obs

#: Format tag stamped into every record (bump on layout changes).
RECORD_FORMAT = "warehouse-v1"

#: Format tag of the sidecar index file.
INDEX_FORMAT = "warehouse-index-v1"


def _index_meta(body: Dict[str, object]) -> Dict[str, object]:
    """The sidecar index entry for one record body (the query-able fields)."""
    return {
        "campaign_id": body["campaign_id"],
        "kind": body["kind"],
        "experiment_type": body["experiment_type"],
        "rng_scheme": body["rng_scheme"],
        "network_profile": body["network_profile"],
        "seed": body["seed"],
        "participants": body["scale"]["participants"],
        "sites": body["scale"]["sites"],
    }


def canonical_json(body: Dict[str, object]) -> str:
    """Serialise ``body`` to the canonical form the record id is hashed over.

    Sorted keys, no whitespace, ASCII-only — the one byte sequence a given
    record content can have.
    """
    return json.dumps(body, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def record_id_for(body: Dict[str, object]) -> str:
    """SHA-256 hex id of a record body (hash of its canonical JSON bytes)."""
    return hashlib.sha256(canonical_json(body).encode("utf-8")).hexdigest()


def _sharded_record_path(root: Path, record_id: str) -> Path:
    """Where a record lands in the sharded layout: ``records/<id[:2]>/<id>.json``."""
    return root / "records" / record_id[:2] / f"{record_id}.json"


class WarehouseRecord:
    """A lazily-loaded handle on one stored record.

    Query results return these: the key metadata comes from the sidecar
    index (no file reads), and :meth:`load` reads, verifies, and caches the
    full record body on first use.
    """

    __slots__ = ("record_id", "meta", "_root", "_body")

    def __init__(self, root: Path, record_id: str, meta: Dict[str, object]) -> None:
        self.record_id = record_id
        self.meta = dict(meta)
        self._root = root
        self._body: Optional[Dict[str, object]] = None

    # -- index-level accessors (no file I/O) ------------------------------------

    @property
    def campaign_id(self) -> str:
        return str(self.meta["campaign_id"])

    @property
    def kind(self) -> str:
        return str(self.meta["kind"])

    @property
    def experiment_type(self) -> str:
        return str(self.meta["experiment_type"])

    @property
    def rng_scheme(self) -> str:
        return str(self.meta["rng_scheme"])

    @property
    def network_profile(self) -> Optional[str]:
        profile = self.meta.get("network_profile")
        return None if profile is None else str(profile)

    @property
    def seed(self) -> int:
        return int(self.meta["seed"])

    @property
    def path(self) -> Path:
        """On-disk location: ``records/<id[:2]>/<id>.json``."""
        return _sharded_record_path(self._root, self.record_id)

    # -- record-level accessors (verified file I/O, cached) ---------------------

    def load(self) -> Dict[str, object]:
        """Read, integrity-check, and cache the full record body.

        Raises:
            WarehouseError: when the file is missing.
            WarehouseCorruptionError: when the file's bytes no longer hash
                to the record id or do not parse as JSON; carries the
                offending ``path``.
        """
        if self._body is not None:
            return self._body
        path = self.path
        if not path.exists():
            raise WarehouseError(f"record {self.record_id} is indexed but {path} is missing")
        raw = path.read_bytes()
        actual = hashlib.sha256(raw).hexdigest()
        if actual != self.record_id:
            raise WarehouseCorruptionError(
                f"record {self.record_id}: content-address mismatch (file at {path} "
                f"hashes to {actual}) — the record file was modified after ingest",
                path=path,
            )
        try:
            self._body = json.loads(raw.decode("utf-8"))
        except json.JSONDecodeError as exc:  # unreachable unless hash collides
            raise WarehouseCorruptionError(
                f"record {self.record_id} at {path} is not valid JSON: {exc}", path=path
            ) from exc
        return self._body

    def clean_dataset(self) -> ResponseDataset:
        """Rebuild the stored cleaned :class:`ResponseDataset`."""
        return dataset_from_dict(self.load()["clean_dataset"])

    def uplt_by_site(self) -> Dict[str, float]:
        """Per-site mean UserPerceivedPLT (parsed from the stored reprs)."""
        stored = self.load().get("uplt_by_site") or {}
        return {site: float(value) for site, value in stored.items()}

    def metrics_by_site(self) -> Dict[str, Dict[str, float]]:
        """Per-site machine metrics (empty when none were ingested)."""
        stored = self.load().get("metrics_by_site") or {}
        return {
            site: {name: float(value) for name, value in metrics.items()}
            for site, metrics in stored.items()
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"WarehouseRecord({self.record_id[:12]}, campaign={self.campaign_id!r}, "
                f"kind={self.kind!r}, scheme={self.rng_scheme!r})")


def _campaign_key(meta: Dict[str, object]) -> tuple:
    """The append-only conflict key of one record."""
    return (meta["campaign_id"], meta["rng_scheme"], meta["network_profile"], meta["seed"])


def _record_fields(*, kind: str, campaign_id: str, experiment_type: str,
                   rng_scheme: str, network_profile: Optional[str], seed: int,
                   participants: int, sites: int, videos_per_participant: int,
                   table1: Dict[str, object], filter_summary: Dict[str, object],
                   videos_served: int,
                   uplt_by_site: Optional[Dict[str, float]],
                   metrics_by_site: Optional[Dict[str, PLTMetrics]],
                   resilience=None) -> Dict[str, object]:
    """Every record field *except* ``clean_dataset``.

    This is the part of the body that is cheap to hold in memory; streaming
    ingest serialises it separately from the (potentially huge) cleaned
    dataset, while batch ingest composes the two into one body dict.
    """
    fields: Dict[str, object] = {
        "record_format": RECORD_FORMAT,
        "kind": kind,
        "campaign_id": campaign_id,
        "experiment_type": experiment_type,
        "rng_scheme": rng_scheme,
        "network_profile": network_profile,
        "seed": seed,
        "scale": {
            "participants": participants,
            "sites": sites,
            "videos_per_participant": videos_per_participant,
        },
        "table1": table1,
        "filter_summary": filter_summary,
        "videos_served": videos_served,
        "uplt_by_site": {
            site: repr(value) for site, value in sorted((uplt_by_site or {}).items())
        },
        "metrics_by_site": {
            site: {name: repr(metrics.get(name)) for name in METRIC_NAMES}
            for site, metrics in sorted((metrics_by_site or {}).items())
        },
    }
    # Faulted campaigns carry their deterministic resilience provenance (the
    # plan, the quarantine set, the dropout roster).  The key is *absent* for
    # fault-free campaigns so their record ids stay byte-identical to records
    # ingested before fault injection existed.
    if resilience is not None:
        fields["resilience"] = resilience.provenance_dict()
    return fields


def _record_body(campaign: CampaignResult, kind: str,
                 uplt_by_site: Optional[Dict[str, float]],
                 metrics_by_site: Optional[Dict[str, PLTMetrics]]) -> Dict[str, object]:
    """Build the canonical record body for one campaign result."""
    from ..core.analysis import mean_uplt_per_site

    clean = campaign.clean_dataset
    if uplt_by_site is None and campaign.experiment_type == "timeline":
        uplt_by_site = mean_uplt_per_site(clean)
    site_ids = {r.site_id for r in campaign.raw_dataset.timeline_responses}
    site_ids.update(r.site_id for r in campaign.raw_dataset.ab_responses)
    config = campaign.config
    body = _record_fields(
        kind=kind,
        campaign_id=config.campaign_id,
        experiment_type=campaign.experiment_type,
        rng_scheme=config.rng_scheme,
        network_profile=config.network_profile,
        seed=config.seed,
        participants=config.participant_count,
        sites=len(site_ids),
        videos_per_participant=config.videos_per_participant,
        table1=campaign.table1_row,
        filter_summary=campaign.filter_report.summary_row(),
        videos_served=campaign.videos_served,
        uplt_by_site=uplt_by_site,
        metrics_by_site=metrics_by_site,
        resilience=campaign.resilience,
    )
    body["clean_dataset"] = dataset_to_dict(clean)
    return body


@dataclass
class FsckReport:
    """What ``ResultsWarehouse.fsck`` found (and, with repair, fixed).

    Attributes:
        checked: record files examined.
        corrupt: paths whose bytes no longer hash to their record id (or do
            not parse); moved to ``quarantine/`` on repair.
        missing: indexed record ids with no intact file on disk.
        unindexed: intact record ids on disk absent from the index.
        tmp_debris: leftover ``*.tmp`` staging files from torn/interrupted
            writes; deleted on repair.
        index_ok: whether ``index.json`` was readable and well-formed.
        repaired: whether this run repaired what it found.
    """

    checked: int = 0
    corrupt: List[str] = field(default_factory=list)
    missing: List[str] = field(default_factory=list)
    unindexed: List[str] = field(default_factory=list)
    tmp_debris: List[str] = field(default_factory=list)
    index_ok: bool = True
    repaired: bool = False

    @property
    def clean(self) -> bool:
        """Whether the store is fully consistent (nothing to repair)."""
        return (self.index_ok and not self.corrupt and not self.missing
                and not self.unindexed and not self.tmp_debris)

    def as_dict(self) -> Dict[str, object]:
        return {
            "checked": self.checked,
            "corrupt": list(self.corrupt),
            "missing": list(self.missing),
            "unindexed": list(self.unindexed),
            "tmp_debris": list(self.tmp_debris),
            "index_ok": self.index_ok,
            "repaired": self.repaired,
            "clean": self.clean,
        }


class ResultsWarehouse:
    """Append-only store of campaign results with an indexed query layer.

    Args:
        root: directory the warehouse lives in (``~`` expanded); created on
            first ingest.
        injector: optional :class:`repro.faults.FaultInjector` whose plan
            may tear warehouse writes (chaos testing); absorbed torn writes
            are retried and still land atomically.
        obs: optional :class:`repro.obs.Observer`; every ingest (batch or
            streaming) emits one deterministic ``warehouse.ingest`` span
            carrying the content-addressed record id.

    The sidecar ``index.json`` holds one entry of key metadata per record so
    queries never read record files; it is a pure cache of the records and
    :meth:`reindex` rebuilds it from the ``records/`` directory.

    Every file the warehouse writes lands via an atomic tmp+rename, so a
    crash (or kill) at any point leaves either the old file or the new file
    — never a torn one — plus possibly a ``*.tmp`` staging file that
    :meth:`fsck` recognises as debris.
    """

    def __init__(self, root: Union[str, Path], injector=None, obs=None) -> None:
        self.root = Path(root).expanduser()
        self.injector = injector
        self.obs = resolve_obs(obs)
        self._index: Optional[Dict[str, Dict[str, object]]] = None

    def _emit_ingest_span(self, record_id: str, kind: object,
                          campaign_id: object, landed: bool) -> None:
        """Deterministic ingest span: the record id is content-addressed, so
        the attributes are pure functions of the ingested result; whether
        this call physically landed the record (vs an idempotent no-op on an
        already-stored id) depends on prior store state and stays an
        annotation."""
        obs = self.obs
        if not obs.enabled:
            return
        span = obs.record("warehouse.ingest", record_id=record_id,
                          kind=kind, campaign_id=campaign_id)
        span.annotate(landed=landed)
        obs.counter_add("warehouse.ingests", deterministic=True)
        if landed:
            obs.counter_add("warehouse.records_landed")

    # -- index management --------------------------------------------------------

    @property
    def _index_path(self) -> Path:
        return self.root / "index.json"

    @property
    def _records_dir(self) -> Path:
        return self.root / "records"

    def _load_index(self) -> Dict[str, Dict[str, object]]:
        if self._index is not None:
            return self._index
        path = self._index_path
        if not path.exists():
            self._index = {}
            return self._index
        try:
            document = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise WarehouseCorruptionError(
                f"warehouse index {path} is not valid JSON: {exc} "
                f"(run `python -m repro.warehouse fsck --repair` to rebuild it)",
                path=path,
            ) from exc
        if document.get("format") != INDEX_FORMAT:
            raise WarehouseCorruptionError(
                f"warehouse index {path} has format {document.get('format')!r}; "
                f"expected {INDEX_FORMAT!r}",
                path=path,
            )
        self._index = dict(document.get("records") or {})
        return self._index

    def _write_payload(self, path: Path, data: bytes, fault_key: str) -> None:
        """Atomic write, routed through the injector when chaos is enabled."""
        if self.injector is not None:
            self.injector.run_warehouse_write(fault_key, path, data)
        else:
            atomic_write_bytes(path, data)

    def _save_index(self) -> None:
        index = self._load_index()
        document = {"format": INDEX_FORMAT, "records": index}
        payload = (json.dumps(document, indent=2, sort_keys=True) + "\n").encode("utf-8")
        # The record count discriminates successive index writes, so one
        # write's injected torn-write fate never condemns every later write
        # (and stays identical between an uninterrupted and a resumed run).
        self._write_payload(self._index_path, payload, f"index:{len(index)}")

    def _record_files(self) -> List[Path]:
        """Every record file on disk, sorted by record id for deterministic
        traversal."""
        if not self._records_dir.is_dir():
            return []
        return sorted(self._records_dir.glob("[0-9a-f][0-9a-f]/*.json"),
                      key=lambda path: path.stem)

    def reindex(self) -> int:
        """Rebuild ``index.json`` from the record files; returns the count."""
        index: Dict[str, Dict[str, object]] = {}
        for path in self._record_files():
            record = WarehouseRecord(self.root, path.stem, {})
            index[path.stem] = _index_meta(record.load())
        self._index = index
        self.root.mkdir(parents=True, exist_ok=True)
        self._save_index()
        return len(index)

    def fsck(self, repair: bool = False) -> FsckReport:
        """Check (and optionally repair) the store's on-disk consistency.

        Checks every record file against its content-address id, the index
        against the record set, and scans for ``*.tmp`` staging debris from
        torn or interrupted writes.

        With ``repair=True``: corrupt record files move to ``quarantine/``
        (never deleted — they may still be salvageable by hand), debris is
        removed, and the index is rebuilt from the surviving intact records.

        Returns:
            An :class:`FsckReport`; ``report.clean`` is the overall verdict
            for the state *found* (a repaired store reports clean on the
            next fsck).
        """
        report = FsckReport(repaired=repair)
        intact: List[str] = []
        corrupt_paths: List[Path] = []
        for path in self._record_files():
            report.checked += 1
            raw = path.read_bytes()
            healthy = hashlib.sha256(raw).hexdigest() == path.stem
            if healthy:
                try:
                    json.loads(raw.decode("utf-8"))
                except (UnicodeDecodeError, json.JSONDecodeError):
                    healthy = False
            if healthy:
                intact.append(path.stem)
            else:
                report.corrupt.append(str(path))
                corrupt_paths.append(path)
        if self.root.is_dir():
            report.tmp_debris = sorted(
                str(path) for path in self.root.glob("**/*.tmp")
            )
        indexed: Dict[str, Dict[str, object]] = {}
        self._index = None  # force a re-read from disk
        try:
            indexed = dict(self._load_index())
        except WarehouseError:
            report.index_ok = False
        intact_set = set(intact)
        report.missing = sorted(rid for rid in indexed if rid not in intact_set)
        report.unindexed = sorted(rid for rid in intact_set if rid not in indexed)

        if repair and not report.clean:
            if corrupt_paths:
                quarantine = self.root / "quarantine"
                quarantine.mkdir(parents=True, exist_ok=True)
                for path in corrupt_paths:
                    path.rename(quarantine / path.name)
            for debris in report.tmp_debris:
                Path(debris).unlink(missing_ok=True)
            self.reindex()
        else:
            # _load_index above may have cached a stale/partial view.
            self._index = None
        return report

    # -- ingest ------------------------------------------------------------------

    def _check_campaign_conflict(self, index: Dict[str, Dict[str, object]],
                                 meta: Dict[str, object]) -> None:
        """Enforce append-only: same campaign key + different content is an error."""
        for other_id, other in index.items():
            if _campaign_key(other) == _campaign_key(meta):
                raise WarehouseError(
                    f"campaign {meta['campaign_id']!r} (scheme {meta['rng_scheme']}, "
                    f"profile {meta['network_profile']}, seed {meta['seed']}) is already "
                    f"stored as record {other_id[:12]} with different content; the "
                    f"warehouse is append-only — ingest under a new campaign id or "
                    f"into a fresh warehouse to re-baseline"
                )

    def ingest(self, result, kind: Optional[str] = None,
               metrics_by_site: Optional[Dict[str, PLTMetrics]] = None):
        """Store one result; idempotent for identical content.

        Args:
            result: a :class:`~repro.core.campaign.CampaignResult`, a batch
                :class:`~repro.experiments.PLTCampaignResult`, or a
                :class:`~repro.experiments.ProfileSweepResult` (which
                ingests one record per profile and returns the list).
            kind: experiment kind recorded in the index ("plt", "adblock",
                "h1h2", "validation", ...); defaults to "plt" for PLT
                results and to the campaign's experiment type otherwise.
            metrics_by_site: per-site machine metrics to store alongside a
                bare :class:`CampaignResult` (PLT results carry their own).

        Returns:
            The :class:`WarehouseRecord` (list of records for a sweep) —
            the already-stored record when the ingest was a no-op.

        Raises:
            WarehouseError: when a result with the same campaign key
                ``(campaign_id, rng_scheme, network_profile, seed)`` but
                different content is already stored.
        """
        from ..experiments.plt_campaign import PLTCampaignResult
        from ..experiments.profile_sweep import ProfileSweepResult

        if isinstance(result, ProfileSweepResult):
            return [self.ingest(result.by_profile[name], kind=kind) for name in result.profiles]
        uplt_by_site = None
        campaign = result
        if isinstance(result, PLTCampaignResult):
            uplt_by_site = result.uplt_by_site
            metrics_by_site = metrics_by_site or result.metrics_by_site
            campaign = result.campaign
            kind = kind or "plt"
        if not isinstance(campaign, CampaignResult):
            raise WarehouseError(
                f"cannot ingest {type(result).__name__}: expected CampaignResult, "
                f"a batch PLTCampaignResult, or ProfileSweepResult (a streaming "
                f"run lands its record through its own sink)"
            )
        kind = kind or campaign.experiment_type

        body = _record_body(campaign, kind, uplt_by_site, metrics_by_site)
        return self._land_body(body)

    def _land_body(self, body: Dict[str, object]) -> WarehouseRecord:
        """Hash, conflict-check, and atomically land one record body.

        The shared tail of :meth:`ingest` and :meth:`ingest_analytics`:
        idempotent for an already-stored id, append-only per campaign key.
        """
        record_id = record_id_for(body)
        index = self._load_index()
        existing = index.get(record_id)
        if existing is not None:
            self._emit_ingest_span(record_id, body.get("kind"),
                                   body.get("campaign_id"), landed=False)
            return WarehouseRecord(self.root, record_id, existing)

        meta = _index_meta(body)
        self._check_campaign_conflict(index, meta)

        path = _sharded_record_path(self.root, record_id)
        path.parent.mkdir(parents=True, exist_ok=True)
        # Record first, index second: a crash between the two leaves an
        # unindexed (but intact) record, which `fsck --repair`/`reindex`
        # recovers.  The reverse order could index a record that was never
        # written.
        self._write_payload(path, canonical_json(body).encode("utf-8"),
                            f"record:{record_id}")
        index[record_id] = meta
        self._save_index()
        self._emit_ingest_span(record_id, body.get("kind"),
                               body.get("campaign_id"), landed=True)
        record = WarehouseRecord(self.root, record_id, meta)
        record._body = body
        return record

    #: Record kinds produced by the analytics layer (:mod:`repro.warehouse.trends`
    #: and :mod:`repro.warehouse.triage`) rather than by campaign drivers.
    ANALYTICS_KINDS = ("trend", "triage")

    def ingest_analytics(self, body: Dict[str, object]) -> WarehouseRecord:
        """Store one analytics record (kind ``"trend"`` or ``"triage"``).

        Analytics records are *derived* records: deterministic canonical-JSON
        reports computed from stored campaign records (their ``sources``
        field names the input record ids).  They share the campaign records'
        storage contract — content-addressed id, idempotent re-ingest,
        append-only conflict on the campaign key, atomic landing — so the
        analytics layer joins the verified surface instead of becoming an
        untested reporting tail.

        Args:
            body: a complete record body as built by
                :func:`repro.warehouse.trends.trend_record_body` or
                :func:`repro.warehouse.triage.triage_record_body`.

        Raises:
            WarehouseError: when the body is not a well-formed analytics
                record, or on an append-only campaign-key conflict.
        """
        for field_name in ("record_format", "kind", "campaign_id", "experiment_type",
                           "rng_scheme", "network_profile", "seed", "scale", "sources"):
            if field_name not in body:
                raise WarehouseError(
                    f"analytics record body is missing the {field_name!r} field"
                )
        if body["kind"] not in self.ANALYTICS_KINDS:
            raise WarehouseError(
                f"ingest_analytics only accepts kinds {self.ANALYTICS_KINDS}; "
                f"got {body['kind']!r} (campaign results go through ingest())"
            )
        if body["experiment_type"] != "analytics":
            raise WarehouseError(
                f"analytics records must have experiment_type 'analytics'; "
                f"got {body['experiment_type']!r}"
            )
        if "clean_dataset" in body:
            raise WarehouseError("analytics records must not embed a clean_dataset")
        return self._land_body(body)

    # -- retrieval ---------------------------------------------------------------

    def records(self) -> List[WarehouseRecord]:
        """Every stored record, sorted by (campaign id, record id)."""
        index = self._load_index()
        return sorted(
            (WarehouseRecord(self.root, record_id, meta) for record_id, meta in index.items()),
            key=lambda r: (r.campaign_id, r.record_id),
        )

    def get(self, record_id: str) -> WarehouseRecord:
        """Resolve a record by full id or unambiguous prefix.

        Raises:
            WarehouseError: when no record matches or the prefix is
                ambiguous.
        """
        index = self._load_index()
        matches = sorted(rid for rid in index if rid.startswith(record_id))
        if not matches:
            raise WarehouseError(f"no record with id (prefix) {record_id!r}")
        if len(matches) > 1:
            raise WarehouseError(
                f"record id prefix {record_id!r} is ambiguous "
                f"({len(matches)} matches: {', '.join(m[:12] for m in matches)})"
            )
        return WarehouseRecord(self.root, matches[0], index[matches[0]])

    def query(self, kind: Optional[str] = None, scheme: Optional[str] = None,
              profile: Optional[str] = None, campaign_id: Optional[str] = None,
              seed: Optional[int] = None,
              experiment_type: Optional[str] = None) -> List[WarehouseRecord]:
        """Filter the stored records on index metadata (no record reads).

        Every given filter must match; None means "any".  See
        :func:`repro.warehouse.query.match_records` for the matching rules.
        """
        from .query import match_records

        return match_records(
            self.records(), kind=kind, scheme=scheme, profile=profile,
            campaign_id=campaign_id, seed=seed, experiment_type=experiment_type,
        )

    def streaming_ingest(self, campaign_id: str, experiment_type: str,
                         rng_scheme: str,
                         network_profile: Optional[str] = None) -> "StreamingIngest":
        """Open an incremental ingest sink for one streaming campaign.

        Feed it cleaned participants/responses one at a time as the campaign
        streams, then call :meth:`StreamingIngest.finalize` with the record
        fields; the resulting record is byte-identical (same record id) to a
        batch :meth:`ingest` of the equivalent materialised result.
        """
        return StreamingIngest(self, campaign_id, experiment_type, rng_scheme,
                               network_profile)

    def __len__(self) -> int:
        return len(self._load_index())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResultsWarehouse({str(self.root)!r}, records={len(self)})"


class StreamingIngest:
    """Bounded-memory incremental ingest of one campaign's record.

    The batch :meth:`ResultsWarehouse.ingest` path holds the whole record
    body (including the full cleaned dataset) in memory to hash and write
    it.  This sink instead spools each cleaned participant/response to a
    temporary JSONL file as its canonical-JSON fragment the moment the
    campaign emits it, then :meth:`finalize` streams the fragments — in the
    exact canonical key order ``dataset_to_dict`` would produce — through
    SHA-256 into a staging file and lands it atomically.  Peak memory is one
    fragment buffer, never the dataset.

    The streamed bytes are **identical** to ``canonical_json(batch_body)``,
    so streaming and batch ingest of the same campaign produce the same
    record id, and idempotence/append-only conflict semantics carry over
    unchanged.

    Spool files live in a system temporary directory (not under the
    warehouse root, so a live sink never trips ``fsck``); the staging file
    ``records/streaming-<campaign>.json.tmp`` is recognised by ``fsck`` as
    ordinary debris if a crash strands it.
    """

    _FLUSH_EVERY = 1024
    _SECTIONS = ("participants", "timeline_responses", "ab_responses")

    def __init__(self, warehouse: ResultsWarehouse, campaign_id: str,
                 experiment_type: str, rng_scheme: str,
                 network_profile: Optional[str]) -> None:
        self.warehouse = warehouse
        self.campaign_id = campaign_id
        self.experiment_type = experiment_type
        self.rng_scheme = rng_scheme
        self.network_profile = network_profile
        self._spool = tempfile.TemporaryDirectory(prefix="warehouse-stream-")
        self._spool_dir = Path(self._spool.name)
        self._buffers: Dict[str, List[str]] = {s: [] for s in self._SECTIONS}
        self.counts: Dict[str, int] = {s: 0 for s in self._SECTIONS}
        self._closed = False

    # -- fragment intake ---------------------------------------------------------

    def _append(self, section: str, data: Dict[str, object]) -> None:
        if self._closed:
            raise WarehouseError("streaming ingest sink is already closed")
        buffer = self._buffers[section]
        buffer.append(canonical_json(data))
        self.counts[section] += 1
        if len(buffer) >= self._FLUSH_EVERY:
            self._flush(section)

    def _flush(self, section: str) -> None:
        buffer = self._buffers[section]
        if not buffer:
            return
        with (self._spool_dir / f"{section}.jsonl").open("a", encoding="utf-8") as handle:
            handle.write("\n".join(buffer) + "\n")
        buffer.clear()

    def add_participant(self, participant) -> None:
        """Spool one cleaned (kept) participant, in registration order."""
        from ..core.storage import participant_to_dict

        self._append("participants", participant_to_dict(participant))

    def add_timeline_response(self, response) -> None:
        """Spool one cleaned timeline response, in clean traversal order."""
        from ..core.storage import timeline_response_to_dict

        self._append("timeline_responses", timeline_response_to_dict(response))

    def add_ab_response(self, response) -> None:
        """Spool one cleaned A/B response, in clean traversal order."""
        from ..core.storage import ab_response_to_dict

        self._append("ab_responses", ab_response_to_dict(response))

    def _iter_section(self, section: str) -> Iterator[str]:
        self._flush(section)
        path = self._spool_dir / f"{section}.jsonl"
        if not path.exists():
            return
        with path.open("r", encoding="utf-8") as handle:
            for line in handle:
                yield line.rstrip("\n")

    # -- landing -----------------------------------------------------------------

    def finalize(self, fields: Dict[str, object]) -> WarehouseRecord:
        """Stream the canonical record to disk and index it.

        Args:
            fields: the record body minus ``clean_dataset`` (the shape
                :func:`_record_fields` builds); its identity keys must match
                the sink's.

        Returns:
            The landed :class:`WarehouseRecord` (or the already-stored one
            when the ingest was a no-op).

        Raises:
            WarehouseError: on identity mismatch, on a campaign-key conflict
                with different content, or when the sink was already closed.
        """
        if self._closed:
            raise WarehouseError("streaming ingest sink is already closed")
        for key, expected in (("campaign_id", self.campaign_id),
                              ("experiment_type", self.experiment_type),
                              ("rng_scheme", self.rng_scheme),
                              ("network_profile", self.network_profile)):
            if fields.get(key) != expected:
                raise WarehouseError(
                    f"streaming ingest field mismatch: {key}={fields.get(key)!r} "
                    f"does not match the sink's {expected!r}"
                )
        if "clean_dataset" in fields:
            raise WarehouseError(
                "streaming ingest builds clean_dataset from the spooled "
                "fragments; do not pass it in fields"
            )
        # The streamed layout interleaves clean_dataset between campaign_id
        # and the remaining sorted keys; any other field sorting at or before
        # "clean_dataset" would break canonical ordering.
        misplaced = [k for k in fields if k != "campaign_id" and k <= "clean_dataset"]
        if misplaced:
            raise WarehouseError(
                f"streaming ingest cannot order fields {misplaced!r} "
                f"(they sort before clean_dataset)"
            )

        def scalar(value: object) -> str:
            return json.dumps(value, sort_keys=True, separators=(",", ":"),
                              ensure_ascii=True)

        records_dir = self.warehouse._records_dir
        records_dir.mkdir(parents=True, exist_ok=True)
        safe = "".join(c if c.isalnum() or c in "-_." else "-" for c in self.campaign_id)
        staging = records_dir / f"streaming-{safe}.json.tmp"
        digest = hashlib.sha256()
        try:
            with staging.open("wb") as out:
                def emit(text: str) -> None:
                    data = text.encode("utf-8")
                    digest.update(data)
                    out.write(data)

                # Byte-for-byte the canonical_json() of the batch body: keys
                # sorted, campaign_id first, clean_dataset (itself key-sorted:
                # ab_responses, campaign_id, experiment_type, network_profile,
                # participants, rng_scheme, timeline_responses) second, then
                # the remaining fields.
                emit('{"campaign_id":' + scalar(self.campaign_id)
                     + ',"clean_dataset":{"ab_responses":[')
                for i, fragment in enumerate(self._iter_section("ab_responses")):
                    emit(("," if i else "") + fragment)
                emit('],"campaign_id":' + scalar(self.campaign_id)
                     + ',"experiment_type":' + scalar(self.experiment_type)
                     + ',"network_profile":' + scalar(self.network_profile)
                     + ',"participants":[')
                for i, fragment in enumerate(self._iter_section("participants")):
                    emit(("," if i else "") + fragment)
                emit('],"rng_scheme":' + scalar(self.rng_scheme)
                     + ',"timeline_responses":[')
                for i, fragment in enumerate(self._iter_section("timeline_responses")):
                    emit(("," if i else "") + fragment)
                emit("]}")
                tail = canonical_json({k: v for k, v in fields.items()
                                       if k != "campaign_id"})
                emit("," + tail[1:])

            record_id = digest.hexdigest()
            index = self.warehouse._load_index()
            existing = index.get(record_id)
            if existing is not None:
                staging.unlink(missing_ok=True)
                self.warehouse._emit_ingest_span(
                    record_id, fields.get("kind"), self.campaign_id,
                    landed=False)
                return WarehouseRecord(self.warehouse.root, record_id, existing)
            meta = _index_meta(fields)
            try:
                self.warehouse._check_campaign_conflict(index, meta)
            except WarehouseError:
                staging.unlink(missing_ok=True)
                raise
            final_path = _sharded_record_path(self.warehouse.root, record_id)
            final_path.parent.mkdir(parents=True, exist_ok=True)
            os.replace(staging, final_path)
            index[record_id] = meta
            self.warehouse._save_index()
            self.warehouse._emit_ingest_span(
                record_id, fields.get("kind"), self.campaign_id, landed=True)
            return WarehouseRecord(self.warehouse.root, record_id, meta)
        finally:
            self._close()

    def abort(self) -> None:
        """Discard the spool (and any staging file) without landing a record."""
        if self._closed:
            return
        safe = "".join(c if c.isalnum() or c in "-_." else "-" for c in self.campaign_id)
        staging = self.warehouse._records_dir / f"streaming-{safe}.json.tmp"
        if staging.exists():
            staging.unlink()
        self._close()

    def _close(self) -> None:
        self._closed = True
        self._spool.cleanup()
