"""The benchmark's three campaign workloads and their correctness checks.

Each workload runs one whole campaign through a public driver into a fresh
warehouse, then checks the result.  A check returns a list of problems; an
empty list means the campaign is correct.  Every check runs on every timed
campaign:

* Table 1 reconciles: the row matches the recruitment target, the gender
  split adds up, the filter columns equal the filter counts, the participant
  accounting closes, and the warehouse record stores the same row;
* every per-site UserPerceivedPLT lies in [0, the site's video duration]
  (the A/B campaign has no UPLT; its per-site scores must lie in [0, 1]);
* the warehouse record reloads from disk and re-hashes to its id.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List

from repro.experiments.h1h2_campaign import run_h1h2_campaign
from repro.experiments.plt_campaign import run_plt_campaign, run_plt_campaign_streaming
from repro.warehouse import ResultsWarehouse

V1 = "sha256-v1"
V3 = "splitmix64-batch-v3"

_BLOCK = 1 << 20

_FILTER_COLUMNS = (("engagement_filtered", "engagement"), ("soft_filtered", "soft"),
                   ("control_filtered", "control"))


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    Attributes:
        name: the ``--workload`` name.
        scheme: the RNG scheme its campaigns run under; set-up verifies the
            bench-scale golden of this scheme.
        trace_reps: traced campaigns in a ``--trace 1`` run.  The traced run
            is sized in campaigns, not seconds, so its counts repeat exactly.
        run: ``run(seed, warehouse)`` runs one campaign through the driver.
        check: ``check(result, warehouse_root)`` returns the problems found.
        counts: ``counts(result)`` returns the campaign's outcome counts.
    """

    name: str
    scheme: str
    trace_reps: int
    run: Callable[[int, ResultsWarehouse], object]
    check: Callable[[object, Path], List[str]]
    counts: Callable[[object], Counter]


def reload_record(root: Path, record_id: str, keys=("table1", "uplt_by_site")) -> Dict[str, object]:
    """Reload one record from a fresh warehouse; raise unless it re-hashes to its id.

    The file is hashed block by block and only the summary ``keys`` are
    parsed from its tail, so the check never holds a record in memory and
    the streaming workload's peak memory stays the program's own.  This
    relies on the canonical record layout: sorted keys, ASCII only, and the
    summary keys after the bulky ``clean_dataset``.
    """
    path = ResultsWarehouse(root).get(record_id).path
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        for block in iter(lambda: handle.read(_BLOCK), b""):
            digest.update(block)
        handle.seek(max(0, handle.tell() - _BLOCK))
        tail = handle.read().decode("ascii")
    if digest.hexdigest() != record_id:
        raise ValueError(f"record {record_id} re-hashes to {digest.hexdigest()}")
    decoder = json.JSONDecoder()
    return {key: decoder.raw_decode(tail, tail.rindex(f'"{key}":') + len(key) + 3)[0]
            for key in keys}


def _only_record(root: Path, kind: str) -> str:
    records = ResultsWarehouse(root).query(kind=kind)
    if len(records) != 1:
        raise ValueError(f"expected one {kind!r} record, found {len(records)}")
    return records[0].record_id


def _check_table1(row: Dict[str, object], participants: int, judged: int,
                  filter_summary: Dict[str, int], stored: Dict[str, object]) -> List[str]:
    problems = []
    if row != stored:
        problems.append(f"Table 1 row {row} differs from the stored {stored}")
    if row["participants"] != participants:
        problems.append(f"Table 1 has {row['participants']} participants, not {participants}")
    if row["male"] + row["female"] != row["participants"]:
        problems.append("Table 1 gender split does not add up to its participants")
    for column, key in _FILTER_COLUMNS:
        if row[column] != filter_summary[key] or not 0 <= row[column] <= judged:
            problems.append(f"Table 1 {column}={row[column]} does not match the filters")
    if not row["cost_usd"] > 0:
        problems.append(f"Table 1 cost {row['cost_usd']} is not positive")
    return problems


def _check_uplt(uplt_by_site: Dict[str, float], videos, stored: Dict[str, str]) -> List[str]:
    durations = {video.site_id: video.duration for video in videos}
    problems = []
    if not uplt_by_site:
        problems.append("no per-site UPLT")
    for site, uplt in uplt_by_site.items():
        if not 0.0 <= uplt <= durations[site]:
            problems.append(f"UPLT {uplt} of {site} is outside [0, {durations[site]}]")
    if stored != {site: repr(value) for site, value in sorted(uplt_by_site.items())}:
        problems.append("the stored per-site UPLT differs from the result")
    return problems


def _check_batch_filters(campaign) -> List[str]:
    report = campaign.filter_report
    judged = len(campaign.raw_dataset.participants)
    kept = judged - report.dropped_total
    if (report.initial_participants != judged or len(report.kept_participants) != kept
            or set(campaign.clean_dataset.participants) != set(report.kept_participants)):
        return [f"filter accounting does not close: {judged} judged, {kept} expected kept, "
                f"{len(report.kept_participants)} kept"]
    return []


# -- plt-capture: the §5.2 timeline campaign, batch mode ----------------------------

def _run_plt_capture(seed: int, warehouse: ResultsWarehouse):
    return run_plt_campaign(sites=200, participants=300, loads_per_site=5, seed=seed,
                            rng_scheme=V3, warehouse=warehouse, triage=False)


def _check_plt_capture(result, root: Path) -> List[str]:
    campaign = result.campaign
    body = reload_record(root, _only_record(root, "plt"))
    problems = _check_table1(campaign.table1_row, 300, len(campaign.raw_dataset.participants),
                             campaign.filter_report.summary_row(), body["table1"])
    problems += _check_batch_filters(campaign)
    problems += _check_uplt(result.uplt_by_site, result.videos, body["uplt_by_site"])
    return problems


def _batch_counts(campaign) -> Counter:
    summary = campaign.filter_report.summary_row()
    clean = campaign.clean_dataset
    return Counter({
        "core.campaign.sessions": len(campaign.telemetry),
        "core.campaign.clean_responses": len(clean.timeline_responses) + len(clean.ab_responses),
        "core.validation.engagement_filtered": summary["engagement"],
        "core.validation.soft_filtered": summary["soft"],
        "core.validation.control_filtered": summary["control"],
    })


# -- crowd-stream: a v3 streaming timeline campaign ----------------------------------

def _run_crowd_stream(seed: int, warehouse: ResultsWarehouse):
    return run_plt_campaign_streaming(sites=20, participants=8000, loads_per_site=3, seed=seed,
                                      rng_scheme=V3, warehouse=warehouse, triage=False,
                                      chunk_size=256)


def _check_crowd_stream(result, root: Path) -> List[str]:
    campaign = result.campaign
    body = reload_record(root, campaign.warehouse_record.record_id)
    summary = campaign.filter_summary
    problems = _check_table1(campaign.table1_row, 8000, campaign.admitted_count,
                             summary.summary_row(), body["table1"])
    judged = summary.initial_participants
    filtered = summary.summary_row().values()
    if (judged != campaign.admitted_count
            or campaign.admitted_count + campaign.rejected_count != 8000
            or not judged - sum(filtered) <= summary.kept_count <= judged - max(filtered)):
        problems.append(f"streaming accounting does not close: {campaign.admitted_count} admitted, "
                        f"{campaign.rejected_count} rejected, {judged} judged, "
                        f"{summary.kept_count} kept")
    problems += _check_uplt(result.uplt_by_site, result.videos, body["uplt_by_site"])
    return problems


def _stream_counts(result) -> Counter:
    campaign = result.campaign
    summary = campaign.filter_summary.summary_row()
    return Counter({
        "core.campaign.sessions": campaign.admitted_count,
        "core.campaign.clean_responses": campaign.clean_response_count,
        "core.validation.engagement_filtered": summary["engagement"],
        "core.validation.soft_filtered": summary["soft"],
        "core.validation.control_filtered": summary["control"],
    })


# -- h1h2-ab: the §5.3 HTTP/1.1 vs HTTP/2 A/B campaign -------------------------------

def _run_h1h2_ab(seed: int, warehouse: ResultsWarehouse):
    return run_h1h2_campaign(sites=100, participants=1000, loads_per_site=5, seed=seed,
                             warehouse=warehouse, triage=True)


def _check_h1h2_ab(result, root: Path) -> List[str]:
    campaign = result.campaign
    body = reload_record(root, _only_record(root, "h1h2"))
    reload_record(root, _only_record(root, "triage"), keys=())
    problems = _check_table1(campaign.table1_row, 1000, len(campaign.raw_dataset.participants),
                             campaign.filter_report.summary_row(), body["table1"])
    problems += _check_batch_filters(campaign)
    if not result.scores_by_site:
        problems.append("no per-site score")
    for per_site in (result.scores_by_site, result.no_difference_by_site):
        problems += [f"{site} share {value} is outside [0, 1]"
                     for site, value in per_site.items() if not 0.0 <= value <= 1.0]
    return problems


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload for workload in (
        Workload("plt-capture", V3, 6, _run_plt_capture, _check_plt_capture,
                 lambda result: _batch_counts(result.campaign)),
        Workload("crowd-stream", V3, 2, _run_crowd_stream, _check_crowd_stream,
                 _stream_counts),
        Workload("h1h2-ab", V1, 3, _run_h1h2_ab, _check_h1h2_ab,
                 lambda result: _batch_counts(result.campaign)),
    )
}
