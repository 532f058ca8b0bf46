"""Parallel executors under failure: crashes, interrupts, half-done ingests.

The process-pool paths must fail *loudly and cleanly*: a worker raising
mid-batch surfaces a clear error naming the participant (no hang, no
partial silent merge), a ``KeyboardInterrupt`` tears the pool down and
leaves no half-written warehouse state, and injected worker crashes are
absorbed with results bit-identical to the serial path.

The pool uses the ``fork`` start method on Linux, so patching *class*
methods in the parent propagates into workers (children inherit the
parent's memory at fork); patching module-level functions would not
survive pickling by qualified name.
"""

from __future__ import annotations

import pytest

from repro.capture.webpeg import DEFAULT_CAPTURE_CACHE
from repro.core.campaign import CampaignConfig, CampaignRunner
from repro.core.session import ParticipantSession
from repro.errors import CampaignError
from repro.faults import FaultInjector, FaultPlan
from repro.warehouse import ResultsWarehouse

pytestmark = pytest.mark.faults


def _plt_campaign(**overrides):
    from repro.experiments.plt_campaign import run_plt_campaign

    kwargs = dict(sites=3, participants=10, loads_per_site=2, seed=2016)
    kwargs.update(overrides)
    DEFAULT_CAPTURE_CACHE.clear()
    try:
        return run_plt_campaign(**kwargs)
    finally:
        DEFAULT_CAPTURE_CACHE.clear()


@pytest.mark.parametrize("faulted", [False, True], ids=["no-plan", "plan"])
def test_worker_exception_surfaces_participant_and_does_not_merge(
    timeline_experiment, monkeypatch, faulted
):
    # A real (not plan-injected) worker failure takes the same error path
    # with and without a fault plan.
    def explode(self, tasks):
        raise RuntimeError("worker exploded mid-session")

    monkeypatch.setattr(ParticipantSession, "run_timeline", explode)
    config = CampaignConfig(
        campaign_id="exec-crash", participant_count=8, seed=2016, parallel_workers=2
    )
    injector = FaultInjector(FaultPlan(dropout_rate=0.01)) if faulted else None
    with pytest.raises(CampaignError, match="parallel session batch failed at participant"):
        CampaignRunner(config, injector=injector).run_timeline(timeline_experiment)


def test_keyboard_interrupt_escapes_pool_and_leaves_warehouse_empty(
    tmp_path, monkeypatch
):
    def interrupted(self, tasks):
        raise KeyboardInterrupt

    monkeypatch.setattr(ParticipantSession, "run_timeline", interrupted)
    warehouse = ResultsWarehouse(tmp_path / "wh")
    with pytest.raises(KeyboardInterrupt):
        _plt_campaign(participants=8, session_workers=2, warehouse=warehouse)
    # The interrupt fired before ingest: no index, no records, no debris.
    assert len(ResultsWarehouse(tmp_path / "wh")) == 0
    assert not (tmp_path / "wh" / "records").exists()
    assert ResultsWarehouse(tmp_path / "wh").fsck().clean


def test_keyboard_interrupt_mid_ingest_is_repairable(tmp_path, monkeypatch):
    result = _plt_campaign()
    warehouse = ResultsWarehouse(tmp_path / "wh")

    def interrupted(self):
        raise KeyboardInterrupt

    monkeypatch.setattr(ResultsWarehouse, "_save_index", interrupted)
    with pytest.raises(KeyboardInterrupt):
        warehouse.ingest(result)
    monkeypatch.undo()

    # The record landed atomically; only the index write was cut short.
    damaged = ResultsWarehouse(tmp_path / "wh")
    report = damaged.fsck()
    assert not report.clean
    assert len(report.unindexed) == 1 and not report.corrupt and not report.tmp_debris
    record_id = report.unindexed[0]
    damaged.fsck(repair=True)
    repaired = ResultsWarehouse(tmp_path / "wh")
    assert repaired.fsck().clean
    assert repaired.get(record_id).load()["campaign_id"] == "final-plt-timeline"
    # Re-ingesting the same result is now a no-op with the same id.
    again = repaired.ingest(result)
    assert again.record_id == record_id and len(repaired) == 1


def test_injected_worker_crashes_are_absorbed_bit_identically():
    plan = FaultPlan(seed=2016, worker_crash_rate=1.0)
    pooled = _plt_campaign(participants=8, session_workers=2, fault_plan=plan)
    serial = _plt_campaign(participants=8, session_workers=0, fault_plan=plan)
    assert pooled.uplt_by_site == serial.uplt_by_site
    assert pooled.campaign.table1_row == serial.campaign.table1_row
    # Every admitted participant's worker crashed exactly once and was
    # re-run in the parent; the serial path never exercises the boundary.
    admitted = len(pooled.campaign.telemetry)
    assert pooled.resilience.counters["worker_crashes_injected"] == admitted > 0
    assert serial.resilience.counters["worker_crashes_injected"] == 0
    # Absorption is execution detail, not provenance: the records agree.
    assert (pooled.resilience.provenance_dict()
            == serial.resilience.provenance_dict())
