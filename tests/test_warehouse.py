"""Tests for the campaign results warehouse (store, query, stats)."""

from __future__ import annotations

import json

import pytest

from repro.errors import AnalysisError, WarehouseError
from repro.rng import RNG_SCHEMES, SCHEME_SHA256_V1, SCHEME_SPLITMIX64_V2
from repro.warehouse import (
    ResultsWarehouse,
    bootstrap_mean_ci,
    canonical_json,
    compare,
    fleiss_kappa,
    inter_rater_agreement,
    record_id_for,
    record_stats,
    spearman_correlation,
)


@pytest.fixture(scope="module")
def plt_results():
    """One tiny PLT campaign per RNG scheme (shared across this module)."""
    from repro.capture.webpeg import DEFAULT_CAPTURE_CACHE
    from repro.experiments.plt_campaign import run_plt_campaign

    results = {}
    for scheme in RNG_SCHEMES:
        DEFAULT_CAPTURE_CACHE.clear()
        results[scheme] = run_plt_campaign(
            sites=3, participants=10, loads_per_site=2, seed=2016, rng_scheme=scheme,
        )
    DEFAULT_CAPTURE_CACHE.clear()
    return results


@pytest.fixture()
def warehouse(tmp_path):
    return ResultsWarehouse(tmp_path / "warehouse")


# -- ingest ------------------------------------------------------------------------


def test_ingest_writes_content_addressed_record(warehouse, plt_results):
    record = warehouse.ingest(plt_results[SCHEME_SHA256_V1])
    assert len(record.record_id) == 64
    assert record.path.exists()
    import hashlib

    assert hashlib.sha256(record.path.read_bytes()).hexdigest() == record.record_id
    assert record.kind == "plt"
    assert record.rng_scheme == SCHEME_SHA256_V1
    assert record.network_profile == "cable-intl"
    assert record.seed == 2016


def test_ingest_is_idempotent(warehouse, plt_results):
    first = warehouse.ingest(plt_results[SCHEME_SHA256_V1])
    second = warehouse.ingest(plt_results[SCHEME_SHA256_V1])
    assert first.record_id == second.record_id
    assert len(warehouse) == 1


def test_ingest_id_is_stable_across_store_instances(tmp_path, plt_results):
    a = ResultsWarehouse(tmp_path / "a").ingest(plt_results[SCHEME_SHA256_V1])
    b = ResultsWarehouse(tmp_path / "b").ingest(plt_results[SCHEME_SHA256_V1])
    assert a.record_id == b.record_id


def test_changed_result_with_same_campaign_key_raises(warehouse, plt_results):
    from repro.capture.webpeg import DEFAULT_CAPTURE_CACHE
    from repro.experiments.plt_campaign import run_plt_campaign

    warehouse.ingest(plt_results[SCHEME_SHA256_V1])
    DEFAULT_CAPTURE_CACHE.clear()
    changed = run_plt_campaign(
        sites=3, participants=10, loads_per_site=2, seed=2016,
        rng_scheme=SCHEME_SHA256_V1, frame_helper_enabled=False,
    )
    DEFAULT_CAPTURE_CACHE.clear()
    with pytest.raises(WarehouseError, match="append-only"):
        warehouse.ingest(changed)


def test_same_campaign_under_both_schemes_coexists(warehouse, plt_results):
    for scheme in RNG_SCHEMES:
        warehouse.ingest(plt_results[scheme])
    assert len(warehouse) == len(RNG_SCHEMES)
    assert {r.rng_scheme for r in warehouse.records()} == set(RNG_SCHEMES)


def test_ingest_bare_campaign_result_and_sweep(warehouse, timeline_campaign, ab_campaign):
    record = warehouse.ingest(timeline_campaign)
    assert record.kind == "timeline"
    assert record.experiment_type == "timeline"
    ab_record = warehouse.ingest(ab_campaign, kind="h1h2")
    assert ab_record.kind == "h1h2"
    assert len(warehouse) == 2


def test_ingest_rejects_unknown_types(warehouse):
    with pytest.raises(WarehouseError, match="cannot ingest"):
        warehouse.ingest({"not": "a result"})


def test_tampered_record_fails_integrity_check(warehouse, plt_results):
    record = warehouse.ingest(plt_results[SCHEME_SHA256_V1])
    body = json.loads(record.path.read_text(encoding="utf-8"))
    body["videos_served"] = 0
    record.path.write_text(canonical_json(body), encoding="utf-8")
    fresh = ResultsWarehouse(warehouse.root).get(record.record_id)
    with pytest.raises(WarehouseError, match="content-address mismatch"):
        fresh.load()


def test_reindex_rebuilds_sidecar_from_records(warehouse, plt_results):
    record = warehouse.ingest(plt_results[SCHEME_SHA256_V1])
    (warehouse.root / "index.json").unlink()
    rebuilt = ResultsWarehouse(warehouse.root)
    assert len(rebuilt) == 0
    assert rebuilt.reindex() == 1
    assert rebuilt.get(record.record_id).meta == record.meta


# -- query -------------------------------------------------------------------------


def test_query_filters_on_index_metadata(warehouse, plt_results, timeline_campaign):
    for scheme in RNG_SCHEMES:
        warehouse.ingest(plt_results[scheme])
    warehouse.ingest(timeline_campaign)
    assert len(warehouse.query()) == len(RNG_SCHEMES) + 1
    assert len(warehouse.query(kind="plt")) == len(RNG_SCHEMES)
    assert [r.rng_scheme for r in warehouse.query(kind="plt", scheme=SCHEME_SPLITMIX64_V2)] == \
        [SCHEME_SPLITMIX64_V2]
    assert len(warehouse.query(campaign_id="test-timeline-campaign")) == 1
    assert warehouse.query(profile="3g") == []
    assert warehouse.query(seed=999) == []


def test_get_resolves_prefixes_and_rejects_ambiguity(warehouse, plt_results):
    records = [warehouse.ingest(plt_results[scheme]) for scheme in RNG_SCHEMES]
    for record in records:
        assert warehouse.get(record.record_id[:10]).record_id == record.record_id
    with pytest.raises(WarehouseError, match="no record"):
        warehouse.get("ffffffffffff" * 6)
    with pytest.raises(WarehouseError, match="ambiguous"):
        warehouse.get("")


def test_record_round_trips_clean_dataset(warehouse, plt_results):
    result = plt_results[SCHEME_SHA256_V1]
    record = warehouse.ingest(result)
    reloaded = ResultsWarehouse(warehouse.root).get(record.record_id)
    dataset = reloaded.clean_dataset()
    assert dataset.response_count == result.campaign.clean_dataset.response_count
    assert dataset.rng_scheme == SCHEME_SHA256_V1
    assert dataset.network_profile == "cable-intl"
    assert reloaded.uplt_by_site() == pytest.approx(result.uplt_by_site)
    onloads = {site: m["onload"] for site, m in reloaded.metrics_by_site().items()}
    assert onloads == pytest.approx(
        {site: m.onload for site, m in result.metrics_by_site.items()}
    )


# -- compare -----------------------------------------------------------------------


def test_compare_self_is_all_zero(warehouse, plt_results):
    record = warehouse.ingest(plt_results[SCHEME_SHA256_V1])
    comparison = compare(record, record)
    assert comparison.sites
    assert all(s.uplt_delta == 0.0 for s in comparison.sites)
    assert all(s.onload_delta == 0.0 for s in comparison.sites)
    assert comparison.mean_uplt_delta == 0.0


def test_compare_across_schemes(warehouse, plt_results):
    a = warehouse.ingest(plt_results[SCHEME_SHA256_V1])
    b = warehouse.ingest(plt_results[SCHEME_SPLITMIX64_V2])
    comparison = compare(a, b)
    # Same corpus under both schemes: every site lines up, deltas are real.
    assert len(comparison.sites) == 3
    assert not comparison.sites_only_a and not comparison.sites_only_b
    assert any(s.uplt_delta != 0.0 for s in comparison.sites)
    assert "site" in comparison.table().splitlines()[0]


def test_compare_rejects_empty_sides():
    with pytest.raises(WarehouseError, match="empty record set"):
        compare([], [])


# -- stats -------------------------------------------------------------------------


def test_bootstrap_ci_is_deterministic_and_scheme_dependent():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    ci_v1 = bootstrap_mean_ci(values, seed=7, rng_scheme=SCHEME_SHA256_V1, label="x")
    again = bootstrap_mean_ci(values, seed=7, rng_scheme=SCHEME_SHA256_V1, label="x")
    ci_v2 = bootstrap_mean_ci(values, seed=7, rng_scheme=SCHEME_SPLITMIX64_V2, label="x")
    assert (ci_v1.low, ci_v1.high) == (again.low, again.high)
    assert (ci_v1.low, ci_v1.high) != (ci_v2.low, ci_v2.high)
    for ci in (ci_v1, ci_v2):
        assert ci.low <= ci.point <= ci.high
        assert ci.point == pytest.approx(3.5)


def test_bootstrap_ci_edge_cases():
    single = bootstrap_mean_ci([2.5], seed=1)
    assert (single.point, single.low, single.high) == (2.5, 2.5, 2.5)
    with pytest.raises(AnalysisError):
        bootstrap_mean_ci([], seed=1)
    with pytest.raises(AnalysisError):
        bootstrap_mean_ci([1.0, 2.0], seed=1, confidence=1.5)


def test_spearman_known_values():
    assert spearman_correlation([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)
    assert spearman_correlation([1, 2, 3, 4], [40, 30, 20, 10]) == pytest.approx(-1.0)
    # Monotone but non-linear is still a perfect rank correlation.
    assert spearman_correlation([1, 2, 3, 4], [1, 8, 27, 64]) == pytest.approx(1.0)
    # Ties get average ranks.
    assert spearman_correlation([1, 1, 2], [1, 1, 2]) == pytest.approx(1.0)
    with pytest.raises(AnalysisError):
        spearman_correlation([1, 2], [1, 2, 3])
    with pytest.raises(AnalysisError):
        spearman_correlation([1, 1, 1], [1, 2, 3])


def test_fleiss_kappa_known_cases():
    perfect = fleiss_kappa([{"left": 4}, {"right": 3}])
    assert perfect.mean_pairwise_agreement == pytest.approx(1.0)
    assert perfect.fleiss_kappa == pytest.approx(1.0)
    unanimous = fleiss_kappa([{"left": 4}, {"left": 3}])  # one category overall
    assert unanimous.fleiss_kappa == pytest.approx(1.0)
    split = fleiss_kappa([{"left": 2, "right": 2}, {"left": 2, "right": 2}])
    assert split.fleiss_kappa < 0.5
    assert split.items == 2 and split.raters_total == 8
    # Items with a single rating are skipped entirely.
    skipping = fleiss_kappa([{"left": 1}, {"left": 2}])
    assert skipping.items == 1
    with pytest.raises(AnalysisError):
        fleiss_kappa([{"left": 1}])


def test_inter_rater_agreement_over_campaign(warehouse, ab_campaign):
    record = warehouse.ingest(ab_campaign, kind="h1h2")
    stats = record_stats(record)
    assert stats.agreement is not None
    assert 0.0 <= stats.agreement.mean_pairwise_agreement <= 1.0
    assert stats.agreement.fleiss_kappa <= 1.0
    assert stats.overall_uplt_ci is None  # A/B record: no timeline CIs
    report = inter_rater_agreement(ab_campaign.clean_dataset)
    assert report.mean_pairwise_agreement == stats.agreement.mean_pairwise_agreement


@pytest.mark.parametrize("scheme", RNG_SCHEMES)
def test_record_stats_deterministic_per_scheme(warehouse, plt_results, scheme):
    record = warehouse.ingest(plt_results[scheme])
    first = record_stats(record)
    second = record_stats(ResultsWarehouse(warehouse.root).get(record.record_id))
    assert first.overall_uplt_ci == second.overall_uplt_ci
    assert first.uplt_ci_by_site == second.uplt_ci_by_site
    assert first.spearman_by_metric == second.spearman_by_metric
    assert set(first.uplt_ci_by_site) == set(record.uplt_by_site())
    for site, ci in first.uplt_ci_by_site.items():
        assert ci.low <= ci.point <= ci.high


# -- pipeline threading ------------------------------------------------------------


def test_profile_sweep_ingests_one_record_per_profile(tmp_path):
    from repro.capture.webpeg import DEFAULT_CAPTURE_CACHE
    from repro.experiments.profile_sweep import run_profile_sweep_campaign

    warehouse = ResultsWarehouse(tmp_path / "sweep")
    DEFAULT_CAPTURE_CACHE.clear()
    try:
        sweep = run_profile_sweep_campaign(
            profiles=["fiber", "3g"], sites=3, participants=8, loads_per_site=2,
            seed=2016, warehouse=warehouse,
        )
    finally:
        DEFAULT_CAPTURE_CACHE.clear()
    assert len(warehouse) == 2
    by_profile = {r.network_profile: r for r in warehouse.query(kind="plt")}
    assert set(by_profile) == {"fiber", "3g"}
    assert by_profile["3g"].campaign_id == "profile-sweep-3g"
    # Re-ingesting the whole sweep is a no-op, record for record.
    records = warehouse.ingest(sweep)
    assert len(warehouse) == 2 and len(records) == 2
    # Cross-profile compare lines up the shared corpus.
    comparison = compare(by_profile["fiber"], by_profile["3g"])
    assert len(comparison.sites) == 3
    assert comparison.mean_uplt_delta > 0.0  # 3g is perceived slower than fiber


def test_streaming_and_batch_profile_sweeps_store_the_same_records(tmp_path):
    """Both kinds of sweep store the same plt records and one triage record."""
    from repro.capture.webpeg import DEFAULT_CAPTURE_CACHE
    from repro.experiments.profile_sweep import run_profile_sweep_campaign

    stored = {}
    for streaming in (False, True):
        warehouse = ResultsWarehouse(tmp_path / ("stream" if streaming else "batch"))
        DEFAULT_CAPTURE_CACHE.clear()
        try:
            run_profile_sweep_campaign(
                profiles=["fiber", "cable-intl", "3g"], sites=4, participants=16,
                loads_per_site=2, seed=2016, warehouse=warehouse, triage=True,
                streaming=streaming,
            )
        finally:
            DEFAULT_CAPTURE_CACHE.clear()
        assert len(warehouse.query(kind="plt")) == 3
        assert len(warehouse.query(kind="triage")) == 1
        stored[streaming] = {record.record_id for record in warehouse.records()}
    assert stored[True] == stored[False]


def test_repro_config_opens_warehouse(tmp_path):
    from repro.config import ReproConfig
    from repro.errors import ConfigurationError

    assert ReproConfig().make_warehouse() is None
    warehouse = ReproConfig(warehouse_dir=str(tmp_path / "wh")).make_warehouse()
    assert isinstance(warehouse, ResultsWarehouse)
    assert len(warehouse) == 0
    with pytest.raises(ConfigurationError):
        ReproConfig(warehouse_dir="   ")


# -- canonical serialisation -------------------------------------------------------


def test_canonical_json_is_key_order_independent():
    a = {"b": 1, "a": {"y": 2.5, "x": [1, 2]}}
    b = {"a": {"x": [1, 2], "y": 2.5}, "b": 1}
    assert canonical_json(a) == canonical_json(b)
    assert record_id_for(a) == record_id_for(b)
    assert record_id_for(a) != record_id_for({"b": 2, "a": {"y": 2.5, "x": [1, 2]}})
