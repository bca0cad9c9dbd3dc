import pytest

from dstc.bench import run_bench, render_bench_table
from dstc.dnssec import TrustAnchor, resolve, sign_rrset
from dstc.enforcement import Mode, Reason, decide
from dstc.policy import serialize_policy
from dstc.scenarios import SIGNATURE_DAYS, build_fixture, fixture_policy
from dstc.store import PolicyStore


@pytest.fixture(scope="module")
def fixture(zone_keys):
    return build_fixture(
        {"tls12.test": fixture_policy(report="admin@tls12.test")}
    )


def test_single_iteration_collapses_stats(fixture):
    report = run_bench(fixture.zone, fixture.anchors, "tls12.test", fixture.now, 1)
    for row in report.rows:
        assert row.wall_max_ms == row.wall_min_ms == row.wall_avg_ms
        assert row.cpu_max_ms == row.cpu_min_ms == row.cpu_avg_ms


def test_rows_and_ordering(fixture):
    report = run_bench(fixture.zone, fixture.anchors, "tls12.test", fixture.now, 20)
    assert [r.name for r in report.rows] == [
        "SigVerify", "QueryVerify", "Enforce", "All 3 functions",
    ]
    for row in report.rows:
        assert row.wall_max_ms >= row.wall_avg_ms >= row.wall_min_ms >= 0.0


def test_table_renders_all_rows(fixture):
    report = run_bench(fixture.zone, fixture.anchors, "tls12.test", fixture.now, 2)
    table = render_bench_table(report)
    assert "All 3 functions" in table and "wall avg" in table


def test_rejects_zero_iterations(fixture):
    with pytest.raises(ValueError):
        run_bench(fixture.zone, fixture.anchors, "tls12.test", fixture.now, 0)


def test_query_verify_skips_values_that_are_not_dstc(zone_keys):
    fixture = build_fixture({})
    policy = serialize_policy(fixture_policy(report="admin@multi.test"))
    fixture.zone.publish(
        sign_rrset(zone_keys, "multi.test", [policy, "v=spf1 -all"], *SIGNATURE_DAYS)
    )
    fixture.anchors.add(TrustAnchor("multi.test", zone_keys.key_id, zone_keys.public_der()))
    decision = decide(resolve(fixture.zone, "multi.test"), fixture.anchors, PolicyStore(),
                      "multi.test", fixture.now)
    assert (decision.mode, decision.reason) == (Mode.STRICT, Reason.OK)
    report = run_bench(fixture.zone, fixture.anchors, "multi.test", fixture.now, 1)
    assert report.rows[1].name == "QueryVerify"


def test_rejects_missing_domain(fixture):
    with pytest.raises(ValueError):
        run_bench(fixture.zone, fixture.anchors, "ghost.test", fixture.now, 1)
