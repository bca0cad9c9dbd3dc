"""Release gate: one test per acceptance criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL lines alongside the pytest verdicts.
"""

import random
import re
import time
from datetime import date, timedelta

import pytest
from hypothesis import given, settings, strategies as st

from dstc.bench import run_bench
from dstc.cli import main
from dstc.enforcement import (
    ClientCapabilities,
    Mode,
    PolicyDecision,
    Reason,
    SuiteLabel,
    TlsVersion,
    apply,
    classify_ciphersuite,
)
from dstc.policy import PolicyRecord
from dstc.scenarios import build_fixture, fixture_policy, run_builtin_suite
from dstc.store import PolicyStore, StoreAction
from dstc.survey import generate_corpus, survey

from test_enforcement import LABELLED_SUITES, oracle_classify


def report_line(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {criterion}: {status}{suffix}")


def test_c1_feasibility_matrix(capsys):
    """C1: attack-sim table2 reproduces success/failure/success, under 1s."""
    start = time.perf_counter()
    exit_code = main(["attack-sim", "table2"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out

    checks = {
        "exit code 0": exit_code == 0,
        "row 1 established at TLS1.2": bool(
            re.search(r"\[PASS\] tls12-registered-strong: .*Established@TLS1\.2", out)
        ),
        "row 2 aborted": bool(
            re.search(r"\[PASS\] tls10-registered-legacy: .*actual=AbortedByClient", out)
        ),
        "row 3 established at TLS1.1": bool(
            re.search(r"\[PASS\] tls11-unregistered-legacy: .*Established@TLS1\.1", out)
        ),
        "runtime under 1s": elapsed < 1.0,
    }
    failures = [name for name, ok in checks.items() if not ok]
    with capsys.disabled():
        report_line("C1 feasibility-matrix", not failures, f"{elapsed:.2f}s")
    assert not failures, failures


_suite_parts = st.tuples(
    st.sampled_from(
        ("ECDHE-RSA", "ECDHE-ECDSA", "DHE-RSA", "DHE-DSS", "RSA", "PSK",
         "ECDH-RSA", "ADH", "EDH-RSA", "SRP-SHA")
    ),
    st.sampled_from(
        ("AES128-GCM", "AES256-GCM", "CHACHA20-POLY1305", "AES128-CCM",
         "AES128", "AES256", "RC4", "DES-CBC3", "CAMELLIA128", "SEED")
    ),
    st.sampled_from(("SHA", "SHA256", "SHA384", "MD5", "")),
)
_names = _suite_parts.map(lambda t: "-".join(p for p in t if p))


@st.composite
def _capabilities(draw):
    suites = draw(st.lists(_names, min_size=1, max_size=24, unique=True))
    anchor = draw(st.sampled_from(
        ("ECDHE-RSA-AES128-GCM-SHA256", "DHE-RSA-CHACHA20-POLY1305")
    ))
    if anchor not in suites:
        suites.insert(draw(st.integers(0, len(suites))), anchor)
    return ClientCapabilities(TlsVersion.TLS12, TlsVersion.TLS10, tuple(suites))


def test_c2_policy_table_semantics(capsys):
    """C2: strict/default configuration shape over >=1000 random capability lists."""
    failures = []

    @settings(max_examples=1000, deadline=None)
    @given(_capabilities())
    def check(caps):
        strict = apply(PolicyDecision(Mode.STRICT, Reason.OK), caps)
        if strict.versions != (caps.latest_version,):
            failures.append("strict versions")
        if strict.fallback_enabled or not strict.ciphersuites:
            failures.append("strict fallback/suites")
        if not all(
            classify_ciphersuite(s) is SuiteLabel.FS_AE for s in strict.ciphersuites
        ):
            failures.append("strict suite purity")

        default = apply(PolicyDecision(Mode.DEFAULT, Reason.NO_RECORD), caps)
        if default.versions != (TlsVersion.TLS12, TlsVersion.TLS11, TlsVersion.TLS10):
            failures.append("default versions")
        if default.ciphersuites != caps.suite_list or not default.fallback_enabled:
            failures.append("default suites/fallback")

    check()
    with capsys.disabled():
        report_line("C2 policy-table-semantics", not failures, "1000 cases each mode")
    assert not failures, set(failures)


def test_c3_forgery_matrix(zone_keys, capsys):
    """C3: the six record-forgery attacks are each defeated as specified."""
    report = run_builtin_suite("forgery")
    failures = [f"{row.name}: {row.actual} != {row.expected}"
                for row in report.rows if not row.passed]
    ok = not failures and len(report.rows) == 6
    with capsys.disabled():
        report_line("C3 forgery-matrix", ok, f"{6 - len(failures)}/6")
    assert ok, failures


def test_c4_downgrade_scenarios(zone_keys, capsys):
    """C4: poodle and fragment suites downgrade default, abort strict."""
    failures = []
    for suite in ("poodle", "fragment"):
        report = run_builtin_suite(suite)
        rows = {row.name: row for row in report.rows}
        downgraded = rows[f"{suite}-default-downgraded"]
        aborted = rows[f"{suite}-strict-aborted"]
        if not downgraded.actual.startswith("Established@TLS1.0"):
            failures.append(f"{suite}: default not downgraded ({downgraded.actual})")
        if aborted.actual != "AbortedByClient":
            failures.append(f"{suite}: strict not aborted ({aborted.actual})")
    with capsys.disabled():
        report_line("C4 downgrade-scenarios", not failures)
    assert not failures, failures


def test_c5_classifier_oracle_equivalence(capsys):
    """C5: classifier vs brute-force oracle vs hand labels, 100% agreement."""
    mismatches = [
        (name, label.value, classify_ciphersuite(name).value, oracle_classify(name).value)
        for name, label in LABELLED_SUITES
        if not (classify_ciphersuite(name) is label is oracle_classify(name))
    ]
    enough = len(LABELLED_SUITES) >= 50
    with capsys.disabled():
        report_line(
            "C5 classifier-oracle",
            enough and not mismatches,
            f"{len(LABELLED_SUITES)} names",
        )
    assert enough
    assert not mismatches, mismatches


def test_c6_survey_reproduction(capsys):
    """C6: the synthetic corpus reproduces the published marginals exactly."""
    start = time.perf_counter()
    report = survey(generate_corpus())
    elapsed = time.perf_counter() - start

    expected = {
        "latest_pct": "97.29",
        "latest_exclusive_pct": "5.27",
        "latest_two_pct": "91.27",
        "latest_three_pct": "87.60",
        "fsae_any_pct": "94.37",
        "fsae_mixed_pct": "94.12",
    }
    failures = [
        f"{field}: {getattr(report, field)!r} != {value!r}"
        for field, value in expected.items()
        if getattr(report, field) != value
    ]
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.2f}s")
    with capsys.disabled():
        report_line("C6 survey-reproduction", not failures, f"{elapsed:.2f}s")
    assert not failures, failures


def test_c7_performance_envelope(zone_keys, capsys):
    """C7: 500-iteration bench stays inside the 50ms-per-iteration envelope."""
    fixture = build_fixture(
        {"tls12.test": fixture_policy(report="admin@tls12.test")}
    )
    report = run_bench(fixture.zone, fixture.anchors, "tls12.test", fixture.now, 500)
    rows = {row.name: row for row in report.rows}
    total = rows.get("All 3 functions")

    failures = []
    if set(rows) != {"SigVerify", "QueryVerify", "Enforce", "All 3 functions"}:
        failures.append(f"rows: {sorted(rows)}")
    for row in report.rows:
        if not (row.wall_max_ms >= row.wall_avg_ms >= row.wall_min_ms):
            failures.append(f"{row.name}: max/avg/min out of order")
    if total is not None and total.wall_avg_ms > 50.0:
        failures.append(f"avg {total.wall_avg_ms:.3f}ms exceeds 50ms")
    detail = f"avg(All 3)={total.wall_avg_ms:.3f}ms" if total else "missing total row"
    with capsys.disabled():
        report_line("C7 performance-envelope", not failures, detail)
    assert not failures, failures


def test_c8_store_invariants(capsys):
    """C8: 10k random interleavings hold the cache invariants; files round-trip."""
    rng = random.Random(20180701)
    now = date(2018, 7, 1)
    base = date(2018, 3, 1)
    failures = []

    def record(days, revoke=False):
        return PolicyRecord(
            valid_from=base + timedelta(days=days),
            valid_to=date(2019, 5, 1),
            report="admin@d.test",
            revoke=revoke,
        )

    for sequence in range(10_000):
        store = PolicyStore()
        days = rng.sample(range(0, 90), k=rng.randint(2, 5))
        pool = [record(d, rng.random() < 0.25) for d in days]
        high_water = None
        revoked_at = None
        for _ in range(rng.randint(2, 10)):
            incoming = rng.choice(pool)
            action = store.update("d.test", incoming, now)
            entry = store.get_exact("d.test", now)

            if (
                high_water is not None
                and incoming.valid_from <= high_water
                and action not in (StoreAction.REJECTED_STALE, StoreAction.UNCHANGED)
            ):
                failures.append(f"seq {sequence}: stale delivery changed state")
            if entry is not None:
                if high_water is not None and entry.record.valid_from < high_water:
                    failures.append(f"seq {sequence}: validFrom went backwards")
                high_water = entry.record.valid_from
                revoked_at = None
            elif action is StoreAction.REVOKED_DELETED:
                revoked_at = incoming.valid_from
                high_water = incoming.valid_from
            if revoked_at is not None:
                replay = record((revoked_at - base).days)
                if store.update("d.test", replay, now) is not StoreAction.REJECTED_STALE:
                    failures.append(f"seq {sequence}: tombstone did not hold")
                if store.get_exact("d.test", now) is not None:
                    failures.append(f"seq {sequence}: revoked entry re-poisoned")
            if failures:
                break
        if failures:
            break
        if sequence % 250 == 0:
            text = store.to_text()
            if PolicyStore.from_text(text).to_text() != text:
                failures.append(f"seq {sequence}: persistence not bit-exact")
                break

    # dedicated persistence bit-exactness check over a populated store
    store = PolicyStore()
    store.update("a.test", record(10), now)
    store.update("b.test", record(20), now)
    store.update("b.test", record(30, revoke=True), now)
    text = store.to_text()
    if PolicyStore.from_text(text).to_text() != text:
        failures.append("final persistence round-trip not bit-exact")

    with capsys.disabled():
        report_line("C8 store-invariants", not failures, "10000 sequences")
    assert not failures, failures[:3]
