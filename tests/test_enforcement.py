import re
from dataclasses import replace
from datetime import date, timedelta

import pytest
from hypothesis import given, strategies as st

from dstc import enforcement
from dstc.dnssec import (
    Disposition,
    DnsResponse,
    TrustAnchor,
    TrustAnchorSet,
    ZoneStore,
    resolve,
    sign_rrset,
)
from dstc.enforcement import (
    ClientCapabilities,
    DEFAULT_CLIENT,
    DEFAULT_CLIENT_SUITES,
    Mode,
    PolicyDecision,
    Reason,
    SuiteLabel,
    TlsVersion,
    apply,
    check_answer,
    classify_ciphersuite,
    decide,
    normalize_suite_name,
)
from dstc.policy import PolicyRecord, format_policy_date, serialize_policy
from dstc.scenarios import build_fixture, fixture_policy
from dstc.store import PolicyStore, StoreAction

# Hand-labelled real-world ciphersuite names (OpenSSL and IANA spellings).
# FS: leading dash token ECDHE or DHE. AE: contains GCM, CCM, CCM8, CHACHA20.
LABELLED_SUITES = [
    ("ECDHE-RSA-AES128-GCM-SHA256", SuiteLabel.FS_AE),
    ("ECDHE-RSA-AES256-GCM-SHA384", SuiteLabel.FS_AE),
    ("ECDHE-ECDSA-AES128-GCM-SHA256", SuiteLabel.FS_AE),
    ("ECDHE-ECDSA-AES256-GCM-SHA384", SuiteLabel.FS_AE),
    ("ECDHE-RSA-CHACHA20-POLY1305", SuiteLabel.FS_AE),
    ("ECDHE-ECDSA-CHACHA20-POLY1305", SuiteLabel.FS_AE),
    ("DHE-RSA-AES128-GCM-SHA256", SuiteLabel.FS_AE),
    ("DHE-RSA-AES256-GCM-SHA384", SuiteLabel.FS_AE),
    ("DHE-RSA-CHACHA20-POLY1305", SuiteLabel.FS_AE),
    ("ECDHE-ECDSA-AES128-CCM", SuiteLabel.FS_AE),
    ("ECDHE-ECDSA-AES256-CCM8", SuiteLabel.FS_AE),
    ("DHE-RSA-AES128-CCM", SuiteLabel.FS_AE),
    ("DHE-RSA-AES256-CCM8", SuiteLabel.FS_AE),
    ("ECDHE-PSK-CHACHA20-POLY1305", SuiteLabel.FS_AE),
    ("DHE-PSK-AES128-GCM-SHA256", SuiteLabel.FS_AE),
    ("DHE-DSS-AES256-GCM-SHA384", SuiteLabel.FS_AE),
    ("ECDHE-RSA-AES128-SHA", SuiteLabel.FS_NONAE),
    ("ECDHE-RSA-AES256-SHA", SuiteLabel.FS_NONAE),
    ("ECDHE-RSA-AES128-SHA256", SuiteLabel.FS_NONAE),
    ("ECDHE-RSA-AES256-SHA384", SuiteLabel.FS_NONAE),
    ("ECDHE-ECDSA-AES128-SHA", SuiteLabel.FS_NONAE),
    ("ECDHE-ECDSA-AES256-SHA", SuiteLabel.FS_NONAE),
    ("DHE-RSA-AES128-SHA", SuiteLabel.FS_NONAE),
    ("DHE-RSA-AES256-SHA", SuiteLabel.FS_NONAE),
    ("DHE-RSA-AES128-SHA256", SuiteLabel.FS_NONAE),
    ("DHE-RSA-AES256-SHA256", SuiteLabel.FS_NONAE),
    ("ECDHE-RSA-DES-CBC3-SHA", SuiteLabel.FS_NONAE),
    ("ECDHE-ECDSA-RC4-SHA", SuiteLabel.FS_NONAE),
    ("DHE-RSA-CAMELLIA256-SHA", SuiteLabel.FS_NONAE),
    ("DHE-DSS-AES128-SHA", SuiteLabel.FS_NONAE),
    ("ECDHE-RSA-NULL-SHA", SuiteLabel.FS_NONAE),
    ("AES128-GCM-SHA256", SuiteLabel.NONFS_AE),
    ("AES256-GCM-SHA384", SuiteLabel.NONFS_AE),
    ("AES128-CCM", SuiteLabel.NONFS_AE),
    ("AES256-CCM8", SuiteLabel.NONFS_AE),
    ("PSK-AES128-GCM-SHA256", SuiteLabel.NONFS_AE),
    ("PSK-CHACHA20-POLY1305", SuiteLabel.NONFS_AE),
    ("RSA-PSK-CHACHA20-POLY1305", SuiteLabel.NONFS_AE),
    ("DH-RSA-AES128-GCM-SHA256", SuiteLabel.NONFS_AE),   # static DH, not DHE
    ("ECDH-RSA-AES128-GCM-SHA256", SuiteLabel.NONFS_AE),  # static ECDH
    ("ADH-AES128-GCM-SHA256", SuiteLabel.NONFS_AE),
    ("ARIA128-GCM-SHA256", SuiteLabel.NONFS_AE),
    ("AES128-SHA", SuiteLabel.NONFS_NONAE),
    ("AES256-SHA", SuiteLabel.NONFS_NONAE),
    ("AES128-SHA256", SuiteLabel.NONFS_NONAE),
    ("AES256-SHA256", SuiteLabel.NONFS_NONAE),
    ("DES-CBC3-SHA", SuiteLabel.NONFS_NONAE),
    ("RC4-SHA", SuiteLabel.NONFS_NONAE),
    ("RC4-MD5", SuiteLabel.NONFS_NONAE),
    ("CAMELLIA128-SHA", SuiteLabel.NONFS_NONAE),
    ("SEED-SHA", SuiteLabel.NONFS_NONAE),
    ("IDEA-CBC-SHA", SuiteLabel.NONFS_NONAE),
    ("PSK-AES128-CBC-SHA", SuiteLabel.NONFS_NONAE),
    ("EDH-RSA-DES-CBC3-SHA", SuiteLabel.NONFS_NONAE),  # EDH alias is not DHE
    ("ECDH-ECDSA-AES128-SHA", SuiteLabel.NONFS_NONAE),
    ("NULL-MD5", SuiteLabel.NONFS_NONAE),
    ("TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256", SuiteLabel.FS_AE),
    ("TLS_DHE_RSA_WITH_CHACHA20_POLY1305_SHA256", SuiteLabel.FS_AE),
    ("TLS_ECDHE_ECDSA_WITH_AES_128_CCM_8", SuiteLabel.FS_AE),
    ("TLS_RSA_WITH_AES_256_CCM", SuiteLabel.NONFS_AE),
    ("TLS_RSA_WITH_AES_128_CBC_SHA", SuiteLabel.NONFS_NONAE),
    ("tls_ecdhe_rsa_with_aes_256_gcm_sha384", SuiteLabel.FS_AE),
]


def oracle_classify(name):
    """Brute-force re-statement of the labelling rules, kept independent of
    the production classifier's string handling."""
    upper = name.upper().replace("_", "-")
    if upper.startswith("TLS-"):
        upper = upper[len("TLS-"):]
    fs = re.match(r"^(ECDHE|DHE)(-|$)", upper) is not None
    ae = re.search(r"GCM|CCM|CHACHA20", upper) is not None
    return {
        (True, True): SuiteLabel.FS_AE,
        (True, False): SuiteLabel.FS_NONAE,
        (False, True): SuiteLabel.NONFS_AE,
        (False, False): SuiteLabel.NONFS_NONAE,
    }[(fs, ae)]


def test_fixture_is_big_enough():
    assert len(LABELLED_SUITES) >= 50
    assert len({name for name, _ in LABELLED_SUITES}) == len(LABELLED_SUITES)


@pytest.mark.parametrize("name,label", LABELLED_SUITES)
def test_classifier_matches_hand_labels(name, label):
    assert classify_ciphersuite(name) is label


@pytest.mark.parametrize("name,label", LABELLED_SUITES)
def test_oracle_agrees(name, label):
    assert oracle_classify(name) is label
    assert classify_ciphersuite(name) is oracle_classify(name)


def test_classifier_case_insensitive():
    assert classify_ciphersuite("ecdhe-rsa-aes128-gcm-sha256") is SuiteLabel.FS_AE
    assert classify_ciphersuite("EcDhE-RSA-ChaCha20-Poly1305") is SuiteLabel.FS_AE


def test_classifier_requires_token_prefix():
    # a leading token merely containing DHE is not forward secrecy
    assert classify_ciphersuite("XDHE-RSA-AES128-GCM-SHA256") is SuiteLabel.NONFS_AE


def test_classifier_rejects_empty():
    with pytest.raises(ValueError):
        classify_ciphersuite("")


def test_classifier_rejects_whitespace_only():
    with pytest.raises(ValueError):
        classify_ciphersuite("   ")


def test_normalize_suite_name():
    assert (
        normalize_suite_name("TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256")
        == "ECDHE-RSA-WITH-AES-128-GCM-SHA256"
    )
    assert normalize_suite_name(" aes128-sha ") == "AES128-SHA"


# -- apply -------------------------------------------------------------------

STRICT_DECISION = PolicyDecision(Mode.STRICT, Reason.OK)
DEFAULT_DECISION = PolicyDecision(Mode.DEFAULT, Reason.NO_RECORD)


def test_apply_strict_filters_to_strong_subset():
    config = apply(STRICT_DECISION, DEFAULT_CLIENT)
    assert config.versions == (TlsVersion.TLS12,)
    assert config.fallback_enabled is False
    # the default 14-suite list holds exactly these 6 FS+AE suites, in order
    assert config.ciphersuites == (
        "ECDHE-ECDSA-AES128-GCM-SHA256",
        "ECDHE-RSA-AES128-GCM-SHA256",
        "ECDHE-ECDSA-CHACHA20-POLY1305",
        "ECDHE-RSA-CHACHA20-POLY1305",
        "ECDHE-ECDSA-AES256-GCM-SHA384",
        "ECDHE-RSA-AES256-GCM-SHA384",
    )


def test_apply_default_offers_everything():
    config = apply(DEFAULT_DECISION, DEFAULT_CLIENT)
    assert config.versions == (TlsVersion.TLS12, TlsVersion.TLS11, TlsVersion.TLS10)
    assert config.ciphersuites == DEFAULT_CLIENT_SUITES
    assert config.fallback_enabled is True


def test_apply_strict_keeps_all_strong_list_unchanged():
    strong_only = ClientCapabilities(
        TlsVersion.TLS12,
        TlsVersion.TLS10,
        ("ECDHE-RSA-AES128-GCM-SHA256", "ECDHE-RSA-CHACHA20-POLY1305"),
    )
    config = apply(STRICT_DECISION, strong_only)
    assert config.ciphersuites == strong_only.suite_list


def test_apply_depends_only_on_mode():
    for reason in (Reason.OK, Reason.DROP_ALARM):
        strict = PolicyDecision(Mode.STRICT, reason, "x@y.z")
        assert apply(strict, DEFAULT_CLIENT) == apply(STRICT_DECISION, DEFAULT_CLIENT)
    for reason in (Reason.NO_RECORD, Reason.INVALID_SIGNATURE, Reason.REVOKED):
        default = PolicyDecision(Mode.DEFAULT, reason, "x@y.z")
        assert apply(default, DEFAULT_CLIENT) == apply(DEFAULT_DECISION, DEFAULT_CLIENT)


def test_capabilities_require_a_strong_suite():
    with pytest.raises(ValueError):
        ClientCapabilities(TlsVersion.TLS12, TlsVersion.TLS10, ("AES128-SHA",))


def test_capabilities_refuse_a_floor_above_the_latest_version():
    with pytest.raises(ValueError, match="^version floor above latest version$"):
        ClientCapabilities(TlsVersion.TLS11, TlsVersion.TLS12, DEFAULT_CLIENT_SUITES)


def test_capabilities_with_floor_at_latest_version():
    caps = ClientCapabilities(TlsVersion.TLS12, TlsVersion.TLS12, DEFAULT_CLIENT_SUITES)
    config = apply(DEFAULT_DECISION, caps)
    assert config.versions == (TlsVersion.TLS12,)
    assert config.fallback_enabled is True


def test_equal_capabilities_built_separately_get_equal_configs():
    def build(suites):
        return ClientCapabilities(TlsVersion.TLS12, TlsVersion.TLS11, tuple(suites))

    first, second = build(DEFAULT_CLIENT_SUITES), build(list(DEFAULT_CLIENT_SUITES))
    for decision in (STRICT_DECISION, DEFAULT_DECISION):
        assert apply(decision, first) == apply(decision, second)
    assert apply(DEFAULT_DECISION, first).versions == (TlsVersion.TLS12, TlsVersion.TLS11)
    # capabilities that differ in any field get their own config
    strong_only = build(DEFAULT_CLIENT_SUITES[:2])
    assert apply(STRICT_DECISION, strong_only).ciphersuites == DEFAULT_CLIENT_SUITES[:2]
    assert apply(DEFAULT_DECISION, strong_only).ciphersuites == DEFAULT_CLIENT_SUITES[:2]
    assert apply(DEFAULT_DECISION, DEFAULT_CLIENT).versions[-1] is TlsVersion.TLS10
    assert apply(STRICT_DECISION, first) != apply(DEFAULT_DECISION, first)


def test_list_and_tuple_suite_lists_get_equal_configs():
    as_list = ClientCapabilities(TlsVersion.TLS12, TlsVersion.TLS10, list(DEFAULT_CLIENT_SUITES))
    as_tuple = ClientCapabilities(TlsVersion.TLS12, TlsVersion.TLS10, DEFAULT_CLIENT_SUITES)
    assert as_list == as_tuple
    for decision in (STRICT_DECISION, DEFAULT_DECISION):
        assert apply(decision, as_list) == apply(decision, as_tuple)


def test_decision_invariant():
    with pytest.raises(ValueError):
        PolicyDecision(Mode.STRICT, Reason.INVALID_SIGNATURE)


# property suite: strict purity and default shape over random suite lists

_components = st.tuples(
    st.sampled_from(
        ("ECDHE-RSA", "ECDHE-ECDSA", "DHE-RSA", "DHE-DSS", "RSA", "PSK",
         "ECDH-RSA", "ADH", "SRP-SHA", "EDH-RSA")
    ),
    st.sampled_from(
        ("AES128-GCM", "AES256-GCM", "CHACHA20-POLY1305", "AES128-CCM",
         "AES128", "AES256", "RC4", "DES-CBC3", "CAMELLIA128", "SEED")
    ),
    st.sampled_from(("SHA", "SHA256", "SHA384", "MD5", "")),
)
_suite_names = _components.map(lambda t: "-".join(p for p in t if p))


@st.composite
def capability_lists(draw):
    suites = draw(st.lists(_suite_names, min_size=1, max_size=20, unique=True))
    anchor = draw(st.sampled_from(
        ("ECDHE-RSA-AES128-GCM-SHA256", "DHE-RSA-CHACHA20-POLY1305")
    ))
    if anchor not in suites:
        suites.insert(draw(st.integers(0, len(suites))), anchor)
    return ClientCapabilities(TlsVersion.TLS12, TlsVersion.TLS10, tuple(suites))


@given(capability_lists())
def test_strict_config_purity(caps):
    config = apply(STRICT_DECISION, caps)
    assert config.versions == (caps.latest_version,)
    assert config.fallback_enabled is False
    assert config.ciphersuites
    assert all(
        classify_ciphersuite(s) is SuiteLabel.FS_AE for s in config.ciphersuites
    )
    # order comes from the capability list
    assert list(config.ciphersuites) == [
        s for s in caps.suite_list if classify_ciphersuite(s) is SuiteLabel.FS_AE
    ]


@given(capability_lists())
def test_default_config_shape(caps):
    config = apply(PolicyDecision(Mode.DEFAULT, Reason.NO_RECORD), caps)
    assert config.versions == (TlsVersion.TLS12, TlsVersion.TLS11, TlsVersion.TLS10)
    assert config.ciphersuites == caps.suite_list
    assert config.fallback_enabled is True


# -- decide ------------------------------------------------------------------

POLICY = PolicyRecord(
    valid_from=date(2018, 5, 1), valid_to=date(2019, 5, 1), report="admin@tls12.test"
)
SIG_WINDOW = (date(2018, 5, 1), date(2019, 5, 1))


def build_world(zone_keys, records=None, values=None, domain="tls12.test",
                sig_window=SIG_WINDOW):
    zone = ZoneStore()
    if values is None:
        values = [serialize_policy(r) for r in (records or [POLICY])]
    if values:
        zone.publish(sign_rrset(zone_keys, domain, values, *sig_window))
    anchors = TrustAnchorSet()
    anchors.add(TrustAnchor(domain, zone_keys.key_id, zone_keys.public_der()))
    return zone, anchors


def run_decide(zone, anchors, domain="tls12.test", store=None, now=date(2018, 7, 1)):
    store = store if store is not None else PolicyStore()
    return decide(resolve(zone, domain), anchors, store, domain, now), store


def test_decide_happy_path(zone_keys, now):
    zone, anchors = build_world(zone_keys)
    decision, store = run_decide(zone, anchors)
    assert decision == PolicyDecision(Mode.STRICT, Reason.OK, "admin@tls12.test")
    assert store.get_exact("tls12.test", now) is not None


def test_decide_accepts_a_query_spelled_otherwise_than_its_lower_case_owner(zone_keys, now):
    # check_answer compares the names as given first; they differ here.
    zone, anchors = build_world(zone_keys)
    decision, store = run_decide(zone, anchors, domain="TLS12.Test.")
    assert decision == PolicyDecision(Mode.STRICT, Reason.OK, "admin@tls12.test")
    assert [entry.domain for entry in store.entries()] == ["tls12.test"]


def test_decide_tampered_value(zone_keys):
    zone, anchors = build_world(zone_keys)
    zone.attacker_modify_txt_value("tls12.test", 0, serialize_policy(POLICY) + " ")
    decision, _ = run_decide(zone, anchors)
    assert decision.mode is Mode.DEFAULT
    assert decision.reason is Reason.INVALID_SIGNATURE


def test_decide_unknown_key_id(zone_keys, other_keys):
    zone, _ = build_world(zone_keys)
    anchors = TrustAnchorSet()
    anchors.add(TrustAnchor("tls12.test", other_keys.key_id, other_keys.public_der()))
    decision, _ = run_decide(zone, anchors)
    assert decision.reason is Reason.INVALID_SIGNATURE


def test_decide_no_anchor(zone_keys):
    zone, _ = build_world(zone_keys)
    decision, _ = run_decide(zone, TrustAnchorSet())
    assert decision.reason is Reason.INVALID_SIGNATURE


def test_decide_signature_window(zone_keys):
    zone, anchors = build_world(zone_keys, sig_window=(date(2018, 5, 1), date(2018, 6, 1)))
    decision, _ = run_decide(zone, anchors)  # now is 01-07-2018
    assert decision == PolicyDecision(Mode.DEFAULT, Reason.SIGNATURE_EXPIRED)
    decision, _ = run_decide(zone, anchors, now=date(2018, 4, 1))
    assert decision.reason is Reason.SIGNATURE_EXPIRED  # not-yet-valid maps here too


def test_decide_malformed_signed_record(zone_keys):
    zone, anchors = build_world(zone_keys, values=["name=DSTC; validFrom=junk"])
    decision, _ = run_decide(zone, anchors)
    assert decision == PolicyDecision(Mode.DEFAULT, Reason.MALFORMED)


def test_decide_ambiguous_records(zone_keys):
    other = PolicyRecord(
        valid_from=date(2018, 6, 1), valid_to=date(2019, 5, 1), report="x@y.z"
    )
    zone, anchors = build_world(zone_keys, records=[POLICY, other])
    decision, _ = run_decide(zone, anchors)
    assert decision == PolicyDecision(Mode.DEFAULT, Reason.AMBIGUOUS_RECORDS)


def test_decide_policy_dates(zone_keys):
    zone, anchors = build_world(zone_keys)
    decision, _ = run_decide(zone, anchors, now=date(2019, 6, 1))
    # signature window also ends 01-05-2019, so move it; rebuild with long window
    zone, anchors = build_world(zone_keys, sig_window=(date(2018, 5, 1), date(2020, 5, 1)))
    decision, _ = run_decide(zone, anchors, now=date(2019, 6, 1))
    assert decision == PolicyDecision(Mode.DEFAULT, Reason.POLICY_EXPIRED, "admin@tls12.test")
    decision, _ = run_decide(zone, anchors, now=date(2018, 4, 30))
    # signature window starts 01-05; widen check via not-yet-valid policy
    zone2, anchors2 = build_world(zone_keys, sig_window=(date(2018, 1, 1), date(2020, 5, 1)))
    decision, _ = run_decide(zone2, anchors2, now=date(2018, 4, 30))
    assert decision == PolicyDecision(
        Mode.DEFAULT, Reason.POLICY_NOT_YET_VALID, "admin@tls12.test"
    )


def test_decide_revoked_record_deletes_stored(zone_keys, now):
    zone, anchors = build_world(zone_keys)
    store = PolicyStore()
    decision, _ = run_decide(zone, anchors, store=store)
    assert decision.mode is Mode.STRICT

    revoking = PolicyRecord(
        valid_from=date(2018, 6, 1), valid_to=date(2019, 5, 1),
        report="admin@tls12.test", revoke=True,
    )
    zone2, anchors2 = build_world(zone_keys, records=[revoking])
    decision, _ = run_decide(zone2, anchors2, store=store)
    assert decision == PolicyDecision(Mode.DEFAULT, Reason.REVOKED, "admin@tls12.test")
    assert store.get_exact("tls12.test", now) is None
    assert store.tombstones()


def test_decide_no_record_empty_store(zone_keys):
    zone = ZoneStore()
    zone.register_name("tls12.test")
    anchors = TrustAnchorSet()
    decision, _ = run_decide(zone, anchors)
    assert decision == PolicyDecision(Mode.DEFAULT, Reason.NO_RECORD)


def test_decide_drop_alarm(zone_keys):
    zone, anchors = build_world(zone_keys)
    store = PolicyStore()
    run_decide(zone, anchors, store=store)
    zone.attacker_drop_rrset("tls12.test")
    decision, _ = run_decide(zone, anchors, store=store)
    assert decision == PolicyDecision(Mode.STRICT, Reason.DROP_ALARM, "admin@tls12.test")


def test_decide_drop_alarm_on_the_cached_validto_day(zone_keys):
    # The cached policy is live through its validTo day.
    zone, anchors = build_world(zone_keys)
    store = PolicyStore()
    run_decide(zone, anchors, store=store)
    zone.attacker_drop_rrset("tls12.test")
    decision, _ = run_decide(zone, anchors, store=store, now=POLICY.valid_to)
    assert decision == PolicyDecision(Mode.STRICT, Reason.DROP_ALARM, "admin@tls12.test")


def test_decide_nxdomain_with_cached_policy_alarms(zone_keys):
    zone, anchors = build_world(zone_keys)
    store = PolicyStore()
    run_decide(zone, anchors, store=store)
    empty_zone = ZoneStore()
    decision, _ = run_decide(empty_zone, anchors, store=store)
    assert decision.mode is Mode.STRICT
    assert decision.reason is Reason.DROP_ALARM


def test_decide_ignores_foreign_txt_values(zone_keys):
    zone, anchors = build_world(
        zone_keys, values=[serialize_policy(POLICY), "v=spf1 -all"]
    )
    decision, _ = run_decide(zone, anchors)
    assert decision == PolicyDecision(Mode.STRICT, Reason.OK, "admin@tls12.test")


_CANONICAL_TXT = serialize_policy(POLICY)


@pytest.mark.parametrize("values", [
    [_CANONICAL_TXT],
    ["  name = DSTC ;validFrom= 01-05-2018;\tvalidTo =01-05-2019 ;; tlsLevel=strict-config"
     ";includeSubDomain=0 ;revoke = 0; report= admin@tls12.test  "],
    ["report=admin@tls12.test; revoke=0; includeSubDomain=0; tlsLevel=strict-config; "
     "validTo=01-05-2019; validFrom=01-05-2018; name=DSTC"],
    ["v=spf1 include:_spf.example.com ~all", _CANONICAL_TXT],
], ids=["canonical", "loose-whitespace", "reordered", "beside-spf"])
def test_a_publisher_that_is_not_canonical_is_cached_as_the_canonical_one(
        zone_keys, now, tmp_path, values):
    def decide_and_save(values, path):
        zone, anchors = build_world(zone_keys, values=values)
        decision, store = run_decide(zone, anchors, now=now)
        assert decision == PolicyDecision(Mode.STRICT, Reason.OK, "admin@tls12.test")
        store.save(str(path))
        return path.read_bytes()

    canonical = decide_and_save([_CANONICAL_TXT], tmp_path / "canonical.txt")
    assert decide_and_save(values, tmp_path / "store.txt") == canonical

    loaded = PolicyStore.load(str(tmp_path / "store.txt"))
    zone, anchors = build_world(zone_keys)
    reason, record = check_answer(resolve(zone, "tls12.test"), anchors, "tls12.test", now)
    assert reason is Reason.OK
    assert loaded.update("tls12.test", record, now) is StoreAction.UNCHANGED


def test_decide_only_foreign_txt_is_absence(zone_keys):
    zone, anchors = build_world(zone_keys, values=["v=spf1 -all"])
    decision, _ = run_decide(zone, anchors)
    assert decision == PolicyDecision(Mode.DEFAULT, Reason.NO_RECORD)


def test_decide_stale_replay_keeps_strict(zone_keys, now):
    fresh = PolicyRecord(
        valid_from=date(2018, 6, 1), valid_to=date(2019, 5, 1), report="new@tls12.test"
    )
    store = PolicyStore()
    store.update("tls12.test", fresh, now)
    zone, anchors = build_world(zone_keys)  # zone serves the older POLICY
    decision, _ = run_decide(zone, anchors, store=store)
    assert decision == PolicyDecision(Mode.STRICT, Reason.DROP_ALARM, "new@tls12.test")
    assert store.get_exact("tls12.test", now).record == fresh


def test_decide_replayed_revoked_policy(zone_keys, now):
    store = PolicyStore()
    store.update("tls12.test", POLICY, now)
    revoking = PolicyRecord(
        valid_from=date(2018, 6, 1), valid_to=date(2019, 5, 1),
        report="admin@tls12.test", revoke=True,
    )
    store.update("tls12.test", revoking, now)
    zone, anchors = build_world(zone_keys)  # replays the pre-revocation policy
    decision, _ = run_decide(zone, anchors, store=store)
    assert decision == PolicyDecision(Mode.DEFAULT, Reason.REVOKED, "admin@tls12.test")
    assert store.get_exact("tls12.test", now) is None


def test_decide_subdomain_inherits_strict(zone_keys, now):
    parent = PolicyRecord(
        valid_from=date(2018, 5, 1), valid_to=date(2019, 5, 1),
        report="admin@tls12.test", include_sub_domain=True,
    )
    store = PolicyStore()
    store.update("tls12.test", parent, now)
    empty_zone = ZoneStore()
    anchors = TrustAnchorSet()
    decision, _ = run_decide(empty_zone, anchors, domain="www.tls12.test", store=store)
    assert decision == PolicyDecision(Mode.STRICT, Reason.OK, "admin@tls12.test")


def test_decide_subdomain_not_inherited_without_flag(zone_keys, now):
    store = PolicyStore()
    store.update("tls12.test", POLICY, now)  # include_sub_domain=0
    decision, _ = run_decide(ZoneStore(), TrustAnchorSet(), domain="www.tls12.test",
                             store=store)
    assert decision == PolicyDecision(Mode.DEFAULT, Reason.NO_RECORD)


def test_decide_fail_closed_matrix(zone_keys, other_keys):
    """One injected fault at a time, empty store: never Strict/OK."""
    malformed = serialize_policy(POLICY).replace("strict-config", "weird-level")
    ambiguous = PolicyRecord(
        valid_from=date(2018, 6, 1), valid_to=date(2019, 5, 1), report="b@c.d"
    )
    worlds = {
        Reason.INVALID_SIGNATURE: build_world(zone_keys)[0],
        Reason.MALFORMED: build_world(zone_keys, values=[malformed])[0],
        Reason.AMBIGUOUS_RECORDS: build_world(zone_keys, records=[POLICY, ambiguous])[0],
        Reason.SIGNATURE_EXPIRED: build_world(
            zone_keys, sig_window=(date(2018, 1, 1), date(2018, 2, 1))
        )[0],
    }
    worlds[Reason.INVALID_SIGNATURE].attacker_tamper_signature("tls12.test")
    anchors = build_world(zone_keys)[1]
    for expected_reason, zone in worlds.items():
        decision, _ = run_decide(zone, anchors)
        assert decision.mode is Mode.DEFAULT
        assert decision.reason is expected_reason


def test_decide_refuses_a_signed_answer_for_another_name(zone_keys):
    # Both names sign under one key, so the foreign set passes RSA and the
    # anchor; only its owner name tells it apart.
    fixture = build_fixture(
        {
            "victim.test": fixture_policy(report="admin@victim.test"),
            "other.test": fixture_policy(
                valid_from=date(2018, 6, 1), report="admin@other.test", revoke=True
            ),
        }
    )
    assert fixture.decide_for("victim.test") == PolicyDecision(
        Mode.STRICT, Reason.OK, "admin@victim.test"
    )
    cached = fixture.store.to_text()
    foreign = DnsResponse(Disposition.ANSWERED, fixture.zone.rrset_for("other.test"))
    decision = decide(foreign, fixture.anchors, fixture.store, "victim.test", fixture.now)
    assert decision == PolicyDecision(Mode.STRICT, Reason.DROP_ALARM, "admin@victim.test")
    assert fixture.store.to_text() == cached


# -- the no-usable-record fallback, per reason and cache state ---------------

SUB = "www.tls12.test"
OWN_ENTRY = PolicyRecord(
    valid_from=date(2018, 5, 1), valid_to=date(2019, 5, 1), report="own@www.tls12.test"
)
OPTED_IN_ANCESTOR = PolicyRecord(
    valid_from=date(2018, 5, 1), valid_to=date(2019, 5, 1),
    report="admin@tls12.test", include_sub_domain=True,
)
EXPIRED_POLICY = PolicyRecord(
    valid_from=date(2017, 5, 1), valid_to=date(2018, 5, 1), report="old@www.tls12.test"
)


def fallback_zone(zone_keys, reason):
    """A zone whose answer for SUB fails exactly with ``reason``."""
    if reason is Reason.NO_RECORD:
        zone = ZoneStore()
        zone.register_name(SUB)
        return zone
    window, values = SIG_WINDOW, [serialize_policy(OWN_ENTRY)]
    if reason is Reason.SIGNATURE_EXPIRED:
        window = (date(2018, 1, 1), date(2018, 2, 1))
    elif reason is Reason.MALFORMED:
        values = ["name=DSTC; validFrom=junk"]
    elif reason is Reason.AMBIGUOUS_RECORDS:
        values = [serialize_policy(OWN_ENTRY), serialize_policy(EXPIRED_POLICY)]
    elif reason is Reason.POLICY_EXPIRED:
        values = [serialize_policy(EXPIRED_POLICY)]
    zone, _ = build_world(zone_keys, values=values, domain=SUB, sig_window=window)
    if reason is Reason.INVALID_SIGNATURE:
        zone.attacker_tamper_signature(SUB)
    return zone


FALLBACK_REASONS = [
    Reason.NO_RECORD,
    Reason.INVALID_SIGNATURE,
    Reason.SIGNATURE_EXPIRED,
    Reason.MALFORMED,
    Reason.AMBIGUOUS_RECORDS,
    Reason.POLICY_EXPIRED,
]


@pytest.mark.parametrize("reason", FALLBACK_REASONS, ids=lambda r: r.value)
@pytest.mark.parametrize("cache", ["own-entry", "opted-in-ancestor", "empty"])
def test_decide_fallback_table(zone_keys, now, reason, cache):
    """No usable record: an own live entry alarms, an opted-in ancestor keeps
    strict (OK for plain absence, DropAlarm for an unusable answer), and an
    empty cache falls back to default with the specific reason."""
    store = PolicyStore()
    if cache == "own-entry":
        store.update(SUB, OWN_ENTRY, now)
        expected = PolicyDecision(Mode.STRICT, Reason.DROP_ALARM, OWN_ENTRY.report)
    elif cache == "opted-in-ancestor":
        store.update("tls12.test", OPTED_IN_ANCESTOR, now)
        ancestor_reason = Reason.OK if reason is Reason.NO_RECORD else Reason.DROP_ALARM
        expected = PolicyDecision(Mode.STRICT, ancestor_reason, OPTED_IN_ANCESTOR.report)
    else:
        report = EXPIRED_POLICY.report if reason is Reason.POLICY_EXPIRED else None
        expected = PolicyDecision(Mode.DEFAULT, reason, report)
    anchors = TrustAnchorSet()
    anchors.add(TrustAnchor(SUB, zone_keys.key_id, zone_keys.public_der()))
    decision, _ = run_decide(fallback_zone(zone_keys, reason), anchors, domain=SUB,
                             store=store, now=now)
    assert decision == expected


# -- a usable answer, per cache state: the store's action picks the outcome

ANSWER = PolicyRecord(
    valid_from=date(2018, 6, 1), valid_to=date(2019, 5, 1), report="answer@tls12.test"
)
OLDER = replace(ANSWER, valid_from=date(2018, 5, 1), report="older@tls12.test")
NEWER = replace(ANSWER, valid_from=date(2018, 7, 1), report="newer@tls12.test")
NEWER_REVOCATION = replace(NEWER, revoke=True)
ANSWER_TOMBSTONE = ((date(2018, 6, 1), date(2019, 5, 1)),)
NEWER_TOMBSTONE = ((date(2018, 7, 1), date(2019, 5, 1)),)
# Cached records whose validTo has passed at ``now`` (01-07-2018).
EXPIRED_NEWER = replace(NEWER, valid_from=date(2018, 6, 2), valid_to=date(2018, 6, 30))
EXPIRED_OLDER = replace(OLDER, valid_from=date(2018, 3, 1), valid_to=date(2018, 6, 1))

CACHE_STATES = {
    "empty": (),
    "older-entry": (OLDER,),
    "newer-entry": (NEWER,),
    "tombstone": (OLDER, NEWER_REVOCATION),  # the domain revoked after ANSWER
    # An expired entry counts as never seen, whatever its dates.
    "expired-newer-entry": (EXPIRED_NEWER,),
    "expired-older-entry": (EXPIRED_OLDER,),
}

# (cache, answer revokes?) -> mode, reason, report, store action, and the
# cache after: (entries' records, tombstones' (valid_from, valid_to)).
ANSWER_TABLE = [
    ("empty", False, Mode.STRICT, Reason.OK, ANSWER.report,
     StoreAction.STORED_NEW, ((ANSWER,), ())),
    ("empty", True, Mode.DEFAULT, Reason.REVOKED, ANSWER.report,
     StoreAction.UNCHANGED, ((), ())),
    ("older-entry", False, Mode.STRICT, Reason.OK, ANSWER.report,
     StoreAction.REPLACED, ((ANSWER,), ())),
    ("older-entry", True, Mode.DEFAULT, Reason.REVOKED, ANSWER.report,
     StoreAction.REVOKED_DELETED, ((), ANSWER_TOMBSTONE)),
    ("newer-entry", False, Mode.STRICT, Reason.DROP_ALARM, NEWER.report,
     StoreAction.REJECTED_STALE, ((NEWER,), ())),
    # A replayed revocation older than the cached policy is a stale replay
    # like any other: the cached policy keeps governing, fallback stays off.
    ("newer-entry", True, Mode.STRICT, Reason.DROP_ALARM, NEWER.report,
     StoreAction.REJECTED_STALE, ((NEWER,), ())),
    ("tombstone", False, Mode.DEFAULT, Reason.REVOKED, ANSWER.report,
     StoreAction.REJECTED_STALE, ((), NEWER_TOMBSTONE)),
    ("tombstone", True, Mode.DEFAULT, Reason.REVOKED, ANSWER.report,
     StoreAction.REJECTED_STALE, ((), NEWER_TOMBSTONE)),
    ("expired-newer-entry", False, Mode.STRICT, Reason.OK, ANSWER.report,
     StoreAction.STORED_NEW, ((ANSWER,), ())),
    ("expired-newer-entry", True, Mode.DEFAULT, Reason.REVOKED, ANSWER.report,
     StoreAction.UNCHANGED, ((), ())),
    ("expired-older-entry", False, Mode.STRICT, Reason.OK, ANSWER.report,
     StoreAction.STORED_NEW, ((ANSWER,), ())),
    ("expired-older-entry", True, Mode.DEFAULT, Reason.REVOKED, ANSWER.report,
     StoreAction.UNCHANGED, ((), ())),
]


@pytest.mark.parametrize(
    "cache, revoke, mode, reason, report, action, after",
    ANSWER_TABLE,
    ids=[f"{row[0]}-{'revocation' if row[1] else 'policy'}" for row in ANSWER_TABLE],
)
def test_decide_answer_table(zone_keys, now, monkeypatch, cache, revoke, mode, reason,
                             report, action, after):
    """A signed, active answer: decide calls store.update once, and its
    action alone picks the decision."""
    store = PolicyStore()
    for record in CACHE_STATES[cache]:
        store.update("tls12.test", record, now)
    actions = []
    update = store.update

    def recording_update(*args):
        actions.append(update(*args))
        return actions[-1]

    monkeypatch.setattr(store, "update", recording_update)
    zone, anchors = build_world(zone_keys, records=[replace(ANSWER, revoke=revoke)])

    decision, _ = run_decide(zone, anchors, store=store, now=now)

    assert decision == PolicyDecision(mode, reason, report)
    assert actions == [action]
    assert (
        tuple(e.record for e in store.entries()),
        tuple((t.valid_from, t.valid_to) for t in store.tombstones()),
    ) == after
    assert apply(decision, DEFAULT_CLIENT).fallback_enabled is (mode is Mode.DEFAULT)


# -- an expired cache slot is no cache slot ----------------------------------

NOW = date(2018, 7, 1)


def _day(draw, first, last):
    return first + timedelta(days=draw(st.integers(0, (last - first).days)))


@st.composite
def expired_cache_files(draw):
    """A one-line cache file for tls12.test whose validTo is before NOW."""
    valid_to = _day(draw, date(2017, 1, 1), NOW - timedelta(days=1))
    valid_from = _day(draw, date(2016, 1, 1), valid_to)
    if draw(st.booleans()):
        dates = f"{format_policy_date(valid_from)} {format_policy_date(valid_to)}"
        return f"TOMBSTONE tls12.test {dates}\n"
    cached = PolicyRecord(valid_from, valid_to, "cached@tls12.test",
                          include_sub_domain=draw(st.booleans()))
    # Also in the older form, whose stored-at date the reader drops.
    stamp = draw(st.sampled_from(["", f"{format_policy_date(valid_from)} "]))
    return f"POLICY tls12.test {stamp}{serialize_policy(cached)}\n"


@st.composite
def active_answers(draw):
    return PolicyRecord(
        _day(draw, date(2017, 1, 1), NOW),
        _day(draw, NOW, date(2019, 7, 1)),
        "answer@tls12.test",
        include_sub_domain=draw(st.booleans()),
        revoke=draw(st.booleans()),
    )


@given(cache_file=expired_cache_files(), answer=active_answers())
def test_expired_slot_decides_like_an_empty_cache(zone_keys, cache_file, answer):
    zone, anchors = build_world(zone_keys, records=[answer])
    decision, store = run_decide(zone, anchors, store=PolicyStore.from_text(cache_file))
    expected, fresh = run_decide(zone, anchors, store=PolicyStore())
    assert decision == expected
    assert store.to_text() == fresh.to_text()


# -- check_answer: the answer checks alone, and decide on an empty cache ------

EXPIRED = replace(POLICY, valid_from=date(2017, 5, 1), valid_to=date(2018, 6, 1))
NOT_YET_VALID = replace(POLICY, valid_from=date(2018, 8, 1))


def _nodata(keys, other, record):
    zone, anchors = build_world(keys, values=[])
    zone.register_name("tls12.test")
    return zone, anchors


def _tampered(keys, other, record):
    zone, anchors = build_world(keys, records=[record])
    zone.attacker_tamper_signature("tls12.test")
    return zone, anchors


def _other_owner(keys, other, record):
    # A set validly signed for another name under tls12.test's key. ZoneStore
    # renames every set it files, so the answer is built directly.
    _, anchors = build_world(keys, values=[])
    rrset = sign_rrset(keys, "other.test", [serialize_policy(record)], *SIG_WINDOW)
    return DnsResponse(Disposition.ANSWERED, rrset), anchors


# Each builder takes (zone keys, other keys, record) and returns the zone, or
# the answer itself, and the anchors of one crafted answer for tls12.test.
ANSWERS = {
    "nxdomain": lambda keys, other, record: build_world(keys, values=[]),
    "nodata": _nodata,
    "no-dstc-value": lambda keys, other, record: build_world(keys, values=["v=spf1 -all"]),
    "no-anchor": lambda keys, other, record: (
        build_world(keys, records=[record])[0], TrustAnchorSet()),
    "key-id-mismatch": lambda keys, other, record: (
        build_world(keys, records=[record])[0], build_world(other, values=[])[1]),
    "tampered-signature": _tampered,
    "other-owner": _other_owner,
    "signature-expired": lambda keys, other, record: build_world(
        keys, records=[record], sig_window=(date(2018, 1, 1), date(2018, 2, 1))),
    "signature-not-yet-valid": lambda keys, other, record: build_world(
        keys, records=[record], sig_window=(date(2018, 8, 1), date(2019, 5, 1))),
    "malformed": lambda keys, other, record: build_world(
        keys, values=["name=DSTC; validFrom=junk"]),
    "ambiguous": lambda keys, other, record: build_world(
        keys, records=[record, replace(record, report="other@tls12.test")]),
    "published": lambda keys, other, record: build_world(
        keys, values=[serialize_policy(record), "v=spf1 -all"]),
}

# (answer, record published, expected reason, record returned?)
CHECK_TABLE = [
    ("nxdomain", POLICY, Reason.NO_RECORD, False),
    ("nodata", POLICY, Reason.NO_RECORD, False),
    ("no-dstc-value", POLICY, Reason.NO_RECORD, False),
    ("no-anchor", POLICY, Reason.INVALID_SIGNATURE, False),
    ("key-id-mismatch", POLICY, Reason.INVALID_SIGNATURE, False),
    ("tampered-signature", POLICY, Reason.INVALID_SIGNATURE, False),
    ("other-owner", POLICY, Reason.INVALID_SIGNATURE, False),
    ("signature-expired", POLICY, Reason.SIGNATURE_EXPIRED, False),
    ("signature-not-yet-valid", POLICY, Reason.SIGNATURE_EXPIRED, False),
    ("malformed", POLICY, Reason.MALFORMED, False),
    ("ambiguous", POLICY, Reason.AMBIGUOUS_RECORDS, False),
    ("published", EXPIRED, Reason.POLICY_EXPIRED, True),
    ("published", NOT_YET_VALID, Reason.POLICY_NOT_YET_VALID, True),
    ("published", POLICY, Reason.OK, True),
]


def crafted_answer(answer, keys, other, record):
    """tls12.test's answer from the named builder, and its anchors."""
    built, anchors = ANSWERS[answer](keys, other, record)
    if isinstance(built, ZoneStore):
        built = resolve(built, "tls12.test")
    return built, anchors


@pytest.mark.parametrize(
    "answer, record, reason, returns_record",
    CHECK_TABLE,
    ids=[f"{row[0]}-{row[2].value}" for row in CHECK_TABLE],
)
def test_check_answer_table(zone_keys, other_keys, monkeypatch, answer, record, reason,
                            returns_record):
    def no_store(*args, **kwargs):
        raise AssertionError("check_answer touched a PolicyStore")

    for method in ("update", "observe_absence", "lookup", "get_exact"):
        monkeypatch.setattr(PolicyStore, method, no_store)
    response, anchors = crafted_answer(answer, zone_keys, other_keys, record)
    result = check_answer(response, anchors, "tls12.test", NOW)
    assert result == (reason, record if returns_record else None)


@st.composite
def crafted_answers(draw):
    """One of the crafted answers, publishing a record with drawn dates and flags."""
    valid_from = _day(draw, date(2017, 7, 1), date(2018, 10, 1))
    record = PolicyRecord(
        valid_from,
        _day(draw, valid_from, date(2019, 7, 1)),
        "admin@tls12.test",
        include_sub_domain=draw(st.booleans()),
        revoke=draw(st.booleans()),
    )
    # Half the draws publish the record, so its dates and flags are in play.
    return draw(st.just("published") | st.sampled_from(sorted(ANSWERS))), record


@given(crafted_answers())
def test_decide_on_an_empty_store_follows_check_answer(zone_keys, other_keys, drawn):
    answer, record = drawn
    response, anchors = crafted_answer(answer, zone_keys, other_keys, record)
    reason, checked = check_answer(response, anchors, "tls12.test", NOW)
    decision = decide(response, anchors, PolicyStore(), "tls12.test", NOW)
    if reason is not Reason.OK:
        report = None if checked is None else checked.report
        assert decision == PolicyDecision(Mode.DEFAULT, reason, report)
    elif checked.revoke:
        assert decision == PolicyDecision(Mode.DEFAULT, Reason.REVOKED, checked.report)
    else:
        assert decision == PolicyDecision(Mode.STRICT, Reason.OK, checked.report)


# -- one decision value per distinct decision


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
@pytest.mark.parametrize("reason", list(Reason), ids=lambda r: r.value)
def test_the_decision_intern_builds_what_the_constructor_builds(mode, reason):
    size = enforcement._interned_decision.cache_info().currsize
    try:
        expected = PolicyDecision(mode, reason, "admin@tls12.test")
    except ValueError as refused:
        for _ in range(2):
            with pytest.raises(ValueError, match=f"^{re.escape(str(refused))}$"):
                enforcement._decision(mode, reason, "admin@tls12.test")
        assert enforcement._interned_decision.cache_info().currsize == size
        return
    kept = enforcement._decision(mode, reason, "admin@tls12.test")
    assert kept == expected and kept.mode is mode and kept.reason is reason
    assert enforcement._decision(mode, reason, "admin@tls12.test") is kept


def test_a_strict_malformed_decision_raises_on_every_call_and_is_never_kept():
    size = enforcement._interned_decision.cache_info().currsize
    for _ in range(3):
        with pytest.raises(ValueError, match="strict mode cannot carry reason"):
            enforcement._decision(Mode.STRICT, Reason.MALFORMED, None)
    assert enforcement._interned_decision.cache_info().currsize == size


def test_repeated_decide_returns_the_kept_decision(zone_keys):
    zone, anchors = build_world(zone_keys)
    store = PolicyStore()
    first, _ = run_decide(zone, anchors, store=store)
    again, _ = run_decide(zone, anchors, store=store)
    assert again is first
    assert first == PolicyDecision(Mode.STRICT, Reason.OK, first.report_address)


def test_the_decision_intern_holds_more_decisions_than_warm_revisit_makes():
    # warm-revisit cycles through 6500 report addresses; an LRU intern
    # smaller than a cyclic working set never hits.
    assert enforcement._interned_decision.cache_info().maxsize == 1 << 14
