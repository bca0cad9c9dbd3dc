import itertools
import re

import pytest
from hypothesis import given, strategies as st

from dstc import handshake
from dstc.enforcement import (
    DEFAULT_CLIENT,
    EffectiveTlsConfig,
    Mode,
    PolicyDecision,
    Reason,
    SuiteLabel,
    TlsVersion,
    apply,
    classify_ciphersuite,
)
from dstc.handshake import (
    AttackerStrategy,
    AttackKind,
    HandshakeOutcome,
    HandshakeResult,
    NO_ATTACK,
    ServerProfile,
    run_handshake,
)

STRICT_CFG = apply(PolicyDecision(Mode.STRICT, Reason.OK), DEFAULT_CLIENT)
DEFAULT_CFG = apply(PolicyDecision(Mode.DEFAULT, Reason.NO_RECORD), DEFAULT_CLIENT)

STRONG = ("ECDHE-RSA-AES128-GCM-SHA256", "ECDHE-RSA-AES256-GCM-SHA384")
WEAK = ("ECDHE-RSA-AES128-SHA", "AES128-SHA")

ALL_VERSIONS = frozenset(
    {TlsVersion.SSL30, TlsVersion.TLS10, TlsVersion.TLS11, TlsVersion.TLS12}
)


def server(versions, suites=STRONG + WEAK, fragbug=False, name="srv.test"):
    return ServerProfile(name, frozenset(versions), suites, fragbug)


# -- the server's answer -----------------------------------------------------

def test_server_selects_offered_version():
    s = server({TlsVersion.TLS10, TlsVersion.TLS11, TlsVersion.TLS12})
    outcome = run_handshake(DEFAULT_CFG, s)
    assert outcome.result is HandshakeResult.ESTABLISHED
    assert outcome.negotiated_version is TlsVersion.TLS12


def test_server_picks_lower_offer():
    s = server({TlsVersion.TLS10, TlsVersion.TLS11, TlsVersion.TLS12})
    outcome = run_handshake(DEFAULT_CFG, s, AttackerStrategy.parse("modver:1.1"))
    assert outcome.result is HandshakeResult.ESTABLISHED
    assert outcome.negotiated_version is TlsVersion.TLS11


def test_server_caps_at_its_maximum():
    outcome = run_handshake(DEFAULT_CFG, server({TlsVersion.TLS10, TlsVersion.TLS11}))
    assert outcome.result is HandshakeResult.ESTABLISHED
    assert outcome.negotiated_version is TlsVersion.TLS11


def test_server_refuses_unsupported_lower_offer():
    s = server({TlsVersion.TLS12})
    outcome = run_handshake(DEFAULT_CFG, s, AttackerStrategy.parse("modver:1.0"))
    assert outcome.result is HandshakeResult.ABORTED_BY_SERVER
    assert outcome.transcript[-1] == "server: refuse (no common version)"
    assert not any("ServerHello" in e for e in outcome.transcript)


def test_server_suite_follows_its_preference():
    s = server({TlsVersion.TLS12}, suites=("AES128-SHA", "ECDHE-RSA-AES128-GCM-SHA256"))
    assert run_handshake(DEFAULT_CFG, s).negotiated_suite == "AES128-SHA"


def test_server_suite_refusal_keeps_version():
    outcome = run_handshake(STRICT_CFG, server({TlsVersion.TLS10}, suites=WEAK))
    assert outcome.result is HandshakeResult.ABORTED_BY_CLIENT
    assert "server: ServerHello version=TLS1.0 suite=(none)" in outcome.transcript


def test_server_compares_suite_names_normalised():
    iana = "TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256"
    cfg = EffectiveTlsConfig((TlsVersion.TLS12,), ("ecdhe-rsa-with-aes-128-gcm-sha256",), False)
    outcome = run_handshake(cfg, server({TlsVersion.TLS12}, suites=(iana,)))
    assert outcome.result is HandshakeResult.ESTABLISHED
    assert outcome.negotiated_suite == iana


def test_iana_and_openssl_spellings_of_one_suite_never_match():
    # Normalisation folds case, a leading TLS_ and underscores only; it maps no
    # IANA name onto its OpenSSL name. A mapping would be a deliberate change.
    iana, openssl = "TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256", "ECDHE-RSA-AES128-GCM-SHA256"
    assert classify_ciphersuite(iana) is classify_ciphersuite(openssl) is SuiteLabel.FS_AE
    cfg = EffectiveTlsConfig((TlsVersion.TLS12,), (openssl,), False)
    outcome = run_handshake(cfg, server({TlsVersion.TLS12}, suites=(iana,)))
    assert outcome.result is HandshakeResult.ABORTED_BY_SERVER
    assert outcome.transcript[-1] == "server: abort (no common ciphersuite)"


def test_server_accepts_a_list_offer():
    iana = "TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256"
    s = server({TlsVersion.TLS12}, suites=WEAK + (iana,))
    for offer, suite in (
        (["ecdhe-rsa-with-aes-128-gcm-sha256"], iana),
        (list(WEAK[1:]), "AES128-SHA"),
        (list(STRONG), None),
    ):
        outcome = run_handshake(EffectiveTlsConfig((TlsVersion.TLS12,), offer, False), s)
        assert outcome == run_handshake(
            EffectiveTlsConfig((TlsVersion.TLS12,), tuple(offer), False), s
        )
        assert outcome.negotiated_suite == suite


# -- run_handshake -----------------------------------------------------------

def test_plain_strict_handshake_with_strong_server():
    outcome = run_handshake(STRICT_CFG, server({TlsVersion.TLS12}, STRONG))
    assert outcome.result is HandshakeResult.ESTABLISHED
    assert outcome.negotiated_version is TlsVersion.TLS12
    assert classify_ciphersuite(outcome.negotiated_suite) is SuiteLabel.FS_AE


def test_strict_aborts_on_legacy_server():
    outcome = run_handshake(STRICT_CFG, server({TlsVersion.TLS10}, WEAK))
    assert outcome.result is HandshakeResult.ABORTED_BY_CLIENT
    assert any("outside enforced policy" in e for e in outcome.transcript)


def test_default_establishes_with_legacy_server():
    outcome = run_handshake(DEFAULT_CFG, server({TlsVersion.TLS11}, WEAK))
    assert outcome.result is HandshakeResult.ESTABLISHED
    assert outcome.negotiated_version is TlsVersion.TLS11


def test_default_aborts_below_floor():
    outcome = run_handshake(DEFAULT_CFG, server({TlsVersion.SSL30}))
    assert outcome.result is HandshakeResult.ABORTED_BY_CLIENT


def test_server_refusal_is_server_abort():
    outcome = run_handshake(
        DEFAULT_CFG, server({TlsVersion.TLS12}, suites=("SEED-SHA",))
    )
    assert outcome.result is HandshakeResult.ABORTED_BY_SERVER


def test_drop_walks_default_client_down():
    outcome = run_handshake(
        DEFAULT_CFG, server(ALL_VERSIONS), AttackerStrategy.parse("drop:2")
    )
    assert outcome.result is HandshakeResult.ESTABLISHED
    assert outcome.negotiated_version is TlsVersion.TLS10
    assert sum("fallback" in e for e in outcome.transcript) == 2


def test_drop_exhausts_default_client():
    outcome = run_handshake(
        DEFAULT_CFG, server(ALL_VERSIONS), AttackerStrategy.parse("drop:3")
    )
    assert outcome.result is HandshakeResult.EXHAUSTED
    assert sum("dropped" in e for e in outcome.transcript) == 3


def test_single_drop_against_strict_recovers_by_retry():
    outcome = run_handshake(
        STRICT_CFG, server(ALL_VERSIONS), AttackerStrategy.parse("drop:1")
    )
    assert outcome.result is HandshakeResult.ESTABLISHED
    assert outcome.negotiated_version is TlsVersion.TLS12
    assert any("retry same version" in e for e in outcome.transcript)


def test_double_drop_aborts_strict_client():
    outcome = run_handshake(
        STRICT_CFG, server(ALL_VERSIONS), AttackerStrategy.parse("drop:2")
    )
    assert outcome.result is HandshakeResult.ABORTED_BY_CLIENT
    # the strict client never lowered its offer
    offers = [e for e in outcome.transcript if e.startswith("client: ClientHello")]
    assert all("version=TLS1.2" in e for e in offers)


def test_fragment_downgrades_default_client():
    buggy = server(ALL_VERSIONS, fragbug=True)
    outcome = run_handshake(DEFAULT_CFG, buggy, AttackerStrategy.parse("fragment"))
    assert outcome.result is HandshakeResult.ESTABLISHED
    assert outcome.negotiated_version is TlsVersion.TLS10


def test_fragment_detected_by_strict_client():
    buggy = server(ALL_VERSIONS, fragbug=True)
    outcome = run_handshake(STRICT_CFG, buggy, AttackerStrategy.parse("fragment"))
    assert outcome.result is HandshakeResult.ABORTED_BY_CLIENT


def test_fragment_harmless_without_bug():
    outcome = run_handshake(
        STRICT_CFG, server({TlsVersion.TLS12}), AttackerStrategy.parse("fragment")
    )
    assert outcome.result is HandshakeResult.ESTABLISHED
    assert outcome.negotiated_version is TlsVersion.TLS12
    assert any("fragmented" in e for e in outcome.transcript)


def test_modified_hello_version_detected_by_strict():
    outcome = run_handshake(
        STRICT_CFG, server(ALL_VERSIONS), AttackerStrategy.parse("modver:1.1")
    )
    assert outcome.result is HandshakeResult.ABORTED_BY_CLIENT
    assert any("modified ClientHello" in e for e in outcome.transcript)


def test_modified_hello_version_downgrades_default():
    outcome = run_handshake(
        DEFAULT_CFG, server(ALL_VERSIONS), AttackerStrategy.parse("modver:1.0")
    )
    assert outcome.result is HandshakeResult.ESTABLISHED
    assert outcome.negotiated_version is TlsVersion.TLS10


def test_transcript_is_deterministic():
    for attack in ("none", "drop:2", "fragment", "modver:1.0"):
        strategy = AttackerStrategy.parse(attack)
        first = run_handshake(DEFAULT_CFG, server(ALL_VERSIONS, fragbug=True), strategy)
        second = run_handshake(DEFAULT_CFG, server(ALL_VERSIONS, fragbug=True), strategy)
        assert first == second


def test_attacker_actions_always_in_transcript():
    cases = [
        (AttackerStrategy.parse("drop:1"), "dropped"),
        (AttackerStrategy.parse("fragment"), "fragmented"),
        (AttackerStrategy.parse("modver:1.0"), "modified"),
    ]
    for strategy, token in cases:
        outcome = run_handshake(DEFAULT_CFG, server(ALL_VERSIONS), strategy)
        assert any(token in e for e in outcome.transcript)


# -- golden transcripts ------------------------------------------------------
# Whole transcripts for the lost-hello walk (fallback, Exhausted, strict retry
# and abort), the fragmentation bug and a modified hello, so a rewrite of the
# simulator has to keep every line, not only the result.

GOLDEN_SERVERS = {
    "wide": server(ALL_VERSIONS),
    "wide-buggy": server(ALL_VERSIONS, fragbug=True),
    "buggy-no-common-suite": server(ALL_VERSIONS, suites=("SEED-SHA",), fragbug=True),
    "buggy-tls12-only": server({TlsVersion.TLS12}, fragbug=True),
    "tls12-only": server({TlsVersion.TLS12}),
    "legacy10-weak": server({TlsVersion.TLS10}, WEAK),
    "no-common-suite": server(ALL_VERSIONS, suites=("SEED-SHA",)),
}
GOLDEN_CONFIGS = {"strict": STRICT_CFG, "default": DEFAULT_CFG}
GCM = "ECDHE-RSA-AES128-GCM-SHA256"

GOLDEN = [
    ("default", "wide", "drop:1", HandshakeResult.ESTABLISHED, TlsVersion.TLS11, GCM, (
        "client: ClientHello version=TLS1.2 suites=14",
        "attacker: dropped ClientHello (1 of 1)",
        "client: fallback TLS1.2 -> TLS1.1",
        "client: ClientHello version=TLS1.1 suites=14",
        "server: ServerHello version=TLS1.1 suite=ECDHE-RSA-AES128-GCM-SHA256",
        "established: version=TLS1.1 suite=ECDHE-RSA-AES128-GCM-SHA256",
    )),
    ("default", "wide", "drop:2", HandshakeResult.ESTABLISHED, TlsVersion.TLS10, GCM, (
        "client: ClientHello version=TLS1.2 suites=14",
        "attacker: dropped ClientHello (1 of 2)",
        "client: fallback TLS1.2 -> TLS1.1",
        "client: ClientHello version=TLS1.1 suites=14",
        "attacker: dropped ClientHello (2 of 2)",
        "client: fallback TLS1.1 -> TLS1.0",
        "client: ClientHello version=TLS1.0 suites=14",
        "server: ServerHello version=TLS1.0 suite=ECDHE-RSA-AES128-GCM-SHA256",
        "established: version=TLS1.0 suite=ECDHE-RSA-AES128-GCM-SHA256",
    )),
    ("default", "wide", "drop:3", HandshakeResult.EXHAUSTED, None, None, (
        "client: ClientHello version=TLS1.2 suites=14",
        "attacker: dropped ClientHello (1 of 3)",
        "client: fallback TLS1.2 -> TLS1.1",
        "client: ClientHello version=TLS1.1 suites=14",
        "attacker: dropped ClientHello (2 of 3)",
        "client: fallback TLS1.1 -> TLS1.0",
        "client: ClientHello version=TLS1.0 suites=14",
        "attacker: dropped ClientHello (3 of 3)",
        "client: no lower version left, giving up",
    )),
    ("default", "wide", "drop:4", HandshakeResult.EXHAUSTED, None, None, (
        "client: ClientHello version=TLS1.2 suites=14",
        "attacker: dropped ClientHello (1 of 4)",
        "client: fallback TLS1.2 -> TLS1.1",
        "client: ClientHello version=TLS1.1 suites=14",
        "attacker: dropped ClientHello (2 of 4)",
        "client: fallback TLS1.1 -> TLS1.0",
        "client: ClientHello version=TLS1.0 suites=14",
        "attacker: dropped ClientHello (3 of 4)",
        "client: no lower version left, giving up",
    )),
    ("strict", "wide", "drop:1", HandshakeResult.ESTABLISHED, TlsVersion.TLS12, GCM, (
        "client: ClientHello version=TLS1.2 suites=6",
        "attacker: dropped ClientHello (1 of 1)",
        "client: retry same version TLS1.2 (1 of 1)",
        "client: ClientHello version=TLS1.2 suites=6",
        "server: ServerHello version=TLS1.2 suite=ECDHE-RSA-AES128-GCM-SHA256",
        "established: version=TLS1.2 suite=ECDHE-RSA-AES128-GCM-SHA256",
    )),
    ("strict", "wide", "drop:2", HandshakeResult.ABORTED_BY_CLIENT, None, None, (
        "client: ClientHello version=TLS1.2 suites=6",
        "attacker: dropped ClientHello (1 of 2)",
        "client: retry same version TLS1.2 (1 of 1)",
        "client: ClientHello version=TLS1.2 suites=6",
        "attacker: dropped ClientHello (2 of 2)",
        "client: abort (hello lost and fallback disabled)",
    )),
    ("strict", "wide", "drop:3", HandshakeResult.ABORTED_BY_CLIENT, None, None, (
        "client: ClientHello version=TLS1.2 suites=6",
        "attacker: dropped ClientHello (1 of 3)",
        "client: retry same version TLS1.2 (1 of 1)",
        "client: ClientHello version=TLS1.2 suites=6",
        "attacker: dropped ClientHello (2 of 3)",
        "client: abort (hello lost and fallback disabled)",
    )),
    ("strict", "wide-buggy", "fragment", HandshakeResult.ABORTED_BY_CLIENT, None, None, (
        "client: ClientHello version=TLS1.2 suites=6",
        "attacker: fragmented ClientHello",
        "server: fragmentation bug, negotiating TLS1.0 regardless of offer",
        "server: ServerHello version=TLS1.0 suite=ECDHE-RSA-AES128-GCM-SHA256",
        "client: abort (ServerHello version TLS1.0 outside enforced policy)",
    )),
    ("strict", "wide", "fragment", HandshakeResult.ESTABLISHED, TlsVersion.TLS12, GCM, (
        "client: ClientHello version=TLS1.2 suites=6",
        "attacker: fragmented ClientHello",
        "server: reassembled fragmented hello, no effect",
        "server: ServerHello version=TLS1.2 suite=ECDHE-RSA-AES128-GCM-SHA256",
        "established: version=TLS1.2 suite=ECDHE-RSA-AES128-GCM-SHA256",
    )),
    ("strict", "buggy-no-common-suite", "fragment", HandshakeResult.ABORTED_BY_CLIENT,
     None, None, (
        "client: ClientHello version=TLS1.2 suites=6",
        "attacker: fragmented ClientHello",
        "server: fragmentation bug, negotiating TLS1.0 regardless of offer",
        "server: ServerHello version=TLS1.0 suite=(none)",
        "client: abort (ServerHello version TLS1.0 outside enforced policy)",
    )),
    ("default", "wide-buggy", "fragment", HandshakeResult.ESTABLISHED, TlsVersion.TLS10, GCM, (
        "client: ClientHello version=TLS1.2 suites=14",
        "attacker: fragmented ClientHello",
        "server: fragmentation bug, negotiating TLS1.0 regardless of offer",
        "server: ServerHello version=TLS1.0 suite=ECDHE-RSA-AES128-GCM-SHA256",
        "established: version=TLS1.0 suite=ECDHE-RSA-AES128-GCM-SHA256",
    )),
    ("default", "wide", "fragment", HandshakeResult.ESTABLISHED, TlsVersion.TLS12, GCM, (
        "client: ClientHello version=TLS1.2 suites=14",
        "attacker: fragmented ClientHello",
        "server: reassembled fragmented hello, no effect",
        "server: ServerHello version=TLS1.2 suite=ECDHE-RSA-AES128-GCM-SHA256",
        "established: version=TLS1.2 suite=ECDHE-RSA-AES128-GCM-SHA256",
    )),
    ("default", "buggy-no-common-suite", "fragment", HandshakeResult.ABORTED_BY_SERVER,
     None, None, (
        "client: ClientHello version=TLS1.2 suites=14",
        "attacker: fragmented ClientHello",
        "server: fragmentation bug, negotiating TLS1.0 regardless of offer",
        "server: ServerHello version=TLS1.0 suite=(none)",
        "server: abort (no common ciphersuite)",
    )),
    # the bug negotiates TLS 1.0 even where the server has no TLS 1.0 support
    ("default", "buggy-tls12-only", "fragment", HandshakeResult.ESTABLISHED, TlsVersion.TLS10,
     GCM, (
        "client: ClientHello version=TLS1.2 suites=14",
        "attacker: fragmented ClientHello",
        "server: fragmentation bug, negotiating TLS1.0 regardless of offer",
        "server: ServerHello version=TLS1.0 suite=ECDHE-RSA-AES128-GCM-SHA256",
        "established: version=TLS1.0 suite=ECDHE-RSA-AES128-GCM-SHA256",
    )),
    ("default", "wide", "modver:1.0", HandshakeResult.ESTABLISHED, TlsVersion.TLS10, GCM, (
        "client: ClientHello version=TLS1.2 suites=14",
        "attacker: modified ClientHello version TLS1.2 -> TLS1.0",
        "server: ServerHello version=TLS1.0 suite=ECDHE-RSA-AES128-GCM-SHA256",
        "established: version=TLS1.0 suite=ECDHE-RSA-AES128-GCM-SHA256",
    )),
    ("strict", "wide", "modver:1.0", HandshakeResult.ABORTED_BY_CLIENT, None, None, (
        "client: ClientHello version=TLS1.2 suites=6",
        "attacker: modified ClientHello version TLS1.2 -> TLS1.0",
        "server: ServerHello version=TLS1.0 suite=ECDHE-RSA-AES128-GCM-SHA256",
        "client: abort (ServerHello version TLS1.0 outside enforced policy)",
    )),
    # the three refusals: no common version, no common suite seen by the
    # client first, no common suite seen by the server
    ("default", "tls12-only", "modver:1.0", HandshakeResult.ABORTED_BY_SERVER, None, None, (
        "client: ClientHello version=TLS1.2 suites=14",
        "attacker: modified ClientHello version TLS1.2 -> TLS1.0",
        "server: refuse (no common version)",
    )),
    ("strict", "legacy10-weak", "none", HandshakeResult.ABORTED_BY_CLIENT, None, None, (
        "client: ClientHello version=TLS1.2 suites=6",
        "server: ServerHello version=TLS1.0 suite=(none)",
        "client: abort (ServerHello version TLS1.0 outside enforced policy)",
    )),
    ("default", "no-common-suite", "none", HandshakeResult.ABORTED_BY_SERVER, None, None, (
        "client: ClientHello version=TLS1.2 suites=14",
        "server: ServerHello version=TLS1.2 suite=(none)",
        "server: abort (no common ciphersuite)",
    )),
]


@pytest.mark.parametrize(
    "config, profile, attack, result, version, suite, transcript",
    GOLDEN,
    ids=[f"{c}-{a}-{p}" for c, p, a, *_ in GOLDEN],
)
def test_golden_transcript(config, profile, attack, result, version, suite, transcript):
    outcome = run_handshake(
        GOLDEN_CONFIGS[config], GOLDEN_SERVERS[profile], AttackerStrategy.parse(attack)
    )
    assert outcome == HandshakeOutcome(result, version, suite, transcript)


STRATEGY_CATALOGUE = [
    NO_ATTACK,
    AttackerStrategy.parse("drop:1"),
    AttackerStrategy.parse("drop:2"),
    AttackerStrategy.parse("drop:3"),
    AttackerStrategy.parse("fragment"),
    AttackerStrategy.parse("modver:1.0"),
    AttackerStrategy.parse("modver:1.1"),
    AttackerStrategy.parse("modver:1.2"),
]

PROFILE_CATALOGUE = [
    server({TlsVersion.TLS12}, STRONG, name="strong12"),
    server({TlsVersion.TLS10}, WEAK, name="legacy10"),
    server({TlsVersion.TLS11}, WEAK, name="legacy11"),
    server(ALL_VERSIONS, STRONG + WEAK, name="wide"),
    server(ALL_VERSIONS, STRONG + WEAK, fragbug=True, name="wide-buggy"),
    server({TlsVersion.TLS10, TlsVersion.TLS12}, STRONG, name="gap"),
]


def test_a_cold_and_a_warm_outcome_intern_give_equal_outcomes():
    cases = list(itertools.product(
        (STRICT_CFG, DEFAULT_CFG), PROFILE_CATALOGUE, STRATEGY_CATALOGUE
    ))
    cold = []
    for case in cases:
        handshake._outcome.cache_clear()
        cold.append(run_handshake(*case))
    warm = [run_handshake(*case) for case in cases]
    assert warm == cold
    again = [run_handshake(*case) for case in cases]
    assert all(outcome is kept for outcome, kept in zip(again, warm))

def test_strict_never_downgrades_across_catalogue():
    for profile, strategy in itertools.product(PROFILE_CATALOGUE, STRATEGY_CATALOGUE):
        outcome = run_handshake(STRICT_CFG, profile, strategy)
        if outcome.result is HandshakeResult.ESTABLISHED:
            assert outcome.negotiated_version is TlsVersion.TLS12, (profile, strategy)
            assert (
                classify_ciphersuite(outcome.negotiated_suite) is SuiteLabel.FS_AE
            ), (profile, strategy)


def test_default_reachability_without_attacker():
    client_versions = set(DEFAULT_CFG.versions)
    client_suites = {s for s in DEFAULT_CFG.ciphersuites}
    for profile in PROFILE_CATALOGUE:
        outcome = run_handshake(DEFAULT_CFG, profile, NO_ATTACK)
        # single-offer semantics: the server picks min(TLS1.2, its max)
        selected = min(TlsVersion.TLS12, max(profile.supported_versions))
        reachable = (
            selected in profile.supported_versions
            and selected in client_versions
            and bool(client_suites & set(profile.suite_preference))
        )
        assert (outcome.result is HandshakeResult.ESTABLISHED) == reachable, profile


@given(
    versions=st.sets(st.sampled_from(sorted(ALL_VERSIONS)), min_size=1),
    suites=st.lists(st.sampled_from(STRONG + WEAK + ("SEED-SHA",)),
                    min_size=1, max_size=5, unique=True),
)
def test_default_reachability_property(versions, suites):
    profile = ServerProfile("any.test", frozenset(versions), tuple(suites))
    outcome = run_handshake(DEFAULT_CFG, profile, NO_ATTACK)
    selected = min(TlsVersion.TLS12, max(versions))
    reachable = (
        selected in versions
        and selected in set(DEFAULT_CFG.versions)
        and bool(set(DEFAULT_CFG.ciphersuites) & set(suites))
    )
    assert (outcome.result is HandshakeResult.ESTABLISHED) == reachable


# -- input validation --------------------------------------------------------

def test_strategy_validation():
    with pytest.raises(ValueError):
        AttackerStrategy(AttackKind.DROP_CLIENT_HELLO, drop_count=0)
    with pytest.raises(ValueError):
        AttackerStrategy(AttackKind.MODIFY_CLIENT_HELLO_VERSION)
    with pytest.raises(ValueError):
        AttackerStrategy.parse("teleport")
    assert AttackerStrategy.parse("drop:4").drop_count == 4
    assert AttackerStrategy.parse("modver:1.0").target_version is TlsVersion.TLS10
    assert AttackerStrategy.parse("none") is NO_ATTACK


@pytest.mark.parametrize("token", ["none:5", "none:", "fragment:x", "fragment:"])
def test_strategy_parse_refuses_an_argument_it_would_drop(token):
    with pytest.raises(ValueError):
        AttackerStrategy.parse(token)


@pytest.mark.parametrize("token", ["drop:x", "drop:", "drop:+2", "drop:\u0662", "drop:1_0",
                                   "drop:1.5", "drop:-1", "drop: 2", "drop:0"])
def test_strategy_parse_takes_only_ascii_digits_as_the_drop_count(token):
    with pytest.raises(ValueError, match=f"^unknown attack {re.escape(repr(token))}$"):
        AttackerStrategy.parse(token)


@pytest.mark.parametrize("token", ["modver:9", "modver:", "modver:tls1.3"])
def test_strategy_parse_names_a_bad_modver_version(token):
    with pytest.raises(ValueError, match=f"^unknown attack {re.escape(repr(token))}$"):
        AttackerStrategy.parse(token)


def test_direct_drop_strategy_keeps_its_own_count_error():
    with pytest.raises(ValueError, match="^drop strategy needs a repeat count of at least 1$"):
        AttackerStrategy(AttackKind.DROP_CLIENT_HELLO, drop_count=0)


def test_profile_validation():
    with pytest.raises(ValueError):
        ServerProfile("x", frozenset(), ("AES128-SHA",))
    with pytest.raises(ValueError):
        ServerProfile("x", frozenset({TlsVersion.TLS12}), ())


def test_outcome_invariant():
    with pytest.raises(ValueError):
        HandshakeOutcome(HandshakeResult.ESTABLISHED, None, None, ())
    with pytest.raises(ValueError):
        HandshakeOutcome(
            HandshakeResult.ABORTED_BY_CLIENT, TlsVersion.TLS12, "AES128-SHA", ()
        )
