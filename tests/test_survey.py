import hashlib
from dataclasses import replace
from decimal import Decimal, ROUND_HALF_UP

import pytest

from dstc.enforcement import (
    DEFAULT_CLIENT,
    Mode,
    PolicyDecision,
    Reason,
    SuiteLabel,
    TlsVersion,
    apply,
    classify_ciphersuite,
)
from dstc.handshake import AttackerStrategy, HandshakeResult, ServerProfile, run_handshake
from dstc.survey import (
    CorpusFormatError,
    EmptyCorpus,
    generate_corpus,
    parse_corpus,
    pct,
    render_corpus,
    survey,
)

V12 = frozenset({TlsVersion.TLS12})
V12_11 = frozenset({TlsVersion.TLS12, TlsVersion.TLS11})
V_ALL = frozenset({TlsVersion.TLS12, TlsVersion.TLS11, TlsVersion.TLS10})
STRONG = ("ECDHE-RSA-AES128-GCM-SHA256",)
MIXED = ("ECDHE-RSA-AES128-GCM-SHA256", "AES128-SHA")
WEAK = ("AES128-SHA", "RC4-SHA")


def profile(i, versions, suites):
    return ServerProfile(f"s{i}.test", versions, suites)


def test_pct_half_up_rounding():
    assert pct(6888, 7080) == "97.29"
    assert pct(373, 7080) == "5.27"
    assert pct(6202, 7080) == "87.60"
    assert pct(1, 3) == "33.33"
    assert pct(2, 3) == "66.67"
    assert pct(1, 800) == "0.13"    # 0.125 rounds half-up
    assert pct(0, 0) == "0.00"


def test_small_corpus_arithmetic():
    profiles = [profile(i, V12, MIXED) for i in range(9)]
    profiles.append(profile(9, frozenset({TlsVersion.TLS10}), WEAK))
    report = survey(profiles)
    assert report.responding == 10
    assert report.latest_count == 9
    assert report.latest_pct == "90.00"


def test_single_all_strong_profile():
    report = survey([profile(0, V12, STRONG)])
    assert report.fsae_any_count == 1
    assert report.fsae_mixed_count == 0


def test_exclusive_and_cumulative_version_counts():
    profiles = [
        profile(0, V12, MIXED),          # exclusive
        profile(1, V12_11, MIXED),       # two versions
        profile(2, V_ALL, MIXED),        # three versions
        profile(3, frozenset({TlsVersion.TLS12, TlsVersion.TLS10}), MIXED),
    ]
    report = survey(profiles)
    assert report.latest_count == 4
    assert report.latest_exclusive_count == 1
    assert report.latest_two_count == 2   # profiles 1 and 2
    assert report.latest_three_count == 1


def test_label_counts_total():
    profiles = [profile(0, V12, MIXED), profile(1, V12, WEAK)]
    report = survey(profiles)
    observed = sum(len(p.suite_preference) for p in profiles)
    assert sum(report.label_counts.values()) == observed


def test_suite_stats_exclude_non_latest_servers():
    profiles = [
        profile(0, V12, MIXED),
        profile(1, frozenset({TlsVersion.TLS10}), WEAK),  # not examined
    ]
    report = survey(profiles)
    assert sum(report.label_counts.values()) == len(MIXED)
    assert report.fsae_any_count == 1


def test_modal_count_tie_breaks_low():
    profiles = [
        profile(0, V12, MIXED),    # 2 suites
        profile(1, V12, WEAK),     # 2 suites
        profile(2, V12, STRONG + WEAK),  # 3 suites
        profile(3, V12, STRONG),   # 1 suite
        profile(4, V12, STRONG),   # 1 suite -> tie between 1 and 2
    ]
    report = survey(profiles)
    assert report.modal_suite_count == 1
    assert report.modal_servers == 2


def test_survey_rejects_empty():
    with pytest.raises(EmptyCorpus):
        survey([])


def test_corpus_round_trip():
    profiles = [profile(0, V_ALL, MIXED), profile(1, V12, STRONG)]
    text = render_corpus(profiles)
    assert parse_corpus(text) == profiles


def test_corpus_parsing_tolerates_comments():
    text = "# comment\n\n a.test | TLS1.2,TLS1.1 | AES128-SHA , RC4-SHA \n"
    (p,) = parse_corpus(text)
    assert p.domain == "a.test"
    assert p.supported_versions == V12_11
    assert p.suite_preference == ("AES128-SHA", "RC4-SHA")


@pytest.mark.parametrize("line", [
    "a.test | TLS1.2",                 # missing suites column
    "a.test | TLS9.9 | AES128-SHA",    # unknown version
    "a.test | TLS1.2 |",               # no suites
    "a.test | | AES128-SHA",           # no versions
])
def test_corpus_rejects_bad_lines(line):
    with pytest.raises(CorpusFormatError):
        parse_corpus(line + "\n")


# -- generated corpus ---------------------------------------------------------

def test_generated_corpus_recovers_ground_truth():
    profiles = generate_corpus()
    assert len(profiles) == 7080
    report = survey(profiles)

    assert report.latest_count == 6888
    assert report.latest_exclusive_count == 373
    assert report.latest_two_count == 6462
    assert report.latest_three_count == 6202
    assert report.fsae_any_count == 6500
    assert report.fsae_mixed_count == 6483
    assert report.modal_suite_count == 20
    assert report.modal_servers == 938

    assert report.latest_pct == "97.29"
    assert report.latest_exclusive_pct == "5.27"
    assert report.latest_two_pct == "91.27"
    assert report.latest_three_pct == "87.60"
    assert report.fsae_any_pct == "94.37"
    assert report.fsae_mixed_pct == "94.12"
    assert report.modal_pct == "13.62"


def test_generated_percentages_match_decimal_oracle():
    report = survey(generate_corpus())

    def oracle(n, d):
        return str(
            (Decimal(n) * 100 / Decimal(d)).quantize(
                Decimal("0.01"), rounding=ROUND_HALF_UP
            )
        )

    assert report.latest_pct == oracle(6888, 7080)
    assert report.fsae_any_pct == oracle(6500, 6888)
    assert report.fsae_mixed_pct == oracle(6483, 6888)


# SHA-256 of the rendered generated corpus, as every earlier generator built it.
CORPUS_SHA256 = "fd1089b78c1058dc20ca1c2075ed6e25385686ef2c8b17c6e2a9b2b469f56786"


def test_generated_corpus_is_deterministic():
    corpus = generate_corpus()
    assert render_corpus(corpus) == render_corpus(generate_corpus())
    assert hashlib.sha256(render_corpus(corpus).encode()).hexdigest() == CORPUS_SHA256
    # Each of the ten distinct suite lists is one tuple, shared by its servers.
    assert len({id(p.suite_preference) for p in corpus}) <= 10


def test_generated_corpus_survives_file_round_trip(tmp_path):
    profiles = generate_corpus()
    path = tmp_path / "corpus.txt"
    path.write_text(render_corpus(profiles))
    assert parse_corpus(path.read_text()) == profiles


def test_generator_pools_are_correctly_labelled():
    from dstc.survey import STRONG_POOL, WEAK_POOL

    assert all(classify_ciphersuite(s) is SuiteLabel.FS_AE for s in STRONG_POOL)
    assert all(classify_ciphersuite(s) is not SuiteLabel.FS_AE for s in WEAK_POOL)


HELLO_ATTACKS = [AttackerStrategy.parse(token)
                 for token in ("drop:1", "drop:2", "fragment", "modver:TLS1.0")]


def test_the_strict_client_establishes_with_exactly_the_servers_the_survey_counts():
    """The paper's benefit claim end to end: the servers the survey counts
    as TLS 1.2 with an FS+AE suite are the ones a strict client reaches, and
    no hello attack gets it below TLS 1.2 or onto a suite that is not FS+AE."""
    corpus = generate_corpus()
    strict = apply(PolicyDecision(Mode.STRICT, Reason.OK), DEFAULT_CLIENT)
    counted = [survey([p]).fsae_any_count == 1 for p in corpus]
    established = [run_handshake(strict, p).result is HandshakeResult.ESTABLISHED
                   for p in corpus]
    assert established == counted
    assert sum(established) == survey(corpus).fsae_any_count == 6500
    # One lost hello is within the strict retry budget: the same servers.
    assert [run_handshake(strict, p, HELLO_ATTACKS[0]).result is HandshakeResult.ESTABLISHED
            for p in corpus] == established

    # The fragmentation attack needs the server's bug; every attack runs on both.
    buggy = [replace(p, fragmentation_bug=True) for p in corpus]
    for attack in HELLO_ATTACKS:
        for servers in (corpus, buggy):
            for p in servers:
                outcome = run_handshake(strict, p, attack)
                if outcome.result is HandshakeResult.ESTABLISHED:
                    assert outcome.negotiated_version is TlsVersion.TLS12, (p, attack)
                    assert classify_ciphersuite(outcome.negotiated_suite) is SuiteLabel.FS_AE
