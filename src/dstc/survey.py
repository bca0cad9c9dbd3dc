"""Version and ciphersuite statistics over a corpus of server profiles.

The corpus is a text file, one profile per line:

    <domain> | <comma-separated versions> | <comma-separated ciphersuites>

Blank lines and ``#`` comments are ignored. Version-support figures use the
full responding population as denominator; ciphersuite figures only make
sense for servers speaking the latest version, so they use that
subpopulation, and the report states both denominators. Percentages are
rounded half-up to two decimals.

``generate_corpus`` builds the paper's corpus: a synthetic stand-in for its
scan of the top 10,000 sites that hits each figure the paper reports
exactly, so the survey arithmetic can be validated against known ground
truth.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, fields
from decimal import Decimal, ROUND_HALF_UP

from .enforcement import SuiteLabel, TlsVersion, classify_ciphersuite
from .handshake import ServerProfile
from .textfile import list_tokens, parse_lines


class EmptyCorpus(ValueError):
    """The corpus contains no profiles."""


class CorpusFormatError(ValueError):
    """A corpus line could not be parsed."""


def pct(count: int, denominator: int) -> str:
    """Half-up two-decimal percentage, as a string like '97.29'."""
    if denominator == 0:
        return "0.00"
    value = (Decimal(count) * 100 / Decimal(denominator)).quantize(
        Decimal("0.01"), rounding=ROUND_HALF_UP
    )
    return f"{value:.2f}"


def parse_corpus(text: str) -> list[ServerProfile]:
    profiles = []

    def parse_line(line: str) -> None:
        parts = [p.strip() for p in line.split("|")]
        if len(parts) != 3:
            raise CorpusFormatError("expected '<domain> | <versions> | <suites>'")
        domain, versions_part, suites_part = parts
        versions = frozenset(map(TlsVersion.parse, list_tokens(versions_part)))
        profiles.append(ServerProfile(domain, versions, list_tokens(suites_part)))

    parse_lines(text, parse_line, CorpusFormatError)
    return profiles


def render_corpus(profiles: list[ServerProfile]) -> str:
    lines = []
    for p in profiles:
        versions = ",".join(str(v) for v in sorted(p.supported_versions, reverse=True))
        lines.append(f"{p.domain} | {versions} | {','.join(p.suite_preference)}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class SurveyReport:
    responding: int
    latest_count: int
    latest_pct: str
    latest_exclusive_count: int
    latest_exclusive_pct: str
    latest_two_count: int          # supports latest and the one below
    latest_two_pct: str
    latest_three_count: int        # supports the top three versions
    latest_three_pct: str
    modal_suite_count: int | None  # most frequent number of suites per server
    modal_servers: int
    modal_pct: str
    label_counts: dict             # SuiteLabel -> suite occurrences
    fsae_any_count: int            # servers with at least one FS+AE suite
    fsae_any_pct: str
    fsae_mixed_count: int          # FS+AE plus at least one weaker label
    fsae_mixed_pct: str


def survey(profiles: list[ServerProfile]) -> SurveyReport:
    """Compute the survey statistics over parsed profiles."""
    if not profiles:
        raise EmptyCorpus("no profiles to survey")
    responding = len(profiles)
    latest = TlsVersion.TLS12
    prev = TlsVersion.TLS11
    floor = TlsVersion.TLS10

    latest_servers = [p for p in profiles if latest in p.supported_versions]
    exclusive = sum(
        1 for p in latest_servers if p.supported_versions == frozenset({latest})
    )
    two = sum(1 for p in latest_servers if prev in p.supported_versions)
    three = sum(
        1
        for p in latest_servers
        if prev in p.supported_versions and floor in p.supported_versions
    )

    count_freq = Counter(len(p.suite_preference) for p in latest_servers)
    if count_freq:
        top = max(count_freq.values())
        modal_count = min(c for c, n in count_freq.items() if n == top)
        modal_servers = count_freq[modal_count]
    else:
        modal_count, modal_servers = None, 0

    label_counts: Counter = Counter()
    fsae_any = 0
    fsae_mixed = 0
    for p in latest_servers:
        labels = [classify_ciphersuite(s) for s in p.suite_preference]
        label_counts.update(labels)
        if SuiteLabel.FS_AE in labels:
            fsae_any += 1
            if any(l is not SuiteLabel.FS_AE for l in labels):
                fsae_mixed += 1

    n_latest = len(latest_servers)
    return SurveyReport(
        responding=responding,
        latest_count=n_latest,
        latest_pct=pct(n_latest, responding),
        latest_exclusive_count=exclusive,
        latest_exclusive_pct=pct(exclusive, responding),
        latest_two_count=two,
        latest_two_pct=pct(two, responding),
        latest_three_count=three,
        latest_three_pct=pct(three, responding),
        modal_suite_count=modal_count,
        modal_servers=modal_servers,
        modal_pct=pct(modal_servers, n_latest),
        label_counts=dict(label_counts),
        fsae_any_count=fsae_any,
        fsae_any_pct=pct(fsae_any, n_latest),
        fsae_mixed_count=fsae_mixed,
        fsae_mixed_pct=pct(fsae_mixed, n_latest),
    )


def render_report_text(r: SurveyReport) -> str:
    """Aligned human-readable report."""
    label_lines = [
        f"    {label.value:<12} {r.label_counts.get(label, 0)}"
        for label in SuiteLabel
    ]
    modal = "-" if r.modal_suite_count is None else str(r.modal_suite_count)
    return "\n".join(
        [
            f"responding profiles            {r.responding}",
            f"supports TLS1.2                {r.latest_count} ({r.latest_pct}% of {r.responding})",
            f"supports TLS1.2 exclusively    {r.latest_exclusive_count} ({r.latest_exclusive_pct}% of {r.responding})",
            f"supports TLS1.2 and TLS1.1     {r.latest_two_count} ({r.latest_two_pct}% of {r.responding})",
            f"supports TLS1.2, 1.1 and 1.0   {r.latest_three_count} ({r.latest_three_pct}% of {r.responding})",
            f"modal suite count              {modal} in {r.modal_servers} servers ({r.modal_pct}% of {r.latest_count})",
            "suite labels across TLS1.2 servers:",
            *label_lines,
            f"servers with any FS+AE suite   {r.fsae_any_count} ({r.fsae_any_pct}% of {r.latest_count})",
            f"FS+AE plus weaker suites       {r.fsae_mixed_count} ({r.fsae_mixed_pct}% of {r.latest_count})",
        ]
    )


def render_report_kv(r: SurveyReport) -> str:
    """Machine-readable key=value lines, one per field in declaration order;
    ``label_counts`` gives one ``label_<value>`` line per suite label."""
    lines = []
    for f in fields(SurveyReport):
        value = getattr(r, f.name)
        if f.name == "label_counts":
            lines += [f"label_{label.value}={value.get(label, 0)}" for label in SuiteLabel]
        else:
            lines.append(f"{f.name}={value}{'%' if f.name.endswith('_pct') else ''}")
    return "\n".join(lines)


# Suite pools for the synthetic generator, by label.
STRONG_POOL = (
    "ECDHE-ECDSA-AES128-GCM-SHA256",
    "ECDHE-RSA-AES128-GCM-SHA256",
    "ECDHE-ECDSA-AES256-GCM-SHA384",
    "ECDHE-RSA-AES256-GCM-SHA384",
    "ECDHE-RSA-CHACHA20-POLY1305",
    "ECDHE-ECDSA-CHACHA20-POLY1305",
    "DHE-RSA-AES128-GCM-SHA256",
    "DHE-RSA-AES256-GCM-SHA384",
)
WEAK_POOL = (
    "ECDHE-RSA-AES128-SHA",
    "ECDHE-RSA-AES256-SHA",
    "ECDHE-ECDSA-AES128-SHA",
    "ECDHE-ECDSA-AES256-SHA",
    "DHE-RSA-AES128-SHA",
    "DHE-RSA-AES256-SHA",
    "AES128-GCM-SHA256",
    "AES256-GCM-SHA384",
    "AES128-CCM",
    "AES256-CCM8",
    "AES128-SHA",
    "AES256-SHA",
    "AES128-SHA256",
    "AES256-SHA256",
    "CAMELLIA128-SHA",
    "DES-CBC3-SHA",
)

# Suite-count cycle for the non-modal mixed servers; every value differs from
# the modal count and appears rarely enough to never contest the mode.
_OTHER_COUNTS = (10, 12, 14, 16, 18, 22, 24)

# The paper's figures for its scan, which generate_corpus hits exactly.
RESPONDING = 7080
LATEST = 6888              # support TLS 1.2
LATEST_EXCLUSIVE = 373     # support TLS 1.2 only
LATEST_TWO = 6462          # support TLS 1.2 and TLS 1.1
LATEST_THREE = 6202        # support TLS 1.2, 1.1 and 1.0
FSAE_ANY = 6500            # TLS 1.2 servers with an FS+AE suite
FSAE_MIXED = 6483          # ... and with a weaker suite beside it
MODAL_COUNT = 20           # the most frequent number of suites per server
MODAL_SERVERS = 938        # the TLS 1.2 servers offering that many
_SEED = 20180506


def generate_corpus() -> list[ServerProfile]:
    """Build the paper's corpus, deterministically, hitting each figure above."""
    only_two = LATEST_TWO - LATEST_THREE
    skipped_prev = LATEST - LATEST_EXCLUSIVE - LATEST_TWO
    strong_only = FSAE_ANY - FSAE_MIXED
    weak_only = LATEST - FSAE_ANY
    non_latest = RESPONDING - LATEST

    version_plan = (
        [frozenset({TlsVersion.TLS12})] * LATEST_EXCLUSIVE
        + [frozenset({TlsVersion.TLS12, TlsVersion.TLS11, TlsVersion.TLS10})]
        * LATEST_THREE
        + [frozenset({TlsVersion.TLS12, TlsVersion.TLS11})] * only_two
        + [frozenset({TlsVersion.TLS12, TlsVersion.TLS10})] * skipped_prev
    )

    # Each distinct suite list is built once and shared by its servers.
    other_suites = [_mixed_suites(count) for count in _OTHER_COUNTS]
    weak_suites = WEAK_POOL[:8]
    suite_plan = (
        [_mixed_suites(MODAL_COUNT)] * MODAL_SERVERS
        + [other_suites[i % len(other_suites)] for i in range(FSAE_MIXED - MODAL_SERVERS)]
        + [STRONG_POOL[:6]] * strong_only
        + [weak_suites] * weak_only
    )

    rng = random.Random(_SEED)
    rng.shuffle(version_plan)
    rng.shuffle(suite_plan)

    profiles = [
        ServerProfile(f"site{i:04d}.example", version_plan[i], suite_plan[i])
        for i in range(LATEST)
    ]
    legacy_versions = (
        frozenset({TlsVersion.TLS11, TlsVersion.TLS10}),
        frozenset({TlsVersion.TLS10}),
        frozenset({TlsVersion.TLS11}),
    )
    for j in range(non_latest):
        profiles.append(
            ServerProfile(
                f"site{LATEST + j:04d}.example",
                legacy_versions[j % len(legacy_versions)],
                weak_suites,
            )
        )
    rng.shuffle(profiles)
    return profiles


def _mixed_suites(count: int) -> tuple[str, ...]:
    strong = max(1, count // 3)
    return STRONG_POOL[:strong] + WEAK_POOL[:count - strong]
