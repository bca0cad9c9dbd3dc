"""Named negotiation scenarios and the built-in attack suites.

A scenario file is line oriented (``#`` comments, blank lines allowed):

    PROFILE <name> VERSIONS <v1,v2,...> SUITES <s1,s2,...> [FRAGBUG]
    SCENARIO <name> CLIENT <strict|default> SERVER <profile> \
        ATTACK <none|drop:N|fragment|modver:V> EXPECT <established|aborted|exhausted>

The built-in suites wire the whole stack together: a zone is signed, the
client decides per domain from the DNS answer, and the resulting hello
configuration is driven against a server, possibly through an attacker.
File and built-in rows share one builder, and one key signs every fixture.

  table2    three-server feasibility matrix (registered strong server,
            registered legacy server, unregistered legacy server)
  poodle    hello-dropping version downgrade against default and strict
  fragment  hello-fragmentation version downgrade against default and strict
  forgery   record add / modify / delete / replay / drop, each followed by
            the client's decision from the forged answer and its cache
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date
from functools import cache, partial

from .dnssec import (
    ZoneKeyPair,
    ZoneStore,
    TrustAnchor,
    TrustAnchorSet,
    resolve,
    sign_rrset,
)
from .enforcement import (
    DEFAULT_CLIENT,
    Mode,
    PolicyDecision,
    Reason,
    TlsVersion,
    apply,
    decide,
)
from .handshake import (
    AttackerStrategy,
    HandshakeOutcome,
    HandshakeResult,
    NO_ATTACK,
    ServerProfile,
    run_handshake,
)
from .policy import PolicyRecord, serialize_policy
from .store import PolicyStore
from .textfile import list_tokens, parse_lines


class ScenarioFileError(ValueError):
    """A scenario file could not be parsed."""


class UnknownScenarioReference(ValueError):
    """A scenario names a profile or suite that does not exist."""


@dataclass(frozen=True)
class Expectation:
    results: frozenset[HandshakeResult]
    version: TlsVersion | None = None

    def matches(self, outcome: HandshakeOutcome) -> bool:
        if outcome.result not in self.results:
            return False
        return self.version is None or outcome.negotiated_version is self.version

    def describe(self) -> str:
        kinds = "|".join(sorted(r.value for r in self.results))
        return kinds if self.version is None else f"{kinds}@{self.version}"


EXPECT_TOKENS = {
    "established": Expectation(frozenset({HandshakeResult.ESTABLISHED})),
    "aborted": Expectation(
        frozenset(
            {HandshakeResult.ABORTED_BY_CLIENT, HandshakeResult.ABORTED_BY_SERVER}
        )
    ),
    "exhausted": Expectation(frozenset({HandshakeResult.EXHAUSTED})),
}

# A scenario's CLIENT token names the decision its client acts on.
CLIENT_TOKENS = {
    "strict": PolicyDecision(Mode.STRICT, Reason.OK),
    "default": PolicyDecision(Mode.DEFAULT, Reason.NO_RECORD),
}


@dataclass(frozen=True)
class Scenario:
    name: str
    client_policy: str  # "strict" | "default"
    server: str
    attack: AttackerStrategy
    expect: Expectation


@dataclass(frozen=True)
class ScenarioRow:
    """One executed scenario, ready for reporting."""

    name: str
    expected: str
    actual: str
    passed: bool
    transcript: tuple[str, ...]
    decision: str | None = None


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    rows: tuple[ScenarioRow, ...]

    @property
    def all_passed(self) -> bool:
        return all(row.passed for row in self.rows)

    def render(self) -> str:
        lines = [f"suite {self.suite}: {len(self.rows)} scenario(s)"]
        for row in self.rows:
            mark = "PASS" if row.passed else "FAIL"
            decision = f" decision={row.decision}" if row.decision else ""
            lines.append(
                f"[{mark}] {row.name}: expected={row.expected} actual={row.actual}{decision}"
            )
            lines.extend(f"    {event}" for event in row.transcript)
        return "\n".join(lines)


def parse_scenario_file(text: str) -> tuple[dict[str, ServerProfile], list[Scenario]]:
    profiles: dict[str, ServerProfile] = {}
    scenarios: list[Scenario] = []
    names: set[str] = set()

    def parse_line(line: str) -> None:
        fields = line.split()
        if fields[0] == "PROFILE":
            profile = _parse_profile(fields)
            if profile.domain in profiles:
                raise ScenarioFileError(f"duplicate profile {profile.domain!r}")
            profiles[profile.domain] = profile
        elif fields[0] == "SCENARIO":
            scenario = _parse_scenario(fields)
            if scenario.name in names:
                raise ScenarioFileError(f"duplicate scenario {scenario.name!r}")
            names.add(scenario.name)
            scenarios.append(scenario)
        else:
            raise ScenarioFileError(f"unknown line kind {fields[0]!r}")

    parse_lines(text, parse_line, ScenarioFileError)
    return profiles, scenarios


def _parse_profile(fields: list[str]) -> ServerProfile:
    # PROFILE <name> VERSIONS <list> SUITES <list> [FRAGBUG]
    if len(fields) < 6 or fields[2] != "VERSIONS" or fields[4] != "SUITES":
        raise ScenarioFileError("PROFILE needs VERSIONS and SUITES sections")
    fragbug = False
    if len(fields) == 7:
        if fields[6] != "FRAGBUG":
            raise ScenarioFileError(f"unexpected trailing token {fields[6]!r}")
        fragbug = True
    elif len(fields) != 6:
        raise ScenarioFileError("too many PROFILE tokens")
    versions = frozenset(map(TlsVersion.parse, list_tokens(fields[3])))
    return ServerProfile(fields[1], versions, list_tokens(fields[5]), fragbug)


def _parse_scenario(fields: list[str]) -> Scenario:
    # SCENARIO <name> CLIENT <strict|default> SERVER <profile> ATTACK <...> EXPECT <...>
    if (
        len(fields) != 10
        or fields[2] != "CLIENT"
        or fields[4] != "SERVER"
        or fields[6] != "ATTACK"
        or fields[8] != "EXPECT"
    ):
        raise ScenarioFileError(
            "SCENARIO needs CLIENT, SERVER, ATTACK and EXPECT sections"
        )
    if fields[3] not in CLIENT_TOKENS:
        raise ScenarioFileError(f"client policy must be strict or default, got {fields[3]!r}")
    if fields[9] not in EXPECT_TOKENS:
        raise ScenarioFileError(f"unknown expectation {fields[9]!r}")
    return Scenario(
        name=fields[1],
        client_policy=fields[3],
        server=fields[5],
        attack=AttackerStrategy.parse(fields[7]),
        expect=EXPECT_TOKENS[fields[9]],
    )


def run_scenario_suite(
    scenarios: list[Scenario],
    profiles: dict[str, ServerProfile],
    suite_name: str,
) -> SuiteReport:
    """Execute scenarios in order against their named server profiles."""
    rows = []
    for scenario in scenarios:
        if scenario.server not in profiles:
            raise UnknownScenarioReference(
                f"scenario {scenario.name!r} references unknown profile {scenario.server!r}"
            )
        rows.append(_row(scenario.name, scenario.expect, CLIENT_TOKENS[scenario.client_policy],
                         profiles[scenario.server], scenario.attack))
    return SuiteReport(suite_name, tuple(rows))


def _row(name: str, expect: Expectation, decision: PolicyDecision, server: ServerProfile,
         attack: AttackerStrategy, mode: Mode | None = None) -> ScenarioRow:
    """Apply the decision, run its handshake and report it; with a mode, the
    decision must also have taken it, and the row shows the decision."""
    outcome = run_handshake(apply(decision, DEFAULT_CLIENT), server, attack)
    return ScenarioRow(
        name=name,
        expected=expect.describe(),
        actual=_outcome_token(outcome),
        passed=expect.matches(outcome) and (mode is None or decision.mode is mode),
        transcript=outcome.transcript,
        decision=None if mode is None else _decision_token(decision),
    )


def _decision_token(decision: PolicyDecision) -> str:
    return f"{decision.mode.value}/{decision.reason.value}"


def _outcome_token(outcome: HandshakeOutcome) -> str:
    if outcome.result is HandshakeResult.ESTABLISHED:
        return (
            f"Established@{outcome.negotiated_version} "
            f"suite={outcome.negotiated_suite}"
        )
    return outcome.result.value


# -- built-in fixtures ------------------------------------------------------

FIXTURE_NOW = date(2018, 7, 1)
SIGNATURE_DAYS = (date(2018, 5, 1), date(2019, 5, 1))

STRONG_SUITES = (
    "ECDHE-RSA-AES128-GCM-SHA256",
    "ECDHE-RSA-AES256-GCM-SHA384",
    "ECDHE-RSA-CHACHA20-POLY1305",
)
LEGACY_SUITES = ("ECDHE-RSA-AES128-SHA", "AES128-SHA")


def fixture_policy(
    valid_from: date = date(2018, 5, 1),
    valid_to: date = date(2019, 5, 1),
    report: str = "admin@tls12.test",
    **kwargs,
) -> PolicyRecord:
    return PolicyRecord(
        valid_from=valid_from, valid_to=valid_to, report=report, **kwargs
    )


@dataclass
class SignedFixture:
    """A zone with registered policies, its trust anchors, and a fresh cache."""

    zone: ZoneStore
    anchors: TrustAnchorSet
    store: PolicyStore
    now: date

    def decide_for(self, domain: str) -> PolicyDecision:
        return decide(resolve(self.zone, domain), self.anchors, self.store, domain, self.now)


@cache
def fixture_keys() -> ZoneKeyPair:
    """The one key that signs every fixture in a process (RSA generation is slow)."""
    return ZoneKeyPair.generate("zsk-1")


def build_fixture(registered: dict[str, PolicyRecord]) -> SignedFixture:
    """Sign the given records into a zone under the trust-anchored fixture key."""
    keys = fixture_keys()
    zone = ZoneStore()
    anchors = TrustAnchorSet()
    for domain, record in registered.items():
        zone.publish(sign_rrset(keys, domain, [serialize_policy(record)], *SIGNATURE_DAYS))
        anchors.add(TrustAnchor(domain, keys.key_id, keys.public_der()))
    return SignedFixture(zone, anchors, PolicyStore(), FIXTURE_NOW)


def _established(version: TlsVersion) -> Expectation:
    return Expectation(frozenset({HandshakeResult.ESTABLISHED}), version)


_CLIENT_ABORTS = Expectation(frozenset({HandshakeResult.ABORTED_BY_CLIENT}))
_ALL_SUITES = STRONG_SUITES + LEGACY_SUITES
_BANK = ServerProfile(
    "bank.test",
    frozenset({TlsVersion.SSL30, TlsVersion.TLS10, TlsVersion.TLS11, TlsVersion.TLS12}),
    _ALL_SUITES,
)
_SHOP = ServerProfile(
    "shop.test",
    frozenset({TlsVersion.TLS10, TlsVersion.TLS11, TlsVersion.TLS12}),
    _ALL_SUITES,
    fragmentation_bug=True,
)
_DROP2 = AttackerStrategy.parse("drop:2")
_FRAGMENT = AttackerStrategy.parse("fragment")

# Suite name -> (registered domains, rows). A row is (name, domain, server,
# attack, expectation, mode): the client's handshake for the domain against
# the server, through the attack, must meet the expectation, and its decision
# must take the mode (strict for a registered domain, default otherwise).
DOWNGRADE_SUITES = {
    # Feasibility matrix: the registered strong server succeeds strictly, the
    # registered legacy server is refused by the strict client, and the
    # unregistered legacy server still works under the default policy.
    "table2": (
        ("tls12.test", "tls10.test"),
        (
            ("tls12-registered-strong", "tls12.test",
             ServerProfile("tls12.test", frozenset({TlsVersion.TLS12}), STRONG_SUITES),
             NO_ATTACK, _established(TlsVersion.TLS12), Mode.STRICT),
            ("tls10-registered-legacy", "tls10.test",
             ServerProfile("tls10.test", frozenset({TlsVersion.TLS10}), LEGACY_SUITES),
             NO_ATTACK, _CLIENT_ABORTS, Mode.STRICT),
            ("tls11-unregistered-legacy", "tls11.test",
             ServerProfile("tls11.test", frozenset({TlsVersion.TLS11}), LEGACY_SUITES),
             NO_ATTACK, _established(TlsVersion.TLS11), Mode.DEFAULT),
        ),
    ),
    # Hello-dropping downgrade: default clients walk down, strict ones abort.
    "poodle": (
        ("bank.test",),
        (
            ("poodle-default-downgraded", "news.test", _BANK, _DROP2,
             _established(TlsVersion.TLS10), Mode.DEFAULT),
            ("poodle-strict-aborted", "bank.test", _BANK, _DROP2,
             _CLIENT_ABORTS, Mode.STRICT),
        ),
    ),
    # Fragmented-hello downgrade against a server with the version bug.
    "fragment": (
        ("shop.test",),
        (
            ("fragment-default-downgraded", "blog.test", _SHOP, _FRAGMENT,
             _established(TlsVersion.TLS10), Mode.DEFAULT),
            ("fragment-strict-aborted", "shop.test", _SHOP, _FRAGMENT,
             _CLIENT_ABORTS, Mode.STRICT),
        ),
    ),
}


def run_downgrade_suite(name: str) -> SuiteReport:
    """Sign the suite's registered domains, then decide, apply and handshake per row."""
    registered, table = DOWNGRADE_SUITES[name]
    fixture = build_fixture({d: fixture_policy(report=f"admin@{d}") for d in registered})
    rows = [
        _row(row_name, expect, fixture.decide_for(domain), server, attack, mode)
        for row_name, domain, server, attack, expect, mode in table
    ]
    return SuiteReport(name, tuple(rows))


_REGISTERED_POLICY = fixture_policy(valid_from=date(2018, 1, 1))

# Forgery rows: (name, domain, expected, steps). Each row starts from a fresh
# zone holding tls12.test signed as _REGISTERED_POLICY, and an empty cache.
# A step is (text, change). A tuple change is values the owner signs as the
# domain's set; a callable is an attacker edit, change(zone, domain, first),
# that holds no key, only ``first``, the domain's set as first signed; None is
# a contact, and the row expects and reports the decision of its last one.
_FORGERY_SUITE = (
    ("add-unregistered-policy", "victim.test", "Default/InvalidSignature", (
        ("attacker: injected unsigned policy record",
         lambda zone, domain, first: zone.attacker_add_txt_value(
             domain, serialize_policy(fixture_policy(report="mallory@evil.test")))),
        ("connection", None),
    )),
    ("modify-signed-record", "tls12.test", "Default/InvalidSignature", (
        ("attacker: rewrote validTo inside the signed record",
         lambda zone, domain, first: zone.attacker_modify_txt_value(
             domain, 0, first.values[0].replace("validTo=01-05-2019", "validTo=01-05-2018"))),
        ("connection", None),
    )),
    ("delete-from-signed-set", "tls12.test", "Default/InvalidSignature", (
        ("owner: signed the policy together with an SPF value",
         (serialize_policy(_REGISTERED_POLICY), "v=spf1 -all")),
        ("attacker: removed one value from the signed set",
         lambda zone, domain, first: zone.attacker_delete_txt_value(domain, 1)),
        ("connection", None),
    )),
    ("replay-stale-policy", "tls12.test", "Strict/DropAlarm", (
        ("owner: signed a newer policy", (serialize_policy(fixture_policy()),)),
        ("first connection", None),
        ("attacker: replayed the older signed policy",
         lambda zone, domain, first: zone.attacker_replace_rrset(domain, first)),
        ("second connection", None),
    )),
    ("replay-revoked-policy", "tls12.test", "Default/Revoked", (
        ("first connection", None),
        ("owner: signed a revocation", (serialize_policy(
            fixture_policy(valid_from=date(2018, 6, 1), revoke=True)),)),
        ("second connection", None),
        ("attacker: replayed the revoked policy",
         lambda zone, domain, first: zone.attacker_replace_rrset(domain, first)),
        ("third connection", None),
    )),
    ("drop-after-first-connection", "tls12.test", "Strict/DropAlarm", (
        ("first connection", None),
        ("attacker: suppressed the record set",
         lambda zone, domain, first: zone.attacker_drop_rrset(domain)),
        ("second connection", None),
    )),
)


def run_forgery() -> SuiteReport:
    """Record-forgery matrix: each manipulation, then the client's decision."""
    rows = []
    for row_name, domain, expected, steps in _FORGERY_SUITE:
        fixture = build_fixture({"tls12.test": _REGISTERED_POLICY})
        first = fixture.zone.rrset_for(domain)
        transcript = []
        for text, change in steps:
            if change is None:
                actual = _decision_token(fixture.decide_for(domain))
                text = f"{text}: {actual}"
            elif callable(change):
                change(fixture.zone, domain, first)
            else:
                fixture.zone.publish(sign_rrset(fixture_keys(), domain, change, *SIGNATURE_DAYS))
            transcript.append(text)
        rows.append(ScenarioRow(row_name, expected, actual, actual == expected, tuple(transcript)))
    return SuiteReport("forgery", tuple(rows))


BUILTIN_SUITES = {
    **{name: partial(run_downgrade_suite, name) for name in DOWNGRADE_SUITES},
    "forgery": run_forgery,
}


def run_builtin_suite(name: str) -> SuiteReport:
    if name not in BUILTIN_SUITES:
        raise UnknownScenarioReference(f"unknown built-in suite {name!r}")
    return BUILTIN_SUITES[name]()
