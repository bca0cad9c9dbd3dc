"""Message-level simulation of TLS version and ciphersuite negotiation.

Pre-1.3 semantics: the hello offers a single maximum version, the server
answers with its selection, and a fallback-enabled client that loses a hello
retries one version lower. No key exchange or record-layer cryptography is
modelled, and deliberately no transcript MAC either: the attacks of interest
are the ones policy has to catch because the MAC cannot.

Everything here is pure and deterministic: the same (client config, server
profile, attacker strategy) triple always produces the same transcript.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

from .enforcement import EffectiveTlsConfig, TlsVersion, normalize_suite_name

# A fallback-disabled client re-sends its single offer this many times after
# a lost hello before giving up; the offered version never changes.
STRICT_RETRY_BUDGET = 1


@dataclass(frozen=True)
class ServerProfile:
    """A server's negotiable surface.

    ``fragmentation_bug`` models the implementation flaw where a fragmented
    hello makes the server negotiate TLS 1.0 regardless of the offer.
    """

    domain: str
    supported_versions: frozenset[TlsVersion]
    suite_preference: tuple[str, ...]
    fragmentation_bug: bool = False

    def __post_init__(self):
        if not self.supported_versions:
            raise ValueError("server must support at least one version")
        if not self.suite_preference:
            raise ValueError("server must prefer at least one suite")


class AttackKind(Enum):
    NONE = "none"
    DROP_CLIENT_HELLO = "drop"
    FRAGMENT_CLIENT_HELLO = "fragment"
    MODIFY_CLIENT_HELLO_VERSION = "modver"


@dataclass(frozen=True)
class AttackerStrategy:
    kind: AttackKind
    drop_count: int = 0
    target_version: TlsVersion | None = None

    def __post_init__(self):
        if self.kind is AttackKind.DROP_CLIENT_HELLO and self.drop_count < 1:
            raise ValueError("drop strategy needs a repeat count of at least 1")
        if (
            self.kind is AttackKind.MODIFY_CLIENT_HELLO_VERSION
            and self.target_version is None
        ):
            raise ValueError("modify strategy needs a target version")

    @classmethod
    def parse(cls, token: str) -> "AttackerStrategy":
        """Parse ``none``, ``drop:N``, ``fragment``, or ``modver:V``."""
        head, _, arg = token.strip().lower().partition(":")
        if head == "none":
            return NO_ATTACK
        if head == "drop":
            return cls(AttackKind.DROP_CLIENT_HELLO, drop_count=int(arg))
        if head == "fragment":
            return cls(AttackKind.FRAGMENT_CLIENT_HELLO)
        if head == "modver":
            return cls(
                AttackKind.MODIFY_CLIENT_HELLO_VERSION,
                target_version=TlsVersion.parse(arg),
            )
        raise ValueError(f"unknown attack {token!r}")

    def describe(self) -> str:
        if self.kind is AttackKind.DROP_CLIENT_HELLO:
            return f"drop:{self.drop_count}"
        if self.kind is AttackKind.MODIFY_CLIENT_HELLO_VERSION:
            return f"modver:{self.target_version.label}"
        return self.kind.value


NO_ATTACK = AttackerStrategy(AttackKind.NONE)


@dataclass(frozen=True)
class Negotiation:
    """Server-side selection outcome for one hello."""

    ok: bool
    version: TlsVersion | None
    suite: str | None
    refusal: str | None = None


def negotiate(
    server: ServerProfile,
    offered_version: TlsVersion,
    offered_suites: tuple[str, ...] | list[str],
) -> Negotiation:
    """Select version and suite for a single-version hello offer.

    The server takes min(offer, its maximum) and must support that exact
    version; the suite is its first preference the client offered. Either
    miss is a refusal, though a suite refusal still reports the version the
    server would have picked.
    """
    candidate = min(offered_version, max(server.supported_versions))
    if candidate not in server.supported_versions:
        return Negotiation(False, None, None, "no common version")
    suite = _pick_suite(server, offered_suites)
    if suite is None:
        return Negotiation(False, candidate, None, "no common ciphersuite")
    return Negotiation(True, candidate, suite)


def _pick_suite(server: ServerProfile, offered_suites) -> str | None:
    offered = _normalised_offer(tuple(offered_suites))
    return next(
        (s for s in server.suite_preference if normalize_suite_name(s) in offered),
        None,
    )


# A client offers the same few suite tuples on every hello (one per config).
@lru_cache(maxsize=256)
def _normalised_offer(offered_suites: tuple[str, ...]) -> frozenset[str]:
    return frozenset(normalize_suite_name(s) for s in offered_suites)


class HandshakeResult(Enum):
    ESTABLISHED = "Established"
    ABORTED_BY_CLIENT = "AbortedByClient"
    ABORTED_BY_SERVER = "AbortedByServer"
    EXHAUSTED = "Exhausted"


@dataclass(frozen=True)
class HandshakeOutcome:
    result: HandshakeResult
    negotiated_version: TlsVersion | None
    negotiated_suite: str | None
    transcript: tuple[str, ...]

    def __post_init__(self):
        established = self.result is HandshakeResult.ESTABLISHED
        if established != (self.negotiated_version is not None) or established != (
            self.negotiated_suite is not None
        ):
            raise ValueError("negotiated fields present iff established")


def run_handshake(
    client_cfg: EffectiveTlsConfig,
    server: ServerProfile,
    attacker: AttackerStrategy = NO_ATTACK,
) -> HandshakeOutcome:
    """Drive one client-server negotiation under an attacker strategy.

    Lost hellos trigger fallback one version at a time when the config allows
    it and a bounded same-version retry when it does not. The client accepts
    a ServerHello only for a version it is currently willing to speak.
    """
    transcript: list[str] = []
    version_index = 0
    drops_seen = 0
    retries_used = 0

    def fail(result, line):
        transcript.append(line)
        return HandshakeOutcome(result, None, None, tuple(transcript))

    while True:
        offer = client_cfg.versions[version_index]
        transcript.append(
            f"client: ClientHello version={offer} suites={len(client_cfg.ciphersuites)}"
        )

        if (
            attacker.kind is AttackKind.DROP_CLIENT_HELLO
            and drops_seen < attacker.drop_count
        ):
            drops_seen += 1
            transcript.append(
                f"attacker: dropped ClientHello ({drops_seen} of {attacker.drop_count})"
            )
            if client_cfg.fallback_enabled:
                if version_index + 1 < len(client_cfg.versions):
                    lower = client_cfg.versions[version_index + 1]
                    transcript.append(f"client: fallback {offer} -> {lower}")
                    version_index += 1
                    continue
                return fail(
                    HandshakeResult.EXHAUSTED,
                    "client: no lower version left, giving up",
                )
            if retries_used < STRICT_RETRY_BUDGET:
                retries_used += 1
                transcript.append(
                    f"client: retry same version {offer} "
                    f"({retries_used} of {STRICT_RETRY_BUDGET})"
                )
                continue
            return fail(
                HandshakeResult.ABORTED_BY_CLIENT,
                "client: abort (hello lost and fallback disabled)",
            )

        sent_version = offer
        if attacker.kind is AttackKind.MODIFY_CLIENT_HELLO_VERSION:
            sent_version = attacker.target_version
            transcript.append(
                f"attacker: modified ClientHello version {offer} -> {sent_version}"
            )

        if attacker.kind is AttackKind.FRAGMENT_CLIENT_HELLO:
            transcript.append("attacker: fragmented ClientHello")
            if server.fragmentation_bug:
                coerced = TlsVersion.TLS10
                suite = _pick_suite(server, client_cfg.ciphersuites)
                transcript.append(
                    f"server: fragmentation bug, negotiating {coerced} regardless of offer"
                )
                selection = Negotiation(suite is not None, coerced, suite,
                                        None if suite else "no common ciphersuite")
            else:
                transcript.append("server: reassembled fragmented hello, no effect")
                selection = negotiate(server, sent_version, client_cfg.ciphersuites)
        else:
            selection = negotiate(server, sent_version, client_cfg.ciphersuites)

        if selection.version is None:
            return fail(
                HandshakeResult.ABORTED_BY_SERVER,
                f"server: refuse ({selection.refusal})",
            )
        transcript.append(
            f"server: ServerHello version={selection.version} "
            f"suite={selection.suite or '(none)'}"
        )
        if selection.version not in client_cfg.versions:
            return fail(
                HandshakeResult.ABORTED_BY_CLIENT,
                f"client: abort (ServerHello version {selection.version} "
                "outside enforced policy)",
            )
        if selection.suite is None:
            return fail(
                HandshakeResult.ABORTED_BY_SERVER,
                "server: abort (no common ciphersuite)",
            )
        transcript.append(
            f"established: version={selection.version} suite={selection.suite}"
        )
        return HandshakeOutcome(
            HandshakeResult.ESTABLISHED,
            selection.version,
            selection.suite,
            tuple(transcript),
        )
