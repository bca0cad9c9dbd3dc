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
        """Parse ``none``, ``drop:N``, ``fragment``, or ``modver:V``; ``none``
        and ``fragment`` take no argument, and N is ASCII decimal digits."""
        head, colon, arg = token.strip().lower().partition(":")
        if head == "none" and not colon:
            return NO_ATTACK
        if head == "fragment" and not colon:
            return cls(AttackKind.FRAGMENT_CLIENT_HELLO)
        # A bad count or version is reported as the token it came in.
        try:
            if head == "drop" and arg.isascii() and arg.isdigit():
                return cls(AttackKind.DROP_CLIENT_HELLO, drop_count=int(arg))
            if head == "modver":
                return cls(
                    AttackKind.MODIFY_CLIENT_HELLO_VERSION,
                    target_version=TlsVersion.parse(arg),
                )
        except ValueError:
            pass
        raise ValueError(f"unknown attack {token!r}")

    def describe(self) -> str:
        if self.kind is AttackKind.DROP_CLIENT_HELLO:
            return f"drop:{self.drop_count}"
        if self.kind is AttackKind.MODIFY_CLIENT_HELLO_VERSION:
            return f"modver:{self.target_version.label}"
        return self.kind.value


NO_ATTACK = AttackerStrategy(AttackKind.NONE)


def _first_common_suite(server: ServerProfile, offered: frozenset[str]) -> str | None:
    """The server's first preferred suite the client offered, names compared
    after normalisation, or None."""
    for suite in server.suite_preference:
        if normalize_suite_name(suite) in offered:
            return suite
    return None


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

    On the n-th lost hello a fallback client moves to its n-th lower version
    and is exhausted when none is left; a strict client re-sends its one
    offer and aborts once the n-th loss exceeds ``STRICT_RETRY_BUDGET``. The
    hello that gets through is then modified, fragmented or negotiated as is.
    The client accepts a ServerHello only for a version it is willing to speak.
    """
    versions = client_cfg.versions
    drops = attacker.drop_count if attacker.kind is AttackKind.DROP_CLIENT_HELLO else 0
    suite_count = len(client_cfg.ciphersuites)
    transcript: list[str] = []

    def fail(result, line):
        transcript.append(line)
        return HandshakeOutcome(result, None, None, tuple(transcript))

    offer = versions[0]
    transcript.append(f"client: ClientHello version={offer} suites={suite_count}")
    for lost in range(1, drops + 1):
        transcript.append(f"attacker: dropped ClientHello ({lost} of {drops})")
        if client_cfg.fallback_enabled:
            if lost == len(versions):
                return fail(
                    HandshakeResult.EXHAUSTED,
                    "client: no lower version left, giving up",
                )
            transcript.append(f"client: fallback {offer} -> {versions[lost]}")
            offer = versions[lost]
        elif lost > STRICT_RETRY_BUDGET:
            return fail(
                HandshakeResult.ABORTED_BY_CLIENT,
                "client: abort (hello lost and fallback disabled)",
            )
        else:
            transcript.append(
                f"client: retry same version {offer} ({lost} of {STRICT_RETRY_BUDGET})"
            )
        transcript.append(f"client: ClientHello version={offer} suites={suite_count}")

    if attacker.kind is AttackKind.MODIFY_CLIENT_HELLO_VERSION:
        transcript.append(
            f"attacker: modified ClientHello version {offer} -> {attacker.target_version}"
        )
        offer = attacker.target_version

    fragmented = attacker.kind is AttackKind.FRAGMENT_CLIENT_HELLO
    forced = fragmented and server.fragmentation_bug
    if fragmented:
        transcript.append("attacker: fragmented ClientHello")
        transcript.append(
            f"server: fragmentation bug, negotiating {TlsVersion.TLS10} regardless of offer"
            if forced else "server: reassembled fragmented hello, no effect"
        )
    # The bug answers TLS 1.0 even on a server that does not support it.
    version = TlsVersion.TLS10 if forced else min(offer, max(server.supported_versions))
    if not forced and version not in server.supported_versions:
        return fail(HandshakeResult.ABORTED_BY_SERVER, "server: refuse (no common version)")
    suite = _first_common_suite(server, client_cfg._offered)
    transcript.append(f"server: ServerHello version={version} suite={suite or '(none)'}")
    if version not in versions:
        return fail(
            HandshakeResult.ABORTED_BY_CLIENT,
            f"client: abort (ServerHello version {version} outside enforced policy)",
        )
    if suite is None:
        return fail(
            HandshakeResult.ABORTED_BY_SERVER,
            "server: abort (no common ciphersuite)",
        )
    transcript.append(f"established: version={version} suite={suite}")
    return HandshakeOutcome(HandshakeResult.ESTABLISHED, version, suite, tuple(transcript))
