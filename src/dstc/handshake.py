"""Message-level simulation of TLS version and ciphersuite negotiation.

Pre-1.3 semantics: the hello offers a single maximum version, the server
answers with its selection, and a fallback-enabled client that loses a hello
retries one version lower. No key exchange or record-layer cryptography is
modelled, and deliberately no transcript MAC either: the attacks of interest
are the ones policy has to catch because the MAC cannot.

Everything here is pure and deterministic: the same (client config, server
profile, attacker strategy) triple always produces the same transcript. The
profile's table relies on exactly that: each ``ServerProfile`` keeps the
(config, attacker, outcome) triples it negotiated, up to ``_KEPT_BOUND`` of
them, and a call with a config and an attacker that are the objects of one
kept triple returns its outcome without negotiating again. Profiles and
configs hold only immutable values, so an object seen once cannot later ask
for another outcome.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

from .enforcement import VERSION_LABELS, EffectiveTlsConfig, TlsVersion, normalize_suite_name

# A fallback-disabled client re-sends its single offer this many times after
# a lost hello before giving up; the offered version never changes.
STRICT_RETRY_BUDGET = 1

# Triples a server's table keeps: the two configs a ClientCapabilities hands
# out, times the four attack kinds. A new triple past it drops the oldest.
_KEPT_BOUND = 8


@dataclass(frozen=True, slots=True)
class ServerProfile:
    """A server's negotiable surface.

    ``fragmentation_bug`` models the implementation flaw where a fragmented
    hello makes the server negotiate TLS 1.0 regardless of the offer.
    """

    domain: str
    supported_versions: frozenset[TlsVersion]
    suite_preference: tuple[str, ...]
    fragmentation_bug: bool = False
    # The (client config, attacker, outcome) triples run_handshake negotiated
    # with this server, newest first, laid end to end in one flat tuple
    # (README "Kept values").
    _kept: tuple = field(default=(), init=False, repr=False, compare=False)

    def __post_init__(self):
        # A set or list would leave the kept outcome open to a later change.
        object.__setattr__(self, "supported_versions", frozenset(self.supported_versions))
        object.__setattr__(self, "suite_preference", tuple(self.suite_preference))
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
            return f"modver:{self.target_version!s}"
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


# Contact-path aliases: no Enum.MEMBER read (README "Kept values").
_DROP = AttackKind.DROP_CLIENT_HELLO
_FRAGMENT = AttackKind.FRAGMENT_CLIENT_HELLO
_MODVER = AttackKind.MODIFY_CLIENT_HELLO_VERSION
_ESTABLISHED = HandshakeResult.ESTABLISHED
_ABORTED_BY_CLIENT = HandshakeResult.ABORTED_BY_CLIENT
_ABORTED_BY_SERVER = HandshakeResult.ABORTED_BY_SERVER
_EXHAUSTED = HandshakeResult.EXHAUSTED
_TLS10 = TlsVersion.TLS10


@dataclass(frozen=True, slots=True)
class HandshakeOutcome:
    result: HandshakeResult
    negotiated_version: TlsVersion | None
    negotiated_suite: str | None
    transcript: tuple[str, ...]

    def __post_init__(self):
        established = self.result is _ESTABLISHED
        if established != (self.negotiated_version is not None) or established != (
            self.negotiated_suite is not None
        ):
            raise ValueError("negotiated fields present iff established")


# A transcript step is an event: its kind, then the values its line shows,
# versions as their labels.
_LINES = {
    "hello": "client: ClientHello version={} suites={}",
    "dropped": "attacker: dropped ClientHello ({} of {})",
    "exhausted": "client: no lower version left, giving up",
    "fallback": "client: fallback {} -> {}",
    "no-fallback": "client: abort (hello lost and fallback disabled)",
    "retry": "client: retry same version {} ({} of {})",
    "modified": "attacker: modified ClientHello version {} -> {}",
    "fragmented": "attacker: fragmented ClientHello",
    "forced": "server: fragmentation bug, negotiating {} regardless of offer",
    "reassembled": "server: reassembled fragmented hello, no effect",
    "no-version": "server: refuse (no common version)",
    "server-hello": "server: ServerHello version={} suite={}",
    "outside-policy": "client: abort (ServerHello version {} outside enforced policy)",
    "no-suite": "server: abort (no common ciphersuite)",
    "established": "established: version={} suite={}",
}


def _line(event: tuple) -> str:
    kind, *values = event
    return _LINES[kind].format(*values)


@lru_cache(maxsize=1 << 10)
def _outcome(
    result: HandshakeResult,
    version: TlsVersion | None,
    suite: str | None,
    events: tuple[tuple, ...],
) -> HandshakeOutcome:
    """The one outcome for these fields and events, its lines rendered and
    its fields checked on first use. The lines depend on the events alone."""
    return HandshakeOutcome(result, version, suite, tuple(map(_line, events)))


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

    A config and an attacker that are the objects of a triple in the
    server's table return that triple's outcome; the newest triple is tried
    first, so a revisit pays two identity checks. Any other call negotiates
    and puts its triple first, dropping the oldest past ``_KEPT_BOUND``. The
    table is replaced by one new tuple, so a reader never sees a mixed triple.
    """
    kept = server._kept
    if kept and kept[0] is client_cfg and kept[1] is attacker:
        return kept[2]
    for i in range(3, len(kept), 3):
        if kept[i] is client_cfg and kept[i + 1] is attacker:
            return kept[i + 2]
    outcome = _negotiate(client_cfg, server, attacker)
    object.__setattr__(
        server, "_kept", (client_cfg, attacker, outcome) + kept[:3 * _KEPT_BOUND - 3]
    )
    return outcome


def _negotiate(
    client_cfg: EffectiveTlsConfig,
    server: ServerProfile,
    attacker: AttackerStrategy,
) -> HandshakeOutcome:
    """``run_handshake`` without the server's table."""
    versions = client_cfg.versions
    labels = VERSION_LABELS
    drops = attacker.drop_count if attacker.kind is _DROP else 0
    suite_count = len(client_cfg.ciphersuites)

    offer = versions[0]
    events = [("hello", labels[offer], suite_count)]
    for lost in range(1, drops + 1):
        events.append(("dropped", lost, drops))
        if client_cfg.fallback_enabled:
            if lost == len(versions):
                return _outcome(_EXHAUSTED, None, None, (*events, ("exhausted",)))
            events.append(("fallback", labels[offer], labels[versions[lost]]))
            offer = versions[lost]
        elif lost > STRICT_RETRY_BUDGET:
            return _outcome(_ABORTED_BY_CLIENT, None, None, (*events, ("no-fallback",)))
        else:
            events.append(("retry", labels[offer], lost, STRICT_RETRY_BUDGET))
        events.append(("hello", labels[offer], suite_count))

    if attacker.kind is _MODVER:
        events.append(("modified", labels[offer], labels[attacker.target_version]))
        offer = attacker.target_version

    fragmented = attacker.kind is _FRAGMENT
    forced = fragmented and server.fragmentation_bug
    if fragmented:
        events.append(("fragmented",))
        events.append(("forced", labels[_TLS10]) if forced else ("reassembled",))
    # The bug answers TLS 1.0 even on a server that does not support it.
    version = _TLS10 if forced else min(offer, max(server.supported_versions))
    if not forced and version not in server.supported_versions:
        return _outcome(_ABORTED_BY_SERVER, None, None, (*events, ("no-version",)))
    suite = _first_common_suite(server, client_cfg._offered)
    events.append(("server-hello", labels[version], suite or "(none)"))
    if version not in versions:
        return _outcome(
            _ABORTED_BY_CLIENT, None, None, (*events, ("outside-policy", labels[version]))
        )
    if suite is None:
        return _outcome(_ABORTED_BY_SERVER, None, None, (*events, ("no-suite",)))
    events.append(("established", labels[version], suite))
    return _outcome(_ESTABLISHED, version, suite, tuple(events))
