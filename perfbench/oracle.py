"""Workload model: what every contact of a workload must produce.

The model follows the documented semantics of the system (README: the policy
cache rules, the decision reasons, the handshake simulator's attacker
strategies), not the code under test. Each contact's expected outcome is
derived here while the workload is built, and the benchmark loop compares
the program's answer against it, so a change that breaks a security property
counts as failed contacts instead of showing up as a speed-up.
"""

from __future__ import annotations

from typing import NamedTuple

from dstc.enforcement import DEFAULT_CLIENT, EffectiveTlsConfig, Mode, Reason, TlsVersion
from dstc.handshake import AttackKind, AttackerStrategy, HandshakeResult, ServerProfile
from dstc.policy import PolicyRecord
from dstc.store import StoreAction

# Spans that every contact passes through.
CONTACT_SPANS = frozenset(
    {"dnssec.resolve", "enforcement.decide", "enforcement.apply", "handshake.run", "bench.loop"}
)
# Spans of an answer whose signature is checked against the anchor.
VERIFY_SPANS = frozenset(
    {"dnssec.anchor_lookup", "dnssec.anchor_key", "dnssec.verify", "dnssec.canonical"}
)


def is_fs_ae(suite: str) -> bool:
    """Forward secret (ECDHE/DHE key exchange) and AEAD (GCM/CCM/ChaCha20)."""
    name = suite.strip().upper()
    if name.startswith("TLS_"):
        name = name[4:]
    name = name.replace("_", "-")
    return name.split("-", 1)[0] in ("ECDHE", "DHE") and any(
        token in name for token in ("GCM", "CCM", "CHACHA20")
    )


# The configurations the two modes must materialise for the default client.
STRICT_CONFIG = EffectiveTlsConfig(
    (TlsVersion.TLS12,),
    tuple(s for s in DEFAULT_CLIENT.suite_list if is_fs_ae(s)),
    False,
)
DEFAULT_CONFIG = EffectiveTlsConfig(
    (TlsVersion.TLS12, TlsVersion.TLS11, TlsVersion.TLS10),
    DEFAULT_CLIENT.suite_list,
    True,
)
CONFIGS = {Mode.STRICT: STRICT_CONFIG, Mode.DEFAULT: DEFAULT_CONFIG}


def strict_reachable(profile: ServerProfile) -> bool:
    """A strict client can complete an unattacked handshake with this server."""
    return TlsVersion.TLS12 in profile.supported_versions and any(
        s in STRICT_CONFIG.ciphersuites for s in profile.suite_preference
    )


def expected_result(mode: Mode, profile: ServerProfile, attack: AttackerStrategy) -> HandshakeResult:
    """Handshake outcome for a server the mode's config can reach unattacked.

    Strict offers TLS 1.2 only, retries a lost hello once and never falls
    back, so every downgrade attempt ends in an abort. Default falls back to
    TLS 1.0 and is downgraded wherever the server speaks TLS 1.0.
    """
    kind = attack.kind
    forced = kind is AttackKind.FRAGMENT_CLIENT_HELLO and profile.fragmentation_bug
    if kind is AttackKind.NONE or (kind is AttackKind.FRAGMENT_CLIENT_HELLO and not forced):
        return HandshakeResult.ESTABLISHED
    if kind is AttackKind.DROP_CLIENT_HELLO and attack.drop_count != 2:
        raise ValueError("the model covers exactly two dropped hellos")
    if kind is AttackKind.MODIFY_CLIENT_HELLO_VERSION and attack.target_version is not TlsVersion.TLS10:
        raise ValueError("the model covers version rewrites to TLS 1.0 only")
    if mode is Mode.STRICT and kind is AttackKind.DROP_CLIENT_HELLO:
        return HandshakeResult.ABORTED_BY_CLIENT
    # From here the attacker pushes the server towards TLS 1.0.
    tls10 = forced or TlsVersion.TLS10 in profile.supported_versions
    if mode is Mode.STRICT:
        return HandshakeResult.ABORTED_BY_CLIENT if tls10 else HandshakeResult.ABORTED_BY_SERVER
    return HandshakeResult.ESTABLISHED if tls10 else HandshakeResult.ABORTED_BY_SERVER


class Expect(NamedTuple):
    """Expected outcome of one contact."""

    mode: Mode
    reason: Reason
    action: StoreAction
    config: EffectiveTlsConfig
    result: HandshakeResult
    spans: frozenset


class CacheModel:
    """The client's policy cache as README describes it.

    The workloads' dates keep every record active and every tombstone live
    at their clock, so nothing expires here.
    """

    def __init__(self):
        self.entries: dict[str, PolicyRecord] = {}
        self.tombs: dict[str, tuple] = {}

    def state(self) -> tuple[dict, dict]:
        return dict(self.entries), dict(self.tombs)

    def answered(self, domain: str, record: PolicyRecord):
        """A validly signed answer carrying exactly one active record."""
        spans = CONTACT_SPANS | VERIFY_SPANS | {"policy.parse", "policy.status", "store.update"}
        action = self._update(domain, record)
        if record.revoke:
            return Mode.DEFAULT, Reason.REVOKED, action, spans
        if action is not StoreAction.REJECTED_STALE:
            return Mode.STRICT, Reason.OK, action, spans
        # A replay: a fresher cached entry keeps governing; with none left
        # the domain revoked and the replay is the revoked policy.
        spans |= {"store.get_exact"}
        if domain in self.entries:
            return Mode.STRICT, Reason.DROP_ALARM, action, spans
        return Mode.DEFAULT, Reason.REVOKED, action, spans

    def absent(self, domain: str):
        """NoRecord or NoSuchDomain."""
        return self._unusable(domain, Reason.NO_RECORD, CONTACT_SPANS)

    def failed(self, domain: str, reason: Reason):
        """An answer that fails verification (bad signature, two records)."""
        spans = CONTACT_SPANS | VERIFY_SPANS
        if reason is Reason.AMBIGUOUS_RECORDS:
            spans |= {"policy.parse"}
        return self._unusable(domain, reason, spans)

    def _unusable(self, domain, reason, spans):
        spans |= {"store.observe_absence"}
        if domain in self.entries:
            return Mode.STRICT, Reason.DROP_ALARM, StoreAction.DROP_ALARM, spans | {"store.get_exact"}
        spans |= {"store.lookup"}
        labels = domain.split(".")
        for i in range(1, len(labels)):
            parent = self.entries.get(".".join(labels[i:]))
            if parent is not None and parent.include_sub_domain:
                # An opted-in ancestor governs; an unusable own answer
                # under it is treated as interference.
                governed = Reason.OK if reason is Reason.NO_RECORD else Reason.DROP_ALARM
                return Mode.STRICT, governed, StoreAction.UNCHANGED, spans
        return Mode.DEFAULT, reason, StoreAction.UNCHANGED, spans

    def _update(self, domain: str, record: PolicyRecord) -> StoreAction:
        """validFrom must move forward; a revocation leaves a tombstone."""
        tomb = self.tombs.get(domain)
        if tomb is not None:
            if record.valid_from <= tomb[0]:
                return StoreAction.REJECTED_STALE
            if record.revoke:
                self.tombs[domain] = (record.valid_from, record.valid_to)
                return StoreAction.UNCHANGED
            del self.tombs[domain]
            self.entries[domain] = record
            return StoreAction.STORED_NEW
        entry = self.entries.get(domain)
        if entry is None:
            if record.revoke:
                return StoreAction.UNCHANGED
            self.entries[domain] = record
            return StoreAction.STORED_NEW
        if record.valid_from > entry.valid_from:
            if record.revoke:
                del self.entries[domain]
                self.tombs[domain] = (record.valid_from, record.valid_to)
                return StoreAction.REVOKED_DELETED
            self.entries[domain] = record
            return StoreAction.REPLACED
        if record == entry:
            return StoreAction.UNCHANGED
        return StoreAction.REJECTED_STALE


def expect(outcome, profile: ServerProfile, attack: AttackerStrategy) -> Expect:
    """Complete a cache-model outcome with the configuration and handshake."""
    mode, reason, action, spans = outcome
    return Expect(mode, reason, action, CONFIGS[mode], expected_result(mode, profile, attack), spans)
