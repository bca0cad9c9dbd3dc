"""Ciphersuite classification and the query-verify-decide-apply pipeline.

A client runs ``decide`` on the DNS answer for a domain, then ``apply`` turns
the decision into a concrete hello configuration: strict mode offers a single
protocol version and only forward-secret AEAD suites with fallback disabled,
default mode offers the whole legacy-compatible range with fallback enabled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import date
from enum import Enum, IntEnum
from functools import lru_cache

from .dnssec import (
    Disposition,
    DnsResponse,
    TrustAnchorSet,
    VerifyStatus,
    normalize_domain,
    verify_rrset,
)
from .policy import (
    MalformedPolicy,
    NotDstc,
    PolicyRecord,
    PolicyStatus,
    parse_policy,
    policy_status,
)
from .store import PolicyStore, StoreAction


class TlsVersion(IntEnum):
    """Protocol versions in negotiation order (wire values give ordering)."""

    SSL30 = 0x0300
    TLS10 = 0x0301
    TLS11 = 0x0302
    TLS12 = 0x0303

    def __str__(self) -> str:
        return VERSION_LABELS[self]

    @classmethod
    def parse(cls, token: str) -> "TlsVersion":
        key = token.strip().lower()
        if key in _VERSION_TOKENS:
            return _VERSION_TOKENS[key]
        raise ValueError(f"unknown TLS version {token!r}")


VERSION_LABELS = {
    TlsVersion.SSL30: "SSL3.0",
    TlsVersion.TLS10: "TLS1.0",
    TlsVersion.TLS11: "TLS1.1",
    TlsVersion.TLS12: "TLS1.2",
}

_VERSION_TOKENS = {
    "ssl3.0": TlsVersion.SSL30,
    "sslv3": TlsVersion.SSL30,
    "ssl3": TlsVersion.SSL30,
    "tls1.0": TlsVersion.TLS10,
    "1.0": TlsVersion.TLS10,
    "tls1.1": TlsVersion.TLS11,
    "1.1": TlsVersion.TLS11,
    "tls1.2": TlsVersion.TLS12,
    "1.2": TlsVersion.TLS12,
}


class SuiteLabel(Enum):
    FS_AE = "FS+AE"
    FS_NONAE = "FS+nonAE"
    NONFS_AE = "nonFS+AE"
    NONFS_NONAE = "nonFS+nonAE"


_FS_PREFIXES = ("ECDHE", "DHE")
_AE_TOKENS = ("GCM", "CCM", "CCM8", "CHACHA20")


def normalize_suite_name(name: str) -> str:
    """Fold case, strip a leading ``TLS_`` and map ``_`` to ``-``. This maps no
    IANA name onto its OpenSSL name: ``TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256``
    gives ``ECDHE-RSA-WITH-AES-128-GCM-SHA256``, not ``ECDHE-RSA-AES128-GCM-SHA256``."""
    s = name.strip().upper()
    if s.startswith("TLS_"):
        s = s[4:]
    return s.replace("_", "-")


@lru_cache(maxsize=4096)
def classify_ciphersuite(name: str) -> SuiteLabel:
    """Label a ciphersuite by forward secrecy and authenticated encryption.

    Forward secrecy: the leading dash-separated token is ECDHE or DHE.
    Authenticated encryption: the name contains GCM, CCM, CCM8, or CHACHA20.
    """
    if not name.strip():
        raise ValueError("ciphersuite name must be non-empty")
    s = normalize_suite_name(name)
    fs = s.split("-", 1)[0] in _FS_PREFIXES
    ae = any(token in s for token in _AE_TOKENS)
    if fs and ae:
        return SuiteLabel.FS_AE
    if fs:
        return SuiteLabel.FS_NONAE
    if ae:
        return SuiteLabel.NONFS_AE
    return SuiteLabel.NONFS_NONAE


class Mode(Enum):
    STRICT = "Strict"
    DEFAULT = "Default"


@dataclass(frozen=True)
class EffectiveTlsConfig:
    """The concrete hello parameters a client will use."""

    versions: tuple[TlsVersion, ...]
    ciphersuites: tuple[str, ...]
    fallback_enabled: bool

    def __post_init__(self):
        # Tuples, so a config run_handshake kept an outcome for cannot change.
        object.__setattr__(self, "versions", tuple(self.versions))
        object.__setattr__(self, "ciphersuites", tuple(self.ciphersuites))


@dataclass(frozen=True)
class ClientCapabilities:
    """What the client implementation can speak at all."""

    latest_version: TlsVersion
    version_floor: TlsVersion
    suite_list: tuple[str, ...]
    # The config apply gives each mode, built once: strict offers the single
    # latest version and the FS+AE subset with fallback off, default every
    # version down to the floor and the full list with fallback on.
    _strict: EffectiveTlsConfig = field(init=False, repr=False, compare=False)
    _default: EffectiveTlsConfig = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # A list would leave the frozen value mutable and unhashable.
        suites = tuple(self.suite_list)
        object.__setattr__(self, "suite_list", suites)
        if self.version_floor > self.latest_version:
            raise ValueError("version floor above latest version")
        strong = tuple(s for s in suites if classify_ciphersuite(s) is SuiteLabel.FS_AE)
        if not strong:
            raise ValueError("suite list carries no FS+AE ciphersuite")
        versions = tuple(
            v for v in sorted(TlsVersion, reverse=True)
            if self.version_floor <= v <= self.latest_version
        )
        object.__setattr__(self, "_strict", EffectiveTlsConfig((self.latest_version,), strong, False))
        object.__setattr__(self, "_default", EffectiveTlsConfig(versions, suites, True))


# Desktop-browser-style TLS 1.2 suite list (3DES left out), 6 of 14 FS+AE.
DEFAULT_CLIENT_SUITES = (
    "ECDHE-ECDSA-AES128-GCM-SHA256",
    "ECDHE-RSA-AES128-GCM-SHA256",
    "ECDHE-ECDSA-CHACHA20-POLY1305",
    "ECDHE-RSA-CHACHA20-POLY1305",
    "ECDHE-ECDSA-AES256-GCM-SHA384",
    "ECDHE-RSA-AES256-GCM-SHA384",
    "ECDHE-ECDSA-AES256-SHA",
    "ECDHE-ECDSA-AES128-SHA",
    "ECDHE-RSA-AES128-SHA",
    "ECDHE-RSA-AES256-SHA",
    "DHE-RSA-AES128-SHA",
    "DHE-RSA-AES256-SHA",
    "AES128-SHA",
    "AES256-SHA",
)

DEFAULT_CLIENT = ClientCapabilities(
    latest_version=TlsVersion.TLS12,
    version_floor=TlsVersion.TLS10,
    suite_list=DEFAULT_CLIENT_SUITES,
)


class Reason(Enum):
    OK = "OK"
    NO_RECORD = "NoRecord"
    INVALID_SIGNATURE = "InvalidSignature"
    SIGNATURE_EXPIRED = "SignatureExpired"
    POLICY_EXPIRED = "PolicyExpired"
    POLICY_NOT_YET_VALID = "PolicyNotYetValid"
    MALFORMED = "Malformed"
    AMBIGUOUS_RECORDS = "AmbiguousRecords"
    REVOKED = "Revoked"
    DROP_ALARM = "DropAlarm"


# Contact-path aliases: no Enum.MEMBER read (README "Kept values").
_ANSWERED = Disposition.ANSWERED
_VERIFY_VALID, _VERIFY_INVALID = VerifyStatus.VALID, VerifyStatus.INVALID_SIGNATURE
_POLICY_EXPIRED, _POLICY_NOT_YET_VALID = PolicyStatus.EXPIRED, PolicyStatus.NOT_YET_VALID
_STORE_DROP_ALARM, _STORE_REJECTED_STALE = StoreAction.DROP_ALARM, StoreAction.REJECTED_STALE
_STRICT, _DEFAULT = Mode.STRICT, Mode.DEFAULT
_REASON_OK = Reason.OK
_REASON_NO_RECORD = Reason.NO_RECORD
_REASON_INVALID_SIGNATURE = Reason.INVALID_SIGNATURE
_REASON_SIGNATURE_EXPIRED = Reason.SIGNATURE_EXPIRED
_REASON_POLICY_EXPIRED = Reason.POLICY_EXPIRED
_REASON_POLICY_NOT_YET_VALID = Reason.POLICY_NOT_YET_VALID
_REASON_MALFORMED = Reason.MALFORMED
_REASON_AMBIGUOUS_RECORDS = Reason.AMBIGUOUS_RECORDS
_REASON_REVOKED = Reason.REVOKED
_REASON_DROP_ALARM = Reason.DROP_ALARM


# Reasons that indicate active interference rather than plain absence or
# operator error; surfaced as a non-zero exit by the CLI.
ATTACK_REASONS = frozenset(
    {Reason.INVALID_SIGNATURE, Reason.DROP_ALARM, Reason.AMBIGUOUS_RECORDS}
)


@dataclass(frozen=True, slots=True)
class PolicyDecision:
    mode: Mode
    reason: Reason
    report_address: str | None = None

    def __post_init__(self):
        if self.mode is _STRICT and self.reason not in (_REASON_OK, _REASON_DROP_ALARM):
            raise ValueError(f"strict mode cannot carry reason {self.reason}")


# A miss takes its members from these, not through EnumMeta.__call__.
_MODES = {mode._value_: mode for mode in Mode}
_REASONS = {reason._value_: reason for reason in Reason}


# Past its bound a cyclic working set never hits (README "Kept values").
@lru_cache(maxsize=1 << 14)
def _interned_decision(mode: str, reason: str, report: str | None) -> PolicyDecision:
    return PolicyDecision(_MODES[mode], _REASONS[reason], report)


def _decision(mode: Mode, reason: Reason, report: str | None) -> PolicyDecision:
    """The one ``PolicyDecision`` for these fields, built and checked on its
    first use. A refused one is never kept, so it raises on every call. The
    key holds the members' values: on 3.10/3.11 an Enum hash is Python code
    (about 140 ns), a str hash is cached."""
    return _interned_decision(mode._value_, reason._value_, report)


def apply(decision: PolicyDecision, caps: ClientCapabilities) -> EffectiveTlsConfig:
    """Materialise the decision against the client's capabilities. Only the
    decision mode matters; ``ClientCapabilities`` built each mode's config."""
    return caps._strict if decision.mode is _STRICT else caps._default


def check_answer(
    response: DnsResponse,
    anchors: TrustAnchorSet,
    domain: str,
    now: date,
) -> tuple[Reason, PolicyRecord | None]:
    """``decide``'s answer checks, in order, without the cache: the first
    failing reason or ``Reason.OK``, with the record for ``OK``,
    ``PolicyExpired`` and ``PolicyNotYetValid`` (else ``None``)."""
    if response.disposition is not _ANSWERED:
        return _REASON_NO_RECORD, None

    rrset = response.rrset
    # A set signed for another name, even under the right key, is no answer
    # for this one. Names are normalised only when they differ as given.
    owner = rrset.owner_name
    if owner != domain and normalize_domain(owner) != normalize_domain(domain):
        return _REASON_INVALID_SIGNATURE, None
    anchor = anchors.lookup(domain)
    if anchor is None or anchor.key_id != rrset.key_id:
        return _REASON_INVALID_SIGNATURE, None
    status = verify_rrset(anchor.public_key(), rrset, now)
    if status is _VERIFY_INVALID:
        return _REASON_INVALID_SIGNATURE, None
    if status is not _VERIFY_VALID:
        # Both window violations surface as an expired-signature decision.
        return _REASON_SIGNATURE_EXPIRED, None

    records = []
    for value in rrset.values:
        try:
            records.append(parse_policy(value))
        except NotDstc:
            continue
        except MalformedPolicy:
            return _REASON_MALFORMED, None
    if not records:
        return _REASON_NO_RECORD, None
    if len(records) > 1:
        return _REASON_AMBIGUOUS_RECORDS, None

    record = records[0]
    status = policy_status(record, now)
    if status is _POLICY_EXPIRED:
        return _REASON_POLICY_EXPIRED, record
    if status is _POLICY_NOT_YET_VALID:
        return _REASON_POLICY_NOT_YET_VALID, record
    return _REASON_OK, record


def decide(
    response: DnsResponse,
    anchors: TrustAnchorSet,
    store: PolicyStore,
    domain: str,
    now: date,
) -> PolicyDecision:
    """Check the answer, then let the cache pick the governing decision.

    Strict/OK requires every check of ``check_answer`` to pass, no revoke
    flag, and a store that accepts or already holds the record. Any failure
    falls back to default with the specific reason, except where the cache
    says the domain must be strict: then the failure is surfaced as a drop
    alarm and strict stays in force.
    """
    reason, record = check_answer(response, anchors, domain, now)
    if reason is not _REASON_OK:
        # No usable record: a live entry of the domain's own raises the
        # alarm, else an opted-in ancestor keeps strict, else default.
        if store.observe_absence(domain, now) is _STORE_DROP_ALARM:
            entry = store.get_exact(domain, now)
            return _decision(_STRICT, _REASON_DROP_ALARM, entry.record.report)
        governing = store.lookup(domain, now)
        if governing is not None:
            # Absence is expected under the ancestor; an unusable answer of
            # the domain's own is treated as interference.
            strict_reason = _REASON_OK if reason is _REASON_NO_RECORD else _REASON_DROP_ALARM
            return _decision(_STRICT, strict_reason, governing.record.report)
        report = None if record is None else record.report
        return _decision(_DEFAULT, reason, report)

    # The store's answer alone picks the outcome. RejectedStale means a valid
    # but outdated record (policy or revocation) was replayed: a fresher
    # cached entry keeps governing, and a tombstone means the domain revoked.
    if store.update(domain, record, now) is _STORE_REJECTED_STALE:
        entry = store.get_exact(domain, now)
        if entry is not None:
            return _decision(_STRICT, _REASON_DROP_ALARM, entry.record.report)
        return _decision(_DEFAULT, _REASON_REVOKED, record.report)
    if record.revoke:
        return _decision(_DEFAULT, _REASON_REVOKED, record.report)
    return _decision(_STRICT, _REASON_OK, record.report)
