"""DNS-advertised strict TLS configuration policies.

Domain owners publish a signed policy record in DNS; clients verify it,
cache it, and enforce a strict TLS configuration (latest version, forward
secrecy plus authenticated encryption, no fallback) for advertising domains,
falling back to permissive defaults everywhere else.
"""

from .policy import (
    PolicyRecord,
    PolicyStatus,
    parse_policy,
    policy_status,
    serialize_policy,
)
from .dnssec import (
    DnsResponse,
    Disposition,
    SignedRRset,
    TrustAnchor,
    TrustAnchorSet,
    VerifyStatus,
    ZoneKeyPair,
    ZoneStore,
    canonical_form,
    resolve,
    sign_rrset,
    verify_rrset,
)
from .store import PolicyStore, StoreAction, StoredPolicy, Tombstone
from .enforcement import (
    ClientCapabilities,
    DEFAULT_CLIENT,
    EffectiveTlsConfig,
    Mode,
    PolicyDecision,
    Reason,
    SuiteLabel,
    TlsVersion,
    apply,
    classify_ciphersuite,
    decide,
)
from .handshake import (
    AttackerStrategy,
    HandshakeOutcome,
    HandshakeResult,
    ServerProfile,
    run_handshake,
)

__version__ = "0.1.0"
