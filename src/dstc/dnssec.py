"""Signed TXT record sets in a toy DNS zone.

Zone signing keys are RSA-SHA256 pairs of at least 2048 bits. A signature
covers a canonical byte form of (owner name, type, inception, expiration,
sorted values), so names compare case-insensitively and value order never
matters. Chain-of-trust walking is replaced by a trust-anchor set mapping a
zone apex to the public key a client accepts for that apex and everything
below it.

The zone store keeps one slot per name, holding the name's answer. A name
without a slot does not exist (NXDOMAIN), a NoRecord slot is a name without
TXT data (NODATA, RFC 2308 section 2), and an Answered slot carries the
name's one TXT record set. An answer does not hold the name, so NXDOMAIN and
NODATA are one shared answer each. The store doubles as the attack surface:
``attacker_*`` methods mutate published record sets without the signing
key, exactly as a man-in-the-middle can on plain DNS traffic.

File formats (UTF-8, line oriented, ``#`` comments allowed):

  zone file      <name> TXT "<value>"
                 <name> SIG <key_id> <inception> <expiration> <base64 sig>
                 <name> NAME -
  trust anchors  <zone apex> <key_id> <base64 DER public key>

Dates are dd-mm-yyyy. A TXT set without a SIG line is kept as an unsigned
record set; it can never verify. A set with no TXT values has no form in the
file, so the writer refuses it. Keys come only from the trust anchors: the
zone reader skips the ``KEY <key_id> <base64>`` lines of older zone files,
and the next save drops them.
"""

from __future__ import annotations

import base64
import os
import struct
from dataclasses import dataclass, field, replace
from datetime import date
from enum import Enum
from functools import partial

from cryptography.exceptions import InvalidSignature as _BadSignature, UnsupportedAlgorithm
from cryptography.hazmat.primitives import hashes, serialization
from cryptography.hazmat.primitives.asymmetric import padding, rsa

from .policy import format_policy_date, parse_policy_date
from .textfile import TextFile, check_field, parse_lines

MIN_KEY_BITS = 2048

_PAD = padding.PKCS1v15()
_HASH = hashes.SHA256()

# Sentinel validity window for unsigned record sets loaded from zone files.
_NO_DATE = date.min


class ZoneFileError(ValueError):
    """A zone or trust-anchor file could not be parsed."""


def normalize_domain(name: str) -> str:
    return name.strip().rstrip(".").lower()


_check_field = partial(check_field, ZoneFileError)


def canonical_form(
    owner_name: str,
    values: list[str] | tuple[str, ...],
    inception: date,
    expiration: date,
) -> bytes:
    """Deterministic byte form of a TXT record set, the signing input.

    Values are length-prefixed and sorted by byte order, so logically equal
    sets canonicalise identically regardless of in-memory order or name case.
    """
    if not owner_name:
        raise ValueError("owner name must be non-empty")
    head = b"|".join(
        (
            normalize_domain(owner_name).encode("ascii"),
            b"TXT",
            format_policy_date(inception).encode("ascii"),
            format_policy_date(expiration).encode("ascii"),
        )
    )
    body = b"".join(
        struct.pack(">I", len(raw)) + raw
        for raw in sorted(v.encode("utf-8") for v in values)
    )
    return head + b"|" + body


@dataclass
class ZoneKeyPair:
    """A zone signing key. The public half is derived from the private one."""

    key_id: str
    private_key: rsa.RSAPrivateKey
    public_key: rsa.RSAPublicKey = field(init=False)

    def __post_init__(self):
        self.public_key = self.private_key.public_key()

    @classmethod
    def generate(cls, key_id: str) -> "ZoneKeyPair":
        private = rsa.generate_private_key(public_exponent=65537, key_size=MIN_KEY_BITS)
        return cls(key_id, private)

    def public_der(self) -> bytes:
        return self.public_key.public_bytes(
            serialization.Encoding.DER,
            serialization.PublicFormat.SubjectPublicKeyInfo,
        )

    def save_private_pem(self, path: str) -> None:
        pem = self.private_key.private_bytes(
            serialization.Encoding.PEM,
            serialization.PrivateFormat.PKCS8,
            serialization.NoEncryption(),
        )
        # Owner-only from the start, and never over an existing file.
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o600)
        with os.fdopen(fd, "wb") as fh:
            fh.write(pem)

    @classmethod
    def load_private_pem(cls, path: str, key_id: str) -> "ZoneKeyPair":
        with open(path, "rb") as fh:
            pem = fh.read()
        try:
            private = serialization.load_pem_private_key(pem, password=None)
        except (TypeError, UnsupportedAlgorithm) as exc:
            # TypeError: the key is encrypted and no password is given.
            raise ZoneFileError(f"{path}: cannot load private key ({exc})") from exc
        except ValueError as exc:
            raise ZoneFileError(f"{path}: not a PEM private key") from exc
        if not isinstance(private, rsa.RSAPrivateKey):
            raise ZoneFileError(f"{path}: not an RSA private key")
        if private.key_size < MIN_KEY_BITS:
            raise ValueError(f"{path}: key size below the {MIN_KEY_BITS}-bit floor")
        return cls(key_id, private)


def public_key_from_der(der: bytes) -> rsa.RSAPublicKey:
    try:
        key = serialization.load_der_public_key(der)
    except UnsupportedAlgorithm as exc:
        raise ZoneFileError(str(exc)) from exc
    except ValueError as exc:
        raise ZoneFileError("not a DER public key") from exc
    if not isinstance(key, rsa.RSAPublicKey):
        raise ZoneFileError("not an RSA public key")
    if key.key_size < MIN_KEY_BITS:
        raise ZoneFileError(f"key size {key.key_size} is below the {MIN_KEY_BITS}-bit floor")
    return key


# Slots: setting a memo field never gives a set its own attribute dict.
@dataclass(frozen=True, slots=True)
class SignedRRset:
    """A TXT record set plus its detached signature and validity window."""

    owner_name: str
    values: tuple[str, ...]
    signature: bytes
    key_id: str
    inception: date
    expiration: date
    _canonical: bytes | None = field(default=None, init=False, repr=False, compare=False)
    # The public key whose RSA check this instance passed; see verify_rrset.
    _verified_by: rsa.RSAPublicKey | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        # Both memos assume the values never change, so a list is copied.
        object.__setattr__(self, "values", tuple(self.values))

    def canonical_bytes(self) -> bytes:
        # Built on first call and kept: every field it covers is frozen, and
        # each attacker change makes a new instance through replace(). A
        # refused form (empty or non-ASCII owner) is never kept.
        if self._canonical is None:
            object.__setattr__(
                self,
                "_canonical",
                canonical_form(self.owner_name, self.values, self.inception, self.expiration),
            )
        return self._canonical


class VerifyStatus(Enum):
    VALID = "Valid"
    INVALID_SIGNATURE = "InvalidSignature"
    SIGNATURE_EXPIRED = "SignatureExpired"
    SIGNATURE_NOT_YET_VALID = "SignatureNotYetValid"


def sign_rrset(
    keys: ZoneKeyPair,
    owner_name: str,
    values: list[str] | tuple[str, ...],
    inception: date,
    expiration: date,
) -> SignedRRset:
    """Sign a TXT value set; the result verifies under the pair's public key."""
    if inception > expiration:
        raise ValueError("inception is later than expiration")
    signature = keys.private_key.sign(
        canonical_form(owner_name, values, inception, expiration), _PAD, _HASH
    )
    return SignedRRset(
        owner_name=normalize_domain(owner_name),
        values=tuple(sorted(values, key=lambda v: v.encode("utf-8"))),
        signature=signature,
        key_id=keys.key_id,
        inception=inception,
        expiration=expiration,
    )


def verify_rrset(
    public_key: rsa.RSAPublicKey, rrset: SignedRRset, now: date
) -> VerifyStatus:
    """Check the signature and its validity window.

    A broken signature wins over a window violation, so tampering is reported
    as tampering even on an expired set. The RSA check is skipped only for a
    set that itself passed it under this or an equal key (``replace()`` makes
    a new set); the window is checked on every call.
    """
    try:
        canonical = rrset.canonical_bytes()
        passed = rrset._verified_by
        # None is tested first: comparing it with a key object costs about 2 us.
        if passed is None or (passed is not public_key and passed != public_key):
            public_key.verify(rrset.signature, canonical, _PAD, _HASH)
            object.__setattr__(rrset, "_verified_by", public_key)
    except (_BadSignature, ValueError):
        return _INVALID_SIGNATURE
    if now < rrset.inception:
        return _SIGNATURE_NOT_YET_VALID
    if now > rrset.expiration:
        return _SIGNATURE_EXPIRED
    return _VALID


class Disposition(Enum):
    ANSWERED = "Answered"
    NO_RECORD = "NoRecord"
    NO_SUCH_DOMAIN = "NoSuchDomain"


# Contact-path aliases: no Enum.MEMBER read (README "Kept values").
_VALID = VerifyStatus.VALID
_INVALID_SIGNATURE = VerifyStatus.INVALID_SIGNATURE
_SIGNATURE_EXPIRED = VerifyStatus.SIGNATURE_EXPIRED
_SIGNATURE_NOT_YET_VALID = VerifyStatus.SIGNATURE_NOT_YET_VALID
_ANSWERED = Disposition.ANSWERED


@dataclass(frozen=True, slots=True)
class DnsResponse:
    disposition: Disposition
    rrset: SignedRRset | None = None

    def __post_init__(self):
        if (self.disposition is _ANSWERED) != (self.rrset is not None):
            raise ValueError("rrset must be present exactly when Answered")


_NODATA = DnsResponse(Disposition.NO_RECORD)
_NXDOMAIN = DnsResponse(Disposition.NO_SUCH_DOMAIN)


class ZoneStore(TextFile):
    """All record sets of one zone, plus the attacker's write access.

    One slot per name, holding the name's answer: no slot is NXDOMAIN, the
    shared NoRecord answer is NODATA, and an Answered one carries the name's
    TXT record set. Every write passes through ``_set``, which fills the slot.

    Single-threaded: callers use a store from one thread at a time, and the
    store takes no lock.
    """

    FILE_ERROR = ZoneFileError

    def __init__(self):
        self._names: dict[str, DnsResponse] = {}

    # -- owner-side operations

    def register_name(self, name: str) -> None:
        if normalize_domain(name) not in self._names:
            self._set(name, None)

    def publish(self, rrset: SignedRRset) -> None:
        self._set(rrset.owner_name, rrset)

    def _set(self, name: str, rrset: SignedRRset | None) -> None:
        """Fill the name's slot with its answer: NODATA for None, else the
        set, copied only to rename its owner."""
        name = normalize_domain(name)
        if rrset is not None and name != rrset.owner_name:
            rrset = replace(rrset, owner_name=name)
        self._names[name] = _NODATA if rrset is None else DnsResponse(_ANSWERED, rrset)

    def rrset_for(self, name: str) -> SignedRRset | None:
        answer = self._names.get(normalize_domain(name))
        return None if answer is None else answer.rrset

    def _rewrite(self, name: str, edit, create: bool = False) -> None:
        """Write back the name's set as ``replace(set, **edit(set))``. A name
        without a set raises KeyError, unless ``create`` starts an empty unsigned one."""
        name = normalize_domain(name)
        current = self.rrset_for(name)
        if current is None:
            if not create:
                raise KeyError(name)
            current = SignedRRset(name, (), b"", "-", _NO_DATE, _NO_DATE)
        self._set(name, replace(current, **edit(current)))

    # -- attacker operations: record manipulation without the signing key

    def attacker_add_txt_value(self, name: str, value: str) -> None:
        """Inject a TXT value; creates an unsigned set for a name without one."""
        self._rewrite(name, lambda s: {"values": s.values + (value,)}, create=True)

    def attacker_modify_txt_value(self, name: str, index: int, value: str) -> None:
        def edit(s):
            values = list(s.values)
            values[index] = value
            return {"values": tuple(values)}
        self._rewrite(name, edit)

    def attacker_delete_txt_value(self, name: str, index: int) -> None:
        def edit(s):
            values = list(s.values)
            del values[index]
            return {"values": tuple(values)}
        self._rewrite(name, edit)

    def attacker_tamper_signature(self, name: str, byte_index: int = 0) -> None:
        def edit(s):
            sig = bytearray(s.signature)
            sig[byte_index] ^= 0x01
            return {"signature": bytes(sig)}
        self._rewrite(name, edit)

    def attacker_drop_rrset(self, name: str) -> None:
        """Suppress the TXT set; the name itself stays resolvable."""
        if normalize_domain(name) in self._names:
            self._set(name, None)

    def attacker_replace_rrset(self, name: str, rrset: SignedRRset) -> None:
        """Substitute a captured record set, e.g. replay an old signed one."""
        self._set(name, rrset)

    # -- persistence

    def to_text(self) -> str:
        lines = []
        slots = [(name, answer.rrset) for name, answer in sorted(self._names.items())]
        for name, rrset in slots:
            if rrset is None:
                continue
            _check_field("name", name)
            if not rrset.values:
                raise ZoneFileError(f"{name}: record set has no TXT values")
            for value in rrset.values:
                if '"' in value or len(f'"{value}"'.splitlines()) > 1:
                    raise ZoneFileError(
                        f"{name}: TXT value {value!r} contains a quote or a line break"
                    )
                lines.append(f'{name} TXT "{value}"')
            if rrset.signature:
                sig64 = base64.b64encode(rrset.signature).decode("ascii")
                lines.append(
                    f"{name} SIG {_check_field('key id', rrset.key_id)} "
                    f"{format_policy_date(rrset.inception)} "
                    f"{format_policy_date(rrset.expiration)} {sig64}"
                )
        lines += [f"{_check_field('name', name)} NAME -"
                  for name, rrset in slots if rrset is None]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "ZoneStore":
        zone = cls()
        signed: dict[str, dict] = {}  # SIG fields per name, in file order
        parse_lines(text, partial(zone._parse_line, signed), ZoneFileError)
        for name in signed:
            if not zone.rrset_for(name).values:
                raise ZoneFileError(f"SIG without TXT values for {name}")
        return zone

    def _parse_line(self, signed, line) -> None:
        fields = line.split()
        if fields[0] == "KEY":  # an older zone file's key; trust comes from the anchors
            return
        name = _check_field("name", normalize_domain(fields[0]))
        kind = fields[1] if len(fields) > 1 else ""
        if kind == "TXT":
            if len(fields) < 3:
                raise ZoneFileError("TXT line is missing its value")
            rest = line.split(None, 2)[2]
            if not (rest.startswith('"') and rest.endswith('"') and len(rest) >= 2):
                raise ZoneFileError("TXT value must be double-quoted")
            if '"' in rest[1:-1]:
                raise ZoneFileError("TXT value contains an inner quote")
            self._rewrite(name, lambda s: {"values": s.values + (rest[1:-1],)}, create=True)
        elif kind == "SIG":
            if len(fields) != 6:
                raise ZoneFileError("SIG line needs <key_id> <inception> <expiration> <base64>")
            if name in signed:
                raise ZoneFileError(f"duplicate SIG for {name}")
            signed[name] = {
                "key_id": _check_field("key id", fields[2]),
                "inception": parse_policy_date(fields[3], "inception"),
                "expiration": parse_policy_date(fields[4], "expiration"),
                "signature": base64.b64decode(fields[5], validate=True),
            }
            self._rewrite(name, lambda s: signed[name], create=True)
        elif kind == "NAME":
            if fields[2:] != ["-"]:
                raise ZoneFileError('NAME line must be "<name> NAME -"')
            self.register_name(name)
        else:
            raise ZoneFileError(f"unknown record kind {kind!r}")


def resolve(zone: ZoneStore, name: str) -> DnsResponse:
    """Look up a name's TXT record set in the zone.

    Returns the name's slot: Answered with the signed set, or NoRecord for a
    known name without TXT data. A name without a slot gets the shared
    NoSuchDomain answer; no answer is built.
    """
    return zone._names.get(normalize_domain(name), _NXDOMAIN)


@dataclass(frozen=True)
class TrustAnchor:
    apex: str
    key_id: str
    public_key_der: bytes
    _key: rsa.RSAPublicKey = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # Parsed once here, so a bad key fails at construction.
        object.__setattr__(self, "_key", public_key_from_der(self.public_key_der))

    def public_key(self) -> rsa.RSAPublicKey:
        return self._key


class TrustAnchorSet(TextFile):
    """Out-of-band authenticated zone keys, keyed by zone apex."""

    FILE_ERROR = ZoneFileError

    def __init__(self):
        self._anchors: dict[str, TrustAnchor] = {}

    def add(self, anchor: TrustAnchor) -> None:
        self._anchors[normalize_domain(anchor.apex)] = anchor

    def lookup(self, domain: str) -> TrustAnchor | None:
        """Longest-suffix anchor covering the domain, on label boundaries."""
        labels = normalize_domain(domain).split(".")
        for i in range(len(labels)):
            anchor = self._anchors.get(".".join(labels[i:]))
            if anchor is not None:
                return anchor
        return None

    def to_text(self) -> str:
        lines = []
        for apex in sorted(self._anchors):
            anchor = self._anchors[apex]
            der64 = base64.b64encode(anchor.public_key_der).decode("ascii")
            lines.append(
                f"{_check_field('apex', apex)} {_check_field('key id', anchor.key_id)} {der64}"
            )
        return "\n".join(lines) + "\n"

    def _parse_line(self, line: str) -> None:
        fields = line.split()
        if len(fields) != 3:
            raise ZoneFileError("expected <apex> <key_id> <base64 key>")
        apex = _check_field("apex", normalize_domain(fields[0]))
        if apex in self._anchors:
            raise ZoneFileError(f"duplicate anchor for {apex}")
        der = base64.b64decode(fields[2], validate=True)
        self.add(TrustAnchor(apex, _check_field("key id", fields[1]), der))
