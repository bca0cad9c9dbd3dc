import base64
import re
from dataclasses import replace
from datetime import date, timedelta

import pytest
from cryptography.hazmat.primitives import serialization
from cryptography.hazmat.primitives.asymmetric import ec, ed25519, rsa
from hypothesis import given, settings, strategies as st

from dstc.dnssec import (
    MIN_KEY_BITS,
    Disposition,
    DnsResponse,
    SignedRRset,
    TrustAnchor,
    TrustAnchorSet,
    VerifyStatus,
    ZoneFileError,
    ZoneKeyPair,
    ZoneStore,
    canonical_form,
    normalize_domain,
    resolve,
    sign_rrset,
    verify_rrset,
)

INCEPTION = date(2018, 5, 1)
EXPIRATION = date(2019, 5, 1)
VALUES = ["name=DSTC; rest=stub", "v=spf1 -all"]


@pytest.fixture
def rrset(zone_keys):
    return sign_rrset(zone_keys, "tls12.test", VALUES, INCEPTION, EXPIRATION)


def test_canonical_form_ignores_value_order():
    a = canonical_form("example.com", ["aaa", "bbb"], INCEPTION, EXPIRATION)
    b = canonical_form("example.com", ["bbb", "aaa"], INCEPTION, EXPIRATION)
    assert a == b


def test_canonical_form_ignores_name_case():
    a = canonical_form("Example.COM", VALUES, INCEPTION, EXPIRATION)
    b = canonical_form("example.com", VALUES, INCEPTION, EXPIRATION)
    assert a == b


def test_canonical_form_sensitive_to_content():
    base = canonical_form("example.com", ["aaa", "bbb"], INCEPTION, EXPIRATION)
    assert canonical_form("example.com", ["aab", "bbb"], INCEPTION, EXPIRATION) != base
    assert canonical_form("example.org", ["aaa", "bbb"], INCEPTION, EXPIRATION) != base
    assert canonical_form("example.com", ["aaa"], INCEPTION, EXPIRATION) != base
    assert (
        canonical_form("example.com", ["aaa", "bbb"], INCEPTION, date(2019, 5, 2))
        != base
    )


def test_canonical_form_unambiguous_value_boundaries():
    # length prefixes keep ("ab","c") distinct from ("a","bc")
    a = canonical_form("example.com", ["ab", "c"], INCEPTION, EXPIRATION)
    b = canonical_form("example.com", ["a", "bc"], INCEPTION, EXPIRATION)
    assert a != b


def test_sign_verify_round_trip(zone_keys, rrset, now):
    assert verify_rrset(zone_keys.public_key, rrset, now) is VerifyStatus.VALID


def test_wrong_key_rejected(other_keys, rrset, now):
    assert (
        verify_rrset(other_keys.public_key, rrset, now)
        is VerifyStatus.INVALID_SIGNATURE
    )


def test_signature_window(zone_keys, rrset):
    assert (
        verify_rrset(zone_keys.public_key, rrset, date(2019, 5, 2))
        is VerifyStatus.SIGNATURE_EXPIRED
    )
    assert (
        verify_rrset(zone_keys.public_key, rrset, date(2018, 4, 30))
        is VerifyStatus.SIGNATURE_NOT_YET_VALID
    )
    # window boundaries are inclusive
    assert verify_rrset(zone_keys.public_key, rrset, INCEPTION) is VerifyStatus.VALID
    assert verify_rrset(zone_keys.public_key, rrset, EXPIRATION) is VerifyStatus.VALID


def test_signing_rejects_inverted_window(zone_keys):
    with pytest.raises(ValueError):
        sign_rrset(zone_keys, "a.test", ["x"], EXPIRATION, INCEPTION)


def test_signature_tamper_sweep(zone_keys, rrset, now):
    # flipping any single signature byte must break verification
    for index in range(len(rrset.signature)):
        sig = bytearray(rrset.signature)
        sig[index] ^= 0x01
        tampered = replace(rrset, signature=bytes(sig))
        assert (
            verify_rrset(zone_keys.public_key, tampered, now)
            is VerifyStatus.INVALID_SIGNATURE
        ), f"byte {index}"


def test_value_tamper_sweep(zone_keys, now):
    rrset = sign_rrset(zone_keys, "t.test", ["abcd"], INCEPTION, EXPIRATION)
    for index in range(4):
        value = bytearray(b"abcd")
        value[index] ^= 0x01
        tampered = replace(rrset, values=(value.decode(),))
        assert (
            verify_rrset(zone_keys.public_key, tampered, now)
            is VerifyStatus.INVALID_SIGNATURE
        )


def test_add_modify_delete_all_break_the_signature(zone_keys, now):
    # the three record-level manipulations, via the attacker API
    def fresh_zone():
        zone = ZoneStore()
        zone.publish(sign_rrset(zone_keys, "t.test", VALUES, INCEPTION, EXPIRATION))
        return zone

    zone = fresh_zone()
    zone.attacker_add_txt_value("t.test", "injected")
    assert (
        verify_rrset(zone_keys.public_key, zone.rrset_for("t.test"), now)
        is VerifyStatus.INVALID_SIGNATURE
    )

    zone = fresh_zone()
    zone.attacker_modify_txt_value("t.test", 0, "changed")
    assert (
        verify_rrset(zone_keys.public_key, zone.rrset_for("t.test"), now)
        is VerifyStatus.INVALID_SIGNATURE
    )

    zone = fresh_zone()
    zone.attacker_delete_txt_value("t.test", 1)
    assert (
        verify_rrset(zone_keys.public_key, zone.rrset_for("t.test"), now)
        is VerifyStatus.INVALID_SIGNATURE
    )


def test_signature_cannot_be_transplanted(zone_keys, rrset, now):
    # a valid signature re-used for another owner name does not verify
    zone = ZoneStore()
    zone.attacker_replace_rrset("victim.test", rrset)
    assert (
        verify_rrset(zone_keys.public_key, zone.rrset_for("victim.test"), now)
        is VerifyStatus.INVALID_SIGNATURE
    )


def test_rrset_value_order_does_not_matter_for_verification(zone_keys, rrset, now):
    shuffled = replace(rrset, values=tuple(reversed(rrset.values)))
    assert verify_rrset(zone_keys.public_key, shuffled, now) is VerifyStatus.VALID


def test_resolve_dispositions(zone_keys, rrset):
    zone = ZoneStore()
    zone.publish(rrset)
    zone.register_name("empty.test")

    answered = resolve(zone, "TLS12.test.")
    assert answered.disposition is Disposition.ANSWERED
    assert answered.rrset == rrset
    assert resolve(zone, "empty.test").disposition is Disposition.NO_RECORD
    assert resolve(zone, "nope.test").disposition is Disposition.NO_SUCH_DOMAIN


def test_dropped_rrset_leaves_name_known(zone_keys, rrset):
    zone = ZoneStore()
    zone.publish(rrset)
    zone.attacker_drop_rrset("tls12.test")
    assert resolve(zone, "tls12.test").disposition is Disposition.NO_RECORD


def test_dns_response_invariant():
    with pytest.raises(ValueError):
        DnsResponse(Disposition.ANSWERED, None)
    with pytest.raises(ValueError):
        DnsResponse(
            Disposition.NO_RECORD,
            SignedRRset("a.test", ("v",), b"", "-", INCEPTION, EXPIRATION),
        )


def test_zone_file_round_trip(zone_keys, rrset, now):
    zone = ZoneStore()
    zone.publish(rrset)
    zone.publish(sign_rrset(zone_keys, "other.test", ["x"], INCEPTION, EXPIRATION))
    zone.register_name("bare.test")

    text = zone.to_text()
    reloaded = ZoneStore.from_text(text)
    assert reloaded.to_text() == text
    # Record sets in name order, then the names without one; no KEY lines.
    kinds = [line.split()[1] for line in text.splitlines()]
    assert kinds == ["TXT", "SIG", "TXT", "TXT", "SIG", "NAME"]
    assert resolve(reloaded, "bare.test").disposition is Disposition.NO_RECORD
    assert (
        verify_rrset(zone_keys.public_key, reloaded.rrset_for("tls12.test"), now)
        is VerifyStatus.VALID
    )


def test_publish_files_a_record_set_under_its_normalised_owner(zone_keys, rrset, now):
    zone = ZoneStore()
    zone.publish(replace(rrset, owner_name="TLS12.Test."))
    answer = resolve(zone, "tls12.test")
    assert answer.disposition is Disposition.ANSWERED
    assert answer.rrset.owner_name == "tls12.test"
    assert verify_rrset(zone_keys.public_key, answer.rrset, now) is VerifyStatus.VALID
    text = zone.to_text()
    assert ZoneStore.from_text(text).to_text() == text


def test_zone_file_unsigned_rrset_round_trip(zone_keys):
    zone = ZoneStore()
    zone.attacker_add_txt_value("victim.test", "forged")
    text = zone.to_text()
    reloaded = ZoneStore.from_text(text)
    assert reloaded.to_text() == text
    assert reloaded.rrset_for("victim.test").signature == b""


@pytest.mark.parametrize("line", [
    "garbage",
    'a.test TXT unquoted',
    "a.test SIG zsk-1 01-05-2018 01-05-2019",       # missing signature field
    "a.test SIG zsk-1 2018-05-01 01-05-2019 AAAA",  # bad date shape
    "a.test SIG zsk-1 01-05-2018 01-05-2019 !!!!",  # invalid base64
    "a.test TXT",                                   # missing value
    "a.test NAME",                                  # NAME without its -
    "a.test NAME x y z",
    "a.test NAME x",
])
def test_zone_file_rejects_corrupt_lines(line):
    with pytest.raises(ZoneFileError, match="^line 1: "):
        ZoneStore.from_text(line + "\n")


def test_zone_file_names_a_missing_txt_value():
    with pytest.raises(ZoneFileError, match="^line 2: TXT line is missing its value$"):
        ZoneStore.from_text('a.test TXT "x"\na.test TXT\n')


EMPTIED = "a.test: record set has no TXT values"


@pytest.mark.parametrize("mutate, entry", [
    (lambda zone: zone.attacker_add_txt_value("a.test", 'say "hi"'), "a.test"),
    (lambda zone: zone.attacker_add_txt_value("a.test", "x\ny"), "a.test"),
    (lambda zone: zone.attacker_add_txt_value("a.test", "x\ry"), "a.test"),
    (lambda zone: zone.attacker_add_txt_value("a.test", "x\u2028y"), "a.test"),
    (lambda zone: zone.attacker_add_txt_value("a b.test", "x"), "a b.test"),
    (lambda zone: zone.register_name("a b.test"), "a b.test"),
    (lambda zone: zone.register_name("#a.test"), "#a.test"),
    (lambda zone: zone.publish(
        SignedRRset("a.test", ("x",), b"sig", "zsk 1", INCEPTION, EXPIRATION)), "zsk 1"),
    # A set emptied by the attacker: a bare SIG line would not load, and no
    # line at all would turn the answered name into NXDOMAIN.
    (lambda zone: [zone.publish(SignedRRset("a.test", ("x",), b"sig", "zsk-1", INCEPTION,
                                            EXPIRATION)),
                   zone.attacker_delete_txt_value("a.test", 0)], EMPTIED),
    (lambda zone: [zone.attacker_add_txt_value("a.test", "x"),
                   zone.attacker_delete_txt_value("a.test", 0)], EMPTIED),
], ids=["quote", "newline", "carriage-return", "line-separator", "txt-name-space",
        "name-space", "name-comment", "key-id-space", "signed-emptied", "unsigned-emptied"])
def test_zone_writer_refuses_what_the_reader_cannot_read(mutate, entry):
    zone = ZoneStore()
    mutate(zone)
    with pytest.raises(ZoneFileError, match=re.escape(entry)):
        zone.to_text()


@pytest.mark.parametrize("apex, key_id, entry", [
    ("a b.test", "zsk-1", "a b.test"),
    ("#a.test", "zsk-1", "#a.test"),
    ("a.test", "zsk 1", "zsk 1"),
    ("a.test", "", "key id ''"),
])
def test_anchor_writer_refuses_what_the_reader_cannot_read(zone_keys, apex, key_id, entry):
    anchors = TrustAnchorSet()
    anchors.add(TrustAnchor(apex, key_id, zone_keys.public_der()))
    with pytest.raises(ZoneFileError, match=re.escape(entry)):
        anchors.to_text()


def test_zone_file_rejects_sig_without_txt():
    with pytest.raises(ZoneFileError):
        ZoneStore.from_text("a.test SIG zsk-1 01-05-2018 01-05-2019 AAAA\n")


@pytest.mark.parametrize("order", [
    lambda txt, sig: txt + [sig],
    lambda txt, sig: [sig] + txt,
    lambda txt, sig: txt[:1] + [sig] + txt[1:],
    lambda txt, sig: ["TLS12.test. NAME -", sig] + txt,
    lambda txt, sig: txt + [sig, "tls12.test NAME -"],
], ids=["txt-first", "sig-first", "sig-between", "name-then-sig-first", "name-last"])
def test_zone_reader_builds_the_same_set_in_any_line_order(zone_keys, rrset, now, order):
    written = ZoneStore()
    written.publish(rrset)
    text = written.to_text()
    *txt, sig = text.splitlines()
    zone = ZoneStore.from_text("\n".join(order(txt, sig)) + "\n")
    loaded = zone.rrset_for("tls12.test")
    assert loaded == rrset
    assert verify_rrset(zone_keys.public_key, loaded, now) is VerifyStatus.VALID
    assert zone.to_text() == text


@pytest.mark.parametrize("text, first", [
    ("b.test SIG zsk-1 01-05-2018 01-05-2019 AAAA\n"
     "a.test SIG zsk-1 01-05-2018 01-05-2019 AAAA\n", "b.test"),
    ("a.test SIG zsk-1 01-05-2018 01-05-2019 AAAA\n"
     "b.test SIG zsk-1 01-05-2018 01-05-2019 AAAA\n", "a.test"),
    ("c.test SIG zsk-1 01-05-2018 01-05-2019 AAAA\n"
     "b.test SIG zsk-1 01-05-2018 01-05-2019 AAAA\n"
     "a.test SIG zsk-1 01-05-2018 01-05-2019 AAAA\n"
     'c.test TXT "x"\n', "b.test"),
], ids=["b-then-a", "a-then-b", "first-has-txt-later"])
def test_sig_without_txt_names_the_first_such_name_in_file_order(text, first):
    with pytest.raises(ZoneFileError, match=f"^SIG without TXT values for {re.escape(first)}$"):
        ZoneStore.from_text(text)


NAME_ONLY = "tls12.test NAME -\n"
SIGNED = tuple(sorted(VALUES))


@pytest.mark.parametrize("text, change, disposition, values", [
    (NAME_ONLY, lambda z, r: z.register_name("TLS12.test"), Disposition.NO_RECORD, None),
    (NAME_ONLY, lambda z, r: z.publish(r), Disposition.ANSWERED, SIGNED),
    (NAME_ONLY, lambda z, r: z.attacker_drop_rrset("tls12.test"), Disposition.NO_RECORD, None),
    (NAME_ONLY, lambda z, r: z.attacker_add_txt_value("tls12.test", "forged"),
     Disposition.ANSWERED, ("forged",)),
    ("", lambda z, r: z.register_name("TLS12.test"), Disposition.NO_RECORD, None),
    ("", lambda z, r: z.publish(r), Disposition.ANSWERED, SIGNED),
    ("", lambda z, r: z.attacker_drop_rrset("tls12.test"), Disposition.NO_SUCH_DOMAIN, None),
    ("", lambda z, r: z.attacker_add_txt_value("tls12.test", "forged"),
     Disposition.ANSWERED, ("forged",)),
], ids=[f"{start}-{op}" for start in ("name-only", "absent") for op in (
    "register_name", "publish", "attacker_drop_rrset", "attacker_add_txt_value")])
@pytest.mark.parametrize("reload", [False, True], ids=["in-memory", "round-trip"])
def test_owner_and_attacker_changes_give_the_slot_disposition(
    rrset, text, change, disposition, values, reload
):
    zone = ZoneStore.from_text(text)
    change(zone, rrset)
    if reload:
        zone = ZoneStore.from_text(zone.to_text())
    answer = resolve(zone, "tls12.test")
    assert answer.disposition is disposition
    assert (answer.rrset and answer.rrset.values) == values
    assert resolve(zone, "other.test").disposition is Disposition.NO_SUCH_DOMAIN


@pytest.mark.parametrize("change", [
    lambda zone: zone.attacker_modify_txt_value("tls12.test", 0, "x"),
    lambda zone: zone.attacker_delete_txt_value("tls12.test", 0),
    lambda zone: zone.attacker_tamper_signature("tls12.test"),
], ids=["modify", "delete", "tamper"])
@pytest.mark.parametrize("text", ["", NAME_ONLY], ids=["absent", "name-only"])
def test_rewriting_a_missing_set_raises_key_error_and_changes_nothing(change, text):
    zone = ZoneStore.from_text(text)
    before = zone.to_text()
    with pytest.raises(KeyError):
        change(zone)
    assert zone.to_text() == before


def test_normalize_domain():
    assert normalize_domain("WWW.Example.COM.") == "www.example.com"


def test_trust_anchor_longest_suffix_lookup(zone_keys, other_keys):
    anchors = TrustAnchorSet()
    anchors.add(TrustAnchor("example.com", "zsk-1", zone_keys.public_der()))
    anchors.add(TrustAnchor("sub.example.com", "zsk-2", other_keys.public_der()))

    assert anchors.lookup("example.com").key_id == "zsk-1"
    assert anchors.lookup("www.example.com").key_id == "zsk-1"
    assert anchors.lookup("sub.example.com").key_id == "zsk-2"
    assert anchors.lookup("deep.sub.example.com").key_id == "zsk-2"
    assert anchors.lookup("other.org") is None
    # suffix match respects label boundaries
    assert anchors.lookup("notexample.com") is None


def test_trust_anchor_file_round_trip(zone_keys):
    anchors = TrustAnchorSet()
    anchors.add(TrustAnchor("example.com", "zsk-1", zone_keys.public_der()))
    text = anchors.to_text()
    reloaded = TrustAnchorSet.from_text(text)
    assert reloaded.to_text() == text
    assert reloaded.lookup("example.com").public_key_der == zone_keys.public_der()


def test_trust_anchor_file_rejects_bad_lines():
    with pytest.raises(ZoneFileError):
        TrustAnchorSet.from_text("example.com zsk-1\n")
    with pytest.raises(ZoneFileError):
        TrustAnchorSet.from_text("example.com zsk-1 bm90LWEta2V5\n")
    # a well-formed key of an algorithm the library does not know
    with pytest.raises(ZoneFileError, match="^line 1: Unknown key type: 1.2.3.4$"):
        TrustAnchorSet.from_text("example.com zsk-1 MAswBQYDKgMEAwIAAA==\n")


@pytest.mark.parametrize("der64", ["bm90LWEta2V5", "MAwwBQYDKgMEAwIAAA=="],
                         ids=["not-der", "short-der"])
def test_trust_anchor_names_a_malformed_key_without_library_text(der64):
    with pytest.raises(ZoneFileError, match="^line 1: not a DER public key$"):
        TrustAnchorSet.from_text(f"example.com zsk-1 {der64}\n")


@pytest.mark.parametrize("private_key", [
    lambda: ec.generate_private_key(ec.SECP256R1()),
    lambda: ed25519.Ed25519PrivateKey.generate(),
], ids=["ec-p256", "ed25519"])
def test_trust_anchor_refuses_a_key_that_is_not_rsa(private_key):
    der = private_key().public_key().public_bytes(
        serialization.Encoding.DER, serialization.PublicFormat.SubjectPublicKeyInfo
    )
    der64 = base64.b64encode(der).decode("ascii")
    with pytest.raises(ZoneFileError, match="^line 1: not an RSA public key$"):
        TrustAnchorSet.from_text(f"example.com zsk-1 {der64}\n")


@pytest.mark.parametrize("text, message", [
    ('. TXT "x"\n', "line 1: name ''"),
    ('a.test TXT "x"\na.test SIG #k 01-05-2018 01-05-2019 AAAA\n', "line 2: key id '#k'"),
], ids=["empty-name", "sig-key-id-comment"])
def test_zone_reader_refuses_what_the_writer_cannot_write(text, message):
    with pytest.raises(ZoneFileError, match=f"^{re.escape(message)} cannot be written as one field$"):
        ZoneStore.from_text(text)


@pytest.mark.parametrize("line, message", [
    (". zsk-1 {der}", "line 1: apex ''"),
    ("a.test #k {der}", "line 1: key id '#k'"),
], ids=["empty-apex", "key-id-comment"])
def test_anchor_reader_refuses_what_the_writer_cannot_write(zone_keys, line, message):
    der64 = base64.b64encode(zone_keys.public_der()).decode("ascii")
    with pytest.raises(ZoneFileError, match=f"^{re.escape(message)} cannot be written as one field$"):
        TrustAnchorSet.from_text(line.format(der=der64) + "\n")


@pytest.mark.parametrize("reader, lines, message", [
    (ZoneStore, ['a.test TXT "x"', "a.test SIG zsk-1 01-05-2018 01-05-2019 AAAA",
                 "A.test. SIG zsk-1 01-05-2018 01-05-2019 AAAA"], "duplicate SIG for a.test"),
    (TrustAnchorSet, ["a.test zsk-1 {der}", "A.test. zsk-2 {der}"], "duplicate anchor for a.test"),
], ids=["zone-sig", "anchor-apex"])
def test_reader_refuses_a_duplicate_key_on_the_line_that_repeats_it(
    zone_keys, reader, lines, message
):
    der64 = base64.b64encode(zone_keys.public_der()).decode("ascii")
    text = "# header\n" + "\n".join(lines).format(der=der64) + "\n"
    with pytest.raises(ZoneFileError, match=f"^line {len(lines) + 1}: {message}$"):
        reader.from_text(text)


@pytest.mark.parametrize("text, lineno", [
    ('a.test TXT "x"y"\n', 1),
    ('\n# comment\n\na.test TXT "ok"\nb.test TXT ""inner"\n', 5),
])
def test_zone_file_rejects_inner_quote(text, lineno):
    with pytest.raises(ZoneFileError, match=f"line {lineno}: .*inner quote"):
        ZoneStore.from_text(text)


def test_trust_anchor_refuses_a_key_below_the_floor():
    # A record set signed by this key would verify under the anchor and give Strict/OK.
    weak = ZoneKeyPair("zsk-weak", rsa.generate_private_key(public_exponent=65537, key_size=1024))
    der64 = base64.b64encode(weak.public_der()).decode("ascii")
    message = f"key size 1024 is below the {MIN_KEY_BITS}-bit floor"
    with pytest.raises(ZoneFileError, match=f"^line 2: {message}$"):
        TrustAnchorSet.from_text(f"# anchors\nweak.test zsk-weak {der64}\n")
    with pytest.raises(ZoneFileError, match=f"^{message}$"):
        TrustAnchor("weak.test", "zsk-weak", weak.public_der())


def test_trust_anchor_parses_its_key_once(zone_keys):
    anchor = TrustAnchor("example.com", "zsk-1", zone_keys.public_der())
    assert anchor.public_key() is anchor.public_key()
    assert anchor.public_key() == zone_keys.public_key
    # the parsed key takes no part in equality or hashing
    twin = TrustAnchor("example.com", "zsk-1", zone_keys.public_der())
    assert anchor == twin and hash(anchor) == hash(twin)


def test_trust_anchor_rejects_bad_key_at_construction():
    with pytest.raises(ValueError):
        TrustAnchor("example.com", "zsk-1", b"not-a-key")


def test_resolve_miss_on_large_zone(zone_keys):
    zone = ZoneStore()
    for i in range(100_000):
        zone.register_name(f"d{i}.test")
    zone.publish(sign_rrset(zone_keys, "d7.test", ["x"], INCEPTION, EXPIRATION))

    assert resolve(zone, "d7.test").disposition is Disposition.ANSWERED
    assert resolve(zone, "D99999.test.").disposition is Disposition.NO_RECORD
    assert resolve(zone, "d100000.test").disposition is Disposition.NO_SUCH_DOMAIN
    assert resolve(zone, "d0.test").disposition is Disposition.NO_RECORD
    assert resolve(zone, "ghost.test").disposition is Disposition.NO_SUCH_DOMAIN


# -- verified-answer memo: a repeat verify may skip RSA, never a check --------


class CountingKey:
    """Delegates to a real public key and counts the RSA checks it runs."""

    def __init__(self, key):
        self.key = key
        self.calls = 0

    def verify(self, *args):
        self.calls += 1
        return self.key.verify(*args)


def test_memo_skips_rsa_only_for_an_unchanged_answer(zone_keys, now):
    key = CountingKey(zone_keys.public_key)
    rrset = sign_rrset(zone_keys, "memo-count.test", VALUES, INCEPTION, EXPIRATION)
    assert verify_rrset(key, rrset, now) is VerifyStatus.VALID
    assert verify_rrset(key, rrset, now) is VerifyStatus.VALID
    assert key.calls == 1

    tampered = replace(rrset, values=("changed",))
    assert verify_rrset(key, tampered, now) is VerifyStatus.INVALID_SIGNATURE
    assert key.calls == 2
    # a failed check leaves the slot holding the genuine answer
    assert verify_rrset(key, rrset, now) is VerifyStatus.VALID
    assert key.calls == 2


def test_memo_hit_rejects_every_signature_byte_flip(zone_keys, rrset, now):
    assert verify_rrset(zone_keys.public_key, rrset, now) is VerifyStatus.VALID
    for index in range(len(rrset.signature)):
        sig = bytearray(rrset.signature)
        sig[index] ^= 0x01
        tampered = replace(rrset, signature=bytes(sig))
        assert (
            verify_rrset(zone_keys.public_key, tampered, now)
            is VerifyStatus.INVALID_SIGNATURE
        ), f"byte {index}"
    assert verify_rrset(zone_keys.public_key, rrset, now) is VerifyStatus.VALID


def test_memo_hit_rejects_changed_value_owner_or_date(zone_keys, rrset, now):
    assert verify_rrset(zone_keys.public_key, rrset, now) is VerifyStatus.VALID
    day = timedelta(days=1)
    for tampered in (
        replace(rrset, values=rrset.values[:1]),
        replace(rrset, values=rrset.values + ("injected",)),
        replace(rrset, values=("x" + rrset.values[0],) + rrset.values[1:]),
        replace(rrset, owner_name="victim.test"),
        replace(rrset, inception=INCEPTION - day),
        replace(rrset, expiration=EXPIRATION + day),
    ):
        assert (
            verify_rrset(zone_keys.public_key, tampered, now)
            is VerifyStatus.INVALID_SIGNATURE
        ), tampered


def test_memo_hit_rejects_another_key(zone_keys, other_keys, rrset, now):
    assert verify_rrset(zone_keys.public_key, rrset, now) is VerifyStatus.VALID
    assert (
        verify_rrset(other_keys.public_key, rrset, now)
        is VerifyStatus.INVALID_SIGNATURE
    )
    # an equal key parsed separately is the same key
    reparsed = TrustAnchor("tls12.test", "zsk-1", zone_keys.public_der()).public_key()
    assert verify_rrset(reparsed, rrset, now) is VerifyStatus.VALID


def test_memo_hit_still_checks_the_window(zone_keys, rrset, now):
    assert verify_rrset(zone_keys.public_key, rrset, now) is VerifyStatus.VALID
    assert (
        verify_rrset(zone_keys.public_key, rrset, EXPIRATION + timedelta(days=1))
        is VerifyStatus.SIGNATURE_EXPIRED
    )
    assert (
        verify_rrset(zone_keys.public_key, rrset, INCEPTION - timedelta(days=1))
        is VerifyStatus.SIGNATURE_NOT_YET_VALID
    )
    # a broken signature still wins over a window violation
    sig = bytes([rrset.signature[0] ^ 0x01]) + rrset.signature[1:]
    assert (
        verify_rrset(
            zone_keys.public_key,
            replace(rrset, signature=sig),
            EXPIRATION + timedelta(days=1),
        )
        is VerifyStatus.INVALID_SIGNATURE
    )


def test_memo_keeps_a_restored_answer_verified(zone_keys, now):
    key = CountingKey(zone_keys.public_key)
    zone = ZoneStore()
    zone.publish(sign_rrset(zone_keys, "restored.test", VALUES, INCEPTION, EXPIRATION))
    original = zone.rrset_for("restored.test")
    newer = sign_rrset(
        zone_keys, "restored.test", VALUES, INCEPTION, EXPIRATION + timedelta(days=1)
    )
    for answer, calls in ((original, 1), (newer, 2), (original, 2)):
        zone.attacker_replace_rrset("restored.test", answer)
        rrset = resolve(zone, "restored.test").rrset
        assert verify_rrset(key, rrset, now) is VerifyStatus.VALID
        assert key.calls == calls


def test_replace_files_the_captured_set_or_a_renamed_copy(zone_keys, rrset, now):
    zone = ZoneStore()
    assert verify_rrset(zone_keys.public_key, rrset, now) is VerifyStatus.VALID
    zone.attacker_replace_rrset("TLS12.test.", rrset)
    assert zone.rrset_for("tls12.test") is rrset
    zone.attacker_replace_rrset("victim.test", rrset)
    moved = zone.rrset_for("victim.test")
    assert moved == replace(rrset, owner_name="victim.test")
    # the copy carries no memo of the original's check
    key = CountingKey(zone_keys.public_key)
    assert verify_rrset(key, moved, now) is VerifyStatus.INVALID_SIGNATURE
    assert key.calls == 1


def test_a_set_built_from_a_list_cannot_change_after_verifying(zone_keys, rrset, now):
    values = list(rrset.values)
    built = SignedRRset(
        rrset.owner_name, values, rrset.signature, rrset.key_id, INCEPTION, EXPIRATION
    )
    assert verify_rrset(zone_keys.public_key, built, now) is VerifyStatus.VALID
    values.append("injected")
    assert built.values == rrset.values and hash(built) == hash(rrset)
    with pytest.raises(AttributeError):
        built.values.append("injected")
    # a fresh set holding the changed values fails; the built one kept the signed values
    fresh = replace(rrset, values=tuple(values))
    assert verify_rrset(zone_keys.public_key, fresh, now) is VerifyStatus.INVALID_SIGNATURE
    assert verify_rrset(zone_keys.public_key, built, now) is VerifyStatus.VALID


_NOW = date(2018, 7, 1)
_tampers = st.one_of(
    st.tuples(st.just("signature"), st.integers(0, 255), st.integers(1, 255)),
    st.tuples(st.just("value"), st.integers(0, 3), st.integers(1, 127)),
    st.tuples(st.just("owner"), st.sampled_from(["other.test", "prop.test.x"]), st.none()),
    st.tuples(st.just("inception"), st.integers(-30, 30).filter(bool), st.none()),
    st.tuples(st.just("expiration"), st.integers(-30, 30).filter(bool), st.none()),
    st.tuples(st.just("key"), st.none(), st.none()),
)


def _tamper(rrset, other_key, kind, where, mask):
    key = None
    if kind == "signature":
        sig = bytearray(rrset.signature)
        sig[where] ^= mask
        rrset = replace(rrset, signature=bytes(sig))
    elif kind == "value":
        raw = bytearray(rrset.values[0].encode())
        raw[where] ^= mask
        rrset = replace(rrset, values=(raw.decode(),))
    elif kind == "owner":
        rrset = replace(rrset, owner_name=where)
    elif kind == "inception":
        rrset = replace(rrset, inception=rrset.inception + timedelta(days=where))
    elif kind == "expiration":
        rrset = replace(rrset, expiration=rrset.expiration + timedelta(days=where))
    else:
        key = other_key
    return rrset, key


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(st.none(), _tampers), min_size=1, max_size=12))
def test_memo_never_validates_a_tampered_answer(zone_keys, other_keys, steps):
    # None is the genuine answer; everything else is one tampered variant
    genuine = sign_rrset(zone_keys, "prop.test", ["abcd"], INCEPTION, EXPIRATION)
    for step in steps:
        if step is None:
            status = verify_rrset(zone_keys.public_key, genuine, _NOW)
            assert status is VerifyStatus.VALID
            continue
        tampered, key = _tamper(genuine, other_keys.public_key, *step)
        status = verify_rrset(key or zone_keys.public_key, tampered, _NOW)
        assert status is VerifyStatus.INVALID_SIGNATURE, step


# -- canonical bytes kept on the record set


_ATTACKER_CHANGES = [
    ("add", lambda zone, name: zone.attacker_add_txt_value(name, "injected")),
    ("modify", lambda zone, name: zone.attacker_modify_txt_value(name, 0, "changed")),
    ("delete", lambda zone, name: zone.attacker_delete_txt_value(name, 1)),
    ("signature", lambda zone, name: zone.attacker_tamper_signature(name)),
    ("transplant", lambda zone, name: zone.attacker_replace_rrset(
        "victim.test", zone.rrset_for(name))),
]


@pytest.mark.parametrize("change", [c for _, c in _ATTACKER_CHANGES],
                         ids=[n for n, _ in _ATTACKER_CHANGES])
def test_attacker_change_after_a_verified_answer_is_invalid(zone_keys, now, change):
    zone = ZoneStore()
    zone.publish(sign_rrset(zone_keys, "kept.test", VALUES, INCEPTION, EXPIRATION))
    genuine = zone.rrset_for("kept.test")
    genuine.canonical_bytes()
    assert verify_rrset(zone_keys.public_key, genuine, now) is VerifyStatus.VALID
    change(zone, "kept.test")
    tampered = zone.rrset_for("victim.test") or zone.rrset_for("kept.test")
    assert tampered is not genuine
    assert (
        verify_rrset(zone_keys.public_key, tampered, now)
        is VerifyStatus.INVALID_SIGNATURE
    )


def test_replace_gets_fresh_canonical_bytes(rrset):
    kept = rrset.canonical_bytes()
    assert rrset.canonical_bytes() is kept
    assert kept == canonical_form(rrset.owner_name, rrset.values, INCEPTION, EXPIRATION)
    day = timedelta(days=1)
    for changed in (
        replace(rrset, values=("other",)),
        replace(rrset, owner_name="victim.test"),
        replace(rrset, inception=INCEPTION - day),
        replace(rrset, expiration=EXPIRATION + day),
    ):
        assert changed.canonical_bytes() == canonical_form(
            changed.owner_name, changed.values, changed.inception, changed.expiration
        )
        assert changed.canonical_bytes() != kept
    assert replace(rrset, signature=b"x").canonical_bytes() == kept
    # the kept bytes are no part of equality, hashing or repr
    assert replace(rrset) == rrset and hash(replace(rrset)) == hash(rrset)
    assert "_canonical" not in repr(rrset)


def test_refused_canonical_form_is_never_kept(zone_keys, rrset, now):
    unnamed = replace(rrset, owner_name="")
    for _ in range(2):
        with pytest.raises(ValueError):
            unnamed.canonical_bytes()
        assert (
            verify_rrset(zone_keys.public_key, unnamed, now)
            is VerifyStatus.INVALID_SIGNATURE
        )


# -- a slot holds its name's answer


def _assert_answer_is_current(zone, name):
    """resolve's answer matches the slot as it is now, and is kept while it does."""
    answer = resolve(zone, name)
    if normalize_domain(name) not in zone._names:
        assert answer.disposition is Disposition.NO_SUCH_DOMAIN and answer.rrset is None
        return
    slot = zone.rrset_for(name)
    expected = Disposition.NO_RECORD if slot is None else Disposition.ANSWERED
    assert answer.disposition is expected
    assert answer.rrset is slot
    assert resolve(zone, name) is answer


# Every way to write a slot. A write that refuses the name (KeyError, or an
# index past the values) must leave the answer current as well.
_SLOT_WRITES = {
    "publish": lambda zone, name, rrset: zone.publish(replace(rrset, owner_name=name)),
    "register_name": lambda zone, name, rrset: zone.register_name(name),
    "attacker_add_txt_value": lambda zone, name, rrset: zone.attacker_add_txt_value(name, "x"),
    "attacker_modify_txt_value": lambda zone, name, rrset: zone.attacker_modify_txt_value(
        name, 0, "x"),
    "attacker_delete_txt_value": lambda zone, name, rrset: zone.attacker_delete_txt_value(
        name, 0),
    "attacker_tamper_signature": lambda zone, name, rrset: zone.attacker_tamper_signature(name),
    "attacker_drop_rrset": lambda zone, name, rrset: zone.attacker_drop_rrset(name),
    "attacker_replace_rrset": lambda zone, name, rrset: zone.attacker_replace_rrset(name, rrset),
}
_KEPT_NAMES = ("tls12.test", "empty.test", "absent.test")


def _kept_zone(rrset):
    zone = ZoneStore()
    zone.publish(rrset)
    zone.register_name("empty.test")
    for name in _KEPT_NAMES:
        _assert_answer_is_current(zone, name)
    return zone


@pytest.mark.parametrize("write", list(_SLOT_WRITES.values()), ids=list(_SLOT_WRITES))
@pytest.mark.parametrize("name", _KEPT_NAMES)
def test_no_slot_write_leaves_a_stale_answer(zone_keys, rrset, write, name):
    zone = _kept_zone(rrset)
    other = sign_rrset(zone_keys, name, ["other"], INCEPTION, EXPIRATION)
    try:
        write(zone, name, other)
    except (KeyError, IndexError):
        pass
    for each in _KEPT_NAMES:
        _assert_answer_is_current(zone, each)
    _assert_answer_is_current(zone, "unknown.test")


def test_a_loaded_zone_answers_from_its_slots(rrset):
    zone = ZoneStore.from_text(_kept_zone(rrset).to_text())
    for name in (*_KEPT_NAMES, "unknown.test"):
        _assert_answer_is_current(zone, name)
    assert resolve(zone, "tls12.test").rrset == rrset


_WRITE_SEQUENCES = st.lists(
    st.tuples(st.sampled_from(sorted(_SLOT_WRITES)), st.sampled_from(_KEPT_NAMES),
              st.sampled_from(["genuine", "other"])),
    max_size=12,
)


def _write_each(zone_keys, writes):
    """The kept zone, yielded once and again after each write."""
    genuine = sign_rrset(zone_keys, "tls12.test", VALUES, INCEPTION, EXPIRATION)
    given_sets = {"genuine": genuine, "other": replace(genuine, values=("other",))}
    zone = _kept_zone(genuine)
    yield zone
    for write, name, which in writes:
        try:
            _SLOT_WRITES[write](zone, name, given_sets[which])
        except (KeyError, IndexError):
            pass
        yield zone


@settings(max_examples=60, deadline=None)
@given(_WRITE_SEQUENCES)
def test_resolve_follows_any_sequence_of_slot_writes(zone_keys, writes):
    for zone in _write_each(zone_keys, writes):
        for each in _KEPT_NAMES:
            _assert_answer_is_current(zone, each)


@settings(max_examples=60, deadline=None)
@given(_WRITE_SEQUENCES)
def test_a_zone_file_round_trip_never_changes_an_answer(zone_keys, writes):
    *_, zone = _write_each(zone_keys, writes)
    try:
        text = zone.to_text()
    except ZoneFileError:
        return
    loaded = ZoneStore.from_text(text)
    for name in (*_KEPT_NAMES, "unknown.test"):
        before, after = resolve(zone, name), resolve(loaded, name)
        assert (after.disposition, after.rrset) == (before.disposition, before.rrset), name
