import base64
import gc
import hashlib
import re
import struct
import sys
import time
import weakref
from dataclasses import replace
from datetime import date, timedelta

import pytest
from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives import hashes, serialization
from cryptography.hazmat.primitives.asymmetric import ec, ed25519, padding, rsa
from hypothesis import example, given, settings, strategies as st

from dstc import dnssec
from dstc.enforcement import Mode, Reason, decide
from dstc.policy import PolicyRecord, format_policy_date, serialize_policy
from dstc.store import PolicyStore
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


def _anchor_of(keys):
    return TrustAnchor("test", keys.key_id, keys.public_der())


@pytest.fixture
def zone_anchor(zone_keys):
    return _anchor_of(zone_keys)


@pytest.fixture
def other_anchor(other_keys):
    return _anchor_of(other_keys)


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


def _canonical_form_before(owner_name, values, inception, expiration):
    """The build ``canonical_form`` made before: a joined head, then each
    value packed with struct, sorted over a generator."""
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


def _built(build, *args):
    try:
        return build(*args)
    except Exception as exc:  # the class is compared, not the message
        return type(exc)


_OWNERS = st.one_of(
    st.builds(
        lambda head, labels, tail: head + ".".join(labels) + tail,
        st.sampled_from(["", " ", "\t"]),
        st.lists(st.text(alphabet="aBcDxY-9", min_size=1, max_size=4), min_size=1, max_size=3),
        st.sampled_from(["", ".", " ", ". "]),
    ),
    st.sampled_from(["", "ex\u00e4mple.test", "\u0441\u0430\u0439\u0442.test", ".", " "]),
)
_VALUE_POOL = ["", "v=spf1 -all", "name=DSTC", "caf\u00e9", "\u2603", "a|b"]
_VALUES = st.lists(st.one_of(st.sampled_from(_VALUE_POOL), st.text(max_size=6)), max_size=3)


@settings(max_examples=300, deadline=None)
@given(owner=_OWNERS, values=_VALUES, inception=st.dates(), expiration=st.dates())
def test_canonical_form_gives_the_bytes_of_the_earlier_build(owner, values, inception, expiration):
    args = (owner, values, inception, expiration)
    assert _built(canonical_form, *args) == _built(_canonical_form_before, *args)


@pytest.mark.parametrize("owner", ["", "ex\u00e4mple.test"])
def test_canonical_form_refuses_an_owner_as_before(owner):
    refused = _built(_canonical_form_before, owner, VALUES, INCEPTION, EXPIRATION)
    assert isinstance(refused, type) and issubclass(refused, ValueError)
    assert _built(canonical_form, owner, VALUES, INCEPTION, EXPIRATION) is refused


def test_sign_verify_round_trip(zone_anchor, rrset, now):
    assert verify_rrset(zone_anchor, rrset, now) is VerifyStatus.VALID


def test_wrong_key_rejected(other_anchor, rrset, now):
    assert (
        verify_rrset(other_anchor, rrset, now)
        is VerifyStatus.INVALID_SIGNATURE
    )


def test_signature_window(zone_anchor, rrset):
    assert (
        verify_rrset(zone_anchor, rrset, date(2019, 5, 2))
        is VerifyStatus.SIGNATURE_EXPIRED
    )
    assert (
        verify_rrset(zone_anchor, rrset, date(2018, 4, 30))
        is VerifyStatus.SIGNATURE_NOT_YET_VALID
    )
    # window boundaries are inclusive
    assert verify_rrset(zone_anchor, rrset, INCEPTION) is VerifyStatus.VALID
    assert verify_rrset(zone_anchor, rrset, EXPIRATION) is VerifyStatus.VALID


def test_signing_rejects_inverted_window(zone_keys):
    with pytest.raises(ValueError):
        sign_rrset(zone_keys, "a.test", ["x"], EXPIRATION, INCEPTION)


def test_signature_tamper_sweep(zone_anchor, rrset, now):
    # flipping any single signature byte must break verification
    for index in range(len(rrset.signature)):
        sig = bytearray(rrset.signature)
        sig[index] ^= 0x01
        tampered = replace(rrset, signature=bytes(sig))
        assert (
            verify_rrset(zone_anchor, tampered, now)
            is VerifyStatus.INVALID_SIGNATURE
        ), f"byte {index}"


def test_value_tamper_sweep(zone_anchor, zone_keys, now):
    rrset = sign_rrset(zone_keys, "t.test", ["abcd"], INCEPTION, EXPIRATION)
    for index in range(4):
        value = bytearray(b"abcd")
        value[index] ^= 0x01
        tampered = replace(rrset, values=(value.decode(),))
        assert (
            verify_rrset(zone_anchor, tampered, now)
            is VerifyStatus.INVALID_SIGNATURE
        )


def test_add_modify_delete_all_break_the_signature(zone_anchor, zone_keys, now):
    # the three record-level manipulations, via the attacker API
    def fresh_zone():
        zone = ZoneStore()
        zone.publish(sign_rrset(zone_keys, "t.test", VALUES, INCEPTION, EXPIRATION))
        return zone

    zone = fresh_zone()
    zone.attacker_add_txt_value("t.test", "injected")
    assert (
        verify_rrset(zone_anchor, zone.rrset_for("t.test"), now)
        is VerifyStatus.INVALID_SIGNATURE
    )

    zone = fresh_zone()
    zone.attacker_modify_txt_value("t.test", 0, "changed")
    assert (
        verify_rrset(zone_anchor, zone.rrset_for("t.test"), now)
        is VerifyStatus.INVALID_SIGNATURE
    )

    zone = fresh_zone()
    zone.attacker_delete_txt_value("t.test", 1)
    assert (
        verify_rrset(zone_anchor, zone.rrset_for("t.test"), now)
        is VerifyStatus.INVALID_SIGNATURE
    )


def test_signature_cannot_be_transplanted(zone_anchor, rrset, now):
    # a valid signature re-used for another owner name does not verify
    zone = ZoneStore()
    zone.attacker_replace_rrset("victim.test", rrset)
    assert (
        verify_rrset(zone_anchor, zone.rrset_for("victim.test"), now)
        is VerifyStatus.INVALID_SIGNATURE
    )


def test_rrset_value_order_does_not_matter_for_verification(zone_anchor, rrset, now):
    shuffled = replace(rrset, values=tuple(reversed(rrset.values)))
    assert verify_rrset(zone_anchor, shuffled, now) is VerifyStatus.VALID


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


def test_zone_file_round_trip(zone_anchor, zone_keys, rrset, now):
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
        verify_rrset(zone_anchor, reloaded.rrset_for("tls12.test"), now)
        is VerifyStatus.VALID
    )


def test_publish_files_a_record_set_under_its_normalised_owner(zone_anchor, rrset, now):
    zone = ZoneStore()
    zone.publish(replace(rrset, owner_name="TLS12.Test."))
    answer = resolve(zone, "tls12.test")
    assert answer.disposition is Disposition.ANSWERED
    assert answer.rrset.owner_name == "tls12.test"
    assert verify_rrset(zone_anchor, answer.rrset, now) is VerifyStatus.VALID
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
def test_zone_reader_builds_the_same_set_in_any_line_order(zone_anchor, rrset, now, order):
    written = ZoneStore()
    written.publish(rrset)
    text = written.to_text()
    *txt, sig = text.splitlines()
    zone = ZoneStore.from_text("\n".join(order(txt, sig)) + "\n")
    loaded = zone.rrset_for("tls12.test")
    assert loaded == rrset
    assert verify_rrset(zone_anchor, loaded, now) is VerifyStatus.VALID
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


class _Name(str):
    """A str subclass, as a caller may pass one."""


_ANY_NAMES = st.one_of(
    st.text(max_size=12),
    st.builds(
        lambda head, body, tail: head + body + tail,
        st.sampled_from(["", " ", "\t", "\n "]),
        # Upper and lower case, dots, digits and letters whose lower case
        # differs in length (U+0130) or has no case at all (U+4E2D).
        st.text(alphabet="aBcZ.-9\u00c4\u00e4\u0130\u03a3\u4e2d", max_size=8),
        st.sampled_from(["", ".", "..", " ", ". "]),
    ),
)


@example(name="")
@example(name=_Name(""))
@example(name=_Name("Example.COM."))
@example(name=_Name("example.com"))
@example(name="a.test. .")
@example(name="A.Test.\u00a0. \t")
@settings(max_examples=300, deadline=None)
@given(name=st.one_of(_ANY_NAMES, _ANY_NAMES.map(_Name)))
def test_normalize_domain_strips_and_lower_cases_any_text(name):
    normal = normalize_domain(name)
    # re's \s is str.strip()'s whitespace; trailing whitespace and dots go together.
    assert normal == re.sub(r"[\s.]+\Z", "", name.strip()).lower()
    assert type(normal) is str


@example(name="a.test. .")
@example(name="a.test .\u00a0.")
@settings(max_examples=300, deadline=None)
@given(name=st.text(alphabet="aBcZ.\t\n\r\x0b\x0c \u00a0", max_size=12))
def test_normalize_domain_is_a_fixed_point(name):
    # ``is`` implies n(n(x)) == n(x), and the normal name comes back as itself.
    normal = normalize_domain(name)
    assert normalize_domain(normal) is normal


def test_the_trailing_strip_set_is_the_dot_and_every_whitespace_character():
    whitespace = {c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace()}
    assert sorted(dnssec._TRAILING) == sorted({"."} | whitespace)


def test_normalize_domain_is_linear_in_a_tail_of_dots_and_spaces():
    # A loop that strips one ". " per turn and copies the rest takes
    # seconds on this 1 MiB name.
    name = "A.test" + ". " * (1 << 19)
    start = time.perf_counter()
    assert normalize_domain(name) == "a.test"
    assert time.perf_counter() - start < 0.5


def test_an_owner_with_a_spaced_trailing_dot_verifies_under_its_normal_name(zone_keys, now):
    record = PolicyRecord(valid_from=INCEPTION, valid_to=EXPIRATION, report="admin@a.test")
    zone = ZoneStore()
    rrset = sign_rrset(zone_keys, "a.test. .", [serialize_policy(record)], INCEPTION, EXPIRATION)
    assert rrset.owner_name == "a.test"
    zone.publish(rrset)
    anchors = TrustAnchorSet()
    anchors.add(TrustAnchor("a.test", zone_keys.key_id, zone_keys.public_der()))
    decision = decide(resolve(zone, "a.test"), anchors, PolicyStore(), "a.test", now)
    assert (decision.mode, decision.reason) == (Mode.STRICT, Reason.OK)


@pytest.mark.parametrize("parts", [("tls12", ".test"), ("site0001", ".example"),
                                   ("caf\u00e9", ".test"), ("\u4e2d", ".test"), ("123", "")])
def test_an_already_normal_name_comes_back_as_itself(parts):
    name = "".join(parts)  # built at run time, so no literal is shared by accident
    assert normalize_domain(name) is name


def test_one_name_object_is_every_copy_of_the_name_the_client_keeps(zone_keys, now):
    name = "".join(("tls12", ".test"))
    record = PolicyRecord(valid_from=INCEPTION, valid_to=EXPIRATION, report="admin@tls12.test")
    zone = ZoneStore()
    zone.register_name(name)
    rrset = sign_rrset(zone_keys, name, [serialize_policy(record)], INCEPTION, EXPIRATION)
    zone.publish(rrset)
    store = PolicyStore()
    store.update(name, record, now)
    anchors = TrustAnchorSet()
    anchors.add(TrustAnchor(name, zone_keys.key_id, zone_keys.public_der()))

    (zone_key,) = zone._names
    (slot_key,) = store._slots
    (anchor_key,) = anchors._anchors
    assert rrset.owner_name is name
    assert zone_key is name and resolve(zone, name).rrset is rrset
    assert slot_key is name and store.get_exact(name, now).domain is name
    assert anchor_key is name


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


def _split_join_lookup(anchors, domain):
    """The walk ``lookup`` made before: split the normalised name into
    labels, then join and try each suffix, longest first."""
    labels = normalize_domain(domain).split(".")
    for i in range(len(labels)):
        anchor = anchors._anchors.get(".".join(labels[i:]))
        if anchor is not None:
            return anchor
    return None


# Empty labels give leading, trailing and doubled dots.
_WALK_LABELS = st.text(alphabet="aAeElLmMpPxX-", max_size=3)
_WALK_NAMES = st.builds(
    lambda head, labels, tail: head + ".".join(labels) + tail,
    st.sampled_from(["", " ", "."]),
    st.lists(_WALK_LABELS, max_size=5),
    st.sampled_from(["", ".", "..", " "]),
)


@settings(max_examples=300, deadline=None)
@given(name=_WALK_NAMES, others=st.lists(_WALK_NAMES, max_size=4), data=st.data())
def test_anchor_walk_matches_the_split_join_walk(zone_keys, name, others, data):
    # Anchors at suffixes of the name, on a label boundary or not, and elsewhere.
    normalised = normalize_domain(name)
    cuts = data.draw(st.sets(st.integers(0, len(normalised)), max_size=4))
    anchors = TrustAnchorSet()
    for apex in [normalised[cut:] for cut in cuts] + others:
        anchors.add(TrustAnchor(apex, "zsk-1", zone_keys.public_der()))
    expected = _split_join_lookup(anchors, name)
    # A miss walks and keeps the answer, a second call reads it back, and
    # another spelling of the name is its own key with the same answer.
    respelled = " " + name.upper() + ". "
    for query in (name, name, respelled, respelled):
        assert anchors.lookup(query) is expected


def test_an_added_deeper_apex_answers_a_name_kept_before(zone_keys, other_keys):
    anchors = TrustAnchorSet()
    outer = TrustAnchor("example.com", "zsk-1", zone_keys.public_der())
    anchors.add(outer)
    assert anchors.lookup("www.sub.example.com") is outer
    assert anchors._covering == {"www.sub.example.com": outer}
    deeper = TrustAnchor("sub.example.com", "zsk-2", other_keys.public_der())
    anchors.add(deeper)
    assert anchors._covering == {}
    assert anchors.lookup("www.sub.example.com") is deeper
    assert anchors.lookup("www.example.com") is outer


def test_an_uncovered_name_stays_uncovered_until_an_add_covers_it(zone_keys):
    anchors = TrustAnchorSet()
    anchors.add(TrustAnchor("example.com", "zsk-1", zone_keys.public_der()))
    for _ in range(2):
        assert anchors.lookup("www.other.org") is None
    assert anchors._covering == {"www.other.org": None}
    other = TrustAnchor("other.org", "zsk-1", zone_keys.public_der())
    anchors.add(other)
    assert anchors.lookup("www.other.org") is other


def test_the_covering_table_is_emptied_when_full(zone_keys):
    anchors = TrustAnchorSet()
    anchors.add(TrustAnchor("in.test", "zsk-1", zone_keys.public_der()))
    bound = dnssec._COVERING_BOUND
    assert bound == 1 << 14
    for i in range(2 * bound + 1):
        name = f"n{i}.in.test" if i % 2 else f"n{i}.out.test"
        assert anchors.lookup(name) is _split_join_lookup(anchors, name)
        assert len(anchors._covering) <= bound
    # The last name went into a table emptied just before.
    assert list(anchors._covering) == [name]


def test_a_long_spelling_or_a_str_subclass_is_answered_but_never_kept(zone_keys):
    anchors = TrustAnchorSet()
    anchor = TrustAnchor("in.test", "zsk-1", zone_keys.public_der())
    anchors.add(anchor)
    long_spelling = "www.in.test" + " " * (1 << 20)
    assert len(long_spelling) > 253 and normalize_domain(long_spelling) == "www.in.test"
    just_kept = "www.in.test" + "." * (253 - len("www.in.test"))
    assert len(just_kept) == 253
    for query in (long_spelling, _Name("www.in.test"), _Name("x.out.test")):
        for _ in range(2):
            assert anchors.lookup(query) is _split_join_lookup(anchors, query)
        assert anchors._covering == {}
    assert anchors.lookup(just_kept) is anchor
    assert list(anchors._covering) == [just_kept]


def test_an_anchor_off_a_label_boundary_covers_nothing(zone_keys):
    anchors = TrustAnchorSet()
    ample = TrustAnchor("ample", "zsk-1", zone_keys.public_der())
    anchors.add(ample)
    assert anchors.lookup("example") is None
    assert anchors.lookup("Ex.Example.") is None
    assert anchors.lookup("EX.ample.") is ample
    assert anchors.lookup(".ample") is ample


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


def _anchor_keys(monkeypatch, make_key):
    """Give every TrustAnchor built from now on a key of ``make_key()``."""
    monkeypatch.setattr(dnssec, "public_key_from_der", lambda der: make_key())


def _counting_anchor(monkeypatch, keys):
    """An anchor for ``keys`` whose key counts the RSA checks it runs."""
    _anchor_keys(monkeypatch, lambda: CountingKey(keys.public_key))
    return _anchor_of(keys)


def test_memo_skips_rsa_only_for_an_unchanged_answer(zone_keys, now, monkeypatch):
    anchor = _counting_anchor(monkeypatch, zone_keys)
    key = anchor.public_key()
    rrset = sign_rrset(zone_keys, "memo-count.test", VALUES, INCEPTION, EXPIRATION)
    assert verify_rrset(anchor, rrset, now) is VerifyStatus.VALID
    assert verify_rrset(anchor, rrset, now) is VerifyStatus.VALID
    assert key.calls == 1

    tampered = replace(rrset, values=("changed",))
    assert verify_rrset(anchor, tampered, now) is VerifyStatus.INVALID_SIGNATURE
    assert key.calls == 2
    # a failed check leaves the slot holding the genuine answer
    assert verify_rrset(anchor, rrset, now) is VerifyStatus.VALID
    assert key.calls == 2


def test_memo_hit_rejects_every_signature_byte_flip(zone_anchor, rrset, now):
    assert verify_rrset(zone_anchor, rrset, now) is VerifyStatus.VALID
    for index in range(len(rrset.signature)):
        sig = bytearray(rrset.signature)
        sig[index] ^= 0x01
        tampered = replace(rrset, signature=bytes(sig))
        assert (
            verify_rrset(zone_anchor, tampered, now)
            is VerifyStatus.INVALID_SIGNATURE
        ), f"byte {index}"
    assert verify_rrset(zone_anchor, rrset, now) is VerifyStatus.VALID


def test_memo_hit_rejects_changed_value_owner_or_date(zone_anchor, rrset, now):
    assert verify_rrset(zone_anchor, rrset, now) is VerifyStatus.VALID
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
            verify_rrset(zone_anchor, tampered, now)
            is VerifyStatus.INVALID_SIGNATURE
        ), tampered


def test_memo_hit_rejects_another_key(zone_anchor, other_anchor, zone_keys, rrset, now):
    assert verify_rrset(zone_anchor, rrset, now) is VerifyStatus.VALID
    assert (
        verify_rrset(other_anchor, rrset, now)
        is VerifyStatus.INVALID_SIGNATURE
    )
    # an equal key parsed separately is the same key
    assert verify_rrset(_anchor_of(zone_keys), rrset, now) is VerifyStatus.VALID


def test_memo_hit_still_checks_the_window(zone_anchor, rrset, now):
    assert verify_rrset(zone_anchor, rrset, now) is VerifyStatus.VALID
    assert (
        verify_rrset(zone_anchor, rrset, EXPIRATION + timedelta(days=1))
        is VerifyStatus.SIGNATURE_EXPIRED
    )
    assert (
        verify_rrset(zone_anchor, rrset, INCEPTION - timedelta(days=1))
        is VerifyStatus.SIGNATURE_NOT_YET_VALID
    )
    # a broken signature still wins over a window violation
    sig = bytes([rrset.signature[0] ^ 0x01]) + rrset.signature[1:]
    assert (
        verify_rrset(
            zone_anchor,
            replace(rrset, signature=sig),
            EXPIRATION + timedelta(days=1),
        )
        is VerifyStatus.INVALID_SIGNATURE
    )


def test_memo_keeps_a_restored_answer_verified(zone_keys, now, monkeypatch):
    anchor = _counting_anchor(monkeypatch, zone_keys)
    key = anchor.public_key()
    zone = ZoneStore()
    zone.publish(sign_rrset(zone_keys, "restored.test", VALUES, INCEPTION, EXPIRATION))
    original = zone.rrset_for("restored.test")
    newer = sign_rrset(
        zone_keys, "restored.test", VALUES, INCEPTION, EXPIRATION + timedelta(days=1)
    )
    for answer, calls in ((original, 1), (newer, 2), (original, 2)):
        zone.attacker_replace_rrset("restored.test", answer)
        rrset = resolve(zone, "restored.test").rrset
        assert verify_rrset(anchor, rrset, now) is VerifyStatus.VALID
        assert key.calls == calls


def test_replace_files_the_captured_set_or_a_renamed_copy(
    zone_anchor, zone_keys, rrset, now, monkeypatch
):
    zone = ZoneStore()
    assert verify_rrset(zone_anchor, rrset, now) is VerifyStatus.VALID
    zone.attacker_replace_rrset("TLS12.test.", rrset)
    assert zone.rrset_for("tls12.test") is rrset
    zone.attacker_replace_rrset("victim.test", rrset)
    moved = zone.rrset_for("victim.test")
    assert moved == replace(rrset, owner_name="victim.test")
    # the copy carries no memo of the original's check
    anchor = _counting_anchor(monkeypatch, zone_keys)
    assert verify_rrset(anchor, moved, now) is VerifyStatus.INVALID_SIGNATURE
    assert anchor.public_key().calls == 1


def test_a_set_built_from_a_list_cannot_change_after_verifying(zone_anchor, rrset, now):
    values = list(rrset.values)
    built = SignedRRset(
        rrset.owner_name, values, rrset.signature, rrset.key_id, INCEPTION, EXPIRATION
    )
    assert verify_rrset(zone_anchor, built, now) is VerifyStatus.VALID
    values.append("injected")
    assert built.values == rrset.values and hash(built) == hash(rrset)
    with pytest.raises(AttributeError):
        built.values.append("injected")
    # a fresh set holding the changed values fails; the built one kept the signed values
    fresh = replace(rrset, values=tuple(values))
    assert verify_rrset(zone_anchor, fresh, now) is VerifyStatus.INVALID_SIGNATURE
    assert verify_rrset(zone_anchor, built, now) is VerifyStatus.VALID


_NOW = date(2018, 7, 1)
_tampers = st.one_of(
    st.tuples(st.just("signature"), st.integers(0, 255), st.integers(1, 255)),
    st.tuples(st.just("value"), st.integers(0, 3), st.integers(1, 127)),
    st.tuples(st.just("owner"), st.sampled_from(["other.test", "prop.test.x"]), st.none()),
    st.tuples(st.just("inception"), st.integers(-30, 30).filter(bool), st.none()),
    st.tuples(st.just("expiration"), st.integers(-30, 30).filter(bool), st.none()),
    st.tuples(st.just("key"), st.none(), st.none()),
)


def _tamper(rrset, other_anchor, kind, where, mask):
    anchor = None
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
        anchor = other_anchor
    return rrset, anchor


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(st.none(), _tampers), min_size=1, max_size=12))
def test_memo_never_validates_a_tampered_answer(zone_keys, other_keys, steps):
    # None is the genuine answer; everything else is one tampered variant
    genuine = sign_rrset(zone_keys, "prop.test", ["abcd"], INCEPTION, EXPIRATION)
    zone_anchor, other_anchor = _anchor_of(zone_keys), _anchor_of(other_keys)
    for step in steps:
        if step is None:
            status = verify_rrset(zone_anchor, genuine, _NOW)
            assert status is VerifyStatus.VALID
            continue
        tampered, anchor = _tamper(genuine, other_anchor, *step)
        status = verify_rrset(anchor or zone_anchor, tampered, _NOW)
        assert status is VerifyStatus.INVALID_SIGNATURE, step


# -- the signature memo: one signature per anchor key and signed content


_SHA256_OID = bytes.fromhex("0609608648016503040201")


def _digest_info(digest: bytes, with_null: bool = True) -> bytes:
    """DER DigestInfo for SHA-256, with or without NULL algorithm parameters."""
    algorithm = _SHA256_OID + (b"\x05\x00" if with_null else b"")
    algorithm = b"\x30" + bytes([len(algorithm)]) + algorithm
    octets = b"\x04\x20" + digest
    return b"\x30" + bytes([len(algorithm) + len(octets)]) + algorithm + octets


def _raw_sign(keys: ZoneKeyPair, digest_info: bytes) -> bytes:
    """EMSA-PKCS1-v1_5 pad ``digest_info`` and raise it to the private exponent."""
    numbers = keys.private_key.private_numbers()
    n = numbers.public_numbers.n
    k = (n.bit_length() + 7) // 8
    encoded = b"\x00\x01" + b"\xff" * (k - 3 - len(digest_info)) + b"\x00" + digest_info
    return pow(int.from_bytes(encoded, "big"), numbers.d, n).to_bytes(k, "big")


def test_pkcs1v15_verifies_one_signature_per_key_and_content(zone_keys):
    """The premise of the signature memo (RFC 8017 section 8.2.2): signing is
    deterministic and verifying re-encodes and compares, so once a signature
    passed for a key and a content, every other byte string is refused. If a
    library ever accepts a second encoding, this fails before the memo can
    refuse a signature RSA would pass."""
    public = zone_keys.public_key
    n = public.public_numbers().n
    k = (n.bit_length() + 7) // 8

    def sign(data):
        return zone_keys.private_key.sign(data, padding.PKCS1v15(), hashes.SHA256())

    data = b"memo premise"
    signature = sign(data)
    # The raw construction is the library's own encoding.
    assert _raw_sign(zone_keys, _digest_info(hashlib.sha256(data).digest())) == signature
    assert sign(data) == signature
    refused = [
        (data, _raw_sign(zone_keys, _digest_info(hashlib.sha256(data).digest(), False))),
        (data, b"\x00" + signature),
    ]
    # s + n is the same residue; it must still fit in k bytes. A signature
    # with a leading zero byte gives the stripped form.
    plus_n = stripped = None
    for i in range(1 << 13):
        if plus_n is not None and stripped is not None:
            break
        candidate = b"memo premise %d" % i
        sig = sign(candidate)
        value = int.from_bytes(sig, "big")
        if plus_n is None and value + n < 1 << (8 * k):
            plus_n = (candidate, (value + n).to_bytes(k, "big"))
            assert pow(value + n, 65537, n) == pow(value, 65537, n)
        if stripped is None and sig[0] == 0:
            stripped = (candidate, sig[1:])
    assert plus_n is not None and stripped is not None
    refused += [plus_n, stripped]
    for content, other in refused:
        assert other != sign(content)
        with pytest.raises((InvalidSignature, ValueError)):
            public.verify(other, content, padding.PKCS1v15(), hashes.SHA256())


def _flipped(rrset, index=0, mask=0x01):
    sig = bytearray(rrset.signature)
    sig[index] ^= mask
    return replace(rrset, signature=bytes(sig))


def test_a_forged_copy_of_a_passed_set_runs_no_rsa(zone_keys, rrset, now, monkeypatch):
    anchor = _counting_anchor(monkeypatch, zone_keys)
    key = anchor.public_key()
    assert verify_rrset(anchor, rrset, now) is VerifyStatus.VALID
    assert key.calls == 1
    for index in (0, 1, len(rrset.signature) // 2, len(rrset.signature) - 1):
        forged = _flipped(rrset, index)
        assert verify_rrset(anchor, forged, now) is VerifyStatus.INVALID_SIGNATURE
        # tampering still wins over a window violation
        assert (
            verify_rrset(anchor, forged, EXPIRATION + timedelta(days=1))
            is VerifyStatus.INVALID_SIGNATURE
        )
    for signature in (b"", rrset.signature[:-1], rrset.signature + b"\x00"):
        forged = replace(rrset, signature=signature)
        assert verify_rrset(anchor, forged, now) is VerifyStatus.INVALID_SIGNATURE
    # a fresh copy of the genuine set passes without RSA, window still checked
    assert verify_rrset(anchor, replace(rrset), now) is VerifyStatus.VALID
    assert (
        verify_rrset(anchor, replace(rrset), INCEPTION - timedelta(days=1))
        is VerifyStatus.SIGNATURE_NOT_YET_VALID
    )
    assert key.calls == 1


def test_a_forged_copy_seen_before_the_genuine_set_runs_rsa(zone_keys, rrset, now, monkeypatch):
    anchor = _counting_anchor(monkeypatch, zone_keys)
    key = anchor.public_key()
    for calls in (1, 2):
        # a failed check is never kept
        assert verify_rrset(anchor, _flipped(rrset), now) is VerifyStatus.INVALID_SIGNATURE
        assert key.calls == calls
    assert verify_rrset(anchor, replace(rrset), now) is VerifyStatus.VALID
    assert key.calls == 3
    assert verify_rrset(anchor, _flipped(rrset), now) is VerifyStatus.INVALID_SIGNATURE
    assert key.calls == 3


def test_an_equal_key_parsed_separately_runs_rsa_once(zone_keys, rrset, now, monkeypatch):
    first = _counting_anchor(monkeypatch, zone_keys)
    second = _anchor_of(zone_keys)
    assert first.public_key() is not second.public_key()
    # interleaved: each anchor keeps an entry of its own
    for _ in range(2):
        for anchor in (first, second):
            assert verify_rrset(anchor, replace(rrset), now) is VerifyStatus.VALID
            assert verify_rrset(anchor, _flipped(rrset), now) is VerifyStatus.INVALID_SIGNATURE
            assert anchor.public_key().calls == 1


def test_a_set_verified_under_one_anchor_runs_rsa_once_under_an_equal_one(
    zone_keys, rrset, now, monkeypatch
):
    first = _counting_anchor(monkeypatch, zone_keys)
    second = _anchor_of(zone_keys)
    assert verify_rrset(first, rrset, now) is VerifyStatus.VALID
    # the set's own memo names the first anchor's key object, not an equal one
    assert verify_rrset(second, rrset, now) is VerifyStatus.VALID
    assert verify_rrset(second, rrset, now) is VerifyStatus.VALID
    assert (first.public_key().calls, second.public_key().calls) == (1, 1)


class AcceptingKey(CountingKey):
    """Counts the RSA checks and passes each one, so no set needs signing."""

    def __init__(self):
        super().__init__(None)

    def verify(self, *args):
        self.calls += 1


def test_the_signature_memo_is_bounded_and_forgets_its_oldest_entry(zone_keys, now, monkeypatch):
    _anchor_keys(monkeypatch, AcceptingKey)
    anchor = _anchor_of(zone_keys)
    key = anchor.public_key()
    bound = dnssec._PASSED_BOUND
    sets = [
        SignedRRset(f"n{i}.bound.test", ("v",), b"sig", "k", INCEPTION, EXPIRATION)
        for i in range(bound + 1)
    ]
    for rrset in sets:
        assert verify_rrset(anchor, rrset, now) is VerifyStatus.VALID
        assert len(anchor._passed) <= bound
    assert key.calls == bound + 1
    # the newest entry answers without RSA, a forged copy included
    assert verify_rrset(anchor, replace(sets[-1]), now) is VerifyStatus.VALID
    assert (
        verify_rrset(anchor, replace(sets[-1], signature=b"forged"), now)
        is VerifyStatus.INVALID_SIGNATURE
    )
    assert key.calls == bound + 1
    # the oldest was dropped: RSA runs again
    assert verify_rrset(anchor, replace(sets[0]), now) is VerifyStatus.VALID
    assert key.calls == bound + 2


def _anchored(zone_keys):
    anchors = TrustAnchorSet()
    anchors.add(_anchor_of(zone_keys))
    return anchors


def test_a_dropped_anchor_set_keeps_no_anchor_or_table_alive(zone_keys, rrset, now, monkeypatch):
    _anchor_keys(monkeypatch, lambda: CountingKey(zone_keys.public_key))
    live, dropped = _anchored(zone_keys), _anchored(zone_keys)
    for anchors in (live, dropped):
        anchor = anchors.lookup("tls12.test")
        assert verify_rrset(anchor, replace(rrset), now) is VerifyStatus.VALID
        assert len(anchor._passed) == 1
    gone = weakref.ref(dropped.lookup("tls12.test"))
    del anchors, anchor, dropped
    gc.collect()
    assert gone() is None
    # the live anchor's table is untouched
    anchor = live.lookup("tls12.test")
    assert verify_rrset(anchor, replace(rrset), now) is VerifyStatus.VALID
    assert verify_rrset(anchor, _flipped(rrset), now) is VerifyStatus.INVALID_SIGNATURE
    assert anchor.public_key().calls == 1


def test_replacing_an_apex_anchor_drops_the_old_key_table(zone_keys, rrset, now, monkeypatch):
    _anchor_keys(monkeypatch, lambda: CountingKey(zone_keys.public_key))
    anchors = _anchored(zone_keys)
    old = anchors.lookup("tls12.test")
    assert verify_rrset(old, replace(rrset), now) is VerifyStatus.VALID
    assert len(old._passed) == 1
    # The covering table keeps the old anchor until the add empties it.
    assert anchors._covering == {"tls12.test": old}
    gone = weakref.ref(old)
    del old
    added = _anchor_of(zone_keys)
    anchors.add(added)
    gc.collect()
    assert gone() is None
    new = anchors.lookup("tls12.test")
    assert new is added and anchors._covering == {"tls12.test": added}
    assert new._passed == {}
    assert verify_rrset(new, replace(rrset), now) is VerifyStatus.VALID
    assert new.public_key().calls == 1 and len(new._passed) == 1


def test_each_rekey_round_runs_one_rsa_check_per_set(zone_keys, now, monkeypatch):
    # Two rounds each fill more than half a table under a new anchor, as
    # attack-churn re-keys every pass: no round empties its table.
    _anchor_keys(monkeypatch, AcceptingKey)
    sets = [
        SignedRRset(f"n{i}.rekey.test", ("v",), b"sig", "k", INCEPTION, EXPIRATION)
        for i in range(dnssec._PASSED_BOUND // 2 + 100)
    ]
    for _ in range(2):
        anchor = _anchored(zone_keys).lookup("n0.rekey.test")
        assert anchor._passed == {}
        for rrset in sets:
            assert verify_rrset(anchor, replace(rrset), now) is VerifyStatus.VALID
            forged = replace(rrset, signature=b"forged")
            assert verify_rrset(anchor, forged, now) is VerifyStatus.INVALID_SIGNATURE
        assert anchor.public_key().calls == len(sets)
        assert len(anchor._passed) == len(sets)


def _status_without_memo(public_key, rrset, now):
    """verify_rrset's status with RSA run on every call."""
    try:
        public_key.verify(
            rrset.signature, rrset.canonical_bytes(), padding.PKCS1v15(), hashes.SHA256()
        )
    except (InvalidSignature, ValueError):
        return VerifyStatus.INVALID_SIGNATURE
    if now < rrset.inception:
        return VerifyStatus.SIGNATURE_NOT_YET_VALID
    if now > rrset.expiration:
        return VerifyStatus.SIGNATURE_EXPIRED
    return VerifyStatus.VALID


_CONTENTS = (("abcd",), ("abcd", "efgh"))
_memo_steps = st.lists(
    st.tuples(
        st.integers(0, 2),  # verifying anchor: the first key, it parsed again, the second
        st.integers(0, 1),  # signing key
        st.integers(0, 1),  # content
        st.one_of(
            st.none(),  # the genuine set
            st.tuples(st.just("signature"), st.integers(0, 255), st.integers(1, 255)),
            st.tuples(st.just("values"), st.none(), st.none()),  # the other content
        ),
        st.sampled_from([INCEPTION - timedelta(days=1), _NOW, EXPIRATION + timedelta(days=1)]),
    ),
    min_size=1,
    max_size=16,
)


@settings(max_examples=60, deadline=None)
@given(_memo_steps)
def test_the_signature_memo_gives_the_statuses_of_rsa_on_every_call(
    zone_keys, other_keys, steps
):
    # Anchors of this example's own, so each table starts empty.
    verifiers = [_anchor_of(keys) for keys in (zone_keys, zone_keys, other_keys)]
    genuine = {
        (signer, content): sign_rrset(keys, "diff.test", values, INCEPTION, EXPIRATION)
        for signer, keys in enumerate((zone_keys, other_keys))
        for content, values in enumerate(_CONTENTS)
    }
    for verifier, signer, content, change, when in steps:
        rrset = genuine[signer, content]
        if change is not None and change[0] == "signature":
            rrset = _flipped(rrset, change[1], change[2])
        elif change is not None:
            rrset = replace(rrset, values=_CONTENTS[1 - content])
        anchor = verifiers[verifier]
        expected = _status_without_memo(anchor.public_key(), rrset, when)
        assert verify_rrset(anchor, rrset, when) is expected, (verifier, signer, content, change)


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
def test_attacker_change_after_a_verified_answer_is_invalid(zone_anchor, zone_keys, now, change):
    zone = ZoneStore()
    zone.publish(sign_rrset(zone_keys, "kept.test", VALUES, INCEPTION, EXPIRATION))
    genuine = zone.rrset_for("kept.test")
    genuine.canonical_bytes()
    assert verify_rrset(zone_anchor, genuine, now) is VerifyStatus.VALID
    change(zone, "kept.test")
    tampered = zone.rrset_for("victim.test") or zone.rrset_for("kept.test")
    assert tampered is not genuine
    assert (
        verify_rrset(zone_anchor, tampered, now)
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


def test_refused_canonical_form_is_never_kept(zone_anchor, rrset, now):
    unnamed = replace(rrset, owner_name="")
    for _ in range(2):
        with pytest.raises(ValueError):
            unnamed.canonical_bytes()
        assert (
            verify_rrset(zone_anchor, unnamed, now)
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
