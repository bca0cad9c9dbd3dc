"""The shared line format: one reader loop for all five file formats, and
properties that every reader is total and every writer's output reads back.

Texts are drawn from lines shaped like each format's own, with names, key
ids, dates and keys that are sometimes valid and sometimes not, mixed with
arbitrary noise lines, so that both the accepting and the refusing paths of
each reader are reached.
"""

import base64
import os
import re
import stat
from datetime import date

import pytest
from hypothesis import given, settings, strategies as st

from dstc import textfile
from dstc.dnssec import TrustAnchorSet, ZoneFileError, ZoneStore
from dstc.enforcement import TlsVersion
from dstc.policy import PolicyRecord
from dstc.scenarios import ScenarioFileError, parse_scenario_file
from dstc.store import PolicyStore, StoreFileError
from dstc.survey import CorpusFormatError, parse_corpus
from dstc.textfile import check_field, is_field, list_tokens, parse_lines, read_file, read_text

# -- the loop itself


def test_parse_lines_skips_blanks_and_comments_and_counts_every_line():
    seen = []
    parse_lines("\n# note\n  first  \n\n\t# indented note\nsecond", seen.append, ValueError)
    assert seen == ["first", "second"]


@pytest.mark.parametrize("fault", [ValueError("bad"), IndexError("bad")],
                         ids=["ValueError", "IndexError"])
def test_parse_lines_names_the_line_in_the_given_error(fault):
    def parse_line(line):
        if line == "b":
            raise fault

    with pytest.raises(CorpusFormatError, match="^line 4: bad$") as raised:
        parse_lines("a\n\n# c\nb\n", parse_line, CorpusFormatError)
    assert raised.value.__cause__ is fault


def test_parse_lines_lets_other_faults_through():
    def parse_line(line):
        raise KeyError(line)

    with pytest.raises(KeyError):
        parse_lines("a\n", parse_line, ValueError)


@pytest.mark.parametrize("text, ok", [
    ("a.test", True), ("", False), ("a b", False), ("a\nb", False),
    ("a\u2028b", False), ("#k", False), ("k#", True),
])
def test_field_rule(text, ok):
    assert is_field(text) is ok
    if ok:
        assert check_field(ZoneFileError, "name", text) == text
    else:
        with pytest.raises(ZoneFileError, match=re.escape(f"name {text!r} cannot")):
            check_field(ZoneFileError, "name", text)


# -- comma lists: one token rule for PROFILE lines and corpus lines

_LIST_READERS = {
    "profile": (lambda versions, suites: parse_scenario_file(
        f"PROFILE a VERSIONS {versions} SUITES {suites}\n")[0]["a"], ScenarioFileError),
    "corpus": (lambda versions, suites: parse_corpus(f"a | {versions} | {suites}\n")[0],
               CorpusFormatError),
}


@pytest.mark.parametrize("reader", list(_LIST_READERS))
@pytest.mark.parametrize("versions, suites, message", [
    ("TLS1.2", "AES128-SHA", None),
    ("TLS1.2,", "AES128-SHA", None),
    (",TLS1.2,,1.2", ",AES128-SHA,,", None),
    (",", "AES128-SHA", "server must support at least one version"),
    ("TLS1.2", ",,", "server must prefer at least one suite"),
    ("TLS1.2,TLS9", "AES128-SHA", "unknown TLS version 'TLS9'"),
])
def test_comma_list_rule_is_the_same_in_every_reader(reader, versions, suites, message):
    parse, error = _LIST_READERS[reader]
    if message is not None:
        with pytest.raises(error, match=re.escape(f"line 1: {message}")):
            parse(versions, suites)
        return
    profile = parse(versions, suites)
    assert profile.supported_versions == frozenset({TlsVersion.TLS12})
    assert profile.suite_preference == ("AES128-SHA",)


def test_list_tokens_strips_and_skips_empty_tokens():
    assert list_tokens(" a, ,b ,\tc,") == ["a", "b", "c"]
    assert list_tokens(" , ") == []


# -- reading: bytes that are not UTF-8 are a line error of the format

_LOADERS = {
    "zone": (ZoneStore.load, ZoneFileError),
    "anchors": (TrustAnchorSet.load, ZoneFileError),
    "cache": (PolicyStore.load, StoreFileError),
    "scenario": (lambda path: read_file(path, parse_scenario_file, ScenarioFileError),
                 ScenarioFileError),
    "corpus": (lambda path: read_file(path, parse_corpus, CorpusFormatError),
               CorpusFormatError),
}


@pytest.mark.parametrize("fmt", list(_LOADERS))
def test_non_utf8_file_is_a_line_error_of_its_format(tmp_path, fmt):
    load, error = _LOADERS[fmt]
    path = tmp_path / "bad.txt"
    path.write_bytes(b"\xff\n")
    message = f"^{re.escape(str(path))}: line 1: byte 0xff is not UTF-8"
    with pytest.raises(error, match=message) as raised:
        load(str(path))
    assert isinstance(raised.value.__cause__, UnicodeDecodeError)


@pytest.mark.parametrize("data, lineno", [
    (b"# ok\n\n\xff", 3),
    (b"a\r\nb \xc3", 2),        # a cut-off two-byte sequence
    (b"a\rb\r\xe9", 3),         # line breaks counted as parse_lines counts them
])
def test_read_text_names_the_line_of_the_first_bad_byte(tmp_path, data, lineno):
    path = tmp_path / "bad.txt"
    path.write_bytes(data)
    with pytest.raises(CorpusFormatError, match=f"^line {lineno}: "):
        read_text(str(path), CorpusFormatError)


def test_read_text_keeps_utf8_text(tmp_path):
    path = tmp_path / "ok.txt"
    path.write_bytes("\u00e9.test\r\nb\n".encode("utf-8"))
    assert read_text(str(path), ValueError).splitlines() == ["\u00e9.test", "b"]


# -- saving: all or nothing


def _saved_cache(tmp_path):
    store = PolicyStore()
    store.update("a.test", PolicyRecord(date(2018, 5, 1), date(2019, 5, 1), "x@a.test"),
                 date(2018, 7, 1))
    path = tmp_path / "cache.txt"
    store.save(str(path))
    store.update("b.test", PolicyRecord(date(2018, 5, 1), date(2019, 5, 1), "x@b.test"),
                 date(2018, 7, 1))
    return store, path


def _fail(*args, **kwargs):
    raise OSError("injected")


def _open_with_failing_write(*args, **kwargs):
    fh = open(*args, **kwargs)
    fh.write = _fail
    return fh


@pytest.mark.parametrize("target, attr, fault", [
    (textfile, "open", _open_with_failing_write),
    (os, "fsync", _fail),
    (os, "replace", _fail),
], ids=["write", "fsync", "replace"])
def test_failed_save_keeps_the_old_file_and_leaves_no_temp_file(
    tmp_path, monkeypatch, target, attr, fault
):
    store, path = _saved_cache(tmp_path)
    before = path.read_bytes()
    monkeypatch.setattr(target, attr, fault, raising=False)
    with pytest.raises(OSError, match="injected"):
        store.save(str(path))
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["cache.txt"]
    store.save(str(path))
    assert PolicyStore.load(str(path)).to_text() == store.to_text()


def test_save_replaces_the_file_and_keeps_its_permission_bits(tmp_path):
    store, path = _saved_cache(tmp_path)
    os.chmod(path, 0o640)
    store.save(str(path))
    assert path.read_text() == store.to_text()
    assert os.stat(path).st_mode & 0o777 == 0o640
    assert os.listdir(tmp_path) == ["cache.txt"]


@pytest.mark.parametrize("relative", [False, True], ids=["absolute", "relative"])
def test_save_syncs_the_directory_after_the_rename(tmp_path, monkeypatch, relative):
    store, path = _saved_cache(tmp_path)
    events = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        events.append(("fsync", os.fstat(fd).st_ino))
        real_fsync(fd)

    def replace(src, dst):
        events.append(("replace",))
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    if relative:
        monkeypatch.chdir(tmp_path)
    store.save("cache.txt" if relative else str(path))
    assert events == [
        ("fsync", path.stat().st_ino),
        ("replace",),
        ("fsync", tmp_path.stat().st_ino),
    ]
    assert path.read_text() == store.to_text()


def test_failed_directory_sync_propagates_with_the_new_file_in_place(tmp_path, monkeypatch):
    store, path = _saved_cache(tmp_path)
    real_fsync = os.fsync

    def fsync(fd):
        if stat.S_ISDIR(os.fstat(fd).st_mode):
            raise OSError("injected")
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", fsync)
    with pytest.raises(OSError, match="injected"):
        store.save(str(path))
    assert path.read_text() == store.to_text()
    assert os.listdir(tmp_path) == ["cache.txt"]


# -- totality and render/parse round trips

# Names, key ids, dates and keys are mostly readable. The rest reach the
# refusing paths: "." normalises to an empty name, "#k" reads as a comment,
# 31-02 is no date, "AAAA" is no key, "!!!!" no base64, and the last key is
# of an algorithm the library does not know. "<der>" stands for a valid RSA
# public key.
_NAMES = st.sampled_from(["a", "b", "a.test", "A.Test.", "\u00e9.test", "c-d.test", "x.y.z",
                          "B.", "q", "r.test", "s", "."])
_KEY_IDS = st.integers(0, 9).map(lambda i: "#k" if i == 7 else f"zsk-{i}")
_DATES = st.sampled_from(["01-05-2018", "01-05-2019", "29-02-2020", "01-01-2021",
                          "31-12-2017", "15-06-2018", "31-02-2018"])
_KEYS = st.sampled_from(["<der>"] * 7 + ["AAAA", "!!!!", "MAwwBQYDKgMEAwIAAA=="])
_POLICIES = st.sampled_from([
    "name=DSTC; validFrom=01-05-2018; validTo=01-05-2019; tlsLevel=strict-config; "
    "includeSubDomain=0; revoke=0; report=a@b.test",
    # not in canonical order: the writer renders it canonically
    "report=a@b.test; name=DSTC; validTo=01-05-2019; validFrom=01-05-2018; "
    "tlsLevel=strict-config; includeSubDomain=1; revoke=0",
    "name=DSTC; validFrom=01-05-2018; validTo=01-05-2019; tlsLevel=strict-config; "
    "includeSubDomain=0; revoke=1; report=a@b.test",
    "name=DSTC; junk",
])
_VERSIONS = st.lists(st.sampled_from(["TLS1.2", "TLS1.1", "1.0", "SSL3.0", "TLS1.2", "TLS9"]),
                     min_size=1, max_size=3).map(",".join)
_SUITES = st.lists(st.sampled_from(["ECDHE-RSA-AES128-GCM-SHA256", "AES128-SHA", ""]),
                   min_size=1, max_size=3).map(",".join)


def _text(*line_shapes):
    """Well-shaped lines, with at most one line of arbitrary text among them."""
    def insert(parts):
        lines, noise, at = parts
        return "\n".join(lines if noise is None else lines[:at] + [noise] + lines[at:])

    return st.tuples(
        st.lists(st.one_of(*line_shapes), max_size=4),
        st.none() | st.text(max_size=12),
        st.integers(0, 4),
    ).map(insert)


def _rrset(name, values, sig):
    lines = [f"{name} TXT {value}".rstrip() for value in values]
    return "\n".join(lines + ([f"{name} SIG {sig}"] if sig else []))


# quoted TXT values, an inner quote and a missing value
_VALUES = st.sampled_from(['"v=1"', '"x y"', '""', '"\u00e9;\t="', '"p"', '"a"b"', ""])
_ZONE_TEXT = _text(
    st.builds(_rrset, _NAMES, st.lists(_VALUES, min_size=1, max_size=2),
              st.none() | st.builds("{} {} {} {}".format, _KEY_IDS, _DATES, _DATES, _KEYS)),
    st.builds("{} NAME -".format, _NAMES),
    # an older zone file's KEY line, which the reader skips
    st.builds("KEY {} {}".format, _KEY_IDS, _KEYS),
)
_ANCHOR_TEXT = _text(st.builds("{} {} {}".format, _NAMES, _KEY_IDS, _KEYS))
_CACHE_TEXT = _text(
    st.builds("POLICY {} {}".format, _NAMES, _POLICIES),
    st.builds("TOMBSTONE {} {} {}".format, _NAMES, _DATES, _DATES),
    # the older form, whose stored-at date the reader checks and drops
    st.builds("POLICY {} {} {}".format, _NAMES, _DATES, _POLICIES),
)
_SCENARIO_TEXT = _text(
    st.builds("PROFILE {} VERSIONS {} SUITES {}{}".format, _KEY_IDS, _VERSIONS, _SUITES,
              st.sampled_from(["", "", " FRAGBUG", " X"])),
    st.builds("SCENARIO {} CLIENT {} SERVER {} ATTACK {} EXPECT {}".format, _KEY_IDS,
              st.sampled_from(["strict", "default", "strict", "default", "loose"]), _KEY_IDS,
              st.sampled_from(["none", "drop:2", "fragment", "modver:1.0", "drop:", "warp"]),
              st.sampled_from(["established", "aborted", "exhausted", "mangled"])),
)
_CORPUS_TEXT = _text(st.builds("{} | {} | {}".format, _NAMES, _VERSIONS, _SUITES))

_PROPERTY = settings(max_examples=60, deadline=None)


def _parse_or_refuse(read, error, text, whole_file=None):
    """Read ``text``; a refusal must be ``error`` and name its line (or be the
    one whole-file check the format has)."""
    try:
        return read(text)
    except error as exc:
        message = str(exc)
        assert re.match(r"line \d+: ", message) or (
            whole_file is not None and message.startswith(whole_file)
        ), message
        return None


def _renders_back(parsed):
    """What a reader accepted, its writer renders, and that text reads back
    to the same text."""
    if parsed is not None:
        text = parsed.to_text()
        assert type(parsed).from_text(text).to_text() == text


@pytest.fixture(scope="module")
def der64(zone_keys):
    return base64.b64encode(zone_keys.public_der()).decode("ascii")


@_PROPERTY
@given(_ZONE_TEXT)
def test_zone_reader_is_total_and_round_trips(der64, text):
    text = text.replace("<der>", der64)
    _renders_back(_parse_or_refuse(ZoneStore.from_text, ZoneFileError, text,
                                   "SIG without TXT values"))


@_PROPERTY
@given(_ANCHOR_TEXT)
def test_anchor_reader_is_total_and_round_trips(der64, text):
    text = text.replace("<der>", der64)
    _renders_back(_parse_or_refuse(TrustAnchorSet.from_text, ZoneFileError, text))


@_PROPERTY
@given(_CACHE_TEXT)
def test_cache_reader_is_total_and_round_trips(text):
    _renders_back(_parse_or_refuse(PolicyStore.from_text, StoreFileError, text))


@_PROPERTY
@given(_SCENARIO_TEXT)
def test_scenario_reader_is_total(text):
    _parse_or_refuse(parse_scenario_file, ScenarioFileError, text)


@_PROPERTY
@given(_CORPUS_TEXT)
def test_corpus_reader_is_total(text):
    _parse_or_refuse(parse_corpus, CorpusFormatError, text)
