import re
import runpy
import sys
from pathlib import Path

import pytest

from dstc.dnssec import ZoneKeyPair
from dstc.enforcement import TlsVersion
from dstc.handshake import AttackKind
from dstc.scenarios import (
    BUILTIN_SUITES,
    ScenarioFileError,
    UnknownScenarioReference,
    build_fixture,
    fixture_keys,
    fixture_policy,
    parse_scenario_file,
    run_builtin_suite,
    run_scenario_suite,
)
from dstc.survey import generate_corpus, render_corpus
from test_cli import GOLDEN_SURVEY_TEXT

SCENARIO_FILE = """
# downgrade exercises
PROFILE wide VERSIONS TLS1.2,TLS1.1,TLS1.0,SSL3.0 SUITES ECDHE-RSA-AES128-GCM-SHA256,AES128-SHA
PROFILE buggy VERSIONS TLS1.2,TLS1.0 SUITES ECDHE-RSA-AES128-GCM-SHA256,AES128-SHA FRAGBUG

SCENARIO plain-strict CLIENT strict SERVER wide ATTACK none EXPECT established
SCENARIO poodle-style CLIENT default SERVER wide ATTACK drop:2 EXPECT established
SCENARIO drop-out CLIENT default SERVER wide ATTACK drop:3 EXPECT exhausted
SCENARIO frag-strict CLIENT strict SERVER buggy ATTACK fragment EXPECT aborted
SCENARIO mod-strict CLIENT strict SERVER wide ATTACK modver:1.0 EXPECT aborted
"""


def test_parse_scenario_file():
    profiles, scenarios = parse_scenario_file(SCENARIO_FILE)
    assert set(profiles) == {"wide", "buggy"}
    assert profiles["buggy"].fragmentation_bug is True
    assert profiles["wide"].fragmentation_bug is False
    assert TlsVersion.SSL30 in profiles["wide"].supported_versions
    assert len(scenarios) == 5
    assert scenarios[1].attack.kind is AttackKind.DROP_CLIENT_HELLO
    assert scenarios[1].attack.drop_count == 2


def test_run_scenario_suite_from_file():
    profiles, scenarios = parse_scenario_file(SCENARIO_FILE)
    report = run_scenario_suite(scenarios, profiles, suite_name="file")
    assert report.all_passed, report.render()
    assert [row.name for row in report.rows] == [s.name for s in scenarios]
    # transcripts are embedded per row
    assert all(row.transcript for row in report.rows)


def test_empty_scenario_list_gives_empty_report():
    report = run_scenario_suite([], {}, suite_name="empty")
    assert report.rows == ()
    assert report.all_passed


def test_unknown_profile_reference():
    _, scenarios = parse_scenario_file(
        "SCENARIO x CLIENT strict SERVER ghost ATTACK none EXPECT established\n"
    )
    with pytest.raises(UnknownScenarioReference):
        run_scenario_suite(scenarios, {}, suite_name="ghost")


@pytest.mark.parametrize("line", [
    "PROFILE a VERSIONS TLS1.2",                      # missing suites
    "PROFILE a VERSIONS TLS1.2 SUITES AES128-SHA X",  # bad trailing token
    "SCENARIO a CLIENT loose SERVER s ATTACK none EXPECT established",
    "SCENARIO a CLIENT strict SERVER s ATTACK warp EXPECT established",
    "SCENARIO a CLIENT strict SERVER s ATTACK none EXPECT mangled",
    "SCENARIO a CLIENT strict SERVER s ATTACK none:1 EXPECT established",
    "NOISE x",
])
def test_scenario_file_rejects_bad_lines(line):
    with pytest.raises(ScenarioFileError):
        parse_scenario_file(line + "\n")


@pytest.mark.parametrize("text", [
    "# header\nPROFILE a VERSIONS TLS1.2\n",
    "# header\nPROFILE a VERSIONS TLS9 SUITES AES128-SHA\n",
    "\nSCENARIO a CLIENT loose SERVER s ATTACK none EXPECT established\n",
    "\nNOISE x\n",
    "SCENARIO a CLIENT strict SERVER s ATTACK none EXPECT established\n" * 3,
    "PROFILE a VERSIONS TLS1.2 SUITES AES128-SHA\n" * 2,
    "\nSCENARIO a CLIENT strict SERVER s ATTACK none:1 EXPECT established\n",
], ids=["short-profile", "bad-version", "bad-client", "unknown-kind", "duplicate",
        "duplicate-profile", "attack-argument"])
def test_scenario_file_error_names_its_line(text):
    with pytest.raises(ScenarioFileError, match="^line 2: "):
        parse_scenario_file(text)


@pytest.mark.parametrize("line", [
    "SCENARIO a CLIENT strict SERVER s ATTACK none EXPECT",
    "SCENARIO a CLIENT strict SERVER s ATTACK none EXPECT established extra",
    "SCENARIO a KLIENT strict SERVER s ATTACK none EXPECT established",
], ids=["nine-tokens", "eleven-tokens", "misspelt-section"])
def test_scenario_line_without_its_four_sections_is_refused(line):
    with pytest.raises(
        ScenarioFileError,
        match="^line 2: SCENARIO needs CLIENT, SERVER, ATTACK and EXPECT sections$",
    ):
        parse_scenario_file(f"# header\n{line}\n")


def test_profile_line_with_a_token_after_fragbug_is_refused():
    text = "# header\nPROFILE a VERSIONS TLS1.2 SUITES AES128-SHA FRAGBUG X\n"
    with pytest.raises(ScenarioFileError, match="^line 2: too many PROFILE tokens$"):
        parse_scenario_file(text)


@pytest.mark.parametrize("token", ["drop:x", "drop:", "drop:+2", "drop:\u0662", "drop:1_0",
                                   "drop:0", "modver:9", "modver:"])
def test_scenario_file_names_a_bad_drop_count(token):
    text = f"# header\nSCENARIO a CLIENT strict SERVER s ATTACK {token} EXPECT aborted\n"
    with pytest.raises(ScenarioFileError, match=f"^line 2: unknown attack {re.escape(repr(token))}$"):
        parse_scenario_file(text)


def test_duplicate_scenario_names_rejected():
    text = (
        "PROFILE s VERSIONS TLS1.2 SUITES ECDHE-RSA-AES128-GCM-SHA256\n"
        "SCENARIO a CLIENT strict SERVER s ATTACK none EXPECT established\n"
        "SCENARIO a CLIENT default SERVER s ATTACK none EXPECT established\n"
    )
    with pytest.raises(ScenarioFileError):
        parse_scenario_file(text)


def test_builtin_table2(zone_keys):
    report = run_builtin_suite("table2")
    assert report.all_passed, report.render()
    assert [row.name for row in report.rows] == [
        "tls12-registered-strong",
        "tls10-registered-legacy",
        "tls11-unregistered-legacy",
    ]
    assert [row.decision for row in report.rows] == [
        "Strict/OK", "Strict/OK", "Default/NoRecord",
    ]
    # the matrix outcome pattern: success, failure, success
    assert report.rows[0].actual.startswith("Established@TLS1.2")
    assert report.rows[1].actual == "AbortedByClient"
    assert report.rows[2].actual.startswith("Established@TLS1.1")


def test_builtin_poodle(zone_keys):
    report = run_builtin_suite("poodle")
    assert report.all_passed, report.render()
    by_name = {row.name: row for row in report.rows}
    default, strict = by_name["poodle-default-downgraded"], by_name["poodle-strict-aborted"]
    assert default.actual.startswith("Established@TLS1.0")
    assert (default.expected, default.decision) == ("Established@TLS1.0", "Default/NoRecord")
    assert strict.actual == "AbortedByClient"
    assert (strict.expected, strict.decision) == ("AbortedByClient", "Strict/OK")


def test_builtin_fragment(zone_keys):
    report = run_builtin_suite("fragment")
    assert report.all_passed, report.render()
    by_name = {row.name: row for row in report.rows}
    default, strict = by_name["fragment-default-downgraded"], by_name["fragment-strict-aborted"]
    assert default.actual.startswith("Established@TLS1.0")
    assert (default.expected, default.decision) == ("Established@TLS1.0", "Default/NoRecord")
    assert strict.actual == "AbortedByClient"
    assert (strict.expected, strict.decision) == ("AbortedByClient", "Strict/OK")


def test_builtin_forgery(zone_keys):
    report = run_builtin_suite("forgery")
    assert report.all_passed, report.render()
    expected = {
        "add-unregistered-policy": "Default/InvalidSignature",
        "modify-signed-record": "Default/InvalidSignature",
        "delete-from-signed-set": "Default/InvalidSignature",
        "replay-stale-policy": "Strict/DropAlarm",
        "replay-revoked-policy": "Default/Revoked",
        "drop-after-first-connection": "Strict/DropAlarm",
    }
    assert {row.name: row.actual for row in report.rows} == expected


FORGERY_GOLDEN = [
    ("add-unregistered-policy", "Default/InvalidSignature", "Default/InvalidSignature", (
        "attacker: injected unsigned policy record",
        "connection: Default/InvalidSignature",
    )),
    ("modify-signed-record", "Default/InvalidSignature", "Default/InvalidSignature", (
        "attacker: rewrote validTo inside the signed record",
        "connection: Default/InvalidSignature",
    )),
    ("delete-from-signed-set", "Default/InvalidSignature", "Default/InvalidSignature", (
        "owner: signed the policy together with an SPF value",
        "attacker: removed one value from the signed set",
        "connection: Default/InvalidSignature",
    )),
    ("replay-stale-policy", "Strict/DropAlarm", "Strict/DropAlarm", (
        "owner: signed a newer policy",
        "first connection: Strict/OK",
        "attacker: replayed the older signed policy",
        "second connection: Strict/DropAlarm",
    )),
    ("replay-revoked-policy", "Default/Revoked", "Default/Revoked", (
        "first connection: Strict/OK",
        "owner: signed a revocation",
        "second connection: Default/Revoked",
        "attacker: replayed the revoked policy",
        "third connection: Default/Revoked",
    )),
    ("drop-after-first-connection", "Strict/DropAlarm", "Strict/DropAlarm", (
        "first connection: Strict/OK",
        "attacker: suppressed the record set",
        "second connection: Strict/DropAlarm",
    )),
]


@pytest.mark.parametrize(
    "index, name, expected, actual, transcript",
    [(i, *row) for i, row in enumerate(FORGERY_GOLDEN)],
    ids=[row[0] for row in FORGERY_GOLDEN],
)
def test_forgery_row_golden(zone_keys, index, name, expected, actual, transcript):
    rows = run_builtin_suite("forgery").rows
    assert len(rows) == len(FORGERY_GOLDEN)
    row = rows[index]
    assert (row.name, row.expected, row.actual, row.transcript) == (
        name, expected, actual, transcript,
    )
    assert row.passed and row.decision is None


# Each built-in suite's whole report, captured before the handshake transcript
# was rendered from events: every line must stay byte-identical.
GOLDEN_SUITE_REPORTS = {
    "table2": """\
suite table2: 3 scenario(s)
[PASS] tls12-registered-strong: expected=Established@TLS1.2 actual=Established@TLS1.2 suite=ECDHE-RSA-AES128-GCM-SHA256 decision=Strict/OK
    client: ClientHello version=TLS1.2 suites=6
    server: ServerHello version=TLS1.2 suite=ECDHE-RSA-AES128-GCM-SHA256
    established: version=TLS1.2 suite=ECDHE-RSA-AES128-GCM-SHA256
[PASS] tls10-registered-legacy: expected=AbortedByClient actual=AbortedByClient decision=Strict/OK
    client: ClientHello version=TLS1.2 suites=6
    server: ServerHello version=TLS1.0 suite=(none)
    client: abort (ServerHello version TLS1.0 outside enforced policy)
[PASS] tls11-unregistered-legacy: expected=Established@TLS1.1 actual=Established@TLS1.1 suite=ECDHE-RSA-AES128-SHA decision=Default/NoRecord
    client: ClientHello version=TLS1.2 suites=14
    server: ServerHello version=TLS1.1 suite=ECDHE-RSA-AES128-SHA
    established: version=TLS1.1 suite=ECDHE-RSA-AES128-SHA""",
    "poodle": """\
suite poodle: 2 scenario(s)
[PASS] poodle-default-downgraded: expected=Established@TLS1.0 actual=Established@TLS1.0 suite=ECDHE-RSA-AES128-GCM-SHA256 decision=Default/NoRecord
    client: ClientHello version=TLS1.2 suites=14
    attacker: dropped ClientHello (1 of 2)
    client: fallback TLS1.2 -> TLS1.1
    client: ClientHello version=TLS1.1 suites=14
    attacker: dropped ClientHello (2 of 2)
    client: fallback TLS1.1 -> TLS1.0
    client: ClientHello version=TLS1.0 suites=14
    server: ServerHello version=TLS1.0 suite=ECDHE-RSA-AES128-GCM-SHA256
    established: version=TLS1.0 suite=ECDHE-RSA-AES128-GCM-SHA256
[PASS] poodle-strict-aborted: expected=AbortedByClient actual=AbortedByClient decision=Strict/OK
    client: ClientHello version=TLS1.2 suites=6
    attacker: dropped ClientHello (1 of 2)
    client: retry same version TLS1.2 (1 of 1)
    client: ClientHello version=TLS1.2 suites=6
    attacker: dropped ClientHello (2 of 2)
    client: abort (hello lost and fallback disabled)""",
    "fragment": """\
suite fragment: 2 scenario(s)
[PASS] fragment-default-downgraded: expected=Established@TLS1.0 actual=Established@TLS1.0 suite=ECDHE-RSA-AES128-GCM-SHA256 decision=Default/NoRecord
    client: ClientHello version=TLS1.2 suites=14
    attacker: fragmented ClientHello
    server: fragmentation bug, negotiating TLS1.0 regardless of offer
    server: ServerHello version=TLS1.0 suite=ECDHE-RSA-AES128-GCM-SHA256
    established: version=TLS1.0 suite=ECDHE-RSA-AES128-GCM-SHA256
[PASS] fragment-strict-aborted: expected=AbortedByClient actual=AbortedByClient decision=Strict/OK
    client: ClientHello version=TLS1.2 suites=6
    attacker: fragmented ClientHello
    server: fragmentation bug, negotiating TLS1.0 regardless of offer
    server: ServerHello version=TLS1.0 suite=ECDHE-RSA-AES128-GCM-SHA256
    client: abort (ServerHello version TLS1.0 outside enforced policy)""",
    "forgery": """\
suite forgery: 6 scenario(s)
[PASS] add-unregistered-policy: expected=Default/InvalidSignature actual=Default/InvalidSignature
    attacker: injected unsigned policy record
    connection: Default/InvalidSignature
[PASS] modify-signed-record: expected=Default/InvalidSignature actual=Default/InvalidSignature
    attacker: rewrote validTo inside the signed record
    connection: Default/InvalidSignature
[PASS] delete-from-signed-set: expected=Default/InvalidSignature actual=Default/InvalidSignature
    owner: signed the policy together with an SPF value
    attacker: removed one value from the signed set
    connection: Default/InvalidSignature
[PASS] replay-stale-policy: expected=Strict/DropAlarm actual=Strict/DropAlarm
    owner: signed a newer policy
    first connection: Strict/OK
    attacker: replayed the older signed policy
    second connection: Strict/DropAlarm
[PASS] replay-revoked-policy: expected=Default/Revoked actual=Default/Revoked
    first connection: Strict/OK
    owner: signed a revocation
    second connection: Default/Revoked
    attacker: replayed the revoked policy
    third connection: Default/Revoked
[PASS] drop-after-first-connection: expected=Strict/DropAlarm actual=Strict/DropAlarm
    first connection: Strict/OK
    attacker: suppressed the record set
    second connection: Strict/DropAlarm""",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SUITE_REPORTS))
def test_builtin_suite_report_golden(zone_keys, name):
    assert run_builtin_suite(name).render() == GOLDEN_SUITE_REPORTS[name]


def test_every_fixture_of_a_process_is_signed_by_one_key(zone_keys, monkeypatch):
    calls = []

    def generate(cls, key_id):
        calls.append(key_id)
        return zone_keys  # so the cache refills with the key the other tests share

    monkeypatch.setattr(ZoneKeyPair, "generate", classmethod(generate))
    fixture_keys.cache_clear()
    reports = [run() for run in BUILTIN_SUITES.values()]
    fixture = build_fixture({"tls12.test": fixture_policy()})
    assert calls == ["zsk-1"]
    assert all(report.all_passed for report in reports)
    assert fixture.anchors.lookup("tls12.test").public_key_der == zone_keys.public_der()


def test_unknown_builtin_suite():
    with pytest.raises(UnknownScenarioReference):
        run_builtin_suite("nonesuch")


def test_suite_report_render(zone_keys):
    text = run_builtin_suite("table2").render()
    assert "[PASS]" in text
    assert "ClientHello" in text  # transcripts included


def test_run_attack_sims_script(capsys):
    script = Path(__file__).resolve().parents[1] / "scripts" / "run_attack_sims.py"
    assert runpy.run_path(str(script))["main"]() == 0
    out = capsys.readouterr().out
    assert [line.split(":")[0] for line in out.splitlines() if line.startswith("suite ")] == [
        f"suite {name}" for name in BUILTIN_SUITES
    ]
    assert out.rstrip().endswith("all suites passed")


def test_make_survey_corpus_script(tmp_path, capsys, monkeypatch):
    script = Path(__file__).resolve().parents[1] / "scripts" / "make_survey_corpus.py"
    out_path = tmp_path / "corpus.txt"
    monkeypatch.setattr(sys, "argv", [str(script), str(out_path)])
    assert runpy.run_path(str(script))["main"]() == 0
    assert out_path.read_text() == render_corpus(generate_corpus())
    assert capsys.readouterr().out.endswith(GOLDEN_SURVEY_TEXT)
