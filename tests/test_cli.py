from datetime import date

import pytest

from dstc.cli import main
from dstc.dnssec import TrustAnchor, TrustAnchorSet, ZoneStore, sign_rrset
from dstc.policy import PolicyRecord, serialize_policy
from dstc.store import PolicyStore
from dstc.survey import generate_corpus, render_corpus

POLICY = PolicyRecord(
    valid_from=date(2018, 5, 1), valid_to=date(2019, 5, 1), report="admin@tls12.test"
)

PROFILES_FILE = """
PROFILE strong VERSIONS TLS1.2,TLS1.1,TLS1.0 SUITES ECDHE-RSA-AES128-GCM-SHA256,AES128-SHA
PROFILE buggy VERSIONS TLS1.2,TLS1.1,TLS1.0 SUITES ECDHE-RSA-AES128-GCM-SHA256,AES128-SHA FRAGBUG
"""


@pytest.fixture
def world(tmp_path, zone_keys):
    zone = ZoneStore()
    zone.publish(
        sign_rrset(
            zone_keys,
            "tls12.test",
            [serialize_policy(POLICY)],
            date(2018, 5, 1),
            date(2019, 5, 1),
        )
    )
    zone.add_key(zone_keys.key_id, zone_keys.public_der())
    anchors = TrustAnchorSet()
    anchors.add(TrustAnchor("tls12.test", zone_keys.key_id, zone_keys.public_der()))

    zone_path = tmp_path / "test.zone"
    anchors_path = tmp_path / "anchors.txt"
    zone.save(str(zone_path))
    anchors.save(str(anchors_path))
    profiles_path = tmp_path / "profiles.txt"
    profiles_path.write_text(PROFILES_FILE)
    return {
        "zone": str(zone_path),
        "anchors": str(anchors_path),
        "profiles": str(profiles_path),
        "store": str(tmp_path / "store.txt"),
        "tmp": tmp_path,
    }


def test_gen_prints_canonical_record(capsys):
    code = main([
        "gen", "--valid-from", "01-05-2018", "--valid-to", "01-05-2019",
        "--report", "admin@tls12.com",
    ])
    assert code == 0
    out = capsys.readouterr().out.strip()
    assert out == serialize_policy(
        PolicyRecord(date(2018, 5, 1), date(2019, 5, 1), "admin@tls12.com")
    )


def test_gen_revoke_flag(capsys):
    code = main([
        "gen", "--valid-from", "01-05-2018", "--valid-to", "01-05-2019",
        "--report", "a@b.c", "--revoke", "1",
    ])
    assert code == 0
    assert "revoke=1" in capsys.readouterr().out


def test_gen_rejects_inverted_dates(capsys):
    code = main([
        "gen", "--valid-from", "02-05-2019", "--valid-to", "01-05-2018",
        "--report", "a@b.c",
    ])
    assert code == 2
    assert "validFrom" in capsys.readouterr().err


def test_gen_rejects_bad_date_shape():
    with pytest.raises(SystemExit) as info:
        main(["gen", "--valid-from", "2018-05-01", "--valid-to", "01-05-2019",
              "--report", "a@b.c"])
    assert info.value.code == 2


def test_gen_rejects_bad_report(capsys):
    code = main([
        "gen", "--valid-from", "01-05-2018", "--valid-to", "01-05-2019",
        "--report", "not-an-address",
    ])
    assert code == 2
    assert "report" in capsys.readouterr().err


def test_gen_rejects_unknown_tls_level(capsys):
    # gen always writes tlsLevel=strict-config; there is no option to change it
    with pytest.raises(SystemExit) as info:
        main(["gen", "--valid-from", "01-05-2018", "--valid-to", "01-05-2019",
              "--report", "a@b.c", "--tls-level", "weak"])
    assert info.value.code == 2
    assert "unrecognized arguments: --tls-level weak" in capsys.readouterr().err


def test_sign_resolve_verify_flow(tmp_path, capsys):
    zone = str(tmp_path / "z.zone")
    key = str(tmp_path / "k.pem")
    anchors = str(tmp_path / "a.txt")
    policy = serialize_policy(POLICY)

    assert main([
        "sign", "--zone", zone, "--domain", "tls12.test", "--policy-txt", policy,
        "--key", key, "--generate-key", "--inception", "01-05-2018",
        "--expiration", "01-05-2019", "--anchors-out", anchors,
    ]) == 0
    capsys.readouterr()

    assert main(["resolve", "--zone", zone, "--name", "tls12.test"]) == 0
    out = capsys.readouterr().out
    assert "Answered" in out and "SIG key=" in out

    assert main([
        "verify", "--zone", zone, "--anchors", anchors,
        "--domain", "tls12.test", "--now", "01-07-2018",
    ]) == 0
    out = capsys.readouterr().out
    assert "mode=Strict reason=OK" in out
    assert "versions=TLS1.2" in out
    assert "fallback=off" in out

    # re-signing replaces the apex's anchor in place: the file never holds a
    # duplicate line, which its reader would refuse
    assert main([
        "sign", "--zone", zone, "--domain", "tls12.test", "--policy-txt", policy,
        "--key", key, "--inception", "01-05-2018",
        "--expiration", "01-05-2019", "--anchors-out", anchors,
    ]) == 0
    assert len(TrustAnchorSet.load(anchors).to_text().splitlines()) == 1


def test_sign_requires_existing_or_generated_key(tmp_path, capsys):
    code = main([
        "sign", "--zone", str(tmp_path / "z.zone"), "--domain", "a.test",
        "--policy-txt", serialize_policy(POLICY), "--key", str(tmp_path / "nope.pem"),
        "--inception", "01-05-2018", "--expiration", "01-05-2019",
    ])
    assert code == 2


def test_sign_refuses_malformed_policy(tmp_path):
    code = main([
        "sign", "--zone", str(tmp_path / "z.zone"), "--domain", "a.test",
        "--policy-txt", "name=DSTC; junk", "--key", str(tmp_path / "k.pem"),
        "--generate-key", "--inception", "01-05-2018", "--expiration", "01-05-2019",
    ])
    assert code == 2


@pytest.mark.parametrize("extra", ['say "hi"', "two\nlines"])
def test_sign_refused_render_keeps_zone_file(tmp_path, extra):
    zone = tmp_path / "z.zone"
    sign = [
        "sign", "--zone", str(zone), "--domain", "tls12.test",
        "--policy-txt", serialize_policy(POLICY), "--key", str(tmp_path / "k.pem"),
        "--generate-key", "--inception", "01-05-2018", "--expiration", "01-05-2019",
    ]
    assert main(sign) == 0
    before = zone.read_bytes()
    assert main(sign + ["--extra-txt", extra]) == 2
    assert zone.read_bytes() == before


def test_verify_strict_ok_exit_zero(world, capsys):
    code = main([
        "verify", "--zone", world["zone"], "--anchors", world["anchors"],
        "--domain", "tls12.test", "--now", "01-07-2018", "--store", world["store"],
    ])
    assert code == 0
    assert "mode=Strict reason=OK report=admin@tls12.test" in capsys.readouterr().out


def test_verify_no_record_exit_zero(world, capsys):
    code = main([
        "verify", "--zone", world["zone"], "--anchors", world["anchors"],
        "--domain", "unknown.test", "--now", "01-07-2018",
    ])
    assert code == 0
    assert "mode=Default reason=NoRecord" in capsys.readouterr().out


def test_verify_tampered_zone_exit_one(world, capsys):
    zone = ZoneStore.load(world["zone"])
    zone.attacker_modify_txt_value("tls12.test", 0, "name=DSTC; doctored")
    zone.save(world["zone"])
    code = main([
        "verify", "--zone", world["zone"], "--anchors", world["anchors"],
        "--domain", "tls12.test", "--now", "01-07-2018",
    ])
    assert code == 1
    assert "reason=InvalidSignature" in capsys.readouterr().out


def test_verify_drop_alarm_across_invocations(world, capsys):
    # first invocation caches the policy in the store file
    assert main([
        "verify", "--zone", world["zone"], "--anchors", world["anchors"],
        "--domain", "tls12.test", "--now", "01-07-2018", "--store", world["store"],
    ]) == 0
    zone = ZoneStore.load(world["zone"])
    zone.attacker_drop_rrset("tls12.test")
    zone.save(world["zone"])
    code = main([
        "verify", "--zone", world["zone"], "--anchors", world["anchors"],
        "--domain", "tls12.test", "--now", "02-07-2018", "--store", world["store"],
    ])
    assert code == 1
    out = capsys.readouterr().out
    assert "mode=Strict reason=DropAlarm" in out
    assert "should be reported to admin@tls12.test" in out


EXPIRED_POLICY = PolicyRecord(
    valid_from=date(2017, 1, 1), valid_to=date(2017, 6, 1), report="admin@old.test"
)


@pytest.mark.parametrize("command", ["verify", "connect-sim"])
@pytest.mark.parametrize("domain", ["tls12.test", "old.test"])
def test_saving_the_store_drops_its_expired_lines(world, capsys, command, domain):
    live = PolicyStore()
    live.update("tls12.test", POLICY, date(2018, 7, 1))
    live_line = live.to_text()
    expired_lines = (
        f"POLICY old.test 01-01-2017 {serialize_policy(EXPIRED_POLICY)}\n"
        "TOMBSTONE gone.test 01-01-2017 01-06-2017\n"
    )
    extra = ["--profiles", world["profiles"], "--server", "strong"] if command != "verify" else []
    argv = [
        command, "--zone", world["zone"], "--anchors", world["anchors"], *extra,
        "--domain", domain, "--now", "01-07-2018", "--store", world["store"],
    ]
    outputs = []
    for text in (expired_lines + live_line, live_line):
        with open(world["store"], "w", encoding="utf-8") as fh:
            fh.write(text)
        code = main(argv)
        outputs.append((code, capsys.readouterr().out))
        with open(world["store"], encoding="utf-8") as fh:
            assert fh.read() == live_line
    assert outputs[0] == outputs[1]


def test_verify_unreadable_zone_exit_two(world, capsys):
    code = main([
        "verify", "--zone", str(world["tmp"] / "missing.zone"),
        "--anchors", world["anchors"], "--domain", "tls12.test",
    ])
    assert code == 2


@pytest.mark.parametrize("line", ["nonsense line", "a.test TXT"])
def test_verify_corrupt_zone_exit_two(world, capsys, line):
    bad = world["tmp"] / "bad.zone"
    bad.write_text(line + "\n")
    code = main([
        "verify", "--zone", str(bad), "--anchors", world["anchors"],
        "--domain", "tls12.test",
    ])
    assert code == 2


@pytest.mark.parametrize("fmt", ["zone", "anchors", "store", "profiles", "scenario",
                                 "corpus"])
def test_non_utf8_input_file_exit_two(world, capsys, fmt):
    bad = world["tmp"] / "bad.txt"
    bad.write_bytes(b"\xff\n")
    files = {**world, fmt: str(bad)}
    argv = {
        "zone": ["resolve", "--zone", files["zone"], "--name", "tls12.test"],
        "scenario": ["attack-sim", "--scenario-file", str(bad)],
        "corpus": ["survey", "--corpus", str(bad)],
    }.get(fmt, [
        "connect-sim", "--zone", files["zone"], "--anchors", files["anchors"],
        "--store", files["store"], "--profiles", files["profiles"],
        "--domain", "tls12.test", "--server", "strong", "--now", "01-07-2018",
    ])
    assert main(argv) == 2
    assert "line 1: byte 0xff is not UTF-8" in capsys.readouterr().err


def test_resolve_prints_sig_dates(world, capsys):
    assert main(["resolve", "--zone", world["zone"], "--name", "tls12.test"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        "  SIG key=zsk-1 inception=01-05-2018 expiration=01-05-2019"
    )


def test_connect_sim_established(world, capsys):
    code = main([
        "connect-sim", "--zone", world["zone"], "--anchors", world["anchors"],
        "--domain", "tls12.test", "--profiles", world["profiles"],
        "--server", "strong", "--now", "01-07-2018",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "transcript:" in out
    assert "outcome: Established version=TLS1.2" in out


def test_connect_sim_attack_aborts(world, capsys):
    code = main([
        "connect-sim", "--zone", world["zone"], "--anchors", world["anchors"],
        "--domain", "tls12.test", "--profiles", world["profiles"],
        "--server", "buggy", "--attack", "fragment", "--now", "01-07-2018",
    ])
    assert code == 1
    out = capsys.readouterr().out
    assert "attacker: fragmented ClientHello" in out
    assert "outcome: AbortedByClient" in out


def test_connect_sim_unknown_profile(world):
    code = main([
        "connect-sim", "--zone", world["zone"], "--anchors", world["anchors"],
        "--domain", "tls12.test", "--profiles", world["profiles"],
        "--server", "ghost", "--now", "01-07-2018",
    ])
    assert code == 2


@pytest.mark.parametrize("suite", ["table2", "poodle", "fragment", "forgery"])
def test_attack_sim_builtins(suite, capsys):
    assert main(["attack-sim", suite]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out
    assert "[FAIL]" not in out


def test_attack_sim_scenario_file(world, tmp_path, capsys):
    scenario = tmp_path / "s.txt"
    scenario.write_text(
        PROFILES_FILE
        + "SCENARIO s1 CLIENT strict SERVER strong ATTACK none EXPECT established\n"
        + "SCENARIO s2 CLIENT strict SERVER strong ATTACK drop:2 EXPECT aborted\n"
    )
    assert main(["attack-sim", "--scenario-file", str(scenario)]) == 0
    assert "[PASS] s2" in capsys.readouterr().out


def test_attack_sim_failed_expectation_exits_one(tmp_path, capsys):
    scenario = tmp_path / "s.txt"
    scenario.write_text(
        "PROFILE s VERSIONS TLS1.2 SUITES ECDHE-RSA-AES128-GCM-SHA256\n"
        "SCENARIO wrong CLIENT strict SERVER s ATTACK none EXPECT aborted\n"
    )
    assert main(["attack-sim", "--scenario-file", str(scenario)]) == 1
    assert "[FAIL] wrong" in capsys.readouterr().out


def test_attack_sim_requires_exactly_one_source(capsys):
    assert main(["attack-sim"]) == 2
    assert main(["attack-sim", "table2", "--scenario-file", "x"]) == 2


def test_survey_command(tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text(render_corpus(generate_corpus(
        total=40, latest=30, latest_exclusive=5, latest_two=20, latest_three=15,
        fsae_any=25, fsae_mixed=22, modal_count=20, modal_servers=10,
    )))
    assert main(["survey", "--corpus", str(corpus)]) == 0
    assert "responding profiles            40" in capsys.readouterr().out
    assert main(["survey", "--corpus", str(corpus), "--kv"]) == 0
    assert "latest_pct=75.00%" in capsys.readouterr().out


def test_survey_empty_corpus_exit_two(tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("# nothing here\n")
    assert main(["survey", "--corpus", str(corpus)]) == 2


def test_bench_single_iteration(world, capsys):
    code = main([
        "bench", "--iterations", "1", "--zone", world["zone"],
        "--anchors", world["anchors"], "--domain", "tls12.test",
        "--now", "01-07-2018",
    ])
    assert code == 0
    out = capsys.readouterr().out
    for row in ("SigVerify", "QueryVerify", "Enforce", "All 3 functions"):
        assert row in out


def test_bench_builtin_fixture(capsys):
    assert main(["bench", "--iterations", "2"]) == 0
    assert "All 3 functions" in capsys.readouterr().out


def test_bench_rejects_bad_iterations(capsys):
    assert main(["bench", "--iterations", "0"]) == 2


def test_bench_bad_fixture_exit_two(world, capsys):
    assert main([
        "bench", "--zone", world["zone"], "--anchors", world["anchors"],
        "--domain", "unknown.test", "--now", "01-07-2018",
    ]) == 2
