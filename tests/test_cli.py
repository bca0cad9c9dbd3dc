import os
import stat
from datetime import date
from pathlib import Path

import pytest
from cryptography.hazmat.primitives import serialization
from cryptography.hazmat.primitives.asymmetric import ec, rsa

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


@pytest.mark.parametrize("flag, directive", [
    ("--revoke", "revoke"), ("--include-sub-domain", "includeSubDomain"),
])
def test_gen_rejects_a_flag_that_is_not_0_or_1_naming_its_directive(capsys, flag, directive):
    # The same rule and message as a policy text's flag directive.
    with pytest.raises(SystemExit) as info:
        main(["gen", "--valid-from", "01-05-2018", "--valid-to", "01-05-2019",
              "--report", "a@b.c", flag, "2"])
    assert info.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"dstc gen: error: argument {flag}: {directive} must be 0 or 1, got '2'"
    )


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


def test_an_owner_with_a_spaced_trailing_dot_signs_and_verifies(tmp_path, capsys):
    zone = tmp_path / "z.zone"
    anchors = str(tmp_path / "a.txt")
    assert main([
        "sign", "--zone", str(zone), "--domain", "a.test. .",
        "--policy-txt", serialize_policy(POLICY), "--key", str(tmp_path / "k.pem"),
        "--generate-key", "--inception", "01-05-2018", "--expiration", "01-05-2019",
        "--anchors-out", anchors,
    ]) == 0
    assert {line.split()[0] for line in zone.read_text().splitlines()} == {"a.test"}
    capsys.readouterr()
    assert main([
        "verify", "--zone", str(zone), "--anchors", anchors,
        "--domain", "a.test", "--now", "01-07-2018",
    ]) == 0
    assert "decision: mode=Strict reason=OK report=admin@tls12.test" in capsys.readouterr().out


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


def _sign_args(tmp_path, *extra, policy=serialize_policy(POLICY)):
    return [
        "sign", "--zone", str(tmp_path / "z.zone"), "--domain", "tls12.test",
        "--policy-txt", policy, "--key", str(tmp_path / "k.pem"),
        "--inception", "01-05-2018", "--expiration", "01-05-2019", *extra,
    ]


def test_generated_key_is_owner_only(tmp_path):
    old = os.umask(0o022)
    try:
        assert main(_sign_args(tmp_path, "--generate-key")) == 0
    finally:
        os.umask(old)
    assert stat.S_IMODE((tmp_path / "k.pem").stat().st_mode) == 0o600


@pytest.mark.parametrize("policy, extra, files", [
    ("name=DSTC; junk", (), {}),
    (serialize_policy(POLICY), (), {"z.zone": "tls12.test BOGUS x\n"}),
    (serialize_policy(POLICY), ("--anchors-out", "a.txt"), {"a.txt": "garbage\n"}),
    (serialize_policy(POLICY), ("--extra-txt", 'say "hi"'), {}),
], ids=["malformed-policy", "corrupt-zone", "corrupt-anchors", "unwritable-value"])
def test_refused_sign_leaves_no_new_key(tmp_path, capsys, policy, extra, files):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    extra = [str(tmp_path / arg) if arg in files else arg for arg in extra]
    code = main(_sign_args(tmp_path, "--generate-key", *extra, policy=policy))
    assert code == 2
    assert not (tmp_path / "k.pem").exists()
    assert "generated key" not in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(files)


def test_encrypted_key_is_a_usage_error(tmp_path, capsys, zone_keys):
    (tmp_path / "k.pem").write_bytes(zone_keys.private_key.private_bytes(
        serialization.Encoding.PEM,
        serialization.PrivateFormat.PKCS8,
        serialization.BestAvailableEncryption(b"secret"),
    ))
    assert main(_sign_args(tmp_path)) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("dstc sign: ")
    assert str(tmp_path / "k.pem") in err[0]
    assert not (tmp_path / "z.zone").exists()


def test_malformed_key_file_is_a_usage_error_naming_it(tmp_path, capsys):
    (tmp_path / "k.pem").write_bytes(b"junk\n")
    assert main(_sign_args(tmp_path)) == 2
    assert capsys.readouterr().err == (
        f"dstc sign: {tmp_path / 'k.pem'}: not a PEM private key\n"
    )
    assert not (tmp_path / "z.zone").exists()


def test_small_key_file_is_a_usage_error(tmp_path, capsys):
    # Generated keys are always MIN_KEY_BITS; a key file is the one way a
    # smaller key can still come in.
    weak = rsa.generate_private_key(public_exponent=65537, key_size=1024)
    (tmp_path / "k.pem").write_bytes(weak.private_bytes(
        serialization.Encoding.PEM,
        serialization.PrivateFormat.PKCS8,
        serialization.NoEncryption(),
    ))
    assert main(_sign_args(tmp_path, "--anchors-out", str(tmp_path / "a.txt"))) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("dstc sign: ")
    assert str(tmp_path / "k.pem") in err[0] and "2048-bit floor" in err[0]
    assert [p.name for p in tmp_path.iterdir()] == ["k.pem"]


def test_non_rsa_key_file_is_a_usage_error(tmp_path, capsys):
    (tmp_path / "k.pem").write_bytes(ec.generate_private_key(ec.SECP256R1()).private_bytes(
        serialization.Encoding.PEM,
        serialization.PrivateFormat.PKCS8,
        serialization.NoEncryption(),
    ))
    assert main(_sign_args(tmp_path)) == 2
    assert capsys.readouterr().err == f"dstc sign: {tmp_path / 'k.pem'}: not an RSA private key\n"
    assert [p.name for p in tmp_path.iterdir()] == ["k.pem"]


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


def test_a_clock_set_forward_and_back_keeps_the_drop_alarm(world, capsys, zone_keys):
    zone = ZoneStore()
    policy = PolicyRecord(date(2018, 5, 1), date(2019, 5, 1), "a@p.test")
    zone.publish(sign_rrset(zone_keys, "p.test", [serialize_policy(policy)],
                            date(2018, 5, 1), date(2019, 5, 1)))
    zone.save(world["zone"])
    anchors = TrustAnchorSet()
    anchors.add(TrustAnchor("p.test", zone_keys.key_id, zone_keys.public_der()))
    anchors.save(world["anchors"])
    dropped = world["tmp"] / "dropped.zone"
    dropped.write_text("p.test NAME -\n")
    argv = ["verify", "--anchors", world["anchors"], "--domain", "p.test",
            "--store", world["store"]]

    assert main([*argv, "--zone", world["zone"], "--now", "01-07-2018"]) == 0
    assert "decision: mode=Strict reason=OK report=a@p.test\n" in capsys.readouterr().out
    assert main([*argv, "--zone", str(dropped), "--now", "01-01-2031"]) == 0
    assert "decision: mode=Default reason=NoRecord report=-\n" in capsys.readouterr().out
    assert main([*argv, "--zone", str(dropped), "--now", "01-07-2018"]) == 1
    out = capsys.readouterr().out
    assert "decision: mode=Strict reason=DropAlarm report=a@p.test\n" in out
    assert "report: attack indicators for p.test should be reported to a@p.test\n" in out


TOO_LONG_NAME = ".".join(["a" * 63] * 3 + ["b" * 62])


@pytest.mark.parametrize("command", ["verify", "connect-sim"])
def test_a_name_longer_than_dns_allows_exits_two_and_writes_no_store(world, capsys, command):
    extra = ["--profiles", world["profiles"], "--server", "strong"] if command != "verify" else []
    code = main([
        command, "--zone", world["zone"], "--anchors", world["anchors"], *extra,
        "--domain", TOO_LONG_NAME, "--now", "01-07-2018", "--store", world["store"],
    ])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"dstc {command}: query name is longer than 253 characters\n"
    assert not os.path.exists(world["store"])


EXPIRED_POLICY = PolicyRecord(
    valid_from=date(2017, 1, 1), valid_to=date(2017, 6, 1), report="admin@old.test"
)


@pytest.mark.parametrize("command", ["verify", "connect-sim"])
@pytest.mark.parametrize("domain", ["tls12.test", "old.test"])
def test_saving_the_store_keeps_its_expired_lines(world, capsys, command, domain):
    live = PolicyStore()
    live.update("tls12.test", POLICY, date(2018, 7, 1))
    live_line = live.to_text()
    expired_policy = f"POLICY old.test {serialize_policy(EXPIRED_POLICY)}\n"
    expired_tombstone = "TOMBSTONE gone.test 01-01-2017 01-06-2017\n"
    # The older form's stored-at date is dropped on the way back.
    expired_lines = (
        f"POLICY old.test 01-01-2017 {serialize_policy(EXPIRED_POLICY)}\n" + expired_tombstone
    )
    extra = ["--profiles", world["profiles"], "--server", "strong"] if command != "verify" else []
    argv = [
        command, "--zone", world["zone"], "--anchors", world["anchors"], *extra,
        "--domain", domain, "--now", "01-07-2018", "--store", world["store"],
    ]
    outputs = []
    for text, saved in (
        (expired_lines + live_line, expired_policy + live_line + expired_tombstone),
        (live_line, live_line),
    ):
        with open(world["store"], "w", encoding="utf-8") as fh:
            fh.write(text)
        code = main(argv)
        outputs.append((code, capsys.readouterr().out))
        with open(world["store"], encoding="utf-8") as fh:
            assert fh.read() == saved
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


@pytest.mark.parametrize("fmt", ["zone", "anchors", "store"])
def test_a_bad_line_is_reported_with_its_file(world, capsys, fmt):
    bad = world["tmp"] / f"bad-{fmt}.txt"
    bad.write_text("# one bad line\nbogus\n")
    files = {**world, fmt: str(bad)}
    code = main([
        "verify", "--zone", files["zone"], "--anchors", files["anchors"],
        "--store", files["store"], "--domain", "tls12.test", "--now", "01-07-2018",
    ])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"dstc verify: {bad}: line 2: ")


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


@pytest.mark.parametrize("name, first_line", [
    ("TLS12.Test.", "tls12.test: Answered"),
    ("quiet.test", "quiet.test: NoRecord"),
    ("ghost.test", "ghost.test: NoSuchDomain"),
], ids=["answered", "no-record", "no-such-domain"])
def test_resolve_names_the_normalised_query_first(world, capsys, name, first_line):
    with open(world["zone"], "a", encoding="utf-8") as fh:
        fh.write("quiet.test NAME -\n")
    assert main(["resolve", "--zone", world["zone"], "--name", name]) == 0
    assert capsys.readouterr().out.splitlines()[0] == first_line


def test_resolve_prints_an_unsigned_set_without_a_signature(world, capsys):
    zone = ZoneStore.load(world["zone"])
    zone.attacker_add_txt_value("forged.test", "v=spf1 -all")
    zone.save(world["zone"])
    assert main(["resolve", "--zone", world["zone"], "--name", "forged.test"]) == 0
    assert capsys.readouterr().out == (
        "forged.test: Answered\n"
        '  TXT "v=spf1 -all"\n'
        "  SIG (none)\n"
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


def test_connect_sim_modified_hello_aborts_a_strict_client(world, capsys):
    code = main([
        "connect-sim", "--zone", world["zone"], "--anchors", world["anchors"],
        "--domain", "tls12.test", "--profiles", world["profiles"],
        "--server", "strong", "--attack", "modver:1.0", "--now", "01-07-2018",
    ])
    assert code == 1
    out = capsys.readouterr().out.splitlines()
    assert "attack: modver:TLS1.0" in out
    assert out[-1] == "outcome: AbortedByClient"


def test_connect_sim_refuses_an_attack_argument_it_would_drop(world, capsys):
    code = main([
        "connect-sim", "--zone", world["zone"], "--anchors", world["anchors"],
        "--domain", "tls12.test", "--profiles", world["profiles"],
        "--server", "strong", "--attack", "fragment:x", "--now", "01-07-2018",
    ])
    assert code == 2
    assert "fragment:x" in capsys.readouterr().err


@pytest.mark.parametrize("token", ["drop:x", "drop:", "drop:+2", "drop:\u0662", "drop:1_0",
                                   "drop:0", "modver:9", "modver:"])
def test_connect_sim_names_a_bad_drop_count(world, capsys, token):
    code = main([
        "connect-sim", "--zone", world["zone"], "--anchors", world["anchors"],
        "--domain", "tls12.test", "--profiles", world["profiles"],
        "--server", "strong", "--attack", token, "--now", "01-07-2018",
    ])
    assert code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"dstc connect-sim: unknown attack '{token}'\n"


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


# README's scenario-file example and its whole report, captured before file
# rows and built-in rows shared one builder. File rows show no decision.
README_SCENARIO_FILE = """\
PROFILE strong VERSIONS TLS1.2,TLS1.1,TLS1.0 SUITES ECDHE-RSA-AES128-GCM-SHA256,AES128-SHA
PROFILE buggy  VERSIONS TLS1.2,TLS1.0 SUITES ECDHE-RSA-AES128-GCM-SHA256,AES128-SHA FRAGBUG
SCENARIO downgrade CLIENT default SERVER strong ATTACK drop:2 EXPECT established
SCENARIO detected  CLIENT strict  SERVER strong ATTACK drop:2 EXPECT aborted
"""

GOLDEN_README_SCENARIO_REPORT = """\
suite scenarios.txt: 2 scenario(s)
[PASS] downgrade: expected=Established actual=Established@TLS1.0 suite=ECDHE-RSA-AES128-GCM-SHA256
    client: ClientHello version=TLS1.2 suites=14
    attacker: dropped ClientHello (1 of 2)
    client: fallback TLS1.2 -> TLS1.1
    client: ClientHello version=TLS1.1 suites=14
    attacker: dropped ClientHello (2 of 2)
    client: fallback TLS1.1 -> TLS1.0
    client: ClientHello version=TLS1.0 suites=14
    server: ServerHello version=TLS1.0 suite=ECDHE-RSA-AES128-GCM-SHA256
    established: version=TLS1.0 suite=ECDHE-RSA-AES128-GCM-SHA256
[PASS] detected: expected=AbortedByClient|AbortedByServer actual=AbortedByClient
    client: ClientHello version=TLS1.2 suites=6
    attacker: dropped ClientHello (1 of 2)
    client: retry same version TLS1.2 (1 of 1)
    client: ClientHello version=TLS1.2 suites=6
    attacker: dropped ClientHello (2 of 2)
    client: abort (hello lost and fallback disabled)
"""


def test_attack_sim_readme_scenario_file_golden(tmp_path, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert README_SCENARIO_FILE in readme
    scenario = tmp_path / "scenarios.txt"
    scenario.write_text(README_SCENARIO_FILE)
    assert main(["attack-sim", "--scenario-file", str(scenario)]) == 0
    assert capsys.readouterr().out == GOLDEN_README_SCENARIO_REPORT


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


GOLDEN_SURVEY_TEXT = """\
responding profiles            7080
supports TLS1.2                6888 (97.29% of 7080)
supports TLS1.2 exclusively    373 (5.27% of 7080)
supports TLS1.2 and TLS1.1     6462 (91.27% of 7080)
supports TLS1.2, 1.1 and 1.0   6202 (87.60% of 7080)
modal suite count              20 in 938 servers (13.62% of 6888)
suite labels across TLS1.2 servers:
    FS+AE        35037
    FS+nonAE     41226
    nonFS+AE     22745
    nonFS+nonAE  14840
servers with any FS+AE suite   6500 (94.37% of 6888)
FS+AE plus weaker suites       6483 (94.12% of 6888)
"""

GOLDEN_SURVEY_KV = """\
responding=7080
latest_count=6888
latest_pct=97.29%
latest_exclusive_count=373
latest_exclusive_pct=5.27%
latest_two_count=6462
latest_two_pct=91.27%
latest_three_count=6202
latest_three_pct=87.60%
modal_suite_count=20
modal_servers=938
modal_pct=13.62%
label_FS+AE=35037
label_FS+nonAE=41226
label_nonFS+AE=22745
label_nonFS+nonAE=14840
fsae_any_count=6500
fsae_any_pct=94.37%
fsae_mixed_count=6483
fsae_mixed_pct=94.12%
"""


def test_survey_golden_stdout_on_generated_corpus(tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text(render_corpus(generate_corpus()))
    assert main(["survey", "--corpus", str(corpus)]) == 0
    assert capsys.readouterr() == (GOLDEN_SURVEY_TEXT, "")
    assert main(["survey", "--corpus", str(corpus), "--kv"]) == 0
    assert capsys.readouterr() == (GOLDEN_SURVEY_KV, "")


def test_survey_of_a_corpus_without_tls12_has_no_modal_count(tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("old.test | TLS1.0 | AES128-SHA\n")
    assert main(["survey", "--corpus", str(corpus)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "modal suite count              - in 0 servers (0.00% of 0)" in out


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


def test_bench_skips_a_txt_value_that_is_not_dstc(world, zone_keys, capsys):
    zone = ZoneStore.load(world["zone"])
    zone.publish(sign_rrset(zone_keys, "tls12.test", [serialize_policy(POLICY), "v=spf1 -all"],
                            date(2018, 5, 1), date(2019, 5, 1)))
    zone.save(world["zone"])
    assert main([
        "bench", "--iterations", "1", "--zone", world["zone"],
        "--anchors", world["anchors"], "--domain", "tls12.test", "--now", "01-07-2018",
    ]) == 0
    out, err = capsys.readouterr()
    assert "QueryVerify" in out and err == ""


def test_bench_builtin_fixture(capsys):
    assert main(["bench", "--iterations", "2"]) == 0
    assert "All 3 functions" in capsys.readouterr().out


def test_bench_rejects_bad_iterations(capsys):
    assert main(["bench", "--iterations", "0"]) == 2


@pytest.mark.parametrize("given, message", [
    ("zone", "--zone and --anchors go together"),
    ("anchors", "--zone and --anchors go together"),
    ("now", "--now goes with --zone"),
], ids=["zone", "anchors", "now"])
def test_bench_zone_and_anchors_go_together(world, capsys, given, message):
    value = "01-01-2030" if given == "now" else world[given]
    assert main(["bench", "--iterations", "1", f"--{given}", value]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"dstc bench: {message}\n"


def test_bench_without_an_anchor_for_the_domain_exit_two(world, zone_keys, capsys):
    anchors = TrustAnchorSet()
    anchors.add(TrustAnchor("other.test", zone_keys.key_id, zone_keys.public_der()))
    anchors.save(world["anchors"])
    assert main([
        "bench", "--iterations", "1", "--zone", world["zone"],
        "--anchors", world["anchors"], "--domain", "tls12.test", "--now", "01-07-2018",
    ]) == 2
    assert capsys.readouterr() == ("", "dstc bench: no trust anchor covers tls12.test\n")


def test_bench_bad_fixture_exit_two(world, capsys):
    assert main([
        "bench", "--zone", world["zone"], "--anchors", world["anchors"],
        "--domain", "unknown.test", "--now", "01-07-2018",
    ]) == 2


STRICT_LINES = (
    "config: versions=TLS1.2 fallback=off\n"
    "config: suites=ECDHE-ECDSA-AES128-GCM-SHA256,ECDHE-RSA-AES128-GCM-SHA256,"
    "ECDHE-ECDSA-CHACHA20-POLY1305,ECDHE-RSA-CHACHA20-POLY1305,"
    "ECDHE-ECDSA-AES256-GCM-SHA384,ECDHE-RSA-AES256-GCM-SHA384\n"
)
CACHED_LINE = f"POLICY tls12.test {serialize_policy(POLICY)}\n"
LIVE_TOMBSTONE = "TOMBSTONE rev.test 01-06-2018 01-06-2019\n"
EXPIRED_TOMBSTONE = "TOMBSTONE gone.test 01-01-2017 01-06-2017\n"


def _store_text(world):
    with open(world["store"], encoding="utf-8") as fh:
        return fh.read()


def test_verify_store_golden(world, capsys):
    with open(world["store"], "w", encoding="utf-8") as fh:
        fh.write(EXPIRED_TOMBSTONE + LIVE_TOMBSTONE)
    argv = ["verify", "--zone", world["zone"], "--anchors", world["anchors"],
            "--domain", "TLS12.test", "--store", world["store"]]
    assert main([*argv, "--now", "01-07-2018"]) == 0
    assert capsys.readouterr().out == (
        "decision: mode=Strict reason=OK report=admin@tls12.test\n" + STRICT_LINES
    )
    assert _store_text(world) == CACHED_LINE + EXPIRED_TOMBSTONE + LIVE_TOMBSTONE

    zone = ZoneStore.load(world["zone"])
    zone.attacker_drop_rrset("tls12.test")
    zone.save(world["zone"])
    assert main([*argv, "--now", "02-07-2018"]) == 1
    assert capsys.readouterr().out == (
        "decision: mode=Strict reason=DropAlarm report=admin@tls12.test\n"
        + STRICT_LINES
        + "report: attack indicators for TLS12.test should be reported to "
        "admin@tls12.test\n"
    )
    assert _store_text(world) == CACHED_LINE + EXPIRED_TOMBSTONE + LIVE_TOMBSTONE


def test_connect_sim_store_golden(world, capsys):
    argv = ["connect-sim", "--zone", world["zone"], "--anchors", world["anchors"],
            "--profiles", world["profiles"], "--server", "strong",
            "--attack", "drop:1", "--now", "01-07-2018", "--store", world["store"]]
    assert main([*argv, "--domain", "unknown.test"]) == 0
    assert capsys.readouterr().out == (
        "decision: mode=Default reason=NoRecord report=-\n"
        "config: versions=TLS1.2,TLS1.1,TLS1.0 fallback=on\n"
        "config: suites=ECDHE-ECDSA-AES128-GCM-SHA256,ECDHE-RSA-AES128-GCM-SHA256,"
        "ECDHE-ECDSA-CHACHA20-POLY1305,ECDHE-RSA-CHACHA20-POLY1305,"
        "ECDHE-ECDSA-AES256-GCM-SHA384,ECDHE-RSA-AES256-GCM-SHA384,"
        "ECDHE-ECDSA-AES256-SHA,ECDHE-ECDSA-AES128-SHA,"
        "ECDHE-RSA-AES128-SHA,ECDHE-RSA-AES256-SHA,DHE-RSA-AES128-SHA,"
        "DHE-RSA-AES256-SHA,AES128-SHA,AES256-SHA\n"
        "attack: drop:1\n"
        "transcript:\n"
        "  client: ClientHello version=TLS1.2 suites=14\n"
        "  attacker: dropped ClientHello (1 of 1)\n"
        "  client: fallback TLS1.2 -> TLS1.1\n"
        "  client: ClientHello version=TLS1.1 suites=14\n"
        "  server: ServerHello version=TLS1.1 suite=ECDHE-RSA-AES128-GCM-SHA256\n"
        "  established: version=TLS1.1 suite=ECDHE-RSA-AES128-GCM-SHA256\n"
        "outcome: Established version=TLS1.1 suite=ECDHE-RSA-AES128-GCM-SHA256\n"
    )
    assert _store_text(world) == ""

    assert main([*argv, "--domain", "tls12.test"]) == 0
    assert capsys.readouterr().out == (
        "decision: mode=Strict reason=OK report=admin@tls12.test\n"
        + STRICT_LINES
        + "attack: drop:1\n"
        "transcript:\n"
        "  client: ClientHello version=TLS1.2 suites=6\n"
        "  attacker: dropped ClientHello (1 of 1)\n"
        "  client: retry same version TLS1.2 (1 of 1)\n"
        "  client: ClientHello version=TLS1.2 suites=6\n"
        "  server: ServerHello version=TLS1.2 suite=ECDHE-RSA-AES128-GCM-SHA256\n"
        "  established: version=TLS1.2 suite=ECDHE-RSA-AES128-GCM-SHA256\n"
        "outcome: Established version=TLS1.2 suite=ECDHE-RSA-AES128-GCM-SHA256\n"
    )
    assert _store_text(world) == CACHED_LINE
