"""Operator CLI smoke tests (subprocess level)."""

import json
import socket
import subprocess
import sys

import pytest

from fedshield import cli
from fedshield.audit import AuditVerdict, read_entries
from fedshield.demo import author_policy, role_measurements
from fedshield.enclave import generate_platform, measure, save_platform, spawn_enclave
from fedshield.fl import save_dataset_csv, synthetic_dataset
from fedshield.policy import SessionConfig, parse_policy

CLI = [sys.executable, "-m", "fedshield.cli"]


def run_cli(*args, check=True, **kwargs):
    result = subprocess.run([*CLI, *map(str, args)], capture_output=True,
                            text=True, **kwargs)
    if check and result.returncode != 0:
        raise AssertionError(f"cli failed: {result.stderr}\n{result.stdout}")
    return result


def test_help_for_every_subcommand():
    for verb in ["keygen", "measure", "policy", "encrypt-data", "decrypt-data",
                 "counter", "run-manager", "run-coordinator", "run-client",
                 "audit", "demo"]:
        result = run_cli(verb, "--help")
        assert result.returncode == 0


def test_keygen_platform_and_signing(tmp_path):
    out = run_cli("keygen", "--out", tmp_path / "platform.json")
    assert "root_public_key" in out.stdout
    doc = json.loads((tmp_path / "platform.json").read_text())
    assert doc["kind"] == "platform"
    out = run_cli("keygen", "--kind", "signing", "--out", tmp_path / "svc.json")
    assert "public_key" in out.stdout


def test_measure_matches_library(tmp_path):
    bundle = tmp_path / "bundle.bin"
    config = tmp_path / "config.txt"
    bundle.write_bytes(b"program bytes here")
    config.write_bytes(b"lr=0.1\n")
    out = run_cli("measure", bundle, "--config", config)
    assert out.stdout.strip() == measure(b"program bytes here", b"lr=0.1\n").hex()


def test_encrypt_decrypt_with_rollback(tmp_path):
    run_cli("keygen", "--kind", "signing", "--out", tmp_path / "svc.json")
    counter_dir = tmp_path / "counters"
    counter_id = run_cli("counter", "init", "--counter-dir", counter_dir,
                         "--counter-key", tmp_path / "svc.json").stdout.strip()
    secret = tmp_path / "secret.txt"
    secret.write_bytes(b"the plaintext training dataset, version 1")
    key_hex = "ab" * 32
    run_cli("encrypt-data", "--in", secret, "--out", tmp_path / "v1.sfl",
            "--key-hex", key_hex, "--counter-id", counter_id,
            "--counter-dir", counter_dir, "--counter-key", tmp_path / "svc.json")
    run_cli("decrypt-data", "--in", tmp_path / "v1.sfl", "--out",
            tmp_path / "v1.out", "--key-hex", key_hex,
            "--counter-dir", counter_dir, "--counter-key", tmp_path / "svc.json")
    assert (tmp_path / "v1.out").read_bytes() == secret.read_bytes()

    # a second authorized write advances the counter; v1 must now be stale
    secret.write_bytes(b"the plaintext training dataset, version 2")
    run_cli("encrypt-data", "--in", secret, "--out", tmp_path / "v2.sfl",
            "--key-hex", key_hex, "--counter-id", counter_id,
            "--counter-dir", counter_dir, "--counter-key", tmp_path / "svc.json")
    stale = run_cli("decrypt-data", "--in", tmp_path / "v1.sfl", "--out",
                    tmp_path / "stale.out", "--key-hex", key_hex,
                    "--counter-dir", counter_dir,
                    "--counter-key", tmp_path / "svc.json", check=False)
    assert stale.returncode == 1
    assert "counter" in stale.stderr


def test_policy_new(tmp_path):
    data = tmp_path / "alice.csv"
    save_dataset_csv(synthetic_dataset(20, 3, seed=1), data)
    out = run_cli("policy", "new", "--out", tmp_path / "policy.json",
                  "--name", "cli-pact",
                  "--manager-measurement", "11" * 32,
                  "--coordinator-measurement", "22" * 32,
                  "--client-measurement", "33" * 32,
                  "--client", f"alice={data}")
    policy = parse_policy((tmp_path / "policy.json").read_text())
    assert policy.name == "cli-pact"
    assert policy.policy_hash.hex() in out.stdout


def test_demo_and_audit_verify(tmp_path):
    out = run_cli("demo", "--workdir", tmp_path / "demo", "--rows", "60",
                  "--dim", "4", "--capture")
    assert "session finished at round" in out.stdout
    assert "confidentiality scan (wire + storage): clean" in out.stdout
    log = tmp_path / "demo" / "coordinator" / "audit.log"
    ok = run_cli("audit", "verify", log)
    assert "accepted" in ok.stdout

    blob = bytearray(log.read_bytes())
    blob[len(blob) // 2] ^= 0x01
    log.write_bytes(bytes(blob))
    broken = run_cli("audit", "verify", log, check=False)
    assert broken.returncode == 1
    assert "BROKEN" in broken.stdout


@pytest.mark.parametrize("fault", ["broken-chain", "leak"])
def test_demo_exit_status_reports_a_failed_check(tmp_path, monkeypatch, capsys,
                                                 fault):
    if fault == "broken-chain":
        monkeypatch.setattr(cli, "verify_audit",
                            lambda path: AuditVerdict(False, 3, 2, "hash mismatch"))
    else:
        monkeypatch.setattr(cli, "scan_tree",
                            lambda root, patterns: ["coordinator/state:dataset"])
    status = cli.main(["demo", "--workdir", str(tmp_path / "demo"), "--rows", "60",
                       "--dim", "4", "--capture"])
    out = capsys.readouterr().out
    assert status == 1
    assert ("BROKEN at 2" if fault == "broken-chain" else "LEAKED") in out


def closed_port() -> int:
    """A loopback port that nothing listens on."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


@pytest.mark.parametrize("verb", ["run-client", "run-coordinator"])
def test_missing_input_file_fails_before_contacting_manager(tmp_path, verb):
    argv = run_client_argv(tmp_path, role_measurements())
    argv[argv.index("--manager") + 1] = f"127.0.0.1:{closed_port()}"
    missing = tmp_path / "missing.csv"
    if verb == "run-client":
        argv[argv.index("--data") + 1] = str(missing)
    else:  # the same role flags, with the coordinator's own in place of the client's
        for flag in ("--client-id", "--data", "--coordinator"):
            del argv[argv.index(flag):argv.index(flag) + 2]
        argv[0] = verb
        argv += ["--listen", "127.0.0.1:0", "--state-dir", str(tmp_path / "state"),
                 "--validation", str(missing)]
    result = run_cli(*argv, check=False)
    assert result.returncode == 1
    assert result.stderr.startswith("error: ")
    assert str(missing) in result.stderr
    assert "Traceback" not in result.stderr
    assert "cannot connect" not in result.stderr


def test_session_file_pins_policy_hash(tmp_path):
    run_cli("keygen", "--out", tmp_path / "platform.json")
    data = tmp_path / "alice.csv"
    save_dataset_csv(synthetic_dataset(20, 3, seed=3), data)
    run_cli("policy", "new", "--out", tmp_path / "policy.json",
            "--name", "pinned",
            "--manager-measurement", "11" * 32,
            "--coordinator-measurement", "22" * 32,
            "--client-measurement", "33" * 32,
            "--client", f"alice={data}")
    bundle = tmp_path / "bundle.bin"
    config = tmp_path / "config.txt"
    bundle.write_bytes(b"agent")
    config.write_bytes(b"cfg")
    session_file = tmp_path / "session.json"
    session_file.write_text(json.dumps({
        "manager": "127.0.0.1:1", "coordinator": "127.0.0.1:1",
        "policy": str(tmp_path / "policy.json"),
        "policy_hash": "00" * 32,  # wrong on purpose
        "counter_public_key": "aa" * 32,
    }))
    result = run_cli("run-client", "--client-id", "alice",
                     "--data", tmp_path / "whatever.sfl",
                     "--key-file", tmp_path / "platform.json",
                     "--bundle", bundle, "--config", config,
                     "--session-file", session_file, check=False)
    assert result.returncode == 1
    assert "session file pins" in result.stderr


def test_run_client_attests_manager_from_its_own_enclave(tmp_path, monkeypatch):
    """The enclave that receives the client's secrets is the one that trains."""
    spawned = []

    def counting_spawn(*args):
        spawned.append(args)
        return spawn_enclave(*args)

    monkeypatch.setattr(cli, "spawn_enclave", counting_spawn)
    assert cli.main(run_client_argv(tmp_path, role_measurements())) == 1
    assert len(spawned) == 1


def test_run_client_refuses_a_policy_that_pins_no_manager(tmp_path, capsys):
    measurements = role_measurements()
    del measurements["policy_manager_self"]
    assert cli.main(run_client_argv(tmp_path, measurements)) == 1
    assert "'policy_manager_self' not declared in policy" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["session-file", "key-file", "hex-flag"])
def test_malformed_operator_input_ends_in_an_error_line(tmp_path, case):
    if case == "hex-flag":
        save_dataset_csv(synthetic_dataset(20, 3, seed=1), tmp_path / "alice.csv")
        argv = ["policy", "new", "--out", tmp_path / "policy.json", "--name", "bad",
                "--manager-measurement", "zz",
                "--coordinator-measurement", "22" * 32,
                "--client-measurement", "33" * 32,
                "--client", f"alice={tmp_path / 'alice.csv'}"]
    else:
        argv = run_client_argv(tmp_path, role_measurements())
        if case == "session-file":
            (tmp_path / "session.json").write_text("{not json")
            argv += ["--session-file", str(tmp_path / "session.json")]
        else:
            key_file = tmp_path / "platform.json"
            doc = json.loads(key_file.read_text())
            del doc["platform_id"]
            key_file.write_text(json.dumps(doc))
    result = run_cli(*argv, check=False)
    assert result.returncode == 1
    assert result.stderr.startswith("error: ")
    assert "Traceback" not in result.stderr


def run_client_argv(tmp_path, measurements) -> list[str]:
    """``run-client`` arguments for a policy pinning ``measurements``; the
    manager and coordinator addresses are unreachable."""
    save_platform(generate_platform(), tmp_path / "platform.json")
    (tmp_path / "policy.json").write_text(author_policy(
        "one-enclave", measurements, [("alice", bytes(32))], SessionConfig()))
    (tmp_path / "bundle.bin").write_bytes(b"agent")
    return ["run-client", "--client-id", "alice",
            "--data", str(tmp_path / "alice.sfl"),
            "--key-file", str(tmp_path / "platform.json"),
            "--bundle", str(tmp_path / "bundle.bin"),
            "--config", str(tmp_path / "bundle.bin"),
            "--manager", "127.0.0.1:1", "--coordinator", "127.0.0.1:1",
            "--policy", str(tmp_path / "policy.json"),
            "--counter-public-key", "aa" * 32]


def start_service(*args):
    """Start a serving verb; return the process, the ``name: value`` lines it
    printed before its address, and that ``HOST:PORT``."""
    proc = subprocess.Popen([sys.executable, "-u", "-m", "fedshield.cli",
                             *map(str, args)],
                            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                            text=True)
    printed = {}
    for line in proc.stdout:
        if line.startswith("listening on "):
            return proc, printed, line.split()[-1]
        name, _, value = line.partition(": ")
        printed[name] = value.strip()
    proc.wait(timeout=10)
    raise AssertionError(f"{args[0]} did not come up: {printed}")


def test_run_manager_and_policy_upload(tmp_path):
    run_cli("keygen", "--out", tmp_path / "platform.json")
    run_cli("keygen", "--kind", "signing", "--out", tmp_path / "svc.json")
    bundle = tmp_path / "manager.bundle"
    config = tmp_path / "role.cfg"
    bundle.write_bytes(b"manager program")
    config.write_bytes(b"cfg\n")
    manager_measurement = measure(b"manager program", b"cfg\n").hex()

    data = tmp_path / "alice.csv"
    save_dataset_csv(synthetic_dataset(20, 3, seed=2), data)
    run_cli("policy", "new", "--out", tmp_path / "policy.json",
            "--name", "net-pact",
            "--manager-measurement", manager_measurement,
            "--coordinator-measurement", "22" * 32,
            "--client-measurement", "33" * 32,
            "--client", f"alice={data}")

    server, printed, address = start_service(
        "run-manager", "--listen", "127.0.0.1:0",
        "--store-dir", tmp_path / "store",
        "--key-file", tmp_path / "platform.json",
        "--bundle", bundle, "--config", config,
        "--counter-key", tmp_path / "svc.json")
    try:
        counter_pub = printed.get("counter service public key")
        assert counter_pub, "manager did not come up"

        out = run_cli("policy", "upload",
                      "--policy", tmp_path / "policy.json",
                      "--manager", address,
                      "--key-file", tmp_path / "platform.json",
                      "--bundle", bundle, "--config", config,
                      "--counter-public-key", counter_pub,
                      "--generate")
        assert "uploaded:" in out.stdout
        assert "secrets generated" in out.stdout
        assert (tmp_path / "store" / "policies").glob("*.pol")
    finally:
        server.terminate()
        server.wait(timeout=10)


@pytest.fixture
def cli_manager(tmp_path):
    """A ``run-manager`` process holding the uploaded policy "study-1" and
    its secrets: client alice, a declared validation set, two rounds.
    Yields the role bundles and the flags every role verb shares."""
    run_cli("keygen", "--out", tmp_path / "platform.json")
    run_cli("keygen", "--kind", "signing", "--out", tmp_path / "counter.json")
    config = tmp_path / "session.cfg"
    config.write_bytes(b"profile=cli\n")
    bundles = {}
    for role in ("manager", "coord", "agent"):
        bundles[role] = tmp_path / f"{role}.tar"
        bundles[role].write_bytes(f"{role} program".encode())
    measurement = {role: measure(path.read_bytes(), b"profile=cli\n").hex()
                   for role, path in bundles.items()}
    save_dataset_csv(synthetic_dataset(40, 3, seed=5), tmp_path / "alice.csv")
    save_dataset_csv(synthetic_dataset(60, 3, seed=6), tmp_path / "val.csv")
    run_cli("policy", "new", "--out", tmp_path / "policy.json", "--name", "study-1",
            "--manager-measurement", measurement["manager"],
            "--coordinator-measurement", measurement["coord"],
            "--client-measurement", measurement["agent"],
            "--client", f"alice={tmp_path / 'alice.csv'}",
            "--validation", tmp_path / "val.csv", "--max-rounds", 2)
    role = ("--key-file", tmp_path / "platform.json", "--config", config)

    manager, printed, manager_address = start_service(
        "run-manager", "--listen", "127.0.0.1:0", "--store-dir", tmp_path / "store",
        "--bundle", bundles["manager"], *role,
        "--counter-key", tmp_path / "counter.json")
    try:
        flags = ("--manager", manager_address, "--policy", tmp_path / "policy.json",
                 "--counter-public-key", printed["counter service public key"], *role)
        run_cli("policy", "upload", *flags, "--bundle", bundles["agent"], "--generate")
        yield bundles, flags
    finally:
        manager.kill()
        manager.wait(timeout=10)


def test_session_over_tcp_from_plaintext_csv(tmp_path, cli_manager):
    """The README's CLI flow: one process per role, each role shielding its
    own plaintext CSV under a manager counter, two rounds to completion."""
    bundles, flags = cli_manager
    coordinator = None
    try:
        coordinator, _, coordinator_address = start_service(
            "run-coordinator", "--listen", "127.0.0.1:0", *flags,
            "--bundle", bundles["coord"],
            "--state-dir", tmp_path / "state", "--validation", tmp_path / "val.csv")
        client = run_cli("run-client", "--coordinator", coordinator_address,
                         *flags, "--bundle", bundles["agent"],
                         "--client-id", "alice", "--data", tmp_path / "alice.csv",
                         timeout=60)
        assert "alice: admitted" in client.stdout
        assert coordinator.wait(timeout=60) == 0
        assert "session finished at round 2" in coordinator.stdout.read()
    finally:
        if coordinator is not None:
            coordinator.kill()
            coordinator.wait(timeout=10)
    assert (tmp_path / "alice.sfl").exists()
    assert (tmp_path / "state" / "validation.sfl").exists()
    assert "accepted" in run_cli("audit", "verify", tmp_path / "state" / "audit.log").stdout


def test_coordinator_refuses_validation_set_the_policy_does_not_hash(
        tmp_path, cli_manager):
    bundles, flags = cli_manager
    save_dataset_csv(synthetic_dataset(60, 3, seed=7), tmp_path / "other.csv")
    result = run_cli("run-coordinator", "--listen", "127.0.0.1:0", *flags,
                     "--bundle", bundles["coord"], "--state-dir", tmp_path / "state",
                     "--validation", tmp_path / "other.csv", "--join-deadline", 0.5,
                     check=False, timeout=60)
    assert result.returncode == 1
    assert result.stderr.startswith("error: validation set hashes to ")
    assert "Traceback" not in result.stderr
    released = [entry.payload["role"]
                for entry in read_entries(tmp_path / "store" / "audit.log")
                if entry.kind == "secrets-released"]
    assert "coordinator" not in released
    assert not (tmp_path / "state" / "validation.sfl").exists()
