"""Operator CLI smoke tests (subprocess level)."""

import argparse
import contextlib
import json
import os
import select
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from fedshield import cli, demo, orchestrator
from fedshield.audit import AuditVerdict, read_entries
from fedshield.demo import author_policy, role_measurements
from fedshield.enclave import (
    generate_platform,
    measure,
    save_platform,
    spawn_enclave,
)
from fedshield.errors import NotFoundError
from fedshield.fl import dataset_to_csv_bytes, synthetic_dataset
from fedshield.policy import SessionConfig, parse_policy

CLI = [sys.executable, "-m", "fedshield.cli"]


def run_cli(*args, check=True, **kwargs):
    result = subprocess.run([*CLI, *map(str, args)], capture_output=True,
                            text=True, **kwargs)
    if check and result.returncode != 0:
        raise AssertionError(f"cli failed: {result.stderr}\n{result.stdout}")
    return result


def test_help_for_every_subcommand():
    verbs = ["keygen", "measure", "policy", "run-manager", "run-coordinator",
             "run-client", "audit", "demo"]
    [sub] = [a for a in cli.build_parser()._actions
             if isinstance(a, argparse._SubParsersAction)]
    assert list(sub.choices) == verbs
    for verb in verbs:
        result = run_cli(verb, "--help")
        assert result.returncode == 0


def test_keygen_platform_and_signing(tmp_path):
    out = run_cli("keygen", "--out", tmp_path / "platform.json")
    assert "root_public_key" in out.stdout
    doc = json.loads((tmp_path / "platform.json").read_text())
    assert doc["kind"] == "platform"
    out = run_cli("keygen", "--kind", "signing", "--out", tmp_path / "svc.json")
    assert "public_key" in out.stdout


@pytest.mark.parametrize("kind", ["platform", "signing"])
def test_keygen_refuses_an_existing_out(tmp_path, kind):
    # a new platform key file orphans every blob sealed under the old one
    out = tmp_path / "key.json"
    run_cli("keygen", "--kind", kind, "--out", out)
    old = out.read_bytes()
    result = run_cli("keygen", "--kind", kind, "--out", out, check=False)
    assert result.returncode == 1
    assert result.stderr.startswith("error: ") and str(out) in result.stderr
    assert "Traceback" not in result.stderr
    assert out.read_bytes() == old


def test_measure_matches_library(tmp_path):
    bundle = tmp_path / "bundle.bin"
    config = tmp_path / "config.txt"
    bundle.write_bytes(b"program bytes here")
    config.write_bytes(b"lr=0.1\n")
    out = run_cli("measure", bundle, "--config", config)
    assert out.stdout.strip() == measure(b"program bytes here", b"lr=0.1\n").hex()


def test_policy_new(tmp_path):
    data = tmp_path / "alice.csv"
    data.write_bytes(dataset_to_csv_bytes(synthetic_dataset(20, 3, seed=1)))
    out = run_cli("policy", "new", "--out", tmp_path / "policy.json",
                  "--name", "cli-pact",
                  "--manager-measurement", "11" * 32,
                  "--coordinator-measurement", "22" * 32,
                  "--client-measurement", "33" * 32,
                  "--client", f"alice={data}")
    policy = parse_policy((tmp_path / "policy.json").read_text())
    assert policy.name == "cli-pact"
    assert policy.policy_hash.hex() in out.stdout


def test_refused_policy_new_leaves_out_alone(tmp_path, capsys):
    data = tmp_path / "alice.csv"
    data.write_bytes(dataset_to_csv_bytes(synthetic_dataset(20, 3, seed=1)))
    out = tmp_path / "policy.json"
    out.write_bytes(b"the policy already here")
    assert cli.main(["policy", "new", "--out", str(out), "--name", "bad",
                     "--manager-measurement", "11" * 32,
                     "--coordinator-measurement", "22" * 32,
                     "--client-measurement", "33" * 32,
                     "--client", f"alice={data}", "--max-rounds", "-3"]) == 1
    assert capsys.readouterr().err == "error: max_rounds must be >= 1\n"
    assert out.read_bytes() == b"the policy already here"


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


def test_run_client_refuses_a_shielded_data_file(tmp_path):
    """``--data alice.sfl`` names the file run-client would shield the CSV
    to; it is refused before the manager is contacted, and keeps its bytes."""
    argv = run_client_argv(tmp_path, role_measurements())
    argv[argv.index("--manager") + 1] = f"127.0.0.1:{closed_port()}"
    shielded = tmp_path / "alice.sfl"
    shielded.write_bytes(b"SFL1 shielded rows")
    result = run_cli(*argv, check=False)
    assert result.returncode == 1
    assert result.stderr.startswith(f"error: --data {shielded} ")
    assert "cannot connect" not in result.stderr
    assert shielded.read_bytes() == b"SFL1 shielded rows"


def test_session_file_pins_policy_hash(tmp_path):
    run_cli("keygen", "--out", tmp_path / "platform.json")
    data = tmp_path / "alice.csv"
    data.write_bytes(dataset_to_csv_bytes(synthetic_dataset(20, 3, seed=3)))
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


@pytest.mark.parametrize("provisioned", [True, False])
def test_run_client_closes_its_manager_channel_before_joining(tmp_path, monkeypatch,
                                                              provisioned):
    """The manager channel is released once the dataset is provisioned, or
    once provisioning fails, so no client holds it through its session."""
    events = []

    class FakeNetwork:
        def connect(self, address):
            return address

    class FakeManager:
        def provision(self, policy_hash, role, path, plaintext):
            events.append("provision")
            if not provisioned:
                raise NotFoundError("secrets have not been generated")
            return plaintext, None

        def close(self):
            events.append("close")

    class FakeAgent:
        def __init__(self, *args):
            pass

        def join(self, transport):
            events.append("join")

        def run(self):
            events.append("run")
            return {"status": "ended"}

    monkeypatch.setattr(cli, "TcpNetwork", FakeNetwork)
    monkeypatch.setattr(cli, "connect_manager", lambda *args: FakeManager())
    monkeypatch.setattr(orchestrator, "ClientAgent", FakeAgent)
    argv = run_client_argv(tmp_path, role_measurements())
    (tmp_path / "alice.csv").write_bytes(
        dataset_to_csv_bytes(synthetic_dataset(20, 3, seed=4)))
    argv[argv.index("--data") + 1] = str(tmp_path / "alice.csv")
    assert cli.main(argv) == (0 if provisioned else 1)
    assert events == (["provision", "close", "join", "run"] if provisioned
                      else ["provision", "close"])


@pytest.mark.parametrize("case", ["session-file", "key-file", "hex-flag"])
def test_malformed_operator_input_ends_in_an_error_line(tmp_path, case):
    if case == "hex-flag":
        (tmp_path / "alice.csv").write_bytes(
            dataset_to_csv_bytes(synthetic_dataset(20, 3, seed=1)))
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


@pytest.mark.parametrize("key, value", [("policy", ["x"]), ("manager", 7700)])
def test_session_file_value_that_is_not_a_string_ends_in_an_error_line(
        tmp_path, capsys, key, value):
    argv = run_client_argv(tmp_path, role_measurements())
    flag = argv.index("--" + key)
    del argv[flag:flag + 2]  # the session file supplies it
    (tmp_path / "alice.sfl").write_bytes(b"x")  # so the run reaches the manager
    (tmp_path / "session.json").write_text(json.dumps({key: value}))
    assert cli.main(argv + ["--session-file", str(tmp_path / "session.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: session file ")
    assert f"{key} is not a string" in err


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
    try:
        proc.wait(timeout=10)
    finally:
        proc.stdout.close()
    raise AssertionError(f"{args[0]} did not come up: {printed}")


def test_run_manager_prints_its_address_through_a_pipe_unbuffered(tmp_path):
    """A serving verb flushes what it prints, so a reader on a pipe sees its
    address without ``python -u`` or ``PYTHONUNBUFFERED``."""
    run_cli("keygen", "--out", tmp_path / "platform.json")
    run_cli("keygen", "--kind", "signing", "--out", tmp_path / "svc.json")
    (tmp_path / "manager.bundle").write_bytes(b"manager program")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.Popen(
        [*CLI, "run-manager", "--listen", "127.0.0.1:0",
         "--store-dir", str(tmp_path / "store"),
         "--key-file", str(tmp_path / "platform.json"),
         "--bundle", str(tmp_path / "manager.bundle"),
         "--config", str(tmp_path / "manager.bundle"),
         "--counter-key", str(tmp_path / "svc.json")],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env)
    try:
        out, deadline = b"", time.monotonic() + 10
        while b"listening on " not in out:
            left = deadline - time.monotonic()
            assert left > 0, f"no address within 10 s: {out!r}"
            if select.select([proc.stdout], [], [], left)[0]:
                chunk = os.read(proc.stdout.fileno(), 4096)
                assert chunk, f"run-manager exited: {out!r}"
                out += chunk
    finally:
        proc.terminate()
        proc.wait(timeout=10)
        proc.stdout.close()


def test_run_manager_and_policy_upload(tmp_path):
    run_cli("keygen", "--out", tmp_path / "platform.json")
    run_cli("keygen", "--kind", "signing", "--out", tmp_path / "svc.json")
    bundle = tmp_path / "manager.bundle"
    config = tmp_path / "role.cfg"
    bundle.write_bytes(b"manager program")
    config.write_bytes(b"cfg\n")
    manager_measurement = measure(b"manager program", b"cfg\n").hex()

    data = tmp_path / "alice.csv"
    data.write_bytes(dataset_to_csv_bytes(synthetic_dataset(20, 3, seed=2)))
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

        # a re-run upload, as after a lost reply, exits 0 and keeps the secrets
        outputs, sealed = [], []
        for _ in range(2):
            outputs.append(run_cli("policy", "upload",
                                   "--policy", tmp_path / "policy.json",
                                   "--manager", address,
                                   "--key-file", tmp_path / "platform.json",
                                   "--bundle", bundle, "--config", config,
                                   "--counter-public-key", counter_pub).stdout)
            sealed.append({path.name: path.read_bytes()
                           for path in (tmp_path / "store" / "secrets").rglob("*.sealed")})
        assert outputs[0] == outputs[1]
        assert "uploaded:" in outputs[0]
        assert "secrets generated" in outputs[0]
        assert len(list((tmp_path / "store" / "policies").glob("*.pol"))) == 1
        assert len(sealed[0]) == 3 and sealed[0] == sealed[1]
    finally:
        server.terminate()
        server.wait(timeout=10)
        server.stdout.close()


@contextlib.contextmanager
def serving_manager(root, programs: dict[str, bytes], config: bytes, name: str,
                    clients: dict[str, Path], validation: Path, *session_flags):
    """A ``run-manager`` process holding the uploaded policy ``name`` and its
    secrets, its key files and store under ``root``. The role bundle files
    hold ``programs`` (keys "manager", "coord" and "agent"), and the config
    file ``config``. Yields the bundle paths and the flags every role verb
    shares."""
    run_cli("keygen", "--out", root / "platform.json")
    run_cli("keygen", "--kind", "signing", "--out", root / "counter.json")
    (root / "role.cfg").write_bytes(config)
    bundles = {}
    for role, program in programs.items():
        bundles[role] = root / f"{role}.tar"
        bundles[role].write_bytes(program)
    measurement = {role: measure(program, config).hex() for role, program in programs.items()}
    run_cli("policy", "new", "--out", root / "policy.json", "--name", name,
            "--manager-measurement", measurement["manager"],
            "--coordinator-measurement", measurement["coord"],
            "--client-measurement", measurement["agent"],
            *[arg for cid, csv in clients.items() for arg in ("--client", f"{cid}={csv}")],
            "--validation", validation, *session_flags)
    role = ("--key-file", root / "platform.json", "--config", root / "role.cfg")

    manager, printed, manager_address = start_service(
        "run-manager", "--listen", "127.0.0.1:0", "--store-dir", root / "store",
        "--bundle", bundles["manager"], *role,
        "--counter-key", root / "counter.json")
    try:
        flags = ("--manager", manager_address, "--policy", root / "policy.json",
                 "--counter-public-key", printed["counter service public key"], *role)
        run_cli("policy", "upload", *flags, "--bundle", bundles["agent"])
        yield bundles, flags
    finally:
        manager.kill()
        manager.wait(timeout=10)
        manager.stdout.close()


@pytest.fixture
def cli_manager(tmp_path):
    """A ``run-manager`` process holding the uploaded policy "study-1" and
    its secrets: client alice, a declared validation set, two rounds.
    Yields the role bundles and the flags every role verb shares."""
    (tmp_path / "alice.csv").write_bytes(
        dataset_to_csv_bytes(synthetic_dataset(40, 3, seed=5)))
    (tmp_path / "val.csv").write_bytes(
        dataset_to_csv_bytes(synthetic_dataset(60, 3, seed=6)))
    programs = {role: f"{role} program".encode() for role in ("manager", "coord", "agent")}
    with serving_manager(tmp_path, programs, b"profile=cli\n", "study-1",
                         {"alice": tmp_path / "alice.csv"}, tmp_path / "val.csv",
                         "--max-rounds", 2) as served:
        yield served


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
            coordinator.stdout.close()
    assert (tmp_path / "alice.sfl").exists()
    assert (tmp_path / "state" / "validation.sfl").exists()
    assert "accepted" in run_cli("audit", "verify", tmp_path / "state" / "audit.log").stdout


def test_cli_session_audits_what_the_deployment_session_audits(tmp_path):
    """The role verbs and ``demo.Deployment`` set each role up the same way:
    on the policy inputs ``Deployment`` uses, the two coordinators audit the
    same session, admissions, guard runs and commits included."""
    datasets = {"alice": synthetic_dataset(40, 3, seed=5),
                "bob": synthetic_dataset(40, 3, seed=8)}
    validation = synthetic_dataset(60, 3, seed=6)
    for name, dataset in [*datasets.items(), ("val", validation)]:
        (tmp_path / f"{name}.csv").write_bytes(dataset_to_csv_bytes(dataset))
    programs = {"manager": demo.MANAGER_BUNDLE, "coord": demo.COORDINATOR_BUNDLE,
                "agent": demo.CLIENT_BUNDLE}
    session = SessionConfig(max_rounds=2, clone_count=2, clone_subset_size=1)
    session_flags = ("--max-rounds", 2, "--clone-count", 2, "--clone-subset-size", 1)
    (tmp_path / "cli").mkdir()
    clients, coordinator = [], None
    with serving_manager(tmp_path / "cli", programs, demo.ROLE_CONFIG,
                         "desk-scale-session",
                         {cid: tmp_path / f"{cid}.csv" for cid in datasets},
                         tmp_path / "val.csv", *session_flags) as (bundles, flags):
        try:
            coordinator, _, address = start_service(
                "run-coordinator", "--listen", "127.0.0.1:0", *flags,
                "--bundle", bundles["coord"], "--state-dir", tmp_path / "cli" / "state",
                "--validation", tmp_path / "val.csv")
            for cid in datasets:  # one at a time, so the admission order is fixed
                clients.append(subprocess.Popen(
                    [*CLI, "run-client", "--coordinator", address, *map(str, flags),
                     "--bundle", str(bundles["agent"]), "--client-id", cid,
                     "--data", str(tmp_path / f"{cid}.csv")],
                    stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True))
                assert clients[-1].stdout.readline() == f"{cid}: admitted\n"
            assert coordinator.wait(timeout=60) == 0
            assert [client.wait(timeout=60) for client in clients] == [0, 0]
        finally:
            for proc in [coordinator, *clients]:
                if proc is not None:
                    proc.kill()
                    proc.wait(timeout=10)
                    proc.stdout.close()

    dep = demo.Deployment(tmp_path / "library", datasets, validation, session)
    try:
        agents = [dep.make_agent(cid) for cid in datasets]
        dep.join_all(agents)
        dep.start_agents(agents)
        dep.coordinator.run_session()
    finally:
        dep.close()

    def audited(path):
        return [(entry.kind, entry.payload) for entry in read_entries(path)]

    library = audited(dep.state_dir / "audit.log")
    assert audited(tmp_path / "cli" / "state" / "audit.log") == library
    assert [kind for kind, _ in library] == [
        "admission", "admission", "session-start", "round", "round", "session-end"]
    assert all(payload["clone"] for kind, payload in library if kind == "round")


def test_coordinator_refuses_validation_set_the_policy_does_not_hash(
        tmp_path, cli_manager):
    bundles, flags = cli_manager
    (tmp_path / "other.csv").write_bytes(
        dataset_to_csv_bytes(synthetic_dataset(60, 3, seed=7)))
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


def test_client_the_policy_does_not_pin_is_denied_its_secrets(tmp_path, cli_manager):
    """A role verb refused its secrets names the failing check, and so does
    the manager's audit log."""
    bundles, flags = cli_manager
    patched = tmp_path / "patched.tar"
    patched.write_bytes(bundles["agent"].read_bytes() + b" # patched")
    result = run_cli("run-client", "--coordinator", "127.0.0.1:1", *flags,
                     "--bundle", patched, "--client-id", "alice",
                     "--data", tmp_path / "alice.csv", check=False, timeout=60)
    assert result.returncode == 1
    assert result.stderr.strip() == "error: access-denied: access denied (measurement)"
    entries = read_entries(tmp_path / "store" / "audit.log")
    denied = [entry for entry in entries if entry.kind == "secrets-denied"]
    assert denied == [entries[-1]]
    assert denied[0].payload["check"] == "measurement"
