"""Quote verification policy and attested-channel behavior."""

import logging
import os
import random
import threading

import pytest

from fedshield.attestation import (
    MSG_KEYSHARE,
    AttestationPolicy,
    attested_handshake,
    binding_report_data,
    verify_quote,
)
from fedshield.demo import scan_capture
from fedshield.enclave import generate_platform, generate_signing_key
from fedshield.errors import (
    ChannelIntegrityError,
    ChannelReplayError,
    DecodeError,
    FedShieldError,
    HandshakeError,
    QuoteDecodeError,
)
from fedshield.services import ServiceEndpoint
from fedshield.transport import CaptureLog, Hub, transport_pair

from conftest import EditedTransport, quote_binding, run_handshake_pair

NONCE = b"\x42" * 32
RD = b"\x00" * 64


def policy_for(platform, enclave):
    return AttestationPolicy(platform.root_public_key, enclave.measurement)


def refused_check(quote, policy):
    with pytest.raises(HandshakeError) as info:
        verify_quote(quote, policy, NONCE)
    return info.value.check


class TestVerifyQuote:
    def test_genuine_quote_accepted(self, platform, enclave_a):
        quote = enclave_a.generate_quote(RD, NONCE)
        assert verify_quote(quote, policy_for(platform, enclave_a), NONCE) == quote

    def test_unpinned_measurement_rejected(self, platform, enclave_a, enclave_b):
        quote = enclave_b.generate_quote(RD, NONCE)
        assert refused_check(quote, policy_for(platform, enclave_a)) == "measurement"

    def test_replayed_nonce_rejected(self, platform, enclave_a):
        quote = enclave_a.generate_quote(RD, b"\x00" * 32)  # stale challenge
        assert refused_check(quote, policy_for(platform, enclave_a)) == "nonce"

    def test_bad_signature_rejected(self, platform, enclave_a):
        quote = enclave_a.generate_quote(RD, NONCE)
        data = bytearray(quote.to_bytes())
        data[-1] ^= 0x01
        assert refused_check(bytes(data), policy_for(platform, enclave_a)) == "signature"

    def test_foreign_root_rejected(self, enclave_a):
        other = generate_platform()
        quote = enclave_a.generate_quote(RD, NONCE)
        policy = AttestationPolicy(other.root_public_key, enclave_a.measurement)
        assert refused_check(quote, policy) == "signature"

    def test_check_order_signature_before_measurement(self, platform, enclave_a,
                                                      enclave_b):
        # wrong measurement AND corrupt signature: signature is reported first
        quote = enclave_b.generate_quote(RD, NONCE)
        data = bytearray(quote.to_bytes())
        data[-2] ^= 0xFF
        assert refused_check(bytes(data), policy_for(platform, enclave_a)) == "signature"

    def test_nonce_before_measurement(self, platform, enclave_a, enclave_b):
        quote = enclave_b.generate_quote(RD, b"\x07" * 32)
        assert refused_check(quote, policy_for(platform, enclave_a)) == "nonce"

    def test_malformed_bytes_raise_decode_not_reject(self, platform, enclave_a):
        with pytest.raises(QuoteDecodeError):
            verify_quote(b"\x00\x01garbage", policy_for(platform, enclave_a), NONCE)

    def test_pure_function(self, platform, enclave_a):
        quote = enclave_a.generate_quote(RD, NONCE)
        policy = policy_for(platform, enclave_a)
        outcomes = {verify_quote(quote.to_bytes(), policy, NONCE) for _ in range(5)}
        assert outcomes == {quote}


class TestHandshake:
    def test_honest_peers_round_trip(self, platform, enclave_a, enclave_b):
        chan_a, chan_b = run_handshake_pair(
            enclave_a, "client", policy_for(platform, enclave_b),
            enclave_b, "coordinator", policy_for(platform, enclave_a))
        payload = os.urandom(1024)
        chan_a.send(payload)
        assert chan_b.recv(timeout=5) == payload
        chan_b.send(b"reply")
        assert chan_a.recv(timeout=5) == b"reply"

    def test_unpinned_measurement_aborts_with_no_payload(self, platform,
                                                         enclave_a, enclave_b):
        capture = CaptureLog()
        result_a, result_b = run_handshake_pair(
            enclave_a, "client", policy_for(platform, enclave_b),
            enclave_b, "coordinator", policy_for(platform, enclave_b),  # pins B, peer is A
            capture=capture)
        assert isinstance(result_b, HandshakeError)
        assert result_b.check == "measurement"
        assert isinstance(result_a, FedShieldError)
        # nothing beyond handshake message types ever hit the wire
        for _, wire in capture.frames():
            assert wire[4] in (1, 2, 3, 4)

    def test_mitm_substituted_ephemeral_key_rejected(self, platform,
                                                     enclave_a, enclave_b):
        # A binds a DIFFERENT ephemeral key in its quote, simulating an
        # attacker relaying key shares
        def mitm_provider(enclave, report_data, nonce):
            fake_rd = binding_report_data(os.urandom(32), "client", nonce)
            return enclave.generate_quote(fake_rd, nonce).to_bytes()

        result_a, result_b = run_handshake_pair(
            enclave_a, "client", policy_for(platform, enclave_b),
            enclave_b, "coordinator", policy_for(platform, enclave_a),
            quote_provider_a=mitm_provider)
        assert isinstance(result_b, HandshakeError)
        assert result_b.check == "binding"

    def test_completes_iff_both_verdicts_accept(self, platform, enclave_a,
                                                enclave_b):
        def stale_nonce_provider(enclave, report_data, nonce):
            return enclave.generate_quote(report_data, b"\x00" * 32).to_bytes()

        for a_ok in (True, False):
            for b_ok in (True, False):
                result_a, result_b = run_handshake_pair(
                    enclave_a, "client", policy_for(platform, enclave_b),
                    enclave_b, "coordinator", policy_for(platform, enclave_a),
                    quote_provider_a=None if a_ok else stale_nonce_provider,
                    quote_provider_b=None if b_ok else stale_nonce_provider)
                if a_ok and b_ok:
                    assert not isinstance(result_a, Exception)
                    assert not isinstance(result_b, Exception)
                else:
                    assert isinstance(result_a, FedShieldError)
                    assert isinstance(result_b, FedShieldError)

    def test_non_utf8_hello_role_is_decode_error(self, platform, enclave_a):
        ours, theirs = transport_pair()
        theirs.send_frame(bytes([1]) + NONCE + bytes([2]) + b"\xff\xfe")
        with pytest.raises(HandshakeError) as info:
            attested_handshake(enclave_a, ours, policy_for(platform, enclave_a),
                               "coordinator", timeout=5)
        assert info.value.check == "decode"

    def test_same_role_rejected(self, platform, enclave_a, enclave_b):
        result_a, result_b = run_handshake_pair(
            enclave_a, "client", policy_for(platform, enclave_b),
            enclave_b, "client", policy_for(platform, enclave_a))
        assert isinstance(result_a, FedShieldError)
        assert isinstance(result_b, FedShieldError)

    def test_transcript_confidentiality(self, platform, enclave_a, enclave_b):
        capture = CaptureLog()
        chan_a, chan_b = run_handshake_pair(
            enclave_a, "client", policy_for(platform, enclave_b),
            enclave_b, "coordinator", policy_for(platform, enclave_a),
            capture=capture)
        rng = random.Random(4242)
        for _ in range(100):
            payload = rng.randbytes(rng.randrange(16, 128))
            chan_a.send(payload)
            assert chan_b.recv(timeout=5) == payload
            assert scan_capture(capture, {"payload": payload,
                                          "prefix": payload[:16]}) == []


# X25519 points of small order: the shared secret with any key is all zeros
LOW_ORDER_KEYS = [bytes(32), (1).to_bytes(32, "little")]


def keyshare_of(key: bytes):
    """An edit that sends ``key`` as the KEYSHARE."""
    return MSG_KEYSHARE, lambda frame: bytes([MSG_KEYSHARE]) + key


class TestLowOrderKeyshare:
    """An attested peer presents a low-order key, bound by its own genuine
    quote, to a side that pins no measurement."""

    @pytest.mark.parametrize("key", LOW_ORDER_KEYS, ids=["zero", "one"])
    def test_bare_handshake_raises_binding_error(self, platform, enclave_a,
                                                 enclave_b, key):
        result_a, _ = run_handshake_pair(
            enclave_a, "policy-manager", AttestationPolicy(platform.root_public_key, None),
            enclave_b, "client", policy_for(platform, enclave_a),
            quote_provider_b=quote_binding(key), edit_b=keyshare_of(key), timeout=5)
        assert isinstance(result_a, HandshakeError) and result_a.check == "binding"

    def test_service_endpoint_logs_it_in_the_connection_thread(
            self, tmp_path, monkeypatch, caplog, platform, enclave_a, enclave_b):
        uncaught = []
        monkeypatch.setattr(threading, "excepthook", uncaught.append)
        hub = Hub()
        endpoint = ServiceEndpoint(hub.listen("manager"), tmp_path, enclave_a,
                                   platform.root_public_key, generate_signing_key())
        endpoint.start()
        running = set(threading.enumerate())
        try:
            with caplog.at_level(logging.INFO, logger="fedshield.services"):
                with pytest.raises(FedShieldError):
                    attested_handshake(
                        enclave_b, EditedTransport(hub.connect("manager"),
                                                   *keyshare_of(bytes(32))),
                        AttestationPolicy(platform.root_public_key, None), "client",
                        quote_provider=quote_binding(bytes(32)), timeout=5)
                for thread in set(threading.enumerate()) - running:
                    thread.join(timeout=5)
                    assert not thread.is_alive()
        finally:
            endpoint.stop()
        assert uncaught == []
        assert "low-order point" in caplog.text


def established_pair(platform, enclave_a, enclave_b, capture=None):
    pol_a = policy_for(platform, enclave_b)
    pol_b = policy_for(platform, enclave_a)
    chan_a, chan_b = run_handshake_pair(enclave_a, "client", pol_a,
                                        enclave_b, "coordinator", pol_b,
                                        capture=capture)
    assert not isinstance(chan_a, Exception) and not isinstance(chan_b, Exception)
    return chan_a, chan_b


class TestChannelFraming:
    def test_order_preserved(self, platform, enclave_a, enclave_b):
        chan_a, chan_b = established_pair(platform, enclave_a, enclave_b)
        for i in range(10):
            chan_a.send(f"message {i}".encode())
        for i in range(10):
            assert chan_b.recv(timeout=5) == f"message {i}".encode()

    def test_duplicated_frame_is_replay(self, platform, enclave_a, enclave_b):
        capture = CaptureLog()
        chan_a, chan_b = established_pair(platform, enclave_a, enclave_b, capture)
        chan_a.send(b"first payload bytes")
        assert chan_b.recv(timeout=5) == b"first payload bytes"
        # replay the captured post-handshake frame verbatim
        frame = capture.frames()[-1][1]
        chan_a._transport.send_frame(frame[4:])
        with pytest.raises(ChannelReplayError):
            chan_b.recv(timeout=5)
        assert chan_b.closed

    def test_tampered_frame_is_integrity_error(self, platform, enclave_a,
                                               enclave_b):
        capture = CaptureLog()
        chan_a, chan_b = established_pair(platform, enclave_a, enclave_b, capture)
        chan_a.send(b"payload to corrupt")
        frame = bytearray(capture.frames()[-1][1][4:])
        frame[-1] ^= 0x01  # flip a tag byte
        # drain the genuine frame first, then feed the corrupted copy
        assert chan_b.recv(timeout=5) == b"payload to corrupt"
        frame[0:8] = (1).to_bytes(8, "big")  # keep the counter in sequence
        chan_a._transport.send_frame(bytes(frame))
        with pytest.raises(ChannelIntegrityError):
            chan_b.recv(timeout=5)
        assert chan_b.closed

    def test_truncated_frame_is_decode_error(self, platform, enclave_a,
                                             enclave_b):
        chan_a, chan_b = established_pair(platform, enclave_a, enclave_b)
        chan_a._transport.send_frame(b"\x00\x00\x00")  # shorter than any frame
        with pytest.raises(DecodeError):
            chan_b.recv(timeout=5)
