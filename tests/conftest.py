"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import threading

import pytest

from fedshield.attestation import attested_handshake, binding_report_data
from fedshield.enclave import generate_platform, spawn_enclave
from fedshield.transport import transport_pair

BUNDLE_A = b"test bundle: role A program bytes"
BUNDLE_B = b"test bundle: role B program bytes"
CONFIG = b"mode=test\n"


@pytest.fixture
def platform():
    return generate_platform(svn=3)


@pytest.fixture
def enclave_a(platform):
    return spawn_enclave(platform, BUNDLE_A, CONFIG)


@pytest.fixture
def enclave_b(platform):
    return spawn_enclave(platform, BUNDLE_B, CONFIG)


def quote_binding(key: bytes, role: str = "client"):
    """A quote provider whose quotes bind ``key``, not the local channel
    key, as the channel key of ``role``."""
    return lambda enclave, report_data, nonce: enclave.generate_quote(
        binding_report_data(key, role, nonce), nonce).to_bytes()


class EditedTransport:
    """A transport that sends ``edit(frame)`` in place of its first frame of
    one handshake message type and every other frame unchanged."""

    def __init__(self, inner, message_type: int, edit):
        self._inner = inner
        self._message_type = message_type
        self._edit = edit

    def send_frame(self, payload: bytes) -> None:
        if self._edit is not None and payload[:1] == bytes([self._message_type]):
            payload, self._edit = self._edit(payload), None
        self._inner.send_frame(payload)

    def recv_frame(self, *args, **kwargs) -> bytes:
        return self._inner.recv_frame(*args, **kwargs)

    def close(self) -> None:
        self._inner.close()


def run_handshake_pair(enclave_a, role_a, policy_a, enclave_b, role_b, policy_b,
                       *, capture=None, quote_provider_a=None,
                       quote_provider_b=None, edit_b=None, timeout=10.0):
    """Drive both ends of a handshake on two threads.

    ``edit_b`` is a ``(message_type, edit)`` pair for ``EditedTransport``
    on B's end. Returns (result_a, result_b) where each is either a
    SecureChannel or the exception that aborted that side.
    """
    ta, tb = transport_pair(capture)
    if edit_b is not None:
        tb = EditedTransport(tb, *edit_b)
    results = [None, None]

    def side(index, enclave, transport, policy, role, provider):
        try:
            results[index] = attested_handshake(
                enclave, transport, policy, role,
                quote_provider=provider, timeout=timeout)
        except Exception as exc:  # collected for assertions
            results[index] = exc

    threads = [
        threading.Thread(target=side,
                         args=(0, enclave_a, ta, policy_a, role_a, quote_provider_a)),
        threading.Thread(target=side,
                         args=(1, enclave_b, tb, policy_b, role_b, quote_provider_b)),
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=timeout + 5)
    return results[0], results[1]
