"""Length-prefixed frame transports.

Every connection, in-process or TCP, exchanges frames of the form
``u32 BE length | body``. ``Hub`` (in-process queues, fully deterministic
for tests) and ``TcpNetwork`` (sockets; the CLI) share one contract:
``listen(name)``, ``connect(name, label)``, and a closed listener refuses
every later accept and connect with ``TransportClosedError``. A
``CaptureLog`` attached to a ``Hub`` records every frame on the wire, which
is how the confidentiality and admission-soundness checks observe traffic.
"""

from __future__ import annotations

import queue
import socket
import struct
import threading

from .errors import DecodeError, InvalidInputError, TransportClosedError

MAX_FRAME = 1 << 26  # 64 MiB
CONNECT_TIMEOUT = 10.0  # seconds
SEND_TIMEOUT = 60.0  # seconds one frame's send may take, whatever a receive set

_CLOSE = object()


class CaptureLog:
    """Thread-safe record of raw wire bytes, labeled per direction."""

    def __init__(self):
        self._lock = threading.Lock()
        self._frames: list[tuple[str, bytes]] = []

    def record(self, label: str, wire_bytes: bytes) -> None:
        with self._lock:
            self._frames.append((label, wire_bytes))

    def frames(self, label: str | None = None) -> list[tuple[str, bytes]]:
        with self._lock:
            if label is None:
                return list(self._frames)
            return [(l, b) for l, b in self._frames if l.startswith(label)]

    def all_bytes(self) -> bytes:
        with self._lock:
            return b"".join(b for _, b in self._frames)


def _check_size(length: int, max_size: int) -> None:
    if length > max_size:
        raise DecodeError(f"frame of {length} bytes exceeds the {max_size}-byte limit")


def _frame_prefix(payload: bytes) -> bytes:
    """The u32 BE length prefix of a frame; InvalidInputError past MAX_FRAME."""
    if len(payload) > MAX_FRAME:
        raise InvalidInputError("frame exceeds maximum size")
    return struct.pack(">I", len(payload))


class InProcessTransport:
    """One endpoint of an in-process connection."""

    def __init__(self, tx: queue.Queue, rx: queue.Queue, label: str,
                 capture: CaptureLog | None = None):
        self._tx = tx
        self._rx = rx
        self.label = label
        self._capture = capture
        self._closed = False

    def send_frame(self, payload: bytes) -> None:
        if self._closed:
            raise TransportClosedError("transport closed")
        prefix = _frame_prefix(payload)
        if self._capture is not None:
            self._capture.record(self.label, prefix + payload)
        self._tx.put(bytes(payload))

    def recv_frame(self, timeout: float | None = None,
                   max_size: int = MAX_FRAME) -> bytes:
        try:
            item = self._rx.get(timeout=timeout)
        except queue.Empty:
            raise TimeoutError("recv_frame timed out")
        if item is _CLOSE:
            self._rx.put(_CLOSE)  # keep closed state observable
            raise TransportClosedError("transport closed by peer")
        _check_size(len(item), max_size)
        return item

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._tx.put(_CLOSE)


def transport_pair(capture: CaptureLog | None = None, label: str = "conn"
                   ) -> tuple[InProcessTransport, InProcessTransport]:
    """A connected pair of in-process endpoints."""
    a_to_b: queue.Queue = queue.Queue()
    b_to_a: queue.Queue = queue.Queue()
    a = InProcessTransport(a_to_b, b_to_a, f"{label}:a->b", capture)
    b = InProcessTransport(b_to_a, a_to_b, f"{label}:b->a", capture)
    return a, b


class Listener:
    """Accept side of an in-process service endpoint."""

    def __init__(self, name: str):
        self.name = name
        self.closed = False
        self._pending: queue.Queue = queue.Queue()

    def accept(self, timeout: float | None = None) -> InProcessTransport:
        try:
            item = self._pending.get(timeout=timeout)
        except queue.Empty:
            raise TimeoutError(f"no connection to {self.name}")
        if item is _CLOSE:
            self._pending.put(_CLOSE)  # every later accept sees it too
            raise TransportClosedError("listener closed")
        return item

    def close(self) -> None:
        self.closed = True
        self._pending.put(_CLOSE)


class Hub:
    """Registry of named in-process endpoints; stands in for a network."""

    def __init__(self, capture: CaptureLog | None = None):
        self.capture = capture
        self._lock = threading.Lock()
        self._listeners: dict[str, Listener] = {}
        self._conn_seq = 0

    def listen(self, name: str) -> Listener:
        with self._lock:
            if name in self._listeners:
                raise InvalidInputError(f"endpoint {name!r} already registered")
            listener = Listener(name)
            self._listeners[name] = listener
            return listener

    def connect(self, name: str, label: str | None = None) -> InProcessTransport:
        with self._lock:
            listener = self._listeners.get(name)
            self._conn_seq += 1
            seq = self._conn_seq
        if listener is None or listener.closed:
            raise TransportClosedError(f"no open endpoint named {name!r}")
        conn_label = label or f"{name}#{seq}"
        client_end, server_end = transport_pair(self.capture, conn_label)
        listener._pending.put(server_end)
        return client_end


class TcpTransport:
    """Frame transport over a connected TCP socket."""

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self._lock = threading.Lock()
        self._read = bytearray()  # the next frame's bytes received so far

    def send_frame(self, payload: bytes) -> None:
        wire = _frame_prefix(payload) + payload
        with self._lock:
            try:
                self._sock.settimeout(SEND_TIMEOUT)
                self._sock.sendall(wire)
            except OSError as exc:
                self.close()  # part of the frame may be out: the stream is unframed
                raise TransportClosedError(str(exc)) from exc

    def _fill(self, n: int) -> None:
        """Receive until the next frame's first ``n`` bytes are held. A
        timeout keeps what was read, so the next receive resumes the frame."""
        while len(self._read) < n:
            try:
                chunk = self._sock.recv(n - len(self._read))
            except socket.timeout:
                raise TimeoutError("recv_frame timed out")
            except OSError as exc:
                raise TransportClosedError(str(exc)) from exc
            if not chunk:
                if self._read:
                    raise DecodeError("frame truncated by peer")
                raise TransportClosedError("connection closed by peer")
            self._read += chunk

    def recv_frame(self, timeout: float | None = None,
                   max_size: int = MAX_FRAME) -> bytes:
        """The next frame; one announcing more than ``max_size`` bytes is
        refused after its 4-byte header, before any of its body is read."""
        self._sock.settimeout(timeout)
        self._fill(4)
        (length,) = struct.unpack_from(">I", self._read)
        _check_size(length, max_size)
        self._fill(4 + length)
        del self._read[:4]  # moves the buffer's start; the body is copied once
        body = bytes(self._read)
        self._read.clear()
        return body

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


def _address(name: str) -> tuple[str, int]:
    host, sep, port = name.rpartition(":")
    symbolic = not sep and not port.isdigit()
    return ("127.0.0.1", 0) if symbolic else (host or "127.0.0.1", int(port))


class TcpListener:
    def __init__(self, name: str):
        self.name = name
        self._sock = socket.create_server(_address(name))
        self.address = self._sock.getsockname()

    def accept(self, timeout: float | None = None) -> TcpTransport:
        try:
            self._sock.settimeout(timeout)
            conn, _ = self._sock.accept()
        except socket.timeout:
            raise TimeoutError("accept timed out")
        except OSError as exc:
            raise TransportClosedError(str(exc)) from exc
        return TcpTransport(conn)

    def close(self) -> None:
        self._sock.close()


class TcpNetwork:
    """The ``Hub`` contract over TCP. A ``host:port`` or bare port name is
    that address; any other name gets an ephemeral loopback port."""

    def __init__(self):
        self._addresses: dict[str, tuple[str, int]] = {}

    def listen(self, name: str) -> TcpListener:
        listener = TcpListener(name)
        self._addresses[name] = listener.address
        return listener

    def connect(self, name: str, label: str | None = None) -> TcpTransport:
        address = self._addresses.get(name) or _address(name)
        try:
            sock = socket.create_connection(address, timeout=CONNECT_TIMEOUT)
        except OSError as exc:
            raise TransportClosedError(f"cannot connect to {name}: {exc}") from exc
        sock.settimeout(None)
        return TcpTransport(sock)
