"""Length-prefixed RPC framing over a socket pair.

One :class:`MessageChannel` wraps one stream socket and moves whole messages:
an 8-byte big-endian length prefix followed by the payload, encoded with the
repository's canonical wire codec
(:func:`~repro.utils.serialization.canonical_bytes`).  Everything that
crosses a fleet process boundary — requests, verdicts, dispute statistics,
chain settlement calls — travels through this one framing; there is no
pickle on the data path, so a worker can only exchange the value shapes the
codec admits (arrays, scalars, bytes, lists, string-keyed maps).

The parent creates the pair with :func:`channel_pair` and ships the child
socket to the worker process as a ``multiprocessing.Process`` argument (the
``multiprocessing`` reduction machinery transfers the descriptor under both
``fork`` and ``spawn`` start methods).  A peer that dies — or closes its end
on orderly shutdown — surfaces as :class:`TransportClosed` on the next send
or receive, which is the signal the fleet's dead-worker recovery keys on.

Each frame is encoded once.  :meth:`MessageChannel.send` returns the bytes it
wrote and :meth:`MessageChannel.recv_frame` returns a received frame's raw
bytes next to its decoded value, so the parent's write-ahead journal
(:mod:`repro.fleet.journal`) stores frames exactly as they were sent and
received, without encoding any of them again.

Death is not the only failure mode: a peer that is alive but wedged (a stuck
worker holding its socket open) would block ``recv`` forever, stalling every
caller behind the channel lock.  A channel constructed with ``deadline_s``
arms a socket timeout on every blocking operation; expiry raises
:class:`TransportTimeout`, a *subclass* of :class:`TransportClosed`, so every
existing dead-worker site treats a hung peer exactly like a dead one — no new
except-clauses anywhere on the fleet path.
"""

from __future__ import annotations

import socket
from typing import Any, Optional, Tuple

from repro.utils.serialization import canonical_bytes, decode_canonical

#: Width of the big-endian message-length prefix.
LENGTH_BYTES = 8

#: Largest chunk requested from the kernel per ``recv`` call.
_RECV_CHUNK = 1 << 20


class TransportClosed(ConnectionError):
    """The peer hung up: worker death or an orderly channel shutdown."""


class TransportTimeout(TransportClosed):
    """The peer stayed silent past the channel deadline (alive but wedged).

    Subclasses :class:`TransportClosed` deliberately: to a caller, a worker
    that will never answer is indistinguishable from a dead one, and the
    recovery path must fire either way.
    """


class MessageChannel:
    """Whole-message send/receive over one stream socket.

    ``deadline_s`` (seconds, ``None`` = wait forever) bounds every blocking
    socket operation; expiry raises :class:`TransportTimeout`.
    """

    def __init__(self, sock: socket.socket,
                 deadline_s: Optional[float] = None) -> None:
        self._sock = sock
        self.set_deadline(deadline_s)

    def set_deadline(self, deadline_s: Optional[float]) -> None:
        """(Re-)arm the per-operation deadline on the underlying socket."""
        if deadline_s is not None and deadline_s <= 0:
            raise ValueError("deadline_s must be positive (or None)")
        self.deadline_s = deadline_s
        try:
            self._sock.settimeout(deadline_s)
        except OSError:  # pragma: no cover - socket already closed
            pass

    def send(self, payload: Any) -> bytes:
        """Encode ``payload`` with the canonical codec and write one frame.

        Returns the encoded payload, so a caller that must keep what it sent
        (the fleet's write-ahead journal) stores these bytes instead of
        encoding the payload again.
        """
        data = canonical_bytes(payload)
        self.send_frame(data)
        return data

    def send_frame(self, data: bytes) -> None:
        """Write one frame whose payload is already canonically encoded."""
        frame = len(data).to_bytes(LENGTH_BYTES, "big") + data
        try:
            self._sock.sendall(frame)
        except socket.timeout as exc:
            # Before OSError: socket.timeout subclasses it since 3.10.
            raise TransportTimeout(
                f"send exceeded the {self.deadline_s}s deadline") from exc
        except (BrokenPipeError, ConnectionResetError, OSError) as exc:
            raise TransportClosed(f"send on closed transport: {exc}") from exc

    def recv(self) -> Any:
        """Read one frame and decode it; raises TransportClosed on EOF."""
        return self.recv_frame()[0]

    def recv_frame(self) -> Tuple[Any, bytes]:
        """Read one frame: its decoded value and its raw payload bytes."""
        header = self._recv_exact(LENGTH_BYTES)
        data = self._recv_exact(int.from_bytes(header, "big"))
        return decode_canonical(data), data

    def _recv_exact(self, count: int) -> bytes:
        chunks = []
        remaining = count
        while remaining:
            try:
                chunk = self._sock.recv(min(remaining, _RECV_CHUNK))
            except socket.timeout as exc:
                # Before OSError: socket.timeout subclasses it since 3.10.
                raise TransportTimeout(
                    f"recv exceeded the {self.deadline_s}s deadline "
                    f"({count - remaining}/{count} bytes read)") from exc
            except (ConnectionResetError, OSError) as exc:
                raise TransportClosed(f"recv on closed transport: {exc}") from exc
            if not chunk:
                raise TransportClosed("peer closed the transport mid-message"
                                      if remaining != count else
                                      "peer closed the transport")
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - close races are benign
            pass


def channel_pair(
        deadline_s: Optional[float] = None,
) -> Tuple[MessageChannel, socket.socket]:
    """A connected (parent channel, raw child socket) pair.

    The child end is returned raw so it can ride in ``Process`` args; the
    worker wraps it in its own :class:`MessageChannel` after the fork/spawn.
    ``deadline_s`` arms the hung-peer deadline on the *parent* side only —
    a worker waiting for its next instruction should wait forever.
    """
    parent_sock, child_sock = socket.socketpair()
    return MessageChannel(parent_sock, deadline_s=deadline_s), child_sock
