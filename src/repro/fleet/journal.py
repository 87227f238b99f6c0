"""Parent-held write-ahead journal for one shard worker.

Workers hold no durable state: every ledger mutation already flows through
the parent as a nested ``chain_call``.  :class:`ShardJournal` makes that
stream (plus the command stream that produced it) recoverable.  It lives in
the **parent** process — the crash domain is the worker — and stores the
frames as they were sent and received: each record method takes the raw
canonical bytes the transport wrote or read
(:meth:`~repro.fleet.transport.MessageChannel.send`,
:meth:`~repro.fleet.transport.MessageChannel.recv_frame`) and builds its
record around them with
:func:`~repro.utils.serialization.split_canonical_map` and
:func:`~repro.utils.serialization.canonical_map`.  No frame is encoded a
second time, and every record is byte-identical to the canonical encoding of
the map of decoded values it holds, so records decode strictly and
fingerprint deterministically.

Three streams, with distinct write points:

* **spec entries** — the coordinator's ``(state, event)`` records
  (``repro.spec.machine``).  The worker ships each one as a one-way
  ``journal`` frame *before* issuing the chain calls of that transition;
  FIFO socket ordering therefore gives the write-ahead property: any chain
  mutation the parent applied is covered by a journaled transition.
* **chain replies** — every nested ``chain_call`` (reads, writes and error
  replies alike), keyed by the worker's per-incarnation sequence id and
  recorded *after* the parent applied it.  A restarted worker re-issues the
  same deterministic sequence; replies at-or-below the journal tail are
  answered from the journal without re-applying — the at-most-once
  guarantee for ``fund``/``transfer`` and the transaction append
  (``submit`` on the wire).
* **commands** — completed op conversations (``register``/``submit``/
  ``process``/…), recorded only once their response arrived.  Replaying them
  against a fresh worker rebuilds its entire in-memory stack; the op that
  was in flight at the crash is *not* replayed here — its caller retries it,
  and the chain stream dedupe makes the retry exact.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.utils.serialization import (canonical_bytes, canonical_map,
                                       decode_canonical, split_canonical_map)

#: Encoded values the records fill in for keys a frame lacks.
_NONE = canonical_bytes(None)
_EMPTY_MAP = canonical_bytes({})
_OK = {True: canonical_bytes(True), False: canonical_bytes(False)}


class JournalDivergence(RuntimeError):
    """A replayed worker issued a chain call that contradicts the journal —
    the deterministic-replay assumption broke; recovery must not continue."""


class ShardJournal:
    """Write-ahead journal of one shard worker, owned by the fleet parent."""

    def __init__(self, shard_id: str) -> None:
        self.shard_id = str(shard_id)
        self._spec: List[bytes] = []
        self._spec_by_seq: Dict[int, bytes] = {}
        self._commands: List[bytes] = []
        self._chain: Dict[int, bytes] = {}
        #: Highest chain sequence id recorded; a restarted worker's calls at
        #: or below this are replay duplicates.
        self.chain_tail = 0

    # -- spec (state, event) stream --------------------------------------

    def record_spec(self, frame: bytes) -> None:
        """Append the ``entry`` of one ``journal`` frame (idempotent under
        replay).

        Entries are stamped worker-side with ``chain_seq`` — the sequence id
        of the transition's first upcoming chain call.  A recovered worker
        retrying its interrupted command re-emits the already-journaled
        records with identical stamps: those are dropped (after checking
        they match byte-for-byte), so the journal stays one entry per
        logical transition across any number of crashes.
        """
        blob = split_canonical_map(frame).get("entry", _EMPTY_MAP)
        seq = split_canonical_map(blob).get("chain_seq")
        seq = None if seq is None else decode_canonical(seq)
        if seq is not None:
            seq = int(seq)
            recorded = self._spec_by_seq.get(seq)
            if recorded is not None:
                if recorded != blob:
                    raise JournalDivergence(
                        f"[{self.shard_id}] replayed journal entry at chain "
                        f"seq {seq} does not match the recorded transition; "
                        f"deterministic replay broke")
                return
            self._spec_by_seq[seq] = blob
        self._spec.append(blob)

    def spec_entries(self) -> List[Dict[str, Any]]:
        return [decode_canonical(blob) for blob in self._spec]

    # -- chain_call stream ------------------------------------------------

    def record_chain(self, seq: int, call: bytes, reply: bytes) -> None:
        """Record one served ``chain_call`` frame and the reply frame sent."""
        seq = int(seq)
        parts = split_canonical_map(call)
        self._chain[seq] = canonical_map({
            "method": parts.get("method", _NONE),
            "args": parts.get("args", _EMPTY_MAP),
            "reply": reply,
        })
        if seq > self.chain_tail:
            self.chain_tail = seq

    def chain_reply(self, seq: int, call: bytes) -> Optional[bytes]:
        """The recorded reply frame for ``seq``, or ``None`` if the call is
        fresh.

        A recorded entry must match the incoming call frame exactly (method
        and arguments, canonical bytes); anything else means the replayed
        worker diverged from its pre-crash execution.
        """
        seq = int(seq)
        blob = self._chain.get(seq)
        if blob is None:
            if seq <= self.chain_tail:
                raise JournalDivergence(
                    f"[{self.shard_id}] chain call seq {seq} is below the "
                    f"journal tail {self.chain_tail} but was never recorded")
            return None
        recorded = split_canonical_map(blob)
        incoming = split_canonical_map(call)
        method = incoming.get("method", _NONE)
        if (method, incoming.get("args", _EMPTY_MAP)) != \
                (recorded["method"], recorded["args"]):
            raise JournalDivergence(
                f"[{self.shard_id}] replayed chain call seq {seq} "
                f"({decode_canonical(method)!r}) does not match the journaled "
                f"call ({decode_canonical(recorded['method'])!r}); "
                f"deterministic replay broke")
        return recorded["reply"]

    # -- command stream ---------------------------------------------------

    def record_command(self, payload: bytes, ok: bool, response: bytes) -> None:
        """Record one completed op: the payload frame sent and the
        ``response`` frame received (its ``value``, or its ``error``)."""
        value = split_canonical_map(response).get("value" if ok else "error",
                                                  _NONE)
        self._commands.append(canonical_map(
            {"payload": payload, "ok": _OK[bool(ok)], "value": value}))

    def commands(self) -> List[Dict[str, Any]]:
        """Completed commands in order: ``{"payload", "ok", "value"}``."""
        return [decode_canonical(blob) for blob in self._commands]

    # -- accounting -------------------------------------------------------

    @property
    def command_count(self) -> int:
        return len(self._commands)

    @property
    def chain_entry_count(self) -> int:
        return len(self._chain)

    @property
    def spec_entry_count(self) -> int:
        return len(self._spec)

    def size_bytes(self) -> int:
        return (sum(len(blob) for blob in self._spec)
                + sum(len(blob) for blob in self._commands)
                + sum(len(blob) for blob in self._chain.values()))
