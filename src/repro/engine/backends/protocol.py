"""Length-prefixed JSON shard protocol (socket backend, shard servers).

The normative specification of this protocol — frame format, handshake,
operations, error codes, retry/failover semantics — lives in
``docs/protocol.md``; this module is the single implementation both
sides share, and CI's docs job fails if the constants below drift from
the spec's tables.

Every frame is a 4-byte big-endian length followed by a UTF-8 JSON
object.  The conversation between a shard client and a shard worker:

``hello``
    Client opens with ``{"op": "hello", "pv": PROTOCOL_VERSION,
    "v": KEY_VERSION, "fp": ...}`` carrying its protocol version, cache
    key version and program fingerprint; the worker replies
    ``{"op": "hello", "ok": true, "fp": <its own>}`` or rejects with
    ``ok: false``, an ``error`` message and a machine-readable
    ``code`` — a mismatched fingerprint means the two sides would
    execute *different* programs and every cached result would be
    poisoned, so the handshake is a hard gate.

``run``
    ``{"op": "run", "shard": i, "max_instr": n|null, "plans": [...]}``
    with plans in the canonical :func:`~repro.engine.keys.encode_plan`
    image (a plan may carry a ``recovery`` sub-object selecting a
    protected run, v4, or ``"analysis": true`` selecting a traced
    pattern analysis, v5); the worker answers ``{"op": "result",
    "shard": i, "values": [...]}`` (outcome strings — manifestation
    values, encoded recovery outcomes or encoded analyses — in plan
    order) or ``{"op": "error", "code": ..., "error": ...}``.

``bye``
    Polite shutdown; either side may also just close the socket
    between frames.

The frames travel over TCP between
:class:`~repro.engine.backends.remote.SocketBackend` and
:class:`~repro.engine.backends.server.ShardServer`.

Version 3 extends the vocabulary with the **service tier** ops
(:mod:`repro.service`): shard servers join a registry with
``register``/``heartbeat``/``leave`` (the ``register`` frame doubles
as the handshake on a registry link, carrying ``pv``/``v``/``fp``),
schedulers resolve live hosts with ``resolve`` -> ``hosts``, and the
persistent job queue speaks ``submit``/``jobs``/``watch``/``fetch``
with their ``job``/``joblist``/``event``/``fetched`` replies.  Every
service request carries the ``pv``/``v`` pair so mixed versions refuse
each other exactly like the shard handshake does.
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Optional

from repro.engine.keys import KEY_VERSION

_HEADER = struct.Struct(">I")

#: Wire-protocol revision, independent of :data:`KEY_VERSION` (which
#: governs the cache-key encoding).  Bumped whenever the frame
#: vocabulary changes; v1 was the RUN-only protocol, v2 added the
#: ANALYZE op, the ``pv`` handshake field and error codes, v3 added
#: the service ops (registry membership, host resolution and the
#: persistent job queue), v4 extended ``run`` plans with the optional
#: ``recovery`` sub-object (protected runs, :mod:`repro.recovery`) —
#: a v3 peer would silently execute the bare fault instead, so the
#: version gate is load-bearing — and v5 retired ANALYZE: a traced
#: analysis is a ``run`` plan carrying ``"analysis": true``, which a
#: v4 peer would likewise run as the bare fault.  The handshake and
#: ``docs/protocol.md`` both reference this constant.
PROTOCOL_VERSION = 5

#: refuse absurd frames instead of allocating gigabytes on a bad peer
MAX_FRAME = 64 * 1024 * 1024

# ------------------------------------------------------------- op codes
OP_HELLO = "hello"
OP_RUN = "run"
OP_RESULT = "result"
OP_ERROR = "error"
OP_BYE = "bye"

# v3 service ops: registry membership + host resolution
OP_REGISTER = "register"
OP_REGISTERED = "registered"
OP_HEARTBEAT = "heartbeat"
OP_LEAVE = "leave"
OP_ACK = "ack"
OP_RESOLVE = "resolve"
OP_HOSTS = "hosts"

# v3 service ops: persistent job queue
OP_SUBMIT = "submit"
OP_JOBS = "jobs"
OP_WATCH = "watch"
OP_FETCH = "fetch"
OP_JOB = "job"
OP_JOBLIST = "joblist"
OP_EVENT = "event"
OP_FETCHED = "fetched"

#: every op either side may put in a frame (docs drift-check anchor)
OPS = (OP_HELLO, OP_RUN, OP_RESULT, OP_ERROR, OP_BYE, OP_REGISTER,
       OP_REGISTERED, OP_HEARTBEAT, OP_LEAVE, OP_ACK, OP_RESOLVE,
       OP_HOSTS, OP_SUBMIT, OP_JOBS, OP_WATCH, OP_FETCH, OP_JOB,
       OP_JOBLIST, OP_EVENT, OP_FETCHED)

# ---------------------------------------------------------- error codes
ERR_PROTOCOL_VERSION = "protocol-version-mismatch"
ERR_KEY_VERSION = "key-version-mismatch"
ERR_FINGERPRINT = "fingerprint-mismatch"
ERR_BAD_OP = "bad-op"
ERR_EXEC = "exec-failed"

# v3 service error codes
ERR_UNKNOWN_HOST = "unknown-host"
ERR_UNKNOWN_JOB = "unknown-job"
ERR_BAD_SPEC = "bad-spec"
ERR_JOB_FAILED = "job-failed"

#: every ``code`` a rejection/error frame may carry (docs drift-check
#: anchor)
ERROR_CODES = (ERR_PROTOCOL_VERSION, ERR_KEY_VERSION, ERR_FINGERPRINT,
               ERR_BAD_OP, ERR_EXEC, ERR_UNKNOWN_HOST, ERR_UNKNOWN_JOB,
               ERR_BAD_SPEC, ERR_JOB_FAILED)


class ProtocolError(RuntimeError):
    """Malformed or truncated frame, or an in-band error reply."""


# ---------------------------------------------------------------- framing
def send_msg(sock: socket.socket, obj: dict) -> None:
    """Write one frame (blocking socket)."""
    body = json.dumps(obj, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
    sock.sendall(_HEADER.pack(len(body)) + body)


def _recv_exact(sock: socket.socket, n: int,
                eof_ok: bool = False) -> Optional[bytes]:
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            if eof_ok and remaining == n:
                return None  # clean EOF at a frame boundary
            raise ProtocolError(
                f"connection closed mid-frame ({n - remaining}/{n} bytes)")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_msg(sock: socket.socket) -> Optional[dict]:
    """Read one frame; ``None`` on clean EOF between frames."""
    header = _recv_exact(sock, _HEADER.size, eof_ok=True)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME:
        raise ProtocolError(f"frame of {length} bytes exceeds MAX_FRAME")
    body = _recv_exact(sock, length)
    try:
        return json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable frame: {exc}") from exc


# ------------------------------------------------------------- handshakes
def client_hello(sock: socket.socket, fingerprint: str) -> dict:
    """Run the client side of the handshake; raise on rejection."""
    send_msg(sock, {"op": OP_HELLO, "pv": PROTOCOL_VERSION,
                    "v": KEY_VERSION, "fp": fingerprint})
    reply = recv_msg(sock)
    if reply is None or reply.get("op") != OP_HELLO:
        raise ProtocolError(f"bad handshake reply: {reply!r}")
    if not reply.get("ok"):
        raise ProtocolError(reply.get("error", "handshake rejected"))
    return reply


def hello_reply(msg: Optional[dict],
                fingerprint: str) -> tuple[bool, Optional[dict]]:
    """Validate a client hello -> ``(accepted, reply_frame)``.

    The caller sends the reply itself (after updating any counters a
    racing client might observe) and closes the connection when
    ``accepted`` is ``False``.  A ``None`` reply means the client hung
    up before saying hello — nothing to send.
    """
    if msg is None:
        return False, None
    if msg.get("op") != OP_HELLO:
        return False, {"op": OP_HELLO, "ok": False, "code": ERR_BAD_OP,
                       "error": f"expected hello, got {msg.get('op')!r}"}
    if msg.get("pv") != PROTOCOL_VERSION:
        return False, {"op": OP_HELLO, "ok": False,
                       "code": ERR_PROTOCOL_VERSION,
                       "error": f"protocol-version mismatch: client "
                                f"{msg.get('pv')!r} != server "
                                f"{PROTOCOL_VERSION}"}
    if msg.get("v") != KEY_VERSION:
        return False, {"op": OP_HELLO, "ok": False,
                       "code": ERR_KEY_VERSION,
                       "error": f"key-version mismatch: client "
                                f"{msg.get('v')!r} != server {KEY_VERSION}"}
    if msg.get("fp") != fingerprint:
        return False, {"op": OP_HELLO, "ok": False,
                       "code": ERR_FINGERPRINT,
                       "error": f"program fingerprint mismatch: client "
                                f"{msg.get('fp')!r} != server "
                                f"{fingerprint!r}"}
    return True, {"op": OP_HELLO, "ok": True, "fp": fingerprint}


def serve_hello(sock: socket.socket, fingerprint: str) -> bool:
    """Run the worker side of the handshake; ``False`` means rejected
    (a reply was sent; the caller should close the connection)."""
    accepted, reply = hello_reply(recv_msg(sock), fingerprint)
    if reply is not None:
        send_msg(sock, reply)
    return accepted


# ------------------------------------------------------------- run frames
def run_request(shard: int, plans, max_instr: Optional[int]) -> dict:
    from repro.engine.keys import encode_plan
    return {"op": OP_RUN, "shard": shard, "max_instr": max_instr,
            "plans": [encode_plan(p) for p in plans]}


def execute_request(tracker, msg: dict) -> dict:
    """Worker-side body of a ``run`` frame -> ``result`` frame.

    Every plan — plain, recovery (v4 ``recovery`` sub-object) or
    analysis (v5 ``analysis`` marker) — runs on the worker's
    ``tracker``, on its VM tier and warm-start setting.  A traced
    analysis uses the worker's own faulty-run budget, which the
    fingerprint gate guarantees equals the client's.  A plan that
    fails to decode or execute is reported in-band with
    :data:`ERR_EXEC`.
    """
    from repro.engine.keys import decode_plan
    from repro.faults.campaign import execute_plan
    try:
        plans = [decode_plan(p) for p in msg["plans"]]
        max_instr = msg.get("max_instr")
        values = [execute_plan(tracker, plan, max_instr)
                  for plan in plans]
    except Exception as exc:  # surface worker-side failures in-band
        return {"op": OP_ERROR, "code": ERR_EXEC,
                "shard": msg.get("shard"),
                "error": f"{type(exc).__name__}: {exc}"}
    return {"op": OP_RESULT, "shard": msg["shard"], "values": values}


# ---------------------------------------------------------- service frames
def service_request(op: str, **fields) -> dict:
    """A v3 service frame: ``op`` plus the ``pv``/``v`` version pair.

    Every service request (``register``, ``resolve``, ``submit``, ...)
    carries the versions so a registry/daemon speaking a different
    protocol or cache-key encoding refuses the request exactly like
    the shard handshake would.
    """
    frame = {"op": op, "pv": PROTOCOL_VERSION, "v": KEY_VERSION}
    frame.update(fields)
    return frame


def check_service_versions(msg: dict) -> Optional[dict]:
    """Validate a service request's version pair.

    Returns ``None`` when the versions match, otherwise the rejection
    frame (an ``ack`` with ``ok: false`` and the machine-readable
    ``code``) the caller should send before closing the connection.
    """
    if msg.get("pv") != PROTOCOL_VERSION:
        return {"op": OP_ACK, "ok": False, "code": ERR_PROTOCOL_VERSION,
                "error": f"protocol-version mismatch: client "
                         f"{msg.get('pv')!r} != server "
                         f"{PROTOCOL_VERSION}"}
    if msg.get("v") != KEY_VERSION:
        return {"op": OP_ACK, "ok": False, "code": ERR_KEY_VERSION,
                "error": f"key-version mismatch: client "
                         f"{msg.get('v')!r} != server {KEY_VERSION}"}
    return None


def decode_run_values(reply: dict, plans) -> list[str]:
    """Validate a ``result`` reply -> outcome values, plan order.

    Raises :class:`ProtocolError` on any malformed reply — wrong count,
    a value that is not a string, a campaign value that is not a
    manifestation, or an analysis value that does not decode (``m`` a
    string, ``patterns`` a dict of lists) — so the socket backend
    rejects it like a transport failure (the shard gets its single
    retry) instead of caching a value that breaks its reader later.
    """
    from repro.faults.analysis import AnalysisPlan, decode_analysis
    from repro.faults.campaign import Manifestation
    from repro.vm.fault import FaultPlan
    values = reply.get("values")
    if not isinstance(values, list) or len(values) != len(plans):
        raise ProtocolError(
            f"result reply carries "
            f"{len(values) if isinstance(values, list) else 'no'} "
            f"values for {len(plans)} plans")
    manifestations = {m.value for m in Manifestation}
    for plan, value in zip(plans, values):
        if not isinstance(value, str):
            raise ProtocolError(f"ill-typed result value {value!r}")
        if isinstance(plan, FaultPlan) and value not in manifestations:
            raise ProtocolError(f"unknown manifestation {value!r}")
        if isinstance(plan, AnalysisPlan):
            try:
                decode_analysis(value)
            except ValueError as exc:
                raise ProtocolError(str(exc)) from exc
    return values
