"""Loopback ``repro-c90 serve`` subprocess and the load generator that drives it.

Requests travel as length-prefixed JSON frames over two connections.
Frames are encoded before a phase starts, responses are kept as raw
bytes while it runs and decoded only after it ends, so the load
generator spends as little CPU as possible inside the timed region.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import selectors
import signal
import struct
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from perfkit import BenchError

_LEN = struct.Struct(">I")
_ID = re.compile(rb'"id":(-?\d+)')
HOST = "127.0.0.1"


class ServerProcess:
    """``python -m repro serve --port 0`` with its default config."""

    def __init__(self, tmpdir: Path) -> None:
        self.tmpdir = tmpdir
        self.proc: subprocess.Popen[bytes] | None = None
        self.port = 0
        self._log = tmpdir / f"serve-{os.getpid()}-{time.monotonic_ns()}.log"

    def start(self, timeout: float = 60.0) -> int:
        env = dict(os.environ, PYTHONUNBUFFERED="1")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=open(self._log, "wb"),  # noqa: SIM115 - closed by the child's exit
            env=env,
        )
        assert self.proc.stdout is not None
        sel = selectors.DefaultSelector()
        sel.register(self.proc.stdout, selectors.EVENT_READ)
        deadline = time.monotonic() + timeout
        buf = b""
        try:
            while b"\n" not in buf or b"serving on" not in buf:
                left = deadline - time.monotonic()
                if left <= 0 or not sel.select(left):
                    raise BenchError("server did not report its port in time")
                chunk = os.read(self.proc.stdout.fileno(), 4096)
                if not chunk:
                    raise BenchError(f"server exited at start-up (see {self._log.name})")
                buf += chunk
        except BaseException:
            self.stop(check=False)
            raise
        finally:
            sel.close()
        match = re.search(rb"serving on [^:\s]+:(\d+)", buf)
        if match is None:
            self.stop(check=False)
            raise BenchError(f"unparseable server banner: {buf[:200]!r}")
        self.port = int(match.group(1))
        return self.port

    def stop(self, check: bool = True, timeout: float = 30.0) -> None:
        """SIGTERM the server (it drains and exits 0) and reap it."""
        proc, self.proc = self.proc, None
        if proc is None:
            return
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
        try:
            rest, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError("server ignored SIGTERM and was killed") from None
        if self._log.exists():
            self._log.unlink()
        if check and (proc.returncode != 0 or b"server stopped" not in rest):
            raise BenchError(f"server exited with code {proc.returncode}")


@dataclass
class PhaseResult:
    """Raw outcome of one load phase: times on the loop clock."""

    due: np.ndarray
    sent: np.ndarray
    done: np.ndarray
    payloads: list[bytes | None]


def frame(request_id: int, nxt: np.ndarray, head: int, values: np.ndarray, op: str) -> bytes:
    body = json.dumps(
        {"id": request_id, "type": "scan", "next": nxt.tolist(), "head": head,
         "values": values.tolist(), "op": op},
        separators=(",", ":"),
    ).encode()
    return _LEN.pack(len(body)) + body


async def _connect(port: int, count: int) -> list[tuple[asyncio.StreamReader, asyncio.StreamWriter]]:
    return [await asyncio.open_connection(HOST, port) for _ in range(count)]


async def _close(conns: list[tuple[asyncio.StreamReader, asyncio.StreamWriter]]) -> None:
    for _, writer in conns:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def _read_frame(reader: asyncio.StreamReader) -> bytes:
    (length,) = _LEN.unpack(await reader.readexactly(_LEN.size))
    return await reader.readexactly(length)


async def _reader_task(
    reader: asyncio.StreamReader, expect: int, base: int, result: PhaseResult
) -> None:
    loop = asyncio.get_running_loop()
    for _ in range(expect):
        payload = await _read_frame(reader)
        match = _ID.search(payload, 0, 64)
        if match is None:
            continue
        k = int(match.group(1)) - base
        if 0 <= k < len(result.payloads) and result.payloads[k] is None:
            result.done[k] = loop.time()
            result.payloads[k] = payload


async def open_loop(
    port: int, frames: list[bytes], offsets: np.ndarray, base: int,
    conns: int = 2, timeout: float = 30.0,
) -> PhaseResult:
    """Send ``frames[i]`` at ``start + offsets[i]`` round-robin over ``conns``.

    Latency counts from each request's due time, so a stalled generator
    or server charges its wait to every request behind it.
    """
    loop = asyncio.get_running_loop()
    n = len(frames)
    res = PhaseResult(np.zeros(n), np.zeros(n), np.full(n, np.nan), [None] * n)
    links = await _connect(port, conns)
    try:
        start = loop.time() + 0.05
        res.due[:] = start + offsets

        async def sender(c: int, writer: asyncio.StreamWriter) -> None:
            for i in range(c, n, conns):
                delay = res.due[i] - loop.time()
                if delay > 0:
                    await asyncio.sleep(delay)
                res.sent[i] = loop.time()
                writer.write(frames[i])
            await writer.drain()

        tasks = []
        for c, (reader, writer) in enumerate(links):
            tasks.append(asyncio.ensure_future(sender(c, writer)))
            expect = len(range(c, n, conns))
            tasks.append(asyncio.ensure_future(_reader_task(reader, expect, base, res)))
        horizon = float(offsets[-1]) + timeout if n else timeout
        done, pending = await asyncio.wait(tasks, timeout=horizon)
        for task in pending:
            task.cancel()
        for task in done:
            task.result()
    finally:
        await _close(links)
    return res


async def closed_loop(
    port: int, frames: list[bytes], base: int, seconds: float,
    conns: int = 2, inflight: int = 32,
) -> PhaseResult:
    """Keep ``inflight`` requests outstanding per connection for ``seconds``.

    Sends stop at the deadline (or when ``frames`` run out); the
    outstanding requests are then drained.
    """
    loop = asyncio.get_running_loop()
    n = len(frames)
    res = PhaseResult(np.zeros(n), np.zeros(n), np.full(n, np.nan), [None] * n)
    links = await _connect(port, conns)
    next_idx = 0
    try:
        stop_at = loop.time() + seconds

        async def client(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
            nonlocal next_idx
            outstanding = 0
            while outstanding < inflight and next_idx < n:
                res.due[next_idx] = res.sent[next_idx] = loop.time()
                writer.write(frames[next_idx])
                next_idx += 1
                outstanding += 1
            while outstanding:
                payload = await _read_frame(reader)
                outstanding -= 1
                now = loop.time()
                match = _ID.search(payload, 0, 64)
                if match is not None:
                    k = int(match.group(1)) - base
                    if 0 <= k < n and res.payloads[k] is None:
                        res.done[k] = now
                        res.payloads[k] = payload
                if now < stop_at and next_idx < n:
                    res.due[next_idx] = res.sent[next_idx] = now
                    writer.write(frames[next_idx])
                    next_idx += 1
                    outstanding += 1

        await asyncio.wait_for(
            asyncio.gather(*(client(r, w) for r, w in links)), timeout=seconds + 60.0
        )
    finally:
        await _close(links)
    sent = next_idx
    res.due, res.sent, res.done = res.due[:sent], res.sent[:sent], res.done[:sent]
    res.payloads = res.payloads[:sent]
    return res


async def admin(port: int, message: dict[str, object]) -> dict[str, object]:
    """One admin round trip (``ping``/``stats``) on a fresh connection."""
    [(reader, writer)] = await _connect(port, 1)
    try:
        body = json.dumps(message).encode()
        writer.write(_LEN.pack(len(body)) + body)
        await writer.drain()
        return json.loads(await asyncio.wait_for(_read_frame(reader), 30.0))
    finally:
        await _close([(reader, writer)])
