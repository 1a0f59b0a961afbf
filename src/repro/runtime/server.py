"""HTTP serving front-end for the sharded detection service.

:class:`DetectionHTTPServer` puts a network boundary on
:meth:`ShardedDetectionService.submit` using only the stdlib
(``http.server.ThreadingHTTPServer`` — no new dependencies), so real
multi-user traffic can reach the engine:

* ``POST /v1/detect[?model=<name>[@<ver>]][&class=<class>]`` — one
  detection request.  The body is either JSON
  (``{"samples": [[...], ...]}`` or a bare nested list) or a raw
  ``.npy`` array (``Content-Type: application/octet-stream``).  The
  ``model`` query parameter routes through the service's
  :class:`~repro.runtime.registry.ModelRegistry` (absent → the default
  model, preserving the single-model contract bit-identically); the
  request class comes from the ``class`` query parameter or the
  ``X-Repro-Class`` header (``interactive``/``standard``/``batch``,
  default ``standard``).  The response carries the ordered decision
  arrays — bit-identical to :meth:`DetectionEngine.run` over the same
  samples at any worker count — plus the resolved ``model`` spec and
  ``class``.
* ``GET /v1/models`` — the registry listing: every name/version, which
  version serves, per-version request counts, drain state, and the
  request-class table.
* ``POST /v1/models`` — hot-swap: register a new version and
  drain-and-replace the old one.  Body is
  ``{"name": ..., "from": "name[@ver]"}`` (clone an already-registered
  state) or ``{"name": ..., "path": ...}`` (load a saved detector via
  the server's ``model_loader`` callback), optionally with
  ``"threshold"``.
* ``DELETE /v1/models/<name[@version]>`` — explicit retirement of a
  non-serving version: the registry marks it retired and every worker
  unloads its engine.  Idempotent for an already-retired version; the
  serving version (or one still draining) is refused with ``409``
  (``conflict``) — promote a replacement first.
* ``GET /v1/stats`` — service throughput/latency accounting, server
  counters (global and per request class), per-model sections with
  per-class queue-wait percentiles, and each shard worker's OpenBLAS
  thread count.
* ``GET /healthz`` — 200 while at least one worker is alive and the
  server is accepting traffic; 503 during worker-pool outage or drain.

Backpressure is bounded, explicit, and class-aware: at most
``max_inflight`` requests may be in flight, and each request class may
only occupy its ``admit_fraction`` share of that budget — so under
overload the lowest class (``batch``) is refused first with ``429 Too
Many Requests`` (plus ``Retry-After``) while ``interactive`` still
admits, instead of queueing without bound.  Per-request deadlines
scale with the class (``request_timeout * slo_scale``).  Shutdown is a
graceful drain — new requests get 503 while in-flight ones finish (up
to ``drain_timeout``), then the listener closes.

Every error response uses one JSON schema::

    {"error": <human-readable message>,
     "code":  <machine-readable slug>,
     "retry_after": <seconds to back off, or null>}

with ``Retry-After`` also set as a header when non-null.  Mapping:
malformed body/shape/spec/class → 400 (``bad_request``), unknown
model/version or path → 404 (``model_not_found`` / ``not_found``),
retiring the serving or still-draining version → 409 (``conflict``),
oversized body → 413 (``payload_too_large``), class budget exhausted →
429 (``backpressure``), drain → 503 (``draining``), worker-pool
failure → 503 (``service_unavailable``), request deadline → 504
(``deadline_exceeded``), anything else → 500 (``internal``).

Connections are persistent (HTTP/1.1 keep-alive, ``TCP_NODELAY`` on
every accepted socket); a response that closes its connection says so
with ``Connection: close``.  The client helpers keep one connection per
thread and honor the error schema: :class:`RetryPolicy` retries
idempotent-safe outcomes only (429/503, or a connection that died
*before* any response) with exponential backoff, jitter, and the
server's ``Retry-After`` when present.
"""

from __future__ import annotations

import http.client
import io
import json
import random
import select
import socket
import threading
import time
import urllib.error
import urllib.parse
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Optional

import numpy as np

from repro.runtime.registry import (
    REQUEST_CLASSES,
    UnknownModelError,
    parse_model_spec,
    resolve_request_class,
)

__all__ = [
    "DetectionHTTPServer",
    "RetryPolicy",
    "encode_npy",
    "post_detect",
    "post_json",
    "get_json",
    "wait_for_health",
]

#: Default cap on request bodies (64 MiB) — far above any sane
#: micro-batch, small enough that one rogue client cannot OOM the box.
MAX_BODY_BYTES = 64 << 20


# -- client helpers ----------------------------------------------------------

@dataclass
class RetryPolicy:
    """Retry budget + exponential backoff for the HTTP client helpers.

    Retries only *idempotent-safe* outcomes: a 429/503 response (the
    server explicitly said "back off and come again"), or a connection
    that failed **before any response arrived** (refused, reset, or
    dropped without a status line — the request was never processed).
    A 4xx/5xx that proves the server processed the request (400, 404,
    409, 500, 504, ...) is never retried.

    The delay for attempt ``k`` is ``base_delay * multiplier**k``
    capped at ``max_delay``, stretched by a uniform jitter of up to
    ``jitter`` (a fraction) so synchronized clients fan out.  When the
    failing response carried ``Retry-After`` (header or body field)
    and ``honor_retry_after`` is set, that value replaces the computed
    backoff (still capped at ``max_delay``).

    ``seed`` pins the jitter stream and ``sleep`` is injectable, so
    tests run deterministic and instant.
    """

    max_retries: int = 4
    base_delay: float = 0.1
    max_delay: float = 5.0
    multiplier: float = 2.0
    jitter: float = 0.25
    honor_retry_after: bool = True
    seed: Optional[int] = None
    sleep: Callable[[float], None] = time.sleep
    #: total retries performed across calls (observability for drills)
    retries_used: int = field(default=0, init=False)

    def __post_init__(self):
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be non-negative")
        if not 0 <= self.jitter:
            raise ValueError("jitter must be non-negative")
        self._rng = random.Random(self.seed)

    def delay_for(
        self, attempt: int, retry_after: Optional[float] = None
    ) -> float:
        """Seconds to back off before retry number ``attempt`` (0-based)."""
        if self.honor_retry_after and retry_after is not None:
            return min(float(retry_after), self.max_delay)
        delay = min(
            self.max_delay, self.base_delay * self.multiplier ** attempt
        )
        if self.jitter:
            delay *= 1.0 + self._rng.uniform(0.0, self.jitter)
        return min(delay, self.max_delay)

    @staticmethod
    def is_retryable(exc: BaseException) -> bool:
        """Whether this failure is safe to retry (see class docstring)."""
        if isinstance(exc, urllib.error.HTTPError):
            return exc.code in (429, 503)
        if isinstance(exc, urllib.error.URLError):
            return isinstance(
                exc.reason,
                (
                    ConnectionResetError,
                    ConnectionRefusedError,
                    http.client.RemoteDisconnected,
                ),
            )
        return isinstance(
            exc,
            (
                ConnectionResetError,
                ConnectionRefusedError,
                http.client.RemoteDisconnected,
            ),
        )

    @staticmethod
    def retry_after_from(exc: BaseException) -> Optional[float]:
        """Extract the server's ``Retry-After`` hint from a failed
        response: the header first, the unified error body's
        ``retry_after`` field as fallback; ``None`` when absent."""
        if not isinstance(exc, urllib.error.HTTPError):
            return None
        header = None
        if exc.headers is not None:
            header = exc.headers.get("Retry-After")
        if header is not None:
            try:
                return float(header)
            except ValueError:
                return None
        try:
            payload = json.loads(exc.read().decode("utf-8"))
            value = payload.get("retry_after")
            return None if value is None else float(value)
        except (
            OSError,
            ValueError,
            UnicodeDecodeError,
            AttributeError,
        ):
            return None

    def call(self, fn: Callable[[], dict]) -> dict:
        """Run ``fn`` under this policy: on a retryable failure, back
        off and try again until the budget is spent, then re-raise."""
        attempt = 0
        while True:
            try:
                return fn()
            except Exception as exc:
                if attempt >= self.max_retries or not self.is_retryable(exc):
                    raise
                delay = self.delay_for(attempt, self.retry_after_from(exc))
                attempt += 1
                self.retries_used += 1
                self.sleep(delay)


def encode_npy(xs: np.ndarray) -> bytes:
    """Serialize an array as ``.npy`` bytes (the binary request body)."""
    buf = io.BytesIO()
    np.save(buf, np.asarray(xs), allow_pickle=False)
    return buf.getvalue()


class _Pooled:
    """One thread's keep-alive connection and the address it serves.

    Every client helper below goes through it, so a closed-loop client
    reuses one TCP connection instead of opening one per request
    (``HTTPConnection.connect`` sets TCP_NODELAY, so a small request
    never waits out a delayed ACK).  It closes the connection when the
    thread's locals are dropped at thread or interpreter exit, rather
    than leave an open socket to the garbage collector."""

    def __init__(self, address: tuple, timeout: float):
        self.address = address
        self.conn = http.client.HTTPConnection(*address, timeout=timeout)

    def __del__(self):
        self.conn.close()


_pool = threading.local()


def _peer_closed(sock) -> bool:
    """Whether an idle pooled socket is readable: the server closed it
    (EOF) or sent bytes nobody asked for — either way, unusable."""
    try:
        return bool(select.select([sock], [], [], 0)[0])
    except (OSError, ValueError):  # closed, or beyond select()'s range
        return True


def _discard(conn: http.client.HTTPConnection) -> None:
    conn.close()
    pooled = getattr(_pool, "pooled", None)
    if pooled is not None and pooled.conn is conn:
        _pool.pooled = None


def _checkout(address: tuple, timeout: float) -> tuple:
    """``(connection, reused)``: this thread's pooled connection to
    ``address``, or a new one (replacing the pooled one) when the pool
    holds another address or a connection the server has closed."""
    pooled = getattr(_pool, "pooled", None)
    if (
        pooled is not None
        and pooled.address == address
        and not _peer_closed(pooled.conn.sock)
    ):
        pooled.conn.sock.settimeout(timeout)
        return pooled.conn, True
    if pooled is not None:
        pooled.conn.close()
    _pool.pooled = _Pooled(address, timeout)
    return _pool.pooled.conn, False


def _send_request(
    method: str,
    url: str,
    body: Optional[bytes],
    headers: dict,
    timeout: float,
    retry: Optional[RetryPolicy],
    idempotent: bool,
) -> dict:
    """One request over this thread's pooled connection; the decoded
    JSON response.  A non-2xx response raises
    :class:`urllib.error.HTTPError` carrying the status, headers and
    JSON body; transport failures raise their :class:`OSError`.

    A reused connection that fails before any response arrives was
    probably closed by the server while idle: an ``idempotent`` request
    is sent once more on a fresh connection, any other raises (the
    server may have acted on it)."""
    split = urllib.parse.urlsplit(url)
    if split.scheme != "http":
        raise ValueError(f"unsupported URL scheme in {url!r}")
    address = (split.hostname, split.port or 80)
    target = split.path + (f"?{split.query}" if split.query else "")

    def exchange() -> tuple:
        while True:
            conn, reused = _checkout(address, timeout)
            try:
                conn.request(method, target, body, headers)
                return conn, conn.getresponse()
            except (ConnectionResetError, BrokenPipeError):
                # no response (RemoteDisconnected is a reset too)
                _discard(conn)
                if not (reused and idempotent):
                    raise
            except BaseException:
                _discard(conn)
                raise

    def attempt() -> dict:
        conn, response = exchange()
        keep = False
        try:
            data = response.read()
            keep = not response.will_close
        finally:
            if not keep:
                _discard(conn)
        if not 200 <= response.status < 300:
            raise urllib.error.HTTPError(
                url, response.status, response.reason, response.msg,
                io.BytesIO(data),
            )
        return json.loads(data.decode("utf-8"))

    if retry is None:
        return attempt()
    return retry.call(attempt)


def post_detect(
    base_url: str,
    xs: np.ndarray,
    *,
    binary: bool = True,
    timeout: float = 120.0,
    model: Optional[str] = None,
    request_class: Optional[str] = None,
    retry: Optional[RetryPolicy] = None,
) -> dict:
    """POST one detection request; returns the decoded JSON response.

    ``model`` is a ``name[@version]`` spec sent as the ``model`` query
    parameter; ``request_class`` is sent as the ``X-Repro-Class``
    header.  ``retry`` applies a :class:`RetryPolicy` to retryable
    outcomes (429/503/connection-reset before response); detection is
    idempotent, so redelivery is always safe.  Raises
    :class:`urllib.error.HTTPError` on non-2xx (the bench and the
    tests read ``exc.code`` off it).
    """
    if binary:
        body = encode_npy(xs)
        content_type = "application/octet-stream"
    else:
        body = json.dumps(
            {"samples": np.asarray(xs).tolist()}
        ).encode("utf-8")
        content_type = "application/json"
    path = "/v1/detect"
    if model is not None:
        path += "?" + urllib.parse.urlencode({"model": model})
    headers = {"Content-Type": content_type}
    if request_class is not None:
        headers["X-Repro-Class"] = request_class
    return _send_request(
        "POST", base_url.rstrip("/") + path, body, headers, timeout, retry,
        idempotent=True,
    )


def post_json(
    base_url: str,
    path: str,
    payload: dict,
    timeout: float = 60.0,
    retry: Optional[RetryPolicy] = None,
) -> dict:
    """POST a JSON payload (e.g. a ``/v1/models`` hot-swap) and decode
    the JSON response.  ``retry`` applies a :class:`RetryPolicy`; only
    pass one for idempotent payloads (note a retried hot-swap POST may
    register two versions)."""
    return _send_request(
        "POST", base_url.rstrip("/") + path,
        json.dumps(payload).encode("utf-8"),
        {"Content-Type": "application/json"}, timeout, retry,
        idempotent=False,
    )


def get_json(base_url: str, path: str, timeout: float = 10.0) -> dict:
    """GET a JSON endpoint (``/healthz``, ``/v1/stats``)."""
    return _send_request(
        "GET", base_url.rstrip("/") + path, None, {}, timeout, None,
        idempotent=True,
    )


def wait_for_health(
    base_url: str,
    timeout: float = 60.0,
    interval: float = 0.1,
    retry: Optional[RetryPolicy] = None,
) -> bool:
    """Poll ``/healthz`` until it reports healthy or ``timeout``.

    Probes back off exponentially with jitter (a :class:`RetryPolicy`,
    seeded from ``interval`` as the base delay) instead of a fixed
    interval, so a fleet of clients booting against the same server
    does not synchronize into probe storms."""
    policy = retry if retry is not None else RetryPolicy(
        base_delay=interval, max_delay=max(interval, 1.0)
    )
    deadline = time.monotonic() + timeout
    attempt = 0
    while time.monotonic() < deadline:
        try:
            if get_json(base_url, "/healthz")["status"] == "ok":
                return True
        except (OSError, ValueError, KeyError):  # HTTPError is an OSError
            pass
        delay = policy.delay_for(attempt)
        attempt += 1
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            break
        policy.sleep(min(delay, remaining))
    return False


# -- server ------------------------------------------------------------------

class _Handler(BaseHTTPRequestHandler):
    """Per-connection handler; all state lives on ``server.front``."""

    server_version = "repro-detect/1.0"
    protocol_version = "HTTP/1.1"
    # Per-connection socket timeout so a stalled client cannot pin a
    # handler thread forever (StreamRequestHandler applies this).
    timeout = 120.0
    # TCP_NODELAY on every accepted socket: with Nagle on, a keep-alive
    # client's small request waits out its peer's delayed ACK (~40 ms).
    disable_nagle_algorithm = True

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # request logging is the caller's concern, not stderr's

    def _send_json(
        self, code: int, payload: dict, extra_headers: Optional[dict] = None
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            # tell a keep-alive client not to reuse this connection
            self.send_header("Connection", "close")
        for name, value in (extra_headers or {}).items():
            self.send_header(name, value)
        # status line, headers and body in one write (end_headers()
        # would send the header block on its own)
        self._headers_buffer.append(b"\r\n")
        self.wfile.write(b"".join(self._headers_buffer) + body)
        self._headers_buffer = []

    def do_GET(self) -> None:
        front: "DetectionHTTPServer" = self.server.front
        path = urllib.parse.urlsplit(self.path).path
        if path == "/healthz":
            payload, code = front.health()
            self._send_json(code, payload)
        elif path == "/v1/stats":
            self._send_json(200, front.stats_payload())
        elif path == "/v1/models":
            front.handle_models_get(self)
        else:
            front.send_error_json(
                self, 404, "not_found", f"no such path: {self.path}"
            )

    def do_POST(self) -> None:
        front: "DetectionHTTPServer" = self.server.front
        split = urllib.parse.urlsplit(self.path)
        query = urllib.parse.parse_qs(split.query)
        if split.path == "/v1/detect":
            front.handle_detect(self, query)
        elif split.path == "/v1/models":
            front.handle_models_post(self)
        else:
            # the body was never read; a keep-alive reuse would misparse
            self.close_connection = True
            front.send_error_json(
                self, 404, "not_found", f"no such path: {self.path}"
            )

    def do_DELETE(self) -> None:
        front: "DetectionHTTPServer" = self.server.front
        path = urllib.parse.urlsplit(self.path).path
        prefix = "/v1/models/"
        if path.startswith(prefix) and len(path) > len(prefix):
            spec = urllib.parse.unquote(path[len(prefix):])
            front.handle_models_delete(self, spec)
        else:
            front.send_error_json(
                self, 404, "not_found", f"no such path: {self.path}"
            )


class _Httpd(ThreadingHTTPServer):
    """One daemon handler thread per connection, kept in a registry so
    :meth:`close_connections` can end idle keep-alive connections."""

    def __init__(self, address, handler, front: "DetectionHTTPServer"):
        self.front = front
        self._connections: dict = {}  # socket -> its handler thread
        self._connections_lock = threading.Lock()
        super().__init__(address, handler)

    def process_request(self, request, client_address) -> None:
        thread = threading.Thread(
            target=self.process_request_thread,
            args=(request, client_address),
            name=f"detection-http-conn:{self.server_address[1]}",
            daemon=True,
        )
        with self._connections_lock:
            self._connections[request] = thread
        self.front._count("connections_total")
        thread.start()

    def process_request_thread(self, request, client_address) -> None:
        try:
            super().process_request_thread(request, client_address)
        finally:
            with self._connections_lock:
                del self._connections[request]

    def close_connections(self, grace: float) -> None:
        """End every open connection and join its handler thread.

        Shutting the read side wakes a handler idle between keep-alive
        requests with EOF at once, while one still writing a response
        gets to finish it; whatever is left after ``grace`` seconds is
        cut both ways."""
        for how, wait in ((socket.SHUT_RD, grace), (socket.SHUT_RDWR, 1.0)):
            with self._connections_lock:
                remaining = list(self._connections.items())
            for sock, _ in remaining:
                try:
                    sock.shutdown(how)
                except OSError:
                    pass  # its handler closed it already
            deadline = time.monotonic() + wait
            for _, thread in remaining:
                thread.join(max(0.0, deadline - time.monotonic()))


class DetectionHTTPServer:
    """The HTTP boundary over one :class:`ShardedDetectionService`.

    Parameters
    ----------
    service:
        Anything with the service surface (``submit`` returning a
        future, ``stats()``, ``alive_workers``, ``restarts``, and
        optionally ``failure``) — in production the
        sharded service, in tests a stub.
    host / port:
        Bind address; port 0 picks an ephemeral port (read it back
        from :attr:`port` / :attr:`url`).
    max_inflight:
        Bounded backpressure: requests beyond this many in flight are
        refused with 429 instead of queueing.
    request_timeout:
        Per-request deadline waiting on the service future (504 on
        expiry).
    max_body_bytes:
        Reject larger request bodies with 413.
    drain_timeout:
        How long :meth:`close` waits for in-flight requests.
    model_loader:
        Optional callback for ``POST /v1/models`` with a ``"path"``
        body: ``model_loader(path) -> (state, model_factory,
        threshold)``.  The CLI wires one that loads a saved detector
        directory against the serving scenario's architecture; without
        it only ``"from"`` (clone-an-existing-spec) hot-swaps work.
    """

    def __init__(
        self,
        service,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_inflight: int = 8,
        request_timeout: float = 120.0,
        max_body_bytes: int = MAX_BODY_BYTES,
        drain_timeout: float = 30.0,
        model_loader: Optional[Callable] = None,
    ):
        if max_inflight < 1:
            raise ValueError("max_inflight must be positive")
        if request_timeout <= 0:
            raise ValueError("request_timeout must be positive")
        self.service = service
        self.max_inflight = max_inflight
        self.request_timeout = request_timeout
        self.max_body_bytes = max_body_bytes
        self.drain_timeout = drain_timeout
        self.model_loader = model_loader
        self._lock = threading.Lock()
        self._inflight = 0
        # admitted requests whose handler thread is still doing I/O:
        # the admission slot (_inflight) frees as soon as the service
        # work completes, but drain must also wait for the response
        # bytes to finish going out (handler threads are daemonic)
        self._responding = 0
        self._draining = False
        self._counters = {
            "connections_total": 0,  # accepted TCP connections
            "requests_total": 0,
            "responses_200": 0,
            "responses_429": 0,
            "client_errors": 0,
            "server_errors": 0,
        }
        # per-class admission accounting (admitted/shed per class name)
        self._class_counters = {
            name: {"admitted": 0, "shed": 0} for name in REQUEST_CLASSES
        }
        self._httpd = _Httpd((host, port), _Handler, front=self)
        self._thread: Optional[threading.Thread] = None
        self._started_at = time.monotonic()

    # -- lifecycle ------------------------------------------------------
    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def inflight(self) -> int:
        with self._lock:
            return self._inflight

    def start(self) -> "DetectionHTTPServer":
        """Serve in a background thread (idempotent)."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._httpd.serve_forever,
                name="detection-http-server",
                daemon=True,
            )
            self._thread.start()
        return self

    def close(self, drain: bool = True) -> None:
        """Stop accepting work, drain in-flight requests, shut down.

        New ``POST /v1/detect`` requests are refused with 503 the
        moment this is called; in-flight ones get up to
        ``drain_timeout`` to finish before the listener closes.  Idle
        keep-alive connections are then shut and every handler thread
        joined, so none outlives this call.  The underlying detection
        service is *not* stopped — it belongs to the caller.
        """
        with self._lock:
            self._draining = True
        deadline = time.monotonic() + (self.drain_timeout if drain else 0.0)
        while time.monotonic() < deadline:
            with self._lock:
                if self._inflight == 0 and self._responding == 0:
                    break
            time.sleep(0.01)
        if self._thread is not None:
            # shutdown() waits on an event only serve_forever() sets —
            # calling it on a never-started server would hang forever
            self._httpd.shutdown()
            self._thread.join(timeout=10)
            self._thread = None
        # idle keep-alive connections park their handler threads in a
        # read until the client sends again or the socket times out
        self._httpd.close_connections(
            max(0.0, deadline - time.monotonic())
        )
        self._httpd.server_close()

    def __enter__(self) -> "DetectionHTTPServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- endpoint logic -------------------------------------------------
    def health(self) -> tuple:
        """(payload, status_code) for ``/healthz``."""
        alive = self.service.alive_workers
        failure = self.service.failure
        with self._lock:
            draining = self._draining
            inflight = self._inflight
        healthy = alive > 0 and failure is None and not draining
        payload = {
            "status": "ok" if healthy else "unhealthy",
            "alive_workers": int(alive),
            "inflight": inflight,
            "draining": draining,
            "failure": repr(failure) if failure is not None else None,
            "uptime_seconds": time.monotonic() - self._started_at,
        }
        return payload, (200 if healthy else 503)

    def stats_payload(self) -> dict:
        with self._lock:
            server = dict(self._counters)
            server["inflight"] = self._inflight
            server["max_inflight"] = self.max_inflight
            server["draining"] = self._draining
            class_counters = {
                name: dict(counts)
                for name, counts in self._class_counters.items()
            }
        # per-class enqueue→dispatch wait percentiles
        class_waits = self.service.class_wait_stats()
        classes = {
            name: {
                **cls.snapshot(),
                "admit_limit": cls.admit_limit(self.max_inflight),
                **class_counters.get(name, {}),
                **(
                    {"queue_wait": class_waits[name]}
                    if name in class_waits else {}
                ),
            }
            for name, cls in REQUEST_CLASSES.items()
        }
        return {
            "service": self.service.stats().report(),
            "server": server,
            "alive_workers": int(self.service.alive_workers),
            "restarts": int(self.service.restarts),
            "blas_threads": self.service.blas_threads(),
            "default_model": self.service.default_model,
            "models": {
                spec: stats.report()
                for spec, stats in self.service.model_stats().items()
            },
            "classes": classes,
        }

    def _count(self, key: str) -> None:
        with self._lock:
            self._counters[key] += 1

    def send_error_json(
        self,
        handler: _Handler,
        status: int,
        code: str,
        message: str,
        retry_after: Optional[float] = None,
    ) -> None:
        """Emit the one error schema every non-2xx response uses:
        ``{"error": <message>, "code": <slug>, "retry_after": <s|null>}``
        (plus a ``Retry-After`` header when non-null)."""
        headers = (
            {"Retry-After": f"{retry_after:g}"}
            if retry_after is not None else None
        )
        handler._send_json(
            status,
            {
                "error": message,
                "code": code,
                "retry_after": retry_after,
            },
            headers,
        )

    def _parse_body(self, body: bytes, content_type: str) -> np.ndarray:
        """Decode a request body into a sample array; ValueError on any
        malformed input (mapped to 400 by the caller)."""
        kind = content_type.split(";")[0].strip().lower()
        if kind in ("application/octet-stream", "application/x-npy"):
            try:
                return np.load(io.BytesIO(body), allow_pickle=False)
            except Exception as exc:
                raise ValueError(f"invalid .npy body: {exc}") from exc
        # default: JSON
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ValueError(f"invalid JSON body: {exc}") from exc
        if isinstance(payload, dict):
            if "samples" not in payload:
                raise ValueError('JSON body must carry a "samples" key')
            payload = payload["samples"]
        try:
            return np.asarray(payload, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise ValueError(
                f"samples are not a numeric array: {exc}"
            ) from exc

    def handle_detect(self, handler: _Handler, query: dict) -> None:
        from repro.runtime.service import ServiceError

        self._count("requests_total")
        model_spec = (query.get("model") or [None])[0]
        class_name = (
            (query.get("class") or [None])[0]
            or handler.headers.get("X-Repro-Class")
        )
        try:
            cls = resolve_request_class(class_name)
        except ValueError as exc:
            self._count("client_errors")
            handler.close_connection = True  # body never read
            self.send_error_json(handler, 400, "bad_request", str(exc))
            return
        try:
            length = int(handler.headers.get("Content-Length") or 0)
        except ValueError:
            length = -1
        if length <= 0:
            self._count("client_errors")
            handler.close_connection = True  # body (if any) never read
            self.send_error_json(
                handler, 400, "bad_request",
                "request body required (Content-Length)",
            )
            return
        if length > self.max_body_bytes:
            self._count("client_errors")
            handler.close_connection = True  # body never read
            self.send_error_json(
                handler, 413, "payload_too_large",
                f"body exceeds {self.max_body_bytes} bytes",
            )
            return
        # bounded, class-aware backpressure: admit or refuse *before*
        # reading work.  Each class only gets its admit_fraction share
        # of the in-flight budget, so the lowest class sheds first.
        limit = cls.admit_limit(self.max_inflight)
        with self._lock:
            if self._draining:
                admitted = False
                draining = True
            elif self._inflight >= limit:
                admitted = False
                draining = False
                self._class_counters[cls.name]["shed"] += 1
            else:
                self._inflight += 1
                self._responding += 1
                admitted = True
                draining = False
                self._class_counters[cls.name]["admitted"] += 1
        if not admitted:
            handler.close_connection = True  # refused before body read
            if draining:
                self._count("server_errors")
                self.send_error_json(
                    handler, 503, "draining", "server is draining",
                    retry_after=1.0,
                )
            else:
                self._count("responses_429")
                self.send_error_json(
                    handler, 429, "backpressure",
                    (
                        f"too many in-flight requests for class "
                        f"{cls.name!r} ({limit} of "
                        f"{self.max_inflight} slots)"
                    ),
                    retry_after=1.0,
                )
            return
        # One-shot slot release: the slot guards *service work*, not
        # socket writing, so every response path frees it before the
        # response bytes go out — otherwise a client that posts again
        # the instant it reads a response races the handler thread's
        # cleanup and bounces off a slot held only for I/O.  The
        # finally below is the idempotent backstop for error paths.
        released = [False]

        def release() -> None:
            with self._lock:
                if not released[0]:
                    released[0] = True
                    self._inflight -= 1

        try:
            self._handle_admitted(handler, length, model_spec, cls, release)
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-response; nothing to answer
        except ServiceError as exc:
            self._count("server_errors")
            release()
            try:
                self.send_error_json(
                    handler, 503, "service_unavailable", str(exc)
                )
            except (BrokenPipeError, ConnectionResetError):
                pass
        except Exception as exc:  # never let a bug wedge the slot
            self._count("server_errors")
            release()
            try:
                self.send_error_json(
                    handler, 500, "internal", f"internal error: {exc!r}"
                )
            except (BrokenPipeError, ConnectionResetError):
                pass
        finally:
            release()
            with self._lock:
                self._responding -= 1

    def _handle_admitted(
        self, handler: _Handler, length: int, model_spec, cls, release
    ) -> None:
        started = time.perf_counter()
        body = handler.rfile.read(length)
        try:
            xs = self._parse_body(
                body, handler.headers.get("Content-Type", "")
            )
            future = self.service.submit(
                xs, model=model_spec, request_class=cls.name
            )
        except UnknownModelError as exc:
            self._count("client_errors")
            release()
            self.send_error_json(handler, 404, "model_not_found", str(exc))
            return
        except ValueError as exc:
            self._count("client_errors")
            release()
            self.send_error_json(handler, 400, "bad_request", str(exc))
            return
        # class-aware deadline: interactive gets a tighter budget
        deadline = self.request_timeout * cls.slo_scale
        try:
            result = future.result(timeout=deadline)
        except TimeoutError:
            # abandon the request in the service too, or its queued
            # chunks would pile up behind every future deadline
            future.cancel()
            self._count("server_errors")
            release()
            self.send_error_json(
                handler, 504, "deadline_exceeded",
                (
                    f"request deadline exceeded ({deadline:.1f}s, "
                    f"class {cls.name!r})"
                ),
            )
            return
        wall_ms = (time.perf_counter() - started) * 1e3
        self._count("responses_200")
        release()
        handler._send_json(
            200,
            {
                "num_samples": int(result.num_samples),
                "scores": result.scores.tolist(),
                "predicted_classes": result.predicted_classes.tolist(),
                "is_adversarial": result.is_adversarial.tolist(),
                "similarities": result.similarities.tolist(),
                "rejection_rate": float(result.rejection_rate),
                "wall_ms": wall_ms,
                "model": future.model,
                "class": cls.name,
            },
        )

    # -- model management endpoints -------------------------------------
    def handle_models_get(self, handler: _Handler) -> None:
        handler._send_json(200, self.service.models())

    def _send_not_found(self, handler: _Handler, exc: Exception) -> None:
        """404 for a model endpoint's lookup that found nothing: an
        unknown model spec is ``model_not_found``, anything else (a
        missing detector path) ``not_found``."""
        self._count("client_errors")
        code = (
            "model_not_found" if isinstance(exc, UnknownModelError)
            else "not_found"
        )
        self.send_error_json(handler, 404, code, str(exc))

    def handle_models_post(self, handler: _Handler) -> None:
        """Hot-swap endpoint: register a new model version and
        drain-and-replace the serving one (see module docstring)."""
        from repro.runtime.service import ServiceError

        try:
            length = int(handler.headers.get("Content-Length") or 0)
        except ValueError:
            length = -1
        if length <= 0 or length > self.max_body_bytes:
            self._count("client_errors")
            handler.close_connection = True
            if length > self.max_body_bytes:
                self.send_error_json(
                    handler, 413, "payload_too_large",
                    f"body exceeds {self.max_body_bytes} bytes",
                )
            else:
                self.send_error_json(
                    handler, 400, "bad_request",
                    "request body required (Content-Length)",
                )
            return
        body = handler.rfile.read(length)
        try:
            payload = json.loads(body.decode("utf-8"))
            if not isinstance(payload, dict) or "name" not in payload:
                raise ValueError(
                    'JSON body must be an object with a "name" key'
                )
        except (UnicodeDecodeError, json.JSONDecodeError, ValueError) as exc:
            self._count("client_errors")
            self.send_error_json(handler, 400, "bad_request", str(exc))
            return
        name = payload["name"]
        threshold = payload.get("threshold")
        try:
            if "path" in payload:
                if self.model_loader is None:
                    self._count("client_errors")
                    self.send_error_json(
                        handler, 400, "bad_request",
                        'this server has no model_loader; only "from" '
                        "(clone an existing spec) hot-swaps are available",
                    )
                    return
                state, factory, default_threshold = self.model_loader(
                    payload["path"]
                )
                entry = self.service.load_model(
                    name,
                    state=state,
                    model_factory=factory,
                    threshold=(
                        default_threshold if threshold is None else threshold
                    ),
                )
            else:
                # without "from" the service has nothing to load: 400
                entry = self.service.load_model(
                    name, source=payload.get("from"), threshold=threshold
                )
        except (LookupError, FileNotFoundError) as exc:
            self._send_not_found(handler, exc)
            return
        except ValueError as exc:
            self._count("client_errors")
            self.send_error_json(handler, 400, "bad_request", str(exc))
            return
        except ServiceError as exc:
            self._count("server_errors")
            self.send_error_json(
                handler, 503, "service_unavailable", str(exc)
            )
            return
        self._count("responses_200")
        handler._send_json(
            200,
            {
                "name": entry.name,
                "version": entry.version,
                "spec": entry.spec,
                "serving": True,
            },
        )

    def handle_models_delete(self, handler: _Handler, spec: str) -> None:
        """Explicit retirement: ``DELETE /v1/models/<name[@version]>``.

        404 for an unknown name/version, 409 (``conflict``) for the
        serving version or one still draining — promote a replacement
        (or wait) and retry.  Idempotent once retired."""
        from repro.runtime.service import ServiceError

        try:
            parse_model_spec(spec)
        except ValueError as exc:
            self._count("client_errors")
            self.send_error_json(handler, 400, "bad_request", str(exc))
            return
        try:
            payload = self.service.retire_model(spec)
        except LookupError as exc:
            self._send_not_found(handler, exc)
            return
        except ValueError as exc:
            # serving version, or a drain still in progress: the state
            # can change shortly, so hint a quick retry
            self._count("client_errors")
            self.send_error_json(
                handler, 409, "conflict", str(exc), retry_after=1.0
            )
            return
        except ServiceError as exc:
            self._count("server_errors")
            self.send_error_json(
                handler, 503, "service_unavailable", str(exc)
            )
            return
        self._count("responses_200")
        handler._send_json(200, payload)
