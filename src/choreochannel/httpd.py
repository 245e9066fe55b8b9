"""HTTP transport for trigger nodes: /propose, /confirm, /enact, /status.

A `/propose` or `/confirm` body, and a Sign reply, is the byte envelope of
`ChannelMessage.to_wire` (`application/octet-stream`): the signed
`encode_step` bytes plus each signer's role id and signature, so a node
verifies over the bytes it received. `/enact` and `/status` speak JSON to
clients (`application/json`); an empty body has no `Content-Type`. A node
only ever sends Propose and Confirm; a Sign travels back as the reply to a
Propose. Each node's message handling is serialised behind one lock,
matching the one-ordered-queue-per-node concurrency model.

The HTTP/1.1 framing is this module's own, on `socketserver` and `socket`:
each request and each reply leaves in one send, so no message waits on
Nagle's algorithm or wakes its reader twice. Both sides read the start line
and at most 100 header lines of at most 64 KiB each, and interpret only
`Content-Length` and `Connection`; any `Transfer-Encoding` is refused. A
node keeps one persistent connection to each peer (RFC 9112 §9) and
reconnects once when a reused connection turns out to have been dropped. A
request that does not frame, whose body does not decode, or whose envelope
kind is not the one its path names gets 400, which also closes the
connection, and never reaches the node. A reply that does
not frame counts as no reply and closes the connection; one that frames but
is not an envelope counts as no reply. An
HTTP/1.0 request, or one that sends `Connection: close`, gets one reply and
then the connection closes. The in-process transport remains the default
for deterministic tests; this module exists for networked runs.
"""

from __future__ import annotations

import json
import socket
import socketserver
import threading

from .machine import TaskRequest
from .trigger import TriggerNode
from .wire import ChannelMessage, MessageKind, WireError

# The standard library's limits on one header line and on the header count.
MAX_LINE = 65536
MAX_HEADERS = 100
# No envelope comes near this; a larger Content-Length is refused unread.
MAX_BODY = 1 << 20
TIMEOUT_S = 10.0
REASONS = {200: b"OK", 204: b"No Content", 400: b"Bad Request", 404: b"Not Found"}
PATHS = {MessageKind.PROPOSE: b"/propose", MessageKind.CONFIRM: b"/confirm"}
EVIDENCE_TYPE = b"application/octet-stream"
JSON_TYPE = b"application/json"


def _read_fields(rfile) -> tuple[int | None, bool]:
    """Read header lines up to the blank one that ends them.

    Returns the Content-Length (None when absent) and whether the sender
    asked to close the connection. Raises ValueError when the header does
    not frame, and EOFError when the stream ends inside it.
    """
    length, close = None, False
    for _ in range(MAX_HEADERS + 1):
        line = rfile.readline(MAX_LINE + 1)
        if len(line) > MAX_LINE:
            raise ValueError("header line too long")
        if line in (b"\r\n", b"\n"):
            return length, close
        if not line.endswith(b"\n"):
            raise EOFError("stream ended inside the header")
        name, colon, value = line.partition(b":")
        name, value = name.lower(), value.strip()
        if not colon or not name or name != name.strip():
            raise ValueError(f"malformed header line {line[:40]!r}")
        if name == b"content-length":
            if length is not None or not value.isdigit():
                raise ValueError("bad or repeated Content-Length")
            length = int(value)
        elif name == b"connection":
            close = b"close" in (token.strip() for token in value.lower().split(b","))
        elif name == b"transfer-encoding":
            raise ValueError("Transfer-Encoding is not supported")
    raise ValueError(f"more than {MAX_HEADERS} headers")


def _read_body(rfile, length: int) -> bytes:
    if length > MAX_BODY:
        raise ValueError("body too large")
    body = rfile.read(length)
    if len(body) < length:
        raise EOFError("stream ended inside the body")
    return body


class _Peer:
    """One persistent connection to a peer; `sock` is None while closed."""

    def __init__(self, port: int):
        self.port = port
        self.sock: socket.socket | None = None
        self.rfile = None

    def exchange(self, request: bytes) -> tuple[int, bytes]:
        """Send one request in one send and read its reply: (status, body).

        Raises ConnectionResetError when the peer closed the connection
        before replying, ValueError or EOFError when the reply does not frame.
        """
        if self.sock is None:
            sock = socket.create_connection(("127.0.0.1", self.port), timeout=TIMEOUT_S)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, True)
            self.sock, self.rfile = sock, sock.makefile("rb")
        self.sock.sendall(request)
        line = self.rfile.readline(MAX_LINE + 1)
        if not line:
            raise ConnectionResetError("the peer closed the connection")
        parts = line.split(None, 2)
        if (len(line) > MAX_LINE or not line.endswith(b"\n") or len(parts) < 2
                or not parts[0].startswith(b"HTTP/1.") or len(parts[1]) != 3
                or not parts[1].isdigit()):
            raise ValueError(f"malformed status line {line[:40]!r}")
        length, close = _read_fields(self.rfile)
        if length is None:
            raise ValueError("reply without Content-Length")
        body = _read_body(self.rfile, length)
        if close:
            self.close()
        return int(parts[1]), body

    def close(self) -> None:
        if self.sock is not None:
            self.rfile.close()
            self.sock.close()
            self.sock = self.rfile = None


class HttpTransport:
    """Client side: deliver protocol messages to peer endpoints over one
    persistent connection per peer, waiting at most 10 seconds for each reply.

    The node's lock serialises its sends, so each connection carries one
    request at a time.
    """

    def __init__(self, peer_ports: dict[str, int]):
        self.connections = {role: _Peer(port) for role, port in peer_ports.items()}

    def request(self, target_role: str, message: ChannelMessage) -> ChannelMessage | None:
        peer = self.connections.get(target_role)
        if peer is None:
            return None
        body = message.to_wire()
        request = (b"POST %s HTTP/1.1\r\nHost: 127.0.0.1:%d\r\n"
                   b"Content-Type: %s\r\nContent-Length: %d\r\n\r\n%s"
                   % (PATHS[message.kind], peer.port, EVIDENCE_TYPE, len(body), body))
        # A reused connection the peer has dropped fails on first use: send
        # once more on a new one. Should the peer have acted on the lost
        # request, a re-sent Propose gets the same Sign back, and a re-sent
        # Confirm no longer follows its seq and is ignored.
        retry = peer.sock is not None
        while True:
            try:
                status, data = peer.exchange(request)
                break
            except (ConnectionResetError, BrokenPipeError):
                peer.close()
                if not retry:
                    return None
                retry = False
            except (OSError, ValueError, EOFError):
                # A timed-out reply may still arrive: never read it as the
                # reply to the next request.
                peer.close()
                return None
        if status != 200 or not data:
            return None
        try:
            return ChannelMessage.from_wire(data)
        except WireError:
            return None

    def close(self) -> None:
        for peer in self.connections.values():
            peer.close()


class _Handler(socketserver.StreamRequestHandler):
    """One connection: answer its requests in order until it closes."""

    disable_nagle_algorithm = True

    def handle(self):
        try:
            while self.serve_one():
                pass
        except (ConnectionError, EOFError):
            pass  # the client has gone away, or left mid-request

    def serve_one(self) -> bool:
        """Answer one request in one send; False when the connection ends."""
        line = self.rfile.readline(MAX_LINE + 1)
        if not line.endswith(b"\n") and len(line) <= MAX_LINE:
            return False  # the stream ended, before or inside a request line
        try:
            if len(line) > MAX_LINE:
                raise ValueError("request line too long")
            method, path, version = line.split()
            if version not in (b"HTTP/1.1", b"HTTP/1.0"):
                raise ValueError(f"unsupported version {version[:20]!r}")
            length, close = _read_fields(self.rfile)
            body = _read_body(self.rfile, length or 0)
        except ValueError:
            status, content_type, reply, close = 400, None, b"", True
        else:
            status, content_type, reply = self.server.respond(method, path, body)
            # The length of a refused request may be wrong, so whatever
            # follows it on this connection cannot be parsed.
            close = close or status == 400 or version == b"HTTP/1.0"
        self.request.sendall(
            b"HTTP/1.1 %d %s\r\n%sContent-Length: %d\r\n%s\r\n%s"
            % (status, REASONS[status],
               b"Content-Type: %s\r\n" % content_type if content_type else b"",
               len(reply), b"Connection: close\r\n" if close else b"", reply))
        return not close


class _Server(socketserver.ThreadingTCPServer):
    daemon_threads = True

    def __init__(self, respond):
        self.respond = respond
        super().__init__(("127.0.0.1", 0), _Handler)


class NodeServer:
    """Server side: expose one trigger node over local HTTP."""

    # How often serve_forever checks for shutdown; stop() waits up to this.
    POLL_S = 0.05

    def __init__(self, node: TriggerNode):
        self.node = node
        self.lock = threading.Lock()
        self.httpd = _Server(self.respond)
        self.port = self.httpd.server_address[1]
        self.thread = threading.Thread(target=self.httpd.serve_forever,
                                       args=(self.POLL_S,), daemon=True)

    def start(self) -> None:
        self.thread.start()

    def stop(self) -> None:
        """Stop serving and close this node's connections to its peers, which
        ends the peers' handler threads for them."""
        self.httpd.shutdown()
        self.httpd.server_close()
        self.node.transport.close()

    def respond(self, method: bytes, path: bytes,
                body: bytes) -> tuple[int, bytes | None, bytes]:
        """Answer one framed request: (status, Content-Type or None, reply body)."""
        if (method, path) == (b"GET", b"/status"):
            with self.lock:
                return 200, JSON_TYPE, json.dumps(self.node.status()).encode()
        if method != b"POST" or path not in (b"/enact", b"/propose", b"/confirm"):
            return 404, None, b""
        if path != b"/enact":
            try:
                msg = ChannelMessage.from_wire(body)
            except WireError:
                return 400, None, b""
            if PATHS.get(msg.kind) != path:
                return 400, None, b""
            with self.lock:
                reply = self.node.handle_message(msg)
            return (204, None, b"") if reply is None else (200, EVIDENCE_TYPE, reply.to_wire())
        try:
            data = json.loads(body.decode("utf-8"))
            req = TaskRequest(
                task_id=data["task_id"],
                requester_role=data.get("requester_role", self.node.role),
                choice_data=bytes.fromhex(data.get("choice_data", "")),
            )
        except (ValueError, KeyError, TypeError, RecursionError):
            return 400, None, b""
        with self.lock:
            result = self.node.enact(req)
        return 200, JSON_TYPE, json.dumps({
            "status": result.status,
            "error": result.error,
            "new_state": None if result.new_state is None else hex(result.new_state),
        }).encode()


def serve_network(nodes: dict[str, TriggerNode]) -> dict[str, NodeServer]:
    """Serve every node on an ephemeral loopback port and wire their transports."""
    servers = {role: NodeServer(node) for role, node in nodes.items()}
    for role, node in nodes.items():
        node.transport = HttpTransport({r: s.port for r, s in servers.items() if r != role})
    for server in servers.values():
        server.start()
    return servers
