"""HTTP transport for trigger nodes: /propose, /confirm, /enact, /status.

Envelopes travel as JSON: a kind plus a `SignedStep` (`payload` and
`signatures`), whose signed bytes stay the canonical binary encoding. A node
only ever sends Propose and Confirm; a Sign travels back as the reply to a
Propose. Each node's message handling is serialised behind one lock,
matching the one-ordered-queue-per-node concurrency model.

A node keeps one persistent HTTP/1.1 connection to each peer (RFC 9112 §9)
and reconnects once when a reused connection turns out to have been dropped.
The server side keeps connections alive and sends with Nagle's algorithm
off: it writes a reply's headers and body in two sends, and with Nagle on
the body would wait for the peer's delayed ACK. A request body that does not
decode gets 400, which also closes the connection, and never reaches the
node; a reply that does not decode counts as no reply. The in-process
transport remains the default for deterministic tests; this module exists
for networked runs.
"""

from __future__ import annotations

import http.client
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .machine import TaskRequest
from .trigger import TriggerNode
from .wire import ChannelMessage, MessageKind


class HttpTransport:
    """Client side: deliver protocol messages to peer endpoints over one
    persistent connection per peer, waiting at most 10 seconds for each reply.

    The node's lock serialises its sends, so each connection carries one
    request at a time.
    """

    def __init__(self, peer_ports: dict[str, int]):
        self.connections = {role: http.client.HTTPConnection("127.0.0.1", port, timeout=10.0)
                            for role, port in peer_ports.items()}

    def request(self, target_role: str, message: ChannelMessage) -> ChannelMessage | None:
        conn = self.connections.get(target_role)
        if conn is None:
            return None
        path = {MessageKind.PROPOSE: "/propose", MessageKind.CONFIRM: "/confirm"}[message.kind]
        body = message.to_wire().encode("utf-8")
        # A reused connection the peer has dropped fails on first use: send
        # once more on a new one. Should the peer have acted on the lost
        # request, a re-sent Propose gets the same Sign back, and a re-sent
        # Confirm no longer follows its seq and is ignored.
        retry = conn.sock is not None
        while True:
            try:
                conn.request("POST", path, body=body, headers={"Content-Type": "application/json"})
                resp = conn.getresponse()
                data = resp.read()
                break
            except (ConnectionResetError, BrokenPipeError):  # RemoteDisconnected too
                conn.close()
                if not retry:
                    return None
                retry = False
            except (OSError, http.client.HTTPException):
                # A timed-out reply may still arrive: never read it as the
                # reply to the next request.
                conn.close()
                return None
        if resp.status != 200 or not data:
            return None
        try:
            return ChannelMessage.from_wire(data.decode("utf-8"))
        except ValueError:
            return None

    def close(self) -> None:
        for conn in self.connections.values():
            conn.close()


class NodeServer:
    """Server side: expose one trigger node over local HTTP."""

    # How often serve_forever checks for shutdown; stop() waits up to this.
    POLL_S = 0.05

    def __init__(self, node: TriggerNode):
        self.node = node
        self.lock = threading.Lock()
        handler = self._make_handler()
        self.httpd = ThreadingHTTPServer(("127.0.0.1", 0), handler)
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

    def _make_handler(self):
        server = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"
            disable_nagle_algorithm = True

            def log_message(self, *args):  # quiet test output
                pass

            def _reply(self, status: int, payload: dict | str | None = None) -> None:
                body = b""
                if payload is not None:
                    body = (payload if isinstance(payload, str) else json.dumps(payload)).encode()
                try:
                    self.send_response(status)
                    self.send_header("Content-Type", "application/json")
                    self.send_header("Content-Length", str(len(body)))
                    if status == 400:
                        # The request's length may be wrong, so whatever
                        # follows it on this connection cannot be parsed.
                        self.close_connection = True
                        self.send_header("Connection", "close")
                    self.end_headers()
                    self.wfile.write(body)
                except (BrokenPipeError, ConnectionResetError):
                    self.close_connection = True  # the client has gone away

            def do_GET(self):
                if self.path == "/status":
                    with server.lock:
                        self._reply(200, server.node.status())
                else:
                    self._reply(404)

            def do_POST(self):
                try:
                    length = int(self.headers.get("Content-Length", "0"))
                    if length < 0:
                        raise ValueError("negative Content-Length")
                    raw = self.rfile.read(length).decode("utf-8")
                    if self.path == "/enact":
                        data = json.loads(raw)
                        req = TaskRequest(
                            task_id=data["task_id"],
                            requester_role=data.get("requester_role", server.node.role),
                            choice_data=bytes.fromhex(data.get("choice_data", "")),
                        )
                    elif self.path in ("/propose", "/confirm"):
                        msg = ChannelMessage.from_wire(raw)
                    else:
                        self._reply(404)
                        return
                except (ValueError, KeyError, TypeError, RecursionError):
                    self._reply(400)
                    return
                if self.path == "/enact":
                    with server.lock:
                        result = server.node.enact(req)
                    self._reply(
                        200,
                        {
                            "status": result.status,
                            "error": result.error,
                            "new_state": None if result.new_state is None else hex(result.new_state),
                        },
                    )
                    return
                with server.lock:
                    reply = server.node.handle_message(msg)
                if reply is not None:
                    self._reply(200, reply.to_wire())
                else:
                    self._reply(204)

        return Handler


def serve_network(nodes: dict[str, TriggerNode]) -> dict[str, NodeServer]:
    """Serve every node on an ephemeral loopback port and wire their transports."""
    servers = {role: NodeServer(node) for role, node in nodes.items()}
    for role, node in nodes.items():
        node.transport = HttpTransport({r: s.port for r, s in servers.items() if r != role})
    for server in servers.values():
        server.start()
    return servers
