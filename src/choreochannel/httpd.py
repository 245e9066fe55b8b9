"""HTTP transport for trigger nodes: /propose, /confirm, /enact, /status.

Envelopes travel as JSON: a kind plus a `SignedStep` (`payload` and
`signatures`), whose signed bytes stay the canonical binary encoding. A node
only ever sends Propose and Confirm; a Sign travels back as the reply to a
Propose. Each node's message handling is serialised behind one lock,
matching the one-ordered-queue-per-node concurrency model. A request body
that does not decode gets 400 and never reaches the node; a reply that does
not decode counts as no reply. The in-process transport remains the default
for deterministic tests; this module exists for networked runs.
"""

from __future__ import annotations

import http.client
import json
import threading
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .machine import TaskRequest
from .trigger import TriggerNode
from .wire import ChannelMessage, MessageKind


class HttpTransport:
    """Client side: deliver protocol messages to peer endpoints, waiting at
    most 10 seconds for each reply."""

    def __init__(self, peer_endpoints: dict[str, str]):
        self.peer_endpoints = peer_endpoints

    def request(self, target_role: str, message: ChannelMessage) -> ChannelMessage | None:
        base = self.peer_endpoints.get(target_role)
        if base is None:
            return None
        path = {MessageKind.PROPOSE: "/propose", MessageKind.CONFIRM: "/confirm"}[message.kind]
        req = urllib.request.Request(
            base.rstrip("/") + path,
            data=message.to_wire().encode("utf-8"),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        try:
            with urllib.request.urlopen(req, timeout=10.0) as resp:
                body = resp.read()
                if resp.status == 200 and body:
                    return ChannelMessage.from_wire(body.decode("utf-8"))
                return None
        except (OSError, http.client.HTTPException, ValueError):
            return None


class NodeServer:
    """Server side: expose one trigger node over local HTTP."""

    def __init__(self, node: TriggerNode):
        self.node = node
        self.lock = threading.Lock()
        handler = self._make_handler()
        self.httpd = ThreadingHTTPServer(("127.0.0.1", 0), handler)
        self.port = self.httpd.server_address[1]
        self.thread = threading.Thread(target=self.httpd.serve_forever, daemon=True)

    @property
    def endpoint(self) -> str:
        return f"http://{self.httpd.server_address[0]}:{self.port}"

    def start(self) -> None:
        self.thread.start()

    def stop(self) -> None:
        self.httpd.shutdown()
        self.httpd.server_close()

    def _make_handler(self):
        server = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *args):  # quiet test output
                pass

            def _reply(self, status: int, payload: dict | str | None = None) -> None:
                body = b""
                if payload is not None:
                    body = (payload if isinstance(payload, str) else json.dumps(payload)).encode()
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def do_GET(self):
                if self.path == "/status":
                    with server.lock:
                        self._reply(200, server.node.status())
                else:
                    self._reply(404)

            def do_POST(self):
                try:
                    length = max(0, int(self.headers.get("Content-Length", "0")))
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
        peers = {r: s.endpoint for r, s in servers.items() if r != role}
        node.transport = HttpTransport(peers)
    for server in servers.values():
        server.start()
    return servers
