"""HTTP/1.1 framing of the node transport, byte by byte on raw sockets.

The replies are parsed here by a small reference parser, independent of the
module under test, so a framing defect on either side shows.
"""

import json
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import choreochannel
from choreochannel.cases import build_machine, load_variants
from choreochannel.harness import build_network
from choreochannel.httpd import MAX_HEADERS, MAX_LINE, HttpTransport, serve_network
from choreochannel.machine import step
from choreochannel.wire import (
    ChannelMessage,
    MessageKind,
    SignedStep,
    StepPayload,
    sign_step,
    verify_step,
)
from util import CONFIRM, envelope, flipped, step_bytes
from util import PROPOSE as PROPOSE_KIND

# A Propose for another contract, signed (not validly) by role r: it decodes,
# and the node ignores it with 204.
PROPOSE = envelope(PROPOSE_KIND, step_bytes(), [(b"r", bytes(64))])
ROUTES = {(b"GET", b"/status"), (b"POST", b"/enact"), (b"POST", b"/propose"),
          (b"POST", b"/confirm")}


@pytest.fixture(scope="module")
def server():
    """One served incident_management node (its peers are served too)."""
    setup = build_network(build_machine("incident_management"), key_salt="framing-tests")
    servers = serve_network(setup.nodes)
    yield next(iter(servers.values()))
    for s in servers.values():
        s.stop()


def http_request(method=b"POST", path=b"/propose", body=PROPOSE, version=b"HTTP/1.1",
                 headers=None):
    if headers is None:
        headers = [(b"Content-Length", b"%d" % len(body))]
    lines = [b"%s %s %s" % (method, path, version)]
    lines += [b"%s: %s" % field for field in headers]
    return b"\r\n".join(lines) + b"\r\n\r\n" + body


def read_until_closed(sock) -> bytes:
    """Everything the server sends until it closes; times out if it never does."""
    chunks = []
    while True:
        try:
            chunk = sock.recv(65536)
        except ConnectionResetError:  # it closed with our bytes unread
            break
        if not chunk:
            break
        chunks.append(chunk)
    return b"".join(chunks)


def parse_replies(data: bytes) -> list[tuple[int, dict, bytes]]:
    """Split a byte stream into (status, header fields, body) replies."""
    replies = []
    while data:
        head, blank, data = data.partition(b"\r\n\r\n")
        assert blank, head
        status_line, *field_lines = head.split(b"\r\n")
        version, status, _ = status_line.split(b" ", 2)
        assert version == b"HTTP/1.1"
        fields = dict(line.split(b": ", 1) for line in field_lines)
        length = int(fields[b"Content-Length"])
        assert len(data) >= length
        replies.append((int(status), fields, data[:length]))
        data = data[length:]
    return replies


def exchange(server, data: bytes, *, end_writes: bool = False):
    """Send raw bytes on a new connection and parse what comes back before
    the server closes it. With end_writes the client half-closes first."""
    with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
        sock.sendall(data)
        if end_writes:
            sock.shutdown(socket.SHUT_WR)
        return parse_replies(read_until_closed(sock))


def status_of(server) -> dict:
    ((status, _, body),) = exchange(server, http_request(b"GET", b"/status", b"", version=b"HTTP/1.0"))
    assert status == 200
    return json.loads(body)


def assert_serving(server):
    assert status_of(server)["role"] == server.node.role


@pytest.mark.parametrize("request_bytes", [
    http_request(b"GET", b"/status", b"", version=b"HTTP/1.0"),
    http_request(b"GET", b"/status", b"", headers=[(b"Connection", b"close")]),
    http_request(headers=[(b"Connection", b"keep-alive, Close"),
                          (b"Content-Length", b"%d" % len(PROPOSE))]),
], ids=["http-1.0", "connection-close", "connection-close-token"])
def test_one_reply_then_close(server, request_bytes):
    ((status, fields, _),) = exchange(server, request_bytes)
    assert status in (200, 204)
    assert fields[b"Connection"] == b"close"


def get_status(headers, body=b""):
    """GET /status, which gets 200 unless the framing itself is refused."""
    return http_request(b"GET", b"/status", body, headers=headers)


@pytest.mark.parametrize("request_bytes", [
    get_status([(b"X-Long", b"x" * MAX_LINE)]),
    get_status([(b"X-%d" % i, b"1") for i in range(MAX_HEADERS + 1)]),
    get_status([(b"Transfer-Encoding", b"chunked")], b"0\r\n\r\n"),
    http_request(headers=[(b"Transfer-Encoding", b"identity"),
                          (b"Content-Length", b"%d" % len(PROPOSE))]),
    get_status([(b"Content-Length", b"0"), (b"Content-Length", b"0")]),
    get_status([(b"Content-Length", b"+5")], b"abcde"),
    get_status([(b"Content-Length", b"%d" % (1 << 40))]),
    get_status([(b" X-Any", b"1")]),
    b"GET /status HTTP/1.1\r\nno colon here\r\n\r\n",
    http_request(version=b"HTTP/2.0"),
    b"GET /status\r\n\r\n",
    b"GET /" + b"x" * MAX_LINE + b" HTTP/1.1\r\n\r\n",
], ids=["long-line", "101-headers", "chunked", "identity", "repeated-length", "signed-length",
        "huge-length", "space-before-name", "no-colon", "http-2", "no-version", "long-target"])
def test_unframeable_request_gets_400_and_close(server, request_bytes):
    ((status, fields, _),) = exchange(server, request_bytes)
    assert (status, fields[b"Connection"]) == (400, b"close")
    assert_serving(server)


def test_a_hundred_headers_are_accepted(server):
    headers = [(b"X-%d" % i, b"1") for i in range(MAX_HEADERS - 1)]
    headers.append((b"Connection", b"close"))
    ((status, _, body),) = exchange(server, http_request(b"GET", b"/status", b"", headers=headers))
    assert status == 200 and json.loads(body)["role"] == server.node.role


def test_request_written_a_few_bytes_at_a_time(server):
    data = http_request() + http_request(b"GET", b"/status", b"", version=b"HTTP/1.0")
    with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, True)
        for i in range(0, len(data), 3):
            sock.sendall(data[i:i + 3])
            time.sleep(0.0005)
        replies = parse_replies(read_until_closed(sock))
    assert [status for status, _, _ in replies] == [204, 200]


def test_pipelined_requests_are_answered_in_order(server):
    data = (http_request(b"GET", b"/status", b"") + http_request(b"POST", b"/nope", b"{}")
            + http_request() + http_request(b"GET", b"/status", b""))
    replies = exchange(server, data, end_writes=True)
    assert [status for status, _, _ in replies] == [200, 404, 204, 200]
    assert json.loads(replies[0][2]) == json.loads(replies[3][2])
    assert all(b"Connection" not in fields for _, fields, _ in replies)


def test_request_cut_short_gets_no_reply(server):
    data = http_request()
    assert exchange(server, data[:-5], end_writes=True) == []
    assert exchange(server, data[:20], end_writes=True) == []
    assert_serving(server)


# -- fuzz: any request, any endpoint -----------------------------------------

TOKEN = st.binary(min_size=1, max_size=8).filter(lambda b: len(b.split()) == 1 and b.strip() == b)
FIELD_VALUE = st.binary(max_size=20).map(lambda b: b.replace(b"\r", b"").replace(b"\n", b""))
requests = st.fixed_dictionaries({
    "method": st.sampled_from([b"GET", b"POST", b"PUT", b"HEAD", b"DELETE"]) | TOKEN,
    "path": st.sampled_from([b"/status", b"/enact", b"/propose", b"/confirm", b"/",
                             b"/status?x=1", b"//status"]) | TOKEN.map(lambda t: b"/" + t),
    "version": st.sampled_from([b"HTTP/1.1", b"HTTP/1.0"]),
    "fields": st.lists(st.tuples(
        st.sampled_from([b"Host", b"Content-Type", b"Accept", b"X-Any", b"Connection"]),
        FIELD_VALUE), max_size=4),
    "length": st.none() | st.just("exact") | st.integers(0, 300)
    | st.sampled_from([b"abc", b"-1", b"+3", b"1 2", b"", b"0x10", b"\xd9\xa3"]),
    "body": st.sampled_from([b"", b"{}", b"[]", b"null", b'{"task_id": null}',
                             b'{"task_id": "t", "choice_data": "zz"}', PROPOSE,
                             envelope(CONFIRM, step_bytes(), []),
                             b"\xff\xfe"]) | st.binary(max_size=64),
})


@settings(max_examples=300, deadline=None, derandomize=True)
@given(r=requests)
def test_fuzzed_requests_get_only_the_documented_statuses(server, r):
    body = r["body"]
    fields = list(r["fields"])
    framed = True
    if r["length"] == "exact":
        fields.append((b"Content-Length", b"%d" % len(body)))
        length = len(body)
    elif isinstance(r["length"], int):
        fields.append((b"Content-Length", b"%d" % r["length"]))
        length = r["length"]
    elif r["length"] is None:
        length = 0
    else:
        fields.append((b"Content-Length", r["length"]))
        framed, length = False, 0
    replies = exchange(server, http_request(r["method"], r["path"], body, r["version"], fields),
                       end_writes=True)
    if framed and length > len(body):
        assert replies == []  # incomplete: the server waits, then sees the end
    else:
        assert replies, r
        status = replies[0][0]
        if not framed:
            assert status == 400
        elif (r["method"], r["path"]) in ROUTES:
            assert status in (200, 204, 400)
        else:
            assert status == 404
    # Bytes past the Content-Length read as further requests.
    assert {status for status, _, _ in replies} <= {200, 204, 400, 404}
    assert_serving(server)


# -- evidence bodies: any bytes on /propose and /confirm ----------------------

@pytest.fixture(scope="module")
def signer():
    """A served incident_management channel and one node, not the first
    task's initiator, that has signed a valid Propose of that first step;
    with the Propose and a valid Confirm of it."""
    setup = build_network(build_machine("incident_management"), key_salt="evidence-fuzz")
    servers = serve_network(setup.nodes)
    req = load_variants("incident_management")[0][0]
    role = next(r for r in servers if r != req.requester_role)
    machine = setup.nodes[role].machine
    payload = StepPayload(setup.ledger.chain_id, setup.contract_id, 0, 1, req.task_id, b"",
                          machine.state_to_bytes(step(machine, machine.initial_state, req)))
    sigs = {r: sign_step(payload, key) for r, key in setup.keys.items()}
    propose = ChannelMessage(MessageKind.PROPOSE,
                             SignedStep(payload, {req.requester_role: sigs[req.requester_role]}))
    confirm = ChannelMessage(MessageKind.CONFIRM, SignedStep(payload, sigs))
    # Signed first, so that an edited Confirm meets the signature checks.
    assert setup.nodes[role].handle_message(propose).kind is MessageKind.SIGN
    yield servers[role], setup, propose.to_wire(), confirm.to_wire()
    for s in servers.values():
        s.stop()


def test_content_type_names_each_body(signer, server):
    """Evidence is octet-stream, /enact and /status JSON, and an empty body
    has no Content-Type."""
    node_server, setup, propose, _ = signer
    cases = [
        (node_server, b"POST", b"/propose", propose, 200, b"application/octet-stream"),
        (server, b"POST", b"/propose", PROPOSE, 204, None),
        (server, b"POST", b"/confirm", b"not an envelope", 400, None),
        (server, b"GET", b"/status", b"", 200, b"application/json"),
        (server, b"POST", b"/enact", b'{"task_id": "no-such-task"}', 200, b"application/json"),
        (server, b"POST", b"/enact", b"[]", 400, None),
        (server, b"GET", b"/nope", b"", 404, None),
    ]
    replies = []
    for target, method, path, body, expected_status, expected_type in cases:
        ((status, fields, reply),) = exchange(
            target, http_request(method, path, body, version=b"HTTP/1.0"))
        assert (status, fields.get(b"Content-Type")) == (expected_status, expected_type), path
        assert bool(reply) == (expected_type is not None)
        replies.append(reply)
    # The octet-stream reply is the node's Sign of that Propose.
    sign = ChannelMessage.from_wire(replies[0])
    ((role, sig),) = sign.signed.signatures.items()
    assert (sign.kind, role) == (MessageKind.SIGN, node_server.node.role)
    assert verify_step(sign.signed.payload, sig, setup.keys[role].public_key())


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_fuzzed_evidence_gets_only_the_documented_statuses(signer, data):
    """Arbitrary bytes and one-byte edits of a valid Propose or Confirm, on
    /propose or /confirm, get 200, 204 or 400; only the valid Propose sent to
    /propose gets 200 (the node's Sign), and nothing moves the node's case,
    seq or state."""
    server, _, propose, confirm = signer
    before = status_of(server)
    body = data.draw(st.binary(max_size=400) | flipped(propose) | flipped(confirm)
                     | st.just(propose))
    path = data.draw(st.sampled_from([b"/propose", b"/confirm"]))
    ((status, _, _),) = exchange(server, http_request(b"POST", path, body, version=b"HTTP/1.0"))
    assert status in (200, 204, 400)
    assert (status == 200) == (body == propose and path == b"/propose")
    assert status_of(server) == before


# -- client side ---------------------------------------------------------------

class ScriptedPeer:
    """A peer that reads one request per connection, sends the next scripted
    reply (bytes, or a function of the request body) and closes."""

    def __init__(self, replies):
        self.replies = list(replies)
        self.accepted = 0
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.listener.settimeout(10)
        self.port = self.listener.getsockname()[1]
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self):
        while self.replies:
            conn, _ = self.listener.accept()
            self.accepted += 1
            with conn, conn.makefile("rb") as rfile:
                length = 0
                while (line := rfile.readline()) not in (b"\r\n", b""):
                    name, _, value = line.partition(b":")
                    if name.lower() == b"content-length":
                        length = int(value)
                body = rfile.read(length)
                reply = self.replies.pop(0)
                conn.sendall(reply(body) if callable(reply) else reply)

    def close(self):
        self.thread.join(timeout=10)
        self.listener.close()


def echo(body):
    return b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(body), body)


@pytest.mark.parametrize("bad_reply", [
    b"HTTP/1.1 2x0 OK\r\nContent-Length: 0\r\n\r\n",
    b"garbage\r\n\r\n",
    b"HTTP/1.1 200 OK\r\nContent-Length: abc\r\n\r\n{}",
    b"HTTP/1.1 200 OK\r\nContent-Length: -2\r\n\r\n{}",
    b"HTTP/1.1 200 OK\r\n\r\n{}",
    b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
    b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(PROPOSE), PROPOSE[:10]),
    b"HTTP/1.1 200 OK\r\nContent-Len",
], ids=["garbled-status", "no-status-line", "bad-length", "negative-length", "no-length",
        "chunked", "truncated-body", "truncated-header"])
def test_a_malformed_reply_is_no_reply_and_the_next_request_reconnects(bad_reply):
    message = ChannelMessage.from_wire(PROPOSE)
    peer = ScriptedPeer([echo, bad_reply, echo])
    transport = HttpTransport({"p": peer.port})
    try:
        assert transport.request("p", message) == message
        # The peer closed after its reply, so this request reconnects once,
        # then gets the malformed reply: no reply, and no connection kept.
        assert transport.request("p", message) is None
        assert transport.connections["p"].sock is None
        assert transport.request("p", message) == message
        assert peer.accepted == 3
    finally:
        transport.close()
        peer.close()


def test_a_reply_that_is_not_an_envelope_is_no_reply():
    message = ChannelMessage.from_wire(PROPOSE)
    peer = ScriptedPeer([lambda body: echo(body[:-1])])
    transport = HttpTransport({"p": peer.port})
    try:
        assert transport.request("p", message) is None
    finally:
        transport.close()
        peer.close()


def test_import_loads_no_stdlib_http_or_email():
    src = str(Path(choreochannel.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import choreochannel.httpd; "
            "print(sorted(m for m in ('http.client', 'http.server', 'email') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=60).stdout
    assert out.strip() == "[]"
