"""Networked smoke test: the same protocol over local HTTP endpoints."""

import http.client
import json
import socket
import threading
import time

import pytest

from choreochannel.cases import build_machine, load_variants
from choreochannel.harness import build_network
from choreochannel.httpd import serve_network
from choreochannel.wire import ChannelMessage, MessageKind
from util import CONFIRM, PROPOSE, envelope, step_bytes


@pytest.fixture
def http_network():
    machine = build_machine("incident_management")
    setup = build_network(machine, key_salt="http-tests")
    servers = serve_network(setup.nodes)
    yield setup, servers
    for server in servers.values():
        server.stop()


def request(server, method, path, body=b"", content_length=None):
    """One request on a fresh connection; returns (status, decoded JSON body)."""
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
    try:
        conn.putrequest(method, path)
        evidence = path in ("/propose", "/confirm")
        conn.putheader("Content-Type", "application/octet-stream" if evidence else "application/json")
        conn.putheader("Content-Length", content_length or str(len(body)))
        conn.endheaders(body)
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read() or b"null")
    finally:
        conn.close()


def test_enact_and_status_over_http(http_network):
    setup, servers = http_network
    variant = load_variants("incident_management")[0]
    for req in variant:
        status, body = request(servers[req.requester_role], "POST", "/enact",
                               json.dumps({"task_id": req.task_id}).encode())
        assert status == 200
        assert body["status"] == "confirmed", body
    states = set()
    for role, server in servers.items():
        status, body = request(server, "GET", "/status")
        assert status == 200
        assert body["role"] == role
        assert body["seq"] == len(variant)
        states.add(body["state"])
    assert len(states) == 1


def _propose_with(**step_fields):
    """A Propose envelope for contract 0…0, signed (not validly) by role r."""
    return envelope(PROPOSE, step_bytes(**step_fields), [(b"r", bytes(64))])


def test_propose_endpoint_rejects_garbage(http_network):
    _, servers = http_network
    server = next(iter(servers.values()))
    assert request(server, "POST", "/propose", b"not an envelope")[0] == 400
    assert request(server, "GET", "/nope")[0] == 404
    assert request(server, "POST", "/nope", b"{}")[0] == 404


def test_well_formed_proposal_for_another_contract_gets_204(http_network):
    # The base of every malformed /propose body below decodes; only its own
    # defect makes it a 400.
    _, servers = http_network
    server = next(iter(servers.values()))
    assert request(server, "POST", "/propose", _propose_with())[0] == 204


# Malformed requests: each must get 400, never a dropped connection. A JSON
# body, as a client of the old JSON envelope would send, is not an envelope.
MALFORMED = {
    "propose-list": ("/propose", b"[]", None),
    "propose-number": ("/propose", b"1", None),
    "propose-json-envelope": ("/propose", json.dumps(
        {"kind": "propose", "signatures": {"r": "00" * 64}, "payload": {}}).encode(), None),
    "propose-payload-not-a-step": ("/propose", envelope(PROPOSE, b"\x01", [(b"r", bytes(64))]),
                                   None),
    "propose-short-contract-id": ("/propose", _propose_with(contract_id=bytes(31)), None),
    "confirm-no-signer": ("/confirm", envelope(CONFIRM, step_bytes(), []), None),
    "propose-sent-to-confirm": ("/confirm", _propose_with(), None),
    "confirm-sent-to-propose": ("/propose", envelope(CONFIRM, step_bytes(), [(b"r", bytes(64))]),
                                None),
    "enact-list": ("/enact", b"[]", None),
    "enact-int-choice-data": ("/enact", b'{"task_id": "t", "choice_data": 5}', None),
    "propose-not-utf8": ("/propose", _propose_with(task_id=b"\xff\xfe\xfa"), None),
    "enact-bad-content-length": ("/enact", b"{}", "abc"),
    "unknown-path-negative-content-length": ("/nope", b"{}", "-2"),
}


@pytest.mark.parametrize("name", MALFORMED)
def test_malformed_request_gets_400(http_network, name):
    path, body, content_length = MALFORMED[name]
    _, servers = http_network
    server = next(iter(servers.values()))
    assert request(server, "POST", path, body, content_length)[0] == 400
    # The node keeps serving after a bad request.
    assert request(server, "GET", "/status")[0] == 200


def test_enact_null_task_is_an_unknown_task(http_network):
    _, servers = http_network
    server = next(iter(servers.values()))
    status, body = request(server, "POST", "/enact", b'{"task_id": null}')
    assert status == 200
    assert (body["status"], body["error"]) == ("rejected", "unknown-task")


def test_400_closes_its_connection(http_network):
    """The unread rest of a request with a bad Content-Length is never parsed
    as the next request: the 400 ends the connection."""
    _, servers = http_network
    server = next(iter(servers.values()))
    with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
        sock.sendall(b"POST /enact HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                     b"Content-Length: abc\r\n\r\n{}")
        resp = http.client.HTTPResponse(sock)
        resp.begin()
        assert (resp.status, resp.getheader("Connection")) == (400, "close")
        resp.read()
        try:
            sock.sendall(b"GET /status HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n")
            rest = sock.recv(4096)
        except (BrokenPipeError, ConnectionResetError):
            rest = b""
        assert rest == b""


def test_reply_to_a_departed_client_prints_no_traceback(http_network, capsys):
    setup, servers = http_network
    req = load_variants("incident_management")[0][0]
    server = servers[req.requester_role]
    finished = threading.Event()
    shutdown_request = server.httpd.shutdown_request

    def noting_shutdown(request):
        shutdown_request(request)
        finished.set()

    server.httpd.shutdown_request = noting_shutdown
    body = json.dumps({"task_id": req.task_id}).encode()
    with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
        sock.sendall(b"POST /enact HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                     b"Content-Length: %d\r\n\r\n%s" % (len(body), body))
    # The handler replies to a closed socket, then ends the connection.
    assert finished.wait(10)
    assert setup.nodes[req.requester_role].seq == 1
    assert "Traceback" not in capsys.readouterr().err


def _count_accepts(servers):
    """Record every socket each server accepts, as (socket, client address)."""
    accepted = {role: [] for role in servers}
    for role, server in servers.items():
        def get_request(get_request=server.httpd.get_request, log=accepted[role]):
            conn = get_request()
            log.append(conn)
            return conn
        server.httpd.get_request = get_request
    return accepted


def _enact(servers, req):
    status, body = request(servers[req.requester_role], "POST", "/enact",
                           json.dumps({"task_id": req.task_id}).encode())
    assert (status, body["status"]) == (200, "confirmed"), body


def test_a_warm_initiator_opens_only_the_clients_connection(http_network):
    """Each node keeps one connection per peer: an /enact by a node that has
    enacted before opens only the client's connection (9 per /enact over a
    connection-per-request transport)."""
    _, servers = http_network
    accepted = _count_accepts(servers)
    variant = load_variants("incident_management")[1]
    seen = set()
    for req in variant:
        before = sum(map(len, accepted.values()))
        _enact(servers, req)
        opened = sum(map(len, accepted.values())) - before
        # A first-time initiator also connects to its 4 peers.
        assert opened == (1 if req.requester_role in seen else 1 + 4), req
        seen.add(req.requester_role)
    assert len(seen) < len(variant)


def test_a_dropped_keep_alive_connection_is_reopened_once(http_network):
    setup, servers = http_network
    accepted = _count_accepts(servers)
    variant = load_variants("incident_management")[1]
    for req in variant[:3]:
        _enact(servers, req)
    # first_level drops its idle connection from account_manager, the next
    # initiator; the handler thread sees the end of the stream and exits.
    client = setup.nodes["account_manager"].transport.connections["first_level"].sock
    (sock,) = [s for s, addr in accepted["first_level"] if addr == client.getsockname()]
    sock.shutdown(socket.SHUT_RDWR)
    before = {role: len(log) for role, log in accepted.items()}
    _enact(servers, variant[3])
    opened = {role: len(log) - before[role] for role, log in accepted.items()}
    assert opened == {**dict.fromkeys(servers, 0), "account_manager": 1, "first_level": 1}
    statuses = {request(s, "GET", "/status")[1]["seq"] for s in servers.values()}
    assert statuses == {4}


def test_stopping_the_network_ends_every_handler_thread():
    setup = build_network(build_machine("incident_management"), key_salt="http-tests")
    servers = serve_network(setup.nodes)
    for req in load_variants("incident_management")[0]:
        _enact(servers, req)
    for server in servers.values():
        server.stop()
    deadline = time.monotonic() + 10
    while any("process_request_thread" in t.name for t in threading.enumerate()):
        assert time.monotonic() < deadline, threading.enumerate()
        time.sleep(0.01)


def test_archive_lines_are_the_envelopes_that_leave_the_node(tmp_path):
    """A Sign line is the body the signer served; a Confirm line is the same
    on every node."""
    machine = build_machine("incident_management")
    setup = build_network(machine, key_salt="http-tests", archive_dir=str(tmp_path))
    servers = serve_network(setup.nodes)
    served = {role: [] for role in servers}
    for role, server in servers.items():
        def respond(method, path, body, respond=server.httpd.respond, log=served[role]):
            status, content_type, reply = respond(method, path, body)
            if path == b"/propose" and status == 200:
                log.append(reply)
            return status, content_type, reply
        server.httpd.respond = respond
    variant = load_variants("incident_management")[0]
    try:
        for req in variant:
            _enact(servers, req)
    finally:
        for server in servers.values():
            server.stop()
    assert sum(map(len, served.values())) == (len(servers) - 1) * len(variant)
    confirms = set()
    for role in servers:
        lines = (tmp_path / f"{role}.hex").read_text().splitlines()
        kinds = [ChannelMessage.from_wire(bytes.fromhex(line)).kind for line in lines]
        assert all(line == bytes.fromhex(line).hex() for line in lines)
        assert [bytes.fromhex(line) for line, kind in zip(lines, kinds)
                if kind is MessageKind.SIGN] == served[role]
        confirms.add(tuple(line for line, kind in zip(lines, kinds)
                           if kind is MessageKind.CONFIRM))
    (steps,) = confirms
    assert [ChannelMessage.from_wire(bytes.fromhex(line)).signed.payload.seq
            for line in steps] == list(range(1, len(variant) + 1))
