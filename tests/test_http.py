"""Networked smoke test: the same protocol over local HTTP endpoints."""

import http.client
import json

import pytest

from choreochannel.cases import build_machine, load_variants
from choreochannel.harness import build_network
from choreochannel.httpd import serve_network


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
        conn.putheader("Content-Type", "application/json")
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


def _propose_with(**payload_fields):
    payload = {"chain_id": 1, "contract_id": "00" * 32, "case_id": 0, "seq": 1,
               "task_id": "t", "choice_data": "", "new_state": "00", **payload_fields}
    return json.dumps({"kind": "propose", "signatures": {"r": "00"},
                       "payload": payload}).encode()


def test_propose_endpoint_rejects_garbage(http_network):
    _, servers = http_network
    server = next(iter(servers.values()))
    assert request(server, "POST", "/propose", b"not json")[0] == 400
    assert request(server, "GET", "/nope")[0] == 404
    assert request(server, "POST", "/nope", b"{}")[0] == 404


def test_well_formed_proposal_for_another_contract_gets_204(http_network):
    # The base of every malformed /propose body below decodes; only its own
    # defect makes it a 400.
    _, servers = http_network
    server = next(iter(servers.values()))
    assert request(server, "POST", "/propose", _propose_with())[0] == 204


# Malformed requests: each must get 400, never a dropped connection.
MALFORMED = {
    "propose-list": ("/propose", b"[]", None),
    "propose-number": ("/propose", b"1", None),
    "propose-step-list": ("/propose", json.dumps(
        {"kind": "propose", "signatures": {"r": "00"}, "payload": [1]}
    ).encode(), None),
    "propose-int-contract-id": ("/propose", _propose_with(contract_id=5), None),
    "enact-list": ("/enact", b"[]", None),
    "enact-int-choice-data": ("/enact", b'{"task_id": "t", "choice_data": 5}', None),
    "propose-not-utf8": ("/propose", b"\xff\xfe\xfa", None),
    "enact-bad-content-length": ("/enact", b"{}", "abc"),
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
