"""RuleServer HTTP routes against an in-process ephemeral-port server."""

import http.client
import json
import statistics
import time
import urllib.error
import urllib.request

import pytest

from repro.serve.http import RuleServer
from repro.serve.publisher import SnapshotPublisher
from repro.serve.query import RuleQuery, apply_query


def _get(base_url, path, data=None):
    """GET (or POST when ``data`` is set); returns (status, body bytes)."""
    request = urllib.request.Request(base_url + path, data=data)
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as error:
        return error.code, error.read()


def _get_json(base_url, path, data=None):
    status, body = _get(base_url, path, data=data)
    return status, json.loads(body)


@pytest.fixture(scope="module")
def server(planted_result):
    publisher = SnapshotPublisher(planted_result)
    with RuleServer(publisher, port=0).start() as running:
        yield running


@pytest.fixture()
def live_metrics():
    from repro.obs import metrics as obs_metrics

    registry = obs_metrics.get_registry()
    was_enabled = obs_metrics.metrics_enabled()
    registry.reset()
    obs_metrics.enable_metrics()
    yield registry
    if not was_enabled:
        obs_metrics.disable_metrics()
    registry.reset()


class TestRulesRoute:
    def test_unfiltered(self, server, planted_result):
        status, payload = _get_json(server.url, "/rules")
        assert status == 200
        assert payload["snapshot_version"] == 1
        assert payload["count"] == payload["total_rules"]
        assert payload["count"] == len(planted_result.rules)
        assert payload["rules"][0]["description"]

    def test_filtered_matches_reference(self, server, planted_result):
        query = RuleQuery(targets=("claims",), top_k=5)
        status, payload = _get_json(
            server.url, "/rules?" + query.to_query_string()
        )
        assert status == 200
        assert payload["query"] == {"targets": ["claims"], "top_k": 5}
        expected = apply_query(planted_result.rules, query)
        assert [r["description"] for r in payload["rules"]] == [
            str(rule) for rule in expected
        ]

    def test_unknown_param_is_400(self, server):
        status, payload = _get_json(server.url, "/rules?frobnicate=1")
        assert status == 400
        assert "frobnicate" in payload["error"]

    def test_bad_value_is_400(self, server):
        status, payload = _get_json(server.url, "/rules?top_k=lots")
        assert status == 400
        assert "top_k" in payload["error"]

    def test_legacy_target_param_still_served(self, server, monkeypatch):
        import warnings

        from repro.core import config as config_module

        monkeypatch.delenv(config_module.STRICT_DEPRECATIONS_ENV, raising=False)
        # The shim warns in the handler thread; warning filters are
        # process-global, so soften an -W error run for this request.
        with warnings.catch_warnings():
            warnings.simplefilter("default", DeprecationWarning)
            status, payload = _get_json(
                server.url, "/rules?target=claims&top_k=2"
            )
        assert status == 200
        assert payload["query"]["targets"] == ["claims"]

    def test_legacy_target_param_strict_is_400(self, server, monkeypatch):
        from repro.core import config as config_module

        monkeypatch.setenv(config_module.STRICT_DEPRECATIONS_ENV, "1")
        status, payload = _get_json(server.url, "/rules?target=claims")
        assert status == 400
        assert "target" in payload["error"]


class TestOtherRoutes:
    def test_healthz(self, server, planted_result):
        status, payload = _get_json(server.url, "/healthz")
        assert status == 200
        assert payload["version"] == 1
        assert payload["n_rules"] == len(planted_result.rules)
        assert payload["health"]["status"] == "ok"
        assert payload["uptime_seconds"] >= 0

    def test_metrics_exposition(self, server, live_metrics):
        _get(server.url, "/healthz")
        status, body = _get(server.url, "/metrics")
        assert status == 200
        text = body.decode("utf-8")
        assert "repro_serve_http_requests_total" in text
        assert 'route="/healthz"' in text

    def test_index_page(self, server):
        status, body = _get(server.url, "/")
        assert status == 200
        text = body.decode("utf-8")
        assert "<html" in text.lower()
        assert "snapshot" in text.lower()

    def test_unknown_path_404_lists_routes(self, server):
        status, payload = _get_json(server.url, "/nope")
        assert status == 404
        assert "/rules" in payload["paths"]

    def test_post_is_405(self, server):
        status, payload = _get_json(server.url, "/rules", data=b"{}")
        assert status == 405
        assert "read-only" in payload["error"]


class TestKeepAlive:
    def test_back_to_back_requests_do_not_stall(self, server):
        # Headers and body are two writes; with Nagle on, the body of
        # every reply waits for the client's delayed ACK (>= 40 ms).
        connection = http.client.HTTPConnection(*server.address, timeout=10)
        try:
            seconds = []
            for _ in range(20):
                started = time.perf_counter()
                connection.request("GET", "/rules?top_k=3")
                response = connection.getresponse()
                assert response.status == 200
                json.loads(response.read())
                seconds.append(time.perf_counter() - started)
        finally:
            connection.close()
        assert statistics.median(seconds) < 0.020


class TestEmptyPublisher:
    def test_rules_and_healthz_are_503(self):
        with RuleServer(SnapshotPublisher(), port=0).start() as server:
            status, payload = _get_json(server.url, "/rules")
            assert status == 503
            assert "no snapshot" in payload["error"]
            status, payload = _get_json(server.url, "/healthz")
            assert status == 503
            assert payload["health"]["status"] == "crit"
