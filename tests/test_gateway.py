import json
import socket
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from mazenav import gateway
from mazenav.gateway import (
    DEFAULT_SCENARIOS,
    FEW_SHOT,
    ONE_SHOT,
    SYSTEM_PROMPT,
    TEST_QUESTION,
    ZERO_SHOT,
    AuthError,
    ChatMessage,
    Completion,
    GatewayError,
    MalformedResponse,
    ProviderConfig,
    RequestRejected,
    Scenario,
    TransportFailure,
    _TokenBucket,
    _http_transport,
    build_messages,
    complete,
    prompt_hash,
    request_payload,
)
from mazenav.generate import GenConfig, generate
from mazenav.solver import reference_solution
from mazenav.textform import serialize


@pytest.fixture
def shot_pool():
    cfg = GenConfig(seed=202)
    import random

    rng = random.Random(202)
    mazes = [generate(cfg, rng) for _ in range(6)]
    return [(m, reference_solution(m)) for m in mazes]


def http_cfg(**kw) -> ProviderConfig:
    defaults = dict(
        name="prov",
        model="model-1",
        endpoint="https://example.invalid/v1/chat/completions",
        credential_env="PROV_KEY",
        max_retries=3,
    )
    defaults.update(kw)
    return ProviderConfig(**defaults)


def ok_body(text="hi"):
    return {
        "choices": [{"message": {"content": text}}],
        "usage": {"prompt_tokens": 11, "completion_tokens": 3},
    }


class ScriptedTransport:
    """Returns queued (status, body) pairs and records every call."""

    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.calls = []

    def __call__(self, url, headers, payload, timeout):
        self.calls.append((url, headers, payload, timeout))
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


class TestBuildMessages:
    def test_zero_shot_structure(self, m0):
        messages = build_messages(m0, [], ZERO_SHOT)
        assert len(messages) == 2
        assert messages[0] == ChatMessage("system", SYSTEM_PROMPT)
        assert messages[1].role == "user"
        assert TEST_QUESTION in messages[1].content

    def test_few_shot_structure(self, m0, shot_pool):
        messages = build_messages(m0, shot_pool[:5], FEW_SHOT)
        assert len(messages) == 12
        assert [m.role for m in messages] == (
            ["system"] + ["user", "assistant"] * 5 + ["user"]
        )

    def test_one_shot_embeds_description_verbatim(self, m0, shot_pool):
        test_maze = shot_pool[0][0]
        messages = build_messages(test_maze, [(m0, reference_solution(m0))], ONE_SHOT)
        assert serialize(m0).text in messages[1].content
        assert serialize(test_maze).text in messages[-1].content

    def test_shot_count_mismatch(self, m0, shot_pool):
        with pytest.raises(ValueError):
            build_messages(m0, shot_pool[:2], ONE_SHOT)

    def test_shot_equals_test_maze(self, m0):
        with pytest.raises(ValueError):
            build_messages(m0, [(m0, reference_solution(m0))], ONE_SHOT)

    def test_deterministic(self, m0, shot_pool):
        assert build_messages(m0, shot_pool[:5], FEW_SHOT) == build_messages(
            m0, shot_pool[:5], FEW_SHOT
        )


class TestPromptCache:
    def test_same_messages_as_without_cache(self, m0, m0_nowall, shot_pool):
        cache = {}
        pool = [(m, s) for m, s in shot_pool if m not in (m0, m0_nowall)]
        for test_maze in (m0, m0_nowall, m0):
            for scenario, shots in ((ZERO_SHOT, []), (ONE_SHOT, pool[:1]), (FEW_SHOT, pool[:5])):
                assert build_messages(test_maze, shots, scenario, cache=cache) == (
                    build_messages(test_maze, shots, scenario)
                )

    def test_each_maze_serialized_once(self, monkeypatch, m0, m0_nowall, shot_pool):
        serialized = []
        real = gateway.serialize
        monkeypatch.setattr(gateway, "serialize", lambda m: serialized.append(m) or real(m))
        cache = {}
        for _ in range(3):
            for test_maze in (m0, m0_nowall):
                build_messages(test_maze, shot_pool[:5], FEW_SHOT, cache=cache)
        assert len(serialized) == 5 + 2

    def test_other_shots_rebuild_the_prefix(self, m0, shot_pool):
        cache = {}
        first = build_messages(m0, shot_pool[:1], ONE_SHOT, cache=cache)
        second = build_messages(m0, shot_pool[1:2], ONE_SHOT, cache=cache)
        assert second == build_messages(m0, shot_pool[1:2], ONE_SHOT)
        assert first[1] != second[1]

    def test_shared_by_threads(self, m0, m0_nowall, shot_pool):
        mazes = [m for m, _ in shot_pool[:3]] + [m0, m0_nowall]
        shots = shot_pool[3:]
        scenarios = ((ZERO_SHOT, []), (ONE_SHOT, shots[:1]))
        want = {
            (i, scenario.name): build_messages(maze, s, scenario)
            for i, maze in enumerate(mazes)
            for scenario, s in scenarios
        }
        cache = {}
        got = []

        def worker():
            for _ in range(20):
                for i, maze in enumerate(mazes):
                    for scenario, s in scenarios:
                        got.append(
                            build_messages(maze, s, scenario, cache=cache)
                            == want[(i, scenario.name)]
                        )

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(got) == 8 * 20 * len(want) and all(got)

    def test_validation_still_applies(self, m0):
        with pytest.raises(ValueError):
            build_messages(m0, [(m0, reference_solution(m0))], ONE_SHOT, cache={})


class TestPromptHash:
    def test_stable(self, m0):
        messages = build_messages(m0, [], ZERO_SHOT)
        assert prompt_hash(messages) == prompt_hash(list(messages))

    def test_sensitive_to_content(self, m0, m0_nowall):
        a = prompt_hash(build_messages(m0, [], ZERO_SHOT))
        b = prompt_hash(build_messages(m0_nowall, [], ZERO_SHOT))
        assert a != b


def test_payload_stateless(m0):
    cfg = http_cfg()
    messages = build_messages(m0, [], ZERO_SHOT)
    first = request_payload(cfg, messages)
    second = request_payload(cfg, messages)
    assert first == second
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)
    assert set(first) == {"model", "messages", "temperature", "max_tokens"}


class TestComplete:
    def test_success(self, monkeypatch, m0):
        monkeypatch.setenv("PROV_KEY", "sekret")
        transport = ScriptedTransport([(200, ok_body("route text"))])
        out = complete(http_cfg(), build_messages(m0, [], ZERO_SHOT), transport=transport)
        assert isinstance(out, Completion)
        assert out.text == "route text"
        assert (out.tokens_in, out.tokens_out, out.attempts) == (11, 3, 1)
        assert transport.calls[0][1]["Authorization"] == "Bearer sekret"

    def test_retry_on_rate_limit(self, monkeypatch, m0):
        monkeypatch.setenv("PROV_KEY", "k")
        transport = ScriptedTransport([(429, {}), (429, {}), (200, ok_body())])
        delays = []
        out = complete(
            http_cfg(),
            build_messages(m0, [], ZERO_SHOT),
            transport=transport,
            sleeper=delays.append,
        )
        assert out.attempts == 3
        assert len(delays) == 2
        assert delays[1] > delays[0]  # exponential backoff

    def test_rate_cap_reserved_on_every_attempt(self, monkeypatch, m0):
        monkeypatch.setenv("PROV_KEY", "k")
        reservations = []
        real_reserve = _TokenBucket.reserve

        def reserve(bucket, now):
            reservations.append(now)
            return real_reserve(bucket, now)

        monkeypatch.setattr(_TokenBucket, "reserve", reserve)
        transport = ScriptedTransport([(429, {}), (429, {}), (200, ok_body())])
        out = complete(
            http_cfg(name="rate-capped-retries", rate_per_s=1000.0),
            build_messages(m0, [], ZERO_SHOT),
            transport=transport,
            sleeper=lambda _s: None,
        )
        assert out.attempts == 3
        assert len(reservations) == len(transport.calls) == 3

    def test_rate_limit_exhausted(self, monkeypatch, m0):
        monkeypatch.setenv("PROV_KEY", "k")
        transport = ScriptedTransport([(429, {})] * 3)
        with pytest.raises(TransportFailure, match=r"rate limited \(http 429\)"):
            complete(
                http_cfg(max_retries=2),
                build_messages(m0, [], ZERO_SHOT),
                transport=transport,
                sleeper=lambda _s: None,
            )
        assert len(transport.calls) == 3

    def test_spent_transport_failures_give_up_as_transport_failure(self, monkeypatch, m0):
        # The give-up class follows the outcome, not words in its message.
        monkeypatch.setenv("PROV_KEY", "k")
        transport = ScriptedTransport([TransportFailure("upstream rate limited")] * 3)
        with pytest.raises(TransportFailure, match="gave up after 3 attempts: upstream rate limited"):
            complete(
                http_cfg(max_retries=2),
                build_messages(m0, [], ZERO_SHOT),
                transport=transport,
                sleeper=lambda _s: None,
            )
        assert len(transport.calls) == 3

    def test_transient_transport_failure_retried(self, monkeypatch, m0):
        monkeypatch.setenv("PROV_KEY", "k")
        transport = ScriptedTransport([TransportFailure("boom"), (200, ok_body())])
        out = complete(
            http_cfg(),
            build_messages(m0, [], ZERO_SHOT),
            transport=transport,
            sleeper=lambda _s: None,
        )
        assert out.attempts == 2

    def test_missing_credential_before_network(self, monkeypatch, m0):
        monkeypatch.delenv("PROV_KEY", raising=False)
        transport = ScriptedTransport([(200, ok_body())])
        with pytest.raises(AuthError):
            complete(http_cfg(), build_messages(m0, [], ZERO_SHOT), transport=transport)
        assert transport.calls == []

    def test_auth_rejection_no_retry(self, monkeypatch, m0):
        monkeypatch.setenv("PROV_KEY", "k")
        transport = ScriptedTransport([(401, {})])
        with pytest.raises(AuthError):
            complete(http_cfg(), build_messages(m0, [], ZERO_SHOT), transport=transport)
        assert len(transport.calls) == 1

    def test_malformed_response(self, monkeypatch, m0):
        monkeypatch.setenv("PROV_KEY", "k")
        for body in (
            {"choices": []},
            # Content parts, as some OpenAI-compatible servers send them, and a number.
            {"choices": [{"message": {"content": [{"type": "text", "text": "Turn left"}]}}]},
            {"choices": [{"message": {"content": 7}}]},
        ):
            transport = ScriptedTransport([(200, body)])
            with pytest.raises(MalformedResponse):
                complete(http_cfg(), build_messages(m0, [], ZERO_SHOT), transport=transport)

    @pytest.mark.parametrize("usage", [
        {"prompt_tokens": None, "completion_tokens": None},
        {"prompt_tokens": "many", "completion_tokens": [3]},
        None,
        [11, 3],
    ])
    def test_unreadable_usage_counts_zero(self, monkeypatch, m0, usage):
        monkeypatch.setenv("PROV_KEY", "k")
        transport = ScriptedTransport([(200, {**ok_body("Turn left"), "usage": usage})])
        out = complete(http_cfg(), build_messages(m0, [], ZERO_SHOT), transport=transport)
        assert (out.text, out.tokens_in, out.tokens_out) == ("Turn left", 0, 0)

    def test_unexpected_status_no_retry(self, monkeypatch, m0):
        monkeypatch.setenv("PROV_KEY", "k")
        transport = ScriptedTransport([(418, {})])
        with pytest.raises(GatewayError):
            complete(http_cfg(), build_messages(m0, [], ZERO_SHOT), transport=transport)
        assert len(transport.calls) == 1


    @pytest.mark.parametrize("status", [301, 302, 400, 404, 422])
    def test_rejected_request_no_retry(self, monkeypatch, m0, status):
        monkeypatch.setenv("PROV_KEY", "k")
        transport = ScriptedTransport([(status, {"error": {"message": "no " + "such " * 500}})])
        with pytest.raises(RequestRejected, match=f"http {status}.*no such") as info:
            complete(http_cfg(), build_messages(m0, [], ZERO_SHOT), transport=transport)
        assert len(transport.calls) == 1
        assert len(str(info.value)) < 300  # a bounded excerpt of the body

    def test_request_timeout_retried(self, monkeypatch, m0):
        monkeypatch.setenv("PROV_KEY", "k")
        transport = ScriptedTransport([(408, {}), (200, ok_body("late"))])
        out = complete(http_cfg(), build_messages(m0, [], ZERO_SHOT), transport=transport,
                       sleeper=lambda _s: None)
        assert (out.text, out.attempts) == ("late", 2)


class TestMockProvider:
    def make_cfg(self, tmp_path, script) -> ProviderConfig:
        path = tmp_path / "script.json"
        path.write_text(json.dumps(script), encoding="utf-8")
        return ProviderConfig(name="mock", model="mock-1", endpoint=f"mock:{path}")

    def test_lookup(self, tmp_path, m0):
        cfg = self.make_cfg(tmp_path, {"maze-1|zero-shot": "Turn left"})
        out = complete(cfg, build_messages(m0, [], ZERO_SHOT), trial_key="maze-1|zero-shot")
        assert out.text == "Turn left"
        assert out.latency_ms == 0.0
        assert out.attempts == 1

    def test_fallback_key(self, tmp_path, m0):
        cfg = self.make_cfg(tmp_path, {"*": "fallback"})
        out = complete(cfg, build_messages(m0, [], ZERO_SHOT), trial_key="missing|few-shot")
        assert out.text == "fallback"

    def test_missing_key(self, tmp_path, m0):
        cfg = self.make_cfg(tmp_path, {})
        with pytest.raises(GatewayError):
            complete(cfg, build_messages(m0, [], ZERO_SHOT), trial_key="nothing|zero-shot")

    def test_requires_trial_key(self, tmp_path, m0):
        cfg = self.make_cfg(tmp_path, {"*": "x"})
        with pytest.raises(GatewayError):
            complete(cfg, build_messages(m0, [], ZERO_SHOT))

    @pytest.mark.parametrize("script", [[1], {"*": 5}, {"*": ["Turn left"]}, "Turn left"])
    def test_malformed_script(self, tmp_path, m0, script):
        cfg = self.make_cfg(tmp_path, script)
        with pytest.raises(GatewayError, match="mock script .*script.json"):
            complete(cfg, build_messages(m0, [], ZERO_SHOT), trial_key="maze-1|zero-shot")

    def test_deterministic(self, tmp_path, m0):
        cfg = self.make_cfg(tmp_path, {"*": "same"})
        messages = build_messages(m0, [], ZERO_SHOT)
        assert complete(cfg, messages, trial_key="a|b") == complete(
            cfg, messages, trial_key="a|b"
        )


def test_token_bucket_spacing():
    bucket = _TokenBucket(rate_per_s=2.0)
    assert bucket.reserve(100.0) == 0.0
    assert bucket.reserve(100.0) == pytest.approx(0.5)
    assert bucket.reserve(100.0) == pytest.approx(1.0)
    assert bucket.reserve(200.0) == 0.0


def test_scenario_defaults():
    assert [s.k for s in DEFAULT_SCENARIOS] == [0, 1, 5]
    with pytest.raises(ValueError):
        Scenario("bad", -1)


@pytest.mark.parametrize("field, value", [
    ("name", None), ("k", 1.5), ("k", "1"), ("k", True),
])
def test_scenario_field_types(field, value):
    with pytest.raises(ValueError, match=f"{field} must be"):
        Scenario(**{"name": "one-shot", "k": 1, field: value})


@pytest.mark.parametrize("field, value", [
    ("name", 7), ("model", None), ("endpoint", b"mock:x"), ("credential_env", 1),
    ("temperature", "0.2"), ("temperature", True), ("max_output_tokens", "2048"),
    ("max_output_tokens", 2048.0), ("timeout_s", "60"), ("max_retries", 1.0),
    ("max_retries", False), ("rate_per_s", "2"), ("rate_per_s", True),
])
def test_provider_field_types(field, value):
    with pytest.raises(ValueError, match=f"{field} must be"):
        http_cfg(**{field: value})


@pytest.mark.parametrize("field, value", [
    ("max_output_tokens", 0), ("max_output_tokens", -5),
    ("max_retries", -1), ("max_retries", 11), ("max_retries", 1_000_000),
])
def test_provider_numbers_out_of_range(field, value):
    with pytest.raises(ValueError, match=field):
        http_cfg(**{field: value})


def test_provider_numbers_at_their_limits():
    for tokens, retries in ((1, 0), (2048, 10)):
        cfg = http_cfg(max_output_tokens=tokens, max_retries=retries)
        assert (cfg.max_output_tokens, cfg.max_retries) == (tokens, retries)


@pytest.mark.parametrize("endpoint", [
    "htp://x/v1", "ftp://x/v1", "file:///etc/hostname", "http:///v1", "http://:80/v1", "api.example/v1",
    "http://[::1/v1",
])
def test_endpoint_the_transport_cannot_serve_refused(endpoint):
    with pytest.raises(ValueError, match="endpoint must be"):
        http_cfg(endpoint=endpoint)


@pytest.mark.parametrize("endpoint", [
    "HTTPS://api.example/v1", "http://127.0.0.1:8000/v1/chat/completions", "mock:x.json",
])
def test_endpoint_accepted(endpoint):
    assert http_cfg(endpoint=endpoint).endpoint == endpoint


def test_provider_numbers_accept_ints_and_floats():
    cfg = http_cfg(temperature=1, timeout_s=2.5, rate_per_s=3, credential_env=None)
    assert request_payload(cfg, [ChatMessage("user", "hi")])["temperature"] == 1


def test_chat_message_validation():
    with pytest.raises(ValueError):
        ChatMessage("narrator", "hi")
    with pytest.raises(ValueError):
        ChatMessage("user", "")


class _ReplyHandler(BaseHTTPRequestHandler):
    """Serves ``server.replies[path]``: a list of (status, body bytes, delay s),
    popped front to back, the last one repeated."""

    def do_POST(self) -> None:
        self.server.requests.append(
            (self.path, dict(self.headers), self.rfile.read(int(self.headers["Content-Length"])))
        )
        queue = self.server.replies[self.path]
        status, body, delay = queue.pop(0) if len(queue) > 1 else queue[0]
        time.sleep(delay)
        self.send_response(status)
        if status in (301, 302, 303, 307, 308):
            self.send_header("Location", "/ok")
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format, *args) -> None:
        pass


class _QuietServer(ThreadingHTTPServer):
    def handle_error(self, request, client_address) -> None:
        pass  # the timeout test's client hangs up before the reply


class TestHttpTransport:
    """The real transport against a stdlib server on 127.0.0.1."""

    @pytest.fixture
    def server(self, monkeypatch):
        monkeypatch.setenv("no_proxy", "127.0.0.1")
        monkeypatch.setenv("NO_PROXY", "127.0.0.1")
        server = _QuietServer(("127.0.0.1", 0), _ReplyHandler)
        server.replies = {}
        server.requests = []
        thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
        thread.start()
        yield server
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        assert not thread.is_alive()

    def url(self, server, path):
        return f"http://127.0.0.1:{server.server_address[1]}{path}"

    def test_200_json(self, server):
        server.replies["/ok"] = [(200, json.dumps(ok_body("route")).encode(), 0.0)]
        payload = {"model": "m", "messages": [{"role": "user", "content": "Zone é"}]}
        status, body = _http_transport(
            self.url(server, "/ok"), {"Content-Type": "application/json", "X-Probe": "1"},
            payload, 5.0,
        )
        assert (status, body) == (200, ok_body("route"))
        ((path, headers, sent),) = server.requests
        assert sent == json.dumps(payload).encode("utf-8")
        assert headers["Content-Type"] == "application/json"
        assert headers["X-Probe"] == "1"

    def test_404_returns_status_and_body(self, server):
        error = {"error": {"message": "no such model"}}
        server.replies["/missing"] = [(404, json.dumps(error).encode(), 0.0)]
        assert _http_transport(self.url(server, "/missing"), {}, {}, 5.0) == (404, error)
        cfg = ProviderConfig(name="local", model="m", endpoint=self.url(server, "/missing"))
        with pytest.raises(RequestRejected, match="http 404.*no such model"):
            complete(cfg, [ChatMessage("user", "hi")])

    def test_redirect_not_followed(self, server):
        server.replies["/moved"] = [(302, b"{}", 0.0)]
        server.replies["/ok"] = [(200, json.dumps(ok_body()).encode(), 0.0)]
        assert _http_transport(self.url(server, "/moved"), {}, {}, 5.0) == (302, {})
        assert [path for path, _, _ in server.requests] == ["/moved"]
        cfg = ProviderConfig(name="local", model="m", endpoint=self.url(server, "/moved"))
        with pytest.raises(RequestRejected, match="http 302"):
            complete(cfg, [ChatMessage("user", "hi")], sleeper=lambda _s: None)
        assert [path for path, _, _ in server.requests] == ["/moved", "/moved"]

    def test_500_retried_by_complete(self, server):
        server.replies["/flaky"] = [
            (500, b"{}", 0.0),
            (200, json.dumps(ok_body("second try")).encode(), 0.0),
        ]
        sleeps = []
        cfg = ProviderConfig(name="local", model="m", endpoint=self.url(server, "/flaky"))
        out = complete(cfg, [ChatMessage("user", "hi")], sleeper=sleeps.append)
        assert (out.text, out.attempts, len(sleeps)) == ("second try", 2, 1)

    def test_non_json_200_is_malformed(self, server):
        server.replies["/html"] = [(200, b"<html>busy</html>", 0.0)]
        assert _http_transport(self.url(server, "/html"), {}, {}, 5.0) == (200, "<html>busy</html>")
        cfg = ProviderConfig(name="local", model="m", endpoint=self.url(server, "/html"))
        with pytest.raises(MalformedResponse):
            complete(cfg, [ChatMessage("user", "hi")])

    def test_non_json_error_page_kept_in_the_error(self, server):
        server.replies["/missing"] = [(404, b"<html>no such route</html>", 0.0)]
        cfg = ProviderConfig(name="local", model="m", endpoint=self.url(server, "/missing"))
        with pytest.raises(RequestRejected, match=r"\(http 404\): <html>no such route</html>$"):
            complete(cfg, [ChatMessage("user", "hi")])

    def test_proxy_gets_the_absolute_uri(self, server, monkeypatch):
        target = "http://provider.invalid/v1/chat/completions"
        server.replies[target] = [(200, json.dumps(ok_body("via proxy")).encode(), 0.0)]
        for name in ("http_proxy", "HTTP_PROXY"):
            monkeypatch.setenv(name, self.url(server, ""))
        gateway._opener.cache_clear()  # proxies are read when the opener is built
        try:
            assert _http_transport(target, {}, {}, 5.0) == (200, ok_body("via proxy"))
        finally:
            gateway._opener.cache_clear()  # no later test gets an opener with this proxy
        assert [path for path, _, _ in server.requests] == [target]

    def test_closed_port_is_transport_failure(self):
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        with pytest.raises(TransportFailure):
            _http_transport(f"http://127.0.0.1:{port}/v1", {}, {}, 5.0)

    def test_read_timeout_is_transport_failure(self, server):
        server.replies["/slow"] = [(200, json.dumps(ok_body()).encode(), 1.0)]
        started = time.perf_counter()
        with pytest.raises(TransportFailure):
            _http_transport(self.url(server, "/slow"), {}, {}, 0.2)
        assert time.perf_counter() - started < 0.9
