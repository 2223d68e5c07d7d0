"""Prompt assembly and stateless chat-completion transport.

One wire dialect is spoken: the OpenAI-compatible chat-completions shape,
with per-provider endpoint overrides. Every call builds its payload from
scratch (no conversation state is ever reused) and the full message list is
hashable, which is what makes trials resumable. A run shares one
``PromptCache`` across its trials, so each maze is serialized and each
scenario's solved examples are rendered once per run; the messages are the
same as without it.

HTTP goes through the standard library (``urllib.request``), imported on
the first request, as ``hashlib`` is on the first prompt hash: every command
imports this module, and most of them send and hash nothing. The opener
holds only the proxy, HTTP and HTTPS handlers, so every reply, a redirect
or an error included, comes back as its status, and ``complete``
classifies it once. Proxies come from
``HTTP(S)_PROXY``, read at the first request, and ``NO_PROXY``; TLS is
verified against the system CA store. The rate cap and the retry policy
apply to every attempt.

Endpoints starting with ``mock:`` are served from a JSON script file mapping
``mock_key`` keys, "<maze_id>|<scenario>", to response text; "*" is the
fallback key. Mock completions are fully deterministic and need no
credentials. A script that cannot be read, or is not a JSON object, is a
RequestRejected, so it stops the run; a missing key or a reply that is not
text fails only its trial.
"""

from __future__ import annotations

import functools
import json
import math
import os
import random
import threading
import time
import urllib.parse
from dataclasses import dataclass
from pathlib import Path

from .grid import Maze
from .instructions import render_sequence
from .solver import Solution
from .textform import serialize

SYSTEM_PROMPT = """\
You are an expert maze navigator. Your task is to provide clear, step-by-step instructions to solve mazes from a first-person perspective.

When presented with a bird's-eye view text description of a maze do the following first:
  Locate --- Identify the entrance ("^" symbol) and exit ("x" symbol).
  Analyze --- Mentally visualize the maze from the entrance, evaluating all paths to the exit, avoiding any walls.
  Optimize --- Determine the shortest, most efficient route, favoring straight paths.
  Instruct --- Describe the optimal route as if you are walking it, using precise language.

Instruction Guidelines:
  Perspective --- Maintain a strict first-person perspective throughout.
  Directions --- Use only "forward", "left", and "right".
  Verbs --- Begin each instruction with an action verb (e.g., "Walk", "Turn").
  Positions --- Reference numbered positions for orientation.

Use the following format to describe the best path through the maze:
  First instruction --- "Start facing into the maze at the "^" symbol and step into position [number]."
  Subsequent instructions --- "Turn to my [left/right]" or "Walk forward to position [number]."
  Final instruction --- "Exit the maze from position [number]."

Key Points:
Describe the path as if you were in the maze, not observing it from above.
Assume you can only see your immediate surroundings.
Focus solely on navigation, omitting unnecessary details.
Make sure to output one line per navigation step."""

TEST_QUESTION = (
    "Please provide step-by-step instructions to navigate the maze described below. "
    "Do it from a first-person perspective."
)


class GatewayError(RuntimeError):
    pass


class AuthError(GatewayError):
    """Credential missing or rejected; never retried."""


class TransportFailure(GatewayError):
    """A retryable failure (network error, timeout, 408, 429, 5xx); from
    ``complete``, one whose retries are spent."""


class MalformedResponse(GatewayError):
    """HTTP 200 without extractable message content."""


class RequestRejected(GatewayError):
    """A 3xx or 4xx reply that every later request would get too (a wrong
    model, path or payload), or a mock script that no request can use;
    never retried."""


def _check_types(obj, kind: str, types, *fields: str) -> None:
    """Each named field must already hold one of ``types``: no conversion, so
    "0.2" is not read as a number, and true is refused as a number or an
    integer; only ``types`` bool itself takes true and false."""
    for name in fields:
        value = getattr(obj, name)
        if (isinstance(value, bool) and types is not bool) or not isinstance(value, types):
            raise ValueError(f"{name} must be {kind}, got {value!r}")


@dataclass(frozen=True)
class ChatMessage:
    role: str  # system | user | assistant
    content: str

    def __post_init__(self) -> None:
        if self.role not in ("system", "user", "assistant"):
            raise ValueError(f"bad role: {self.role!r}")
        if not self.content:
            raise ValueError("empty message content")


@dataclass(frozen=True)
class Scenario:
    name: str
    k: int  # number of solved example mazes shown before the test maze

    def __post_init__(self) -> None:
        _check_types(self, "a string", str, "name")
        _check_types(self, "an integer", int, "k")
        if self.k < 0:
            raise ValueError("k must be non-negative")


ZERO_SHOT = Scenario("zero-shot", 0)
ONE_SHOT = Scenario("one-shot", 1)
FEW_SHOT = Scenario("few-shot", 5)
DEFAULT_SCENARIOS = (ZERO_SHOT, ONE_SHOT, FEW_SHOT)


@dataclass(frozen=True)
class ProviderConfig:
    name: str
    model: str
    endpoint: str
    credential_env: str | None = None
    temperature: float = 0.0
    max_output_tokens: int = 2048
    timeout_s: float = 60.0
    max_retries: int = 3
    rate_per_s: float | None = None

    def __post_init__(self) -> None:
        _check_types(self, "a string", str, "name", "model", "endpoint")
        _check_types(self, "a string or null", (str, type(None)), "credential_env")
        _check_types(self, "a number", (int, float), "temperature", "timeout_s")
        _check_types(self, "a number or null", (int, float, type(None)), "rate_per_s")
        _check_types(self, "an integer", int, "max_output_tokens", "max_retries")
        # json.loads reads the literals NaN and Infinity as floats.
        for name in ("temperature", "timeout_s", "rate_per_s"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.max_output_tokens < 1:
            raise ValueError(f"max_output_tokens must be >= 1, got {self.max_output_tokens}")
        # Backoff doubles from 0.5 s with up to 50% jitter, so 10 retries can
        # already sleep about 13 minutes on one trial.
        if not 0 <= self.max_retries <= 10:
            raise ValueError(f"max_retries must be in [0, 10], got {self.max_retries}")
        if self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive")
        if self.rate_per_s is not None and self.rate_per_s <= 0:
            raise ValueError("rate_per_s must be positive (omit it for no cap)")
        try:  # the opener serves http(s) alone
            url = urllib.parse.urlsplit(self.endpoint)
        except ValueError:  # say, an unclosed IPv6 bracket
            url = None
        if not self.endpoint.startswith("mock:") and (
                url is None or url.scheme not in ("http", "https") or not url.hostname):
            raise ValueError(f"endpoint must be mock:<script> or an http(s) URL with a host,"
                             f" got {self.endpoint!r}")


@dataclass(frozen=True)
class Completion:
    text: str
    tokens_in: int
    tokens_out: int
    latency_ms: float
    attempts: int


def build_messages(
    test_maze: Maze,
    shots: list[tuple[Maze, Solution]],
    scenario: Scenario,
    *,
    cache: PromptCache | None = None,
) -> list[ChatMessage]:
    """System prompt, then one solved example per shot, then the test question.

    ``cache`` reuses the parts that repeat across the trials of one run; the
    messages are the same with or without it.
    """
    if len(shots) != scenario.k:
        raise ValueError(f"{scenario.name} needs {scenario.k} shots, got {len(shots)}")
    if any(shot_maze == test_maze for shot_maze, _ in shots):
        raise ValueError("shot maze equals the test maze")
    if cache is None:
        cache = PromptCache()
    return [*cache.prefix(shots, scenario), cache.question(test_maze)]


class PromptCache:
    """Prompt parts shared by the trials of one run: the question message of
    each maze, serialized once, and the system-and-examples prefix of each
    scenario, built once. It grows with the run's mazes and scenarios, so
    make one per run. Worker threads may share it: a race at worst builds
    the same message twice."""

    def __init__(self) -> None:
        self._questions: dict[Maze, ChatMessage] = {}
        self._prefixes: dict[str, tuple[tuple, tuple[ChatMessage, ...]]] = {}

    def question(self, maze: Maze) -> ChatMessage:
        message = self._questions.get(maze)
        if message is None:
            message = ChatMessage("user", f"{TEST_QUESTION}\n\n{serialize(maze).text}")
            self._questions[maze] = message
        return message

    def prefix(
        self, shots: list[tuple[Maze, Solution]], scenario: Scenario
    ) -> tuple[ChatMessage, ...]:
        # One slot per scenario, reused while its shots are equal; within a
        # run they are the same objects, so the comparison is cheap.
        shots = tuple(shots)
        cached = self._prefixes.get(scenario.name)
        if cached is not None and cached[0] == shots:
            return cached[1]
        messages = [ChatMessage("system", SYSTEM_PROMPT)]
        for shot_maze, solution in shots:
            messages.append(self.question(shot_maze))
            messages.append(ChatMessage("assistant", render_sequence(solution.instructions)))
        prefix = tuple(messages)
        self._prefixes[scenario.name] = (shots, prefix)
        return prefix


def prompt_hash(messages: list[ChatMessage]) -> str:
    import hashlib

    digest = hashlib.sha256()
    for m in messages:
        digest.update(m.role.encode("utf-8"))
        digest.update(b"\x00")
        digest.update(m.content.encode("utf-8"))
        digest.update(b"\x01")
    return digest.hexdigest()


def request_payload(cfg: ProviderConfig, messages: list[ChatMessage]) -> dict:
    """The full request body; rebuilt per call, so two identical calls send
    byte-identical payloads."""
    return {
        "model": cfg.model,
        "messages": [{"role": m.role, "content": m.content} for m in messages],
        "temperature": cfg.temperature,
        "max_tokens": cfg.max_output_tokens,
    }


class _TokenBucket:
    """Minimal per-provider rate cap: one request per 1/rate seconds."""

    def __init__(self, rate_per_s: float):
        self.interval = 1.0 / rate_per_s
        self.next_free = 0.0
        self.lock = threading.Lock()

    def reserve(self, now: float) -> float:
        with self.lock:
            start = max(now, self.next_free)
            self.next_free = start + self.interval
            return start - now


_BUCKETS: dict[str, _TokenBucket] = {}
_BUCKETS_LOCK = threading.Lock()


def _bucket(cfg: ProviderConfig) -> _TokenBucket:
    with _BUCKETS_LOCK:
        bucket = _BUCKETS.get(cfg.name)
        if bucket is None or abs(bucket.interval - 1.0 / cfg.rate_per_s) > 1e-9:
            bucket = _TokenBucket(cfg.rate_per_s)
            _BUCKETS[cfg.name] = bucket
        return bucket


@functools.lru_cache(maxsize=1)
def _opener():
    import urllib.request

    # No error processor and no redirect handler: open() returns every
    # status as a response, for complete() to classify.
    opener = urllib.request.OpenerDirector()
    for handler in (urllib.request.ProxyHandler(), urllib.request.HTTPHandler(),
                    urllib.request.HTTPSHandler()):
        opener.add_handler(handler)
    return opener


def _http_transport(url: str, headers: dict, payload: dict, timeout: float):
    """POST ``payload`` as JSON; (status, parsed body, or its decoded text if
    it is not JSON). Any status, error statuses included, is returned;
    network failures and timeouts raise TransportFailure."""
    import http.client
    import urllib.request

    data = json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(url, data=data, headers=headers, method="POST")
    try:
        with _opener().open(request, timeout=timeout) as response:
            status, raw = response.status, response.read()
    except (http.client.HTTPException, OSError) as err:
        # URLError and socket timeouts are OSErrors.
        raise TransportFailure(str(err)) from err
    try:
        return status, json.loads(raw)
    except ValueError:
        return status, raw.decode("utf-8", errors="replace")


def mock_key(maze_id: str, scenario: str) -> str:
    """The trial key a mock script gives the reply to one maze in one scenario."""
    return f"{maze_id}|{scenario}"


def _mock_complete(cfg: ProviderConfig, messages, trial_key: str | None) -> Completion:
    script_path = Path(cfg.endpoint[len("mock:"):])
    if trial_key is None:
        raise GatewayError("mock provider requires a trial key")
    try:
        script = json.loads(script_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as err:
        raise RequestRejected(f"cannot load mock script {script_path}: {err}")
    if not isinstance(script, dict):
        raise RequestRejected(f"mock script {script_path} is not a JSON object")
    text = script.get(trial_key, script.get("*"))
    if text is None:
        raise GatewayError(f"no scripted response for key {trial_key!r}")
    if not isinstance(text, str):
        raise GatewayError(f"mock script {script_path} gives {trial_key!r} a {type(text).__name__}, not text")
    tokens_in = sum(len(m.content.split()) for m in messages)
    return Completion(text, tokens_in, len(text.split()), 0.0, 1)


_EXCERPT = 200  # characters of a refusing reply's body kept in its error


def complete(
    cfg: ProviderConfig,
    messages: list[ChatMessage],
    *,
    trial_key: str | None = None,
    transport=None,
    sleeper=time.sleep,
    rng: random.Random | None = None,
) -> Completion:
    """One stateless chat-completion request with retry on transient failures.

    Rate-limit (429), request-timeout (408), 5xx and network errors back off
    exponentially with jitter up to cfg.max_retries retries, then raise
    TransportFailure with the last reason. Auth failures
    (401, 403) and the other 3xx and 4xx replies, which every later request
    would get too, raise AuthError or RequestRejected at once. Every attempt
    first reserves a slot under cfg.rate_per_s.
    """
    if cfg.endpoint.startswith("mock:"):
        return _mock_complete(cfg, messages, trial_key)

    headers = {"Content-Type": "application/json"}
    if cfg.credential_env:
        key = os.environ.get(cfg.credential_env)
        if not key:
            raise AuthError(f"credential variable {cfg.credential_env} is not set")
        headers["Authorization"] = f"Bearer {key}"

    transport = transport or _http_transport
    payload = request_payload(cfg, messages)
    started = time.perf_counter()
    delay = 0.5
    for attempts in range(1, cfg.max_retries + 2):
        if attempts > 1:
            if rng is None:
                rng = random.Random()  # seeded from the OS, so only once a retry needs it
            sleeper(delay + rng.uniform(0.0, delay / 2))
            delay *= 2
        if cfg.rate_per_s is not None:
            wait = _bucket(cfg).reserve(time.monotonic())
            if wait > 0:
                sleeper(wait)
        try:
            status, body = transport(cfg.endpoint, headers, payload, cfg.timeout_s)
        except TransportFailure as err:
            reason = str(err)
            continue
        if status == 200:
            return _extract(body, started, attempts)
        if status in (401, 403):
            raise AuthError(f"provider rejected credentials (http {status})")
        if status == 429:
            reason = "rate limited (http 429)"
        elif status == 408:
            reason = "request timeout (http 408)"
        elif 500 <= status < 600:
            reason = f"server error (http {status})"
        elif 300 <= status < 500:
            excerpt = (body if isinstance(body, str) else json.dumps(body))[:_EXCERPT]
            raise RequestRejected(f"provider rejected the request (http {status}): {excerpt}")
        else:
            raise GatewayError(f"unexpected http status {status}")
    raise TransportFailure(f"gave up after {attempts} attempts: {reason}")


def _extract(body: dict, started: float, attempts: int) -> Completion:
    try:
        text = body["choices"][0]["message"]["content"]
    except (KeyError, IndexError, TypeError):
        raise MalformedResponse("response has no message content")
    if not isinstance(text, str):
        raise MalformedResponse(f"response content is {type(text).__name__}, not text")
    usage = body.get("usage")
    if not isinstance(usage, dict):
        usage = {}
    return Completion(
        text=text,
        tokens_in=_token_count(usage.get("prompt_tokens")),
        tokens_out=_token_count(usage.get("completion_tokens")),
        latency_ms=(time.perf_counter() - started) * 1000.0,
        attempts=attempts,
    )


def _token_count(value) -> int:
    """A usage count; 0 when it is missing or unreadable, since the reply
    itself was paid for and is still scored."""
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError):
        return 0
