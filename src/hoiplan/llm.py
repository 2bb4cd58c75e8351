"""Chat-completion transport plus response parsing for the planning pipeline.

The prompt asks for two fenced code blocks (relations, then the plan); the
extractor also tolerates ``Relations:`` / ``Plan:`` labeled sections and
unlabeled fenced blocks that it can classify by content. A deterministic mock
backend serves canned responses keyed by a hash of the rendered prompt, so
the whole pipeline runs byte-reproducibly without a network.

Environment variables for the HTTP backend: ``HOIPLAN_LLM_URL``,
``HOIPLAN_LLM_API_KEY``, ``HOIPLAN_LLM_MODEL``, ``HOIPLAN_LLM_TIMEOUT``.
"""

import hashlib
import math
import os
import re
import time
from dataclasses import dataclass, field
from pathlib import Path

from .errors import HoiplanError
from .scene import Scene, read_text, write_text

ENV_URL = "HOIPLAN_LLM_URL"
ENV_API_KEY = "HOIPLAN_LLM_API_KEY"
ENV_MODEL = "HOIPLAN_LLM_MODEL"
ENV_TIMEOUT = "HOIPLAN_LLM_TIMEOUT"

DEFAULT_RETRIES = 2


class Transport(HoiplanError):
    code = "llm.transport"

    def __init__(self, message: str, status: int | None = None):
        super().__init__(message, status=status)
        self.status = status


class Timeout(HoiplanError):
    code = "llm.timeout"


class MissingFixture(HoiplanError):
    code = "llm.missing_fixture"


class SectionMissing(HoiplanError):
    code = "llm.section_missing"

    def __init__(self, which: str):
        super().__init__(f"response has no {which} section", which=which)
        self.which = which


# ---------------------------------------------------------------------------
# prompt rendering

SYSTEM_TEXT = """\
You are a task planner for a robot that rearranges objects in a 3D scene.
Given the scene description and an instruction, decide where every object
that must move should go and in which order to move them.

Respond with exactly two fenced code blocks.

The first block, labeled relations, lists one spatial relation per line:
  on(object1, object2)
      object1 rests on the top surface of object2.
  adjacent(object1, object2, direction, distance)
      object1 sits `distance` meters from object2 toward `direction`
      (north, south, east, west, northeast, northwest, southeast,
      southwest).
  facing(object1, object2)
      object1's front side points at object2.

The second block, labeled plan, lists one line per object to move, in
execution order, each formatted exactly as:
  lift the OBJECT, move the OBJECT, put down the OBJECT

Use only object ids from the scene. You may explain your reasoning outside
the blocks; everything outside the two blocks is ignored.
"""


@dataclass
class PromptBundle:
    system_text: str
    user_text: str


@dataclass
class LlmResponse:
    raw_text: str
    relations_text: str
    plan_text: str


def _fmt(v: float) -> str:
    return f"{float(v):.6g}"


def serialize_scene(scene: Scene) -> str:
    lines = [
        f"bounds: x from {_fmt(scene.bounds[0])} to {_fmt(scene.bounds[2])}, "
        f"y from {_fmt(scene.bounds[1])} to {_fmt(scene.bounds[3])}",
        f"north direction: ({_fmt(scene.north[0])}, {_fmt(scene.north[1])})",
        "objects:",
    ]
    for o in scene.objects:
        size = " x ".join(_fmt(2 * h) for h in o.half_extents)
        pos = ", ".join(_fmt(v) for v in o.initial_pose.position)
        front = ", ".join(_fmt(v) for v in o.canonical_dir)
        kind = "static" if o.is_static else "movable"
        lines.append(f"- {o.id}: {kind}, size(m) {size}, position ({pos}), front ({front})")
    return "\n".join(lines)


def render_prompt(scene: Scene, instruction: str) -> PromptBundle:
    """Deterministic prompt for a scene and instruction; same inputs, same bytes."""
    user = f"Instruction: {instruction}\n\nScene:\n{serialize_scene(scene)}\n"
    return PromptBundle(SYSTEM_TEXT, user)


def prompt_key(bundle: PromptBundle) -> str:
    digest = hashlib.sha256()
    digest.update(bundle.system_text.encode("utf-8"))
    digest.update(b"\x00")
    digest.update(bundle.user_text.encode("utf-8"))
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# backends

class MockBackend:
    """Serves canned responses from a directory of ``<prompt-hash>.txt`` files."""

    def __init__(self, fixtures_dir):
        self.fixtures_dir = Path(fixtures_dir)

    def complete(self, bundle: PromptBundle) -> str:
        path = self.fixtures_dir / f"{prompt_key(bundle)}.txt"
        if not path.exists():
            raise MissingFixture(f"no fixture for prompt hash {prompt_key(bundle)} "
                                 f"in {self.fixtures_dir}")
        return read_text(path)


def save_fixture(fixtures_dir, bundle: PromptBundle, response_text: str) -> Path:
    """Register a canned response for a prompt; returns the fixture path."""
    path = Path(fixtures_dir) / f"{prompt_key(bundle)}.txt"
    write_text(path, response_text)
    return path


@dataclass
class HttpBackend:
    """Minimal chat-completions client: one POST, first choice, pinned temperature."""

    url: str
    model: str
    api_key: str = ""
    timeout: float = 60.0
    retries: int = DEFAULT_RETRIES
    backoff: float = 1.0
    _sleep: object = field(default=time.sleep, repr=False)

    def __post_init__(self):
        if self.retries < 0:
            raise ValueError(f"retries must be at least 0, got {self.retries}")

    @classmethod
    def from_env(cls) -> "HttpBackend":
        url = os.environ.get(ENV_URL, "")
        if not url:
            raise Transport(f"{ENV_URL} is not set")
        raw = os.environ.get(ENV_TIMEOUT, "60")
        try:
            timeout = float(raw)
        except ValueError:
            timeout = math.nan
        if not 0.0 < timeout < math.inf:
            raise Transport(f"{ENV_TIMEOUT} must be a positive number of seconds, got {raw!r}")
        return cls(url=url, model=os.environ.get(ENV_MODEL, "gpt-4o"),
                   api_key=os.environ.get(ENV_API_KEY, ""), timeout=timeout)

    def payload(self, bundle: PromptBundle) -> dict:
        return {
            "model": self.model,
            "messages": [
                {"role": "system", "content": bundle.system_text},
                {"role": "user", "content": bundle.user_text},
            ],
            "temperature": 0,
        }

    def complete(self, bundle: PromptBundle) -> str:
        import requests  # on first use, so commands that never call a server do not load it

        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        last_error: HoiplanError | None = None
        for attempt in range(self.retries + 1):
            if attempt:
                self._sleep(self.backoff * 2 ** (attempt - 1))
            try:
                resp = requests.post(self.url, json=self.payload(bundle), headers=headers,
                                     timeout=self.timeout)
            except requests.Timeout as e:
                last_error = Timeout(str(e))
                continue
            except requests.RequestException as e:
                last_error = Transport(str(e))
                continue
            if 500 <= resp.status_code < 600:
                last_error = Transport(f"server error {resp.status_code}",
                                       status=resp.status_code)
                continue
            if resp.status_code != 200:
                raise Transport(f"request failed with {resp.status_code}",
                                status=resp.status_code)
            try:
                content = resp.json()["choices"][0]["message"]["content"]
            except (ValueError, KeyError, IndexError, TypeError) as e:
                raise Transport(f"malformed completion payload: {e}",
                                status=resp.status_code) from e
            if isinstance(content, str):
                return content
            raise Transport("malformed completion payload: content is not a string",
                            status=resp.status_code)
        raise last_error


# ---------------------------------------------------------------------------
# section extraction

_FENCE = re.compile(r"```[ \t]*(?P<label>[A-Za-z_-]*)[ \t]*\n(?P<body>.*?)```", re.DOTALL)


def _classify(body: str) -> str | None:
    stripped = body.strip().lower()
    if not stripped:
        return None
    if re.search(r"^\s*lift\s+the\b", stripped, re.MULTILINE):
        return "plan"
    if re.search(r"\b(on|adjacent|facing)\s*\(", stripped):
        return "relations"
    return None


def extract_sections(raw_text: str) -> dict[str, str]:
    """Pull the relations and plan bodies out of a model response.

    Preference order: labeled fenced blocks, then ``Relations:``/``Plan:``
    headed sections (fences inside stripped), then unlabeled fenced blocks
    classified by content. Raises SectionMissing when either cannot be found.
    """
    found: dict[str, str] = {}
    unlabeled: list[str] = []
    for m in _FENCE.finditer(raw_text):
        label = m.group("label").lower()
        body = m.group("body").strip()
        if label in ("relations", "plan"):
            found.setdefault(label, body)
        else:
            unlabeled.append(body)

    if len(found) < 2:
        for name in ("relations", "plan"):
            if name in found:
                continue
            section = _labeled_section(raw_text, name)
            if section is not None:
                found[name] = section

    if len(found) < 2:
        for body in unlabeled:
            kind = _classify(body)
            if kind and kind not in found:
                found[kind] = body

    for name in ("relations", "plan"):
        if name not in found:
            raise SectionMissing(name)
    return {"relations_text": found["relations"], "plan_text": found["plan"]}


def _labeled_section(raw_text: str, name: str) -> str | None:
    pattern = re.compile(rf"^[#* \t]*{name}[: \t*]*$", re.IGNORECASE | re.MULTILINE)
    m = pattern.search(raw_text)
    if m is None:
        return None
    rest = raw_text[m.end():]
    other = "plan" if name == "relations" else "relations"
    stop = re.compile(rf"^[#* \t]*{other}[: \t*]*$", re.IGNORECASE | re.MULTILINE)
    stop_m = stop.search(rest)
    if stop_m:
        rest = rest[:stop_m.start()]
    fence = _FENCE.search(rest)
    if fence:
        return fence.group("body").strip()
    return rest.strip() or None


def complete(bundle: PromptBundle, backend) -> LlmResponse:
    """Run a backend and validate that both sections extract; reject otherwise."""
    raw = backend.complete(bundle)
    sections = extract_sections(raw)
    return LlmResponse(raw, sections["relations_text"], sections["plan_text"])
