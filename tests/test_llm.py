import numpy as np
import pytest
import requests
from helpers import render_response, workspace_scene

import hoiplan.llm as llm
from hoiplan.llm import (HttpBackend, LlmResponse, MissingFixture, MockBackend, PromptBundle,
                         SectionMissing, Timeout, Transport, complete, extract_sections,
                         prompt_key, render_prompt, save_fixture, serialize_scene)

GOOD_RESPONSE = """\
The table anchors the workspace, so it goes north of the door first.

```relations
adjacent(table, door, north, 1.5)
on(monitor, table)
facing(monitor, chair)
```

Moving the monitor before the table keeps the tabletop clear.

```plan
lift the monitor, move the monitor, put down the monitor
lift the table, move the table, put down the table
```
"""


class TestRenderPrompt:
    def test_deterministic(self):
        scene = workspace_scene()
        a = render_prompt(scene, "set up a workspace")
        b = render_prompt(scene, "set up a workspace")
        assert a.system_text == b.system_text
        assert a.user_text == b.user_text
        assert prompt_key(a) == prompt_key(b)

    def test_instruction_embedded_verbatim(self):
        bundle = render_prompt(workspace_scene(), "tidy the desk, please")
        assert "tidy the desk, please" in bundle.user_text

    def test_scene_serialization_lists_objects(self):
        text = serialize_scene(workspace_scene())
        for oid in ("door", "table", "monitor", "chair"):
            assert oid in text
        assert "static" in text and "movable" in text

    def test_different_scene_changes_key(self):
        scene = workspace_scene()
        base = prompt_key(render_prompt(scene, "a"))
        assert base != prompt_key(render_prompt(scene, "b"))

    def test_matches_golden_prompt(self):
        from pathlib import Path
        from conftest import WORKSPACE_INSTRUCTION
        bundle = render_prompt(workspace_scene(), WORKSPACE_INSTRUCTION)
        rendered = bundle.system_text + "\n--- user ---\n" + bundle.user_text
        golden = Path(__file__).parent / "fixtures" / "golden" / "prompt_workspace.txt"
        assert rendered == golden.read_text(encoding="utf-8")


class TestExtractSections:
    def test_labeled_fenced_blocks(self):
        sections = extract_sections(GOOD_RESPONSE)
        assert "adjacent(table, door, north, 1.5)" in sections["relations_text"]
        assert sections["plan_text"].startswith("lift the monitor")

    def test_commentary_discarded(self):
        sections = extract_sections(GOOD_RESPONSE)
        assert "anchors" not in sections["relations_text"]
        assert "keeps the tabletop clear" not in sections["plan_text"]

    def test_prose_only_raises(self):
        with pytest.raises(SectionMissing):
            extract_sections("I would put the table near the door and be done.")

    def test_missing_plan(self):
        text = "```relations\non(a, b)\n```\n"
        with pytest.raises(SectionMissing) as e:
            extract_sections(text)
        assert e.value.which == "plan"

    @pytest.mark.parametrize("variant", [
        # ten formatting variants the extractor must survive
        "```relations\non(a, b)\n```\n```plan\nlift the a, move the a, put down the a\n```",
        "```relations\non(a, b)\n```\n\nnotes\n\n```plan\nlift the a, move the a, put down the a\n```",
        "Relations:\non(a, b)\n\nPlan:\nlift the a, move the a, put down the a",
        "RELATIONS:\non(a, b)\nPLAN:\nlift the a, move the a, put down the a",
        "## Relations\non(a, b)\n\n## Plan\nlift the a, move the a, put down the a",
        "Relations:\n```\non(a, b)\n```\nPlan:\n```\nlift the a, move the a, put down the a\n```",
        "```\non(a, b)\n```\n```\nlift the a, move the a, put down the a\n```",
        "```\nlift the a, move the a, put down the a\n```\n```\non(a, b)\n```",
        "preamble\n```relations\non(a, b)\n```\nmiddle\n```plan\nlift the a, move the a, put down the a\n```\ntail",
        "**Relations:**\non(a, b)\n\n**Plan:**\nlift the a, move the a, put down the a",
    ])
    def test_formatting_variants(self, variant):
        sections = extract_sections(variant)
        assert "on(a, b)" in sections["relations_text"]
        assert "lift the a" in sections["plan_text"]

    def test_idempotent_after_render(self):
        sections = extract_sections(GOOD_RESPONSE)
        canonical = render_response(sections["relations_text"], sections["plan_text"])
        again = extract_sections(canonical)
        assert again == sections


class TestMockBackend:
    def test_fixture_round_trip(self, tmp_path):
        bundle = render_prompt(workspace_scene(), "set up a workspace")
        save_fixture(tmp_path, bundle, GOOD_RESPONSE)
        backend = MockBackend(tmp_path)
        response = complete(bundle, backend)
        assert isinstance(response, LlmResponse)
        assert response.raw_text == GOOD_RESPONSE
        assert "on(monitor, table)" in response.relations_text

    def test_missing_fixture(self, tmp_path):
        bundle = render_prompt(workspace_scene(), "unregistered")
        with pytest.raises(MissingFixture):
            MockBackend(tmp_path).complete(bundle)

    def test_no_network_touched(self, tmp_path, monkeypatch):
        def sentinel(*args, **kwargs):
            raise AssertionError("mock backend must not touch the network")

        monkeypatch.setattr(requests, "post", sentinel)
        bundle = render_prompt(workspace_scene(), "set up a workspace")
        save_fixture(tmp_path, bundle, GOOD_RESPONSE)
        response = complete(bundle, MockBackend(tmp_path))
        assert response.plan_text


class DummyResponse:
    def __init__(self, status_code, payload=None):
        self.status_code = status_code
        self._payload = payload or {}

    def json(self):
        return self._payload


class TestHttpBackend:
    def make_backend(self):
        return HttpBackend(url="http://example.test/v1/chat/completions",
                           model="test-model", api_key="secret", backoff=0.0,
                           _sleep=lambda s: None)

    def test_success_payload_shape(self, monkeypatch):
        captured = {}

        def fake_post(url, json=None, headers=None, timeout=0):
            captured.update(url=url, payload=json, headers=headers, timeout=timeout)
            return DummyResponse(200, {"choices": [{"message": {"content": GOOD_RESPONSE}}]})

        monkeypatch.setattr(requests, "post", fake_post)
        backend = self.make_backend()
        response = complete(render_prompt(workspace_scene(), "go"), backend)
        assert response.raw_text == GOOD_RESPONSE
        assert captured["payload"]["model"] == "test-model"
        assert captured["payload"]["temperature"] == 0
        assert [m["role"] for m in captured["payload"]["messages"]] == ["system", "user"]
        assert captured["headers"]["Authorization"] == "Bearer secret"

    def test_500_retries_then_raises(self, monkeypatch):
        calls = []

        def fake_post(url, **kwargs):
            calls.append(url)
            return DummyResponse(500)

        monkeypatch.setattr(requests, "post", fake_post)
        backend = self.make_backend()
        with pytest.raises(Transport) as e:
            backend.complete(render_prompt(workspace_scene(), "go"))
        assert e.value.status == 500
        assert len(calls) == backend.retries + 1

    def test_400_no_retry(self, monkeypatch):
        calls = []

        def fake_post(url, **kwargs):
            calls.append(url)
            return DummyResponse(400)

        monkeypatch.setattr(requests, "post", fake_post)
        with pytest.raises(Transport):
            self.make_backend().complete(render_prompt(workspace_scene(), "go"))
        assert len(calls) == 1

    def test_timeout_retries(self, monkeypatch):
        calls = []

        def fake_post(url, **kwargs):
            calls.append(url)
            raise requests.Timeout("too slow")

        monkeypatch.setattr(requests, "post", fake_post)
        backend = self.make_backend()
        with pytest.raises(Timeout):
            backend.complete(render_prompt(workspace_scene(), "go"))
        assert len(calls) == backend.retries + 1

    def test_from_env(self, monkeypatch):
        monkeypatch.setenv(llm.ENV_URL, "http://example.test/llm")
        monkeypatch.setenv(llm.ENV_MODEL, "m1")
        monkeypatch.setenv(llm.ENV_API_KEY, "k")
        monkeypatch.setenv(llm.ENV_TIMEOUT, "12.5")
        backend = HttpBackend.from_env()
        assert backend.url == "http://example.test/llm"
        assert backend.model == "m1"
        assert backend.timeout == 12.5

    @pytest.mark.parametrize("value", ["abc", "nan", "inf", "0", "-5", ""])
    def test_from_env_refuses_a_timeout_that_is_not_a_positive_number(self, monkeypatch, value):
        monkeypatch.setenv(llm.ENV_URL, "http://example.test/llm")
        monkeypatch.setenv(llm.ENV_TIMEOUT, value)
        with pytest.raises(Transport) as e:
            HttpBackend.from_env()
        assert e.value.code == "llm.transport" and llm.ENV_TIMEOUT in str(e.value)

    @pytest.mark.parametrize("content", [None, 42, ["text"], {"text": "x"}])
    def test_content_that_is_not_a_string_is_malformed(self, monkeypatch, content):
        calls = []

        def fake_post(url, **kwargs):
            calls.append(url)
            return DummyResponse(200, {"choices": [{"message": {"content": content}}]})

        monkeypatch.setattr(requests, "post", fake_post)
        with pytest.raises(Transport, match="^malformed completion payload") as e:
            self.make_backend().complete(render_prompt(workspace_scene(), "go"))
        assert e.value.status == 200 and len(calls) == 1

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError):
            HttpBackend(url="http://example.test/llm", model="m", retries=-1)

    def test_from_env_requires_url(self, monkeypatch):
        monkeypatch.delenv(llm.ENV_URL, raising=False)
        with pytest.raises(Transport):
            HttpBackend.from_env()

    def test_rejects_sectionless_response(self, monkeypatch):
        def fake_post(url, **kwargs):
            return DummyResponse(200, {"choices": [{"message": {"content": "no blocks"}}]})

        monkeypatch.setattr(requests, "post", fake_post)
        with pytest.raises(SectionMissing):
            complete(render_prompt(workspace_scene(), "go"), self.make_backend())
