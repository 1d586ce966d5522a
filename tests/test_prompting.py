from __future__ import annotations

import json
import re
from importlib import resources

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import fingerprint_oracle, render_oracle
from summit.errors import MissingSlot
from summit.prompting import (
    EVALUATOR_FORMAT_INSTRUCTIONS,
    ROLE_STAGES,
    SUMMARIZER_FORMAT_INSTRUCTIONS,
    PromptRegistry,
    PromptRole,
    Stage,
    format_exemplars,
)
from summit.types import Exemplar, Setting

BASE_CONTEXT = {
    "document": "A short document about harbor repairs.",
    "summary": "Harbor repairs continue.",
    "topic": "harbor funding",
    "triplets": "(council; approved; the repairs)",
    "exemplars": "",
    "suggestions": "Shorten the summary.",
    "format_instructions": EVALUATOR_FORMAT_INSTRUCTIONS,
    "stop_marker": "<STOP>",
}


def test_all_nine_user_templates_present(registry):
    for setting in Setting:
        for role, stages in ((PromptRole.SUMMARIZER, (Stage.SUMMARIZE, Stage.REFINE)),
                             (PromptRole.EVALUATOR, (Stage.EVALUATE,))):
            for stage in stages:
                assert registry.template(role, setting, stage)


def test_evaluate_prompt_contains_task_and_texts(registry):
    rendered = registry.render(PromptRole.EVALUATOR, Setting.QUALITY, Stage.EVALUATE, BASE_CONTEXT)
    assert "Please evaluate the summary for the document." in rendered.user
    assert BASE_CONTEXT["document"] in rendered.user
    assert BASE_CONTEXT["summary"] in rendered.user
    assert "probability distribution" in rendered.user


def test_summarize_prompt_embeds_document(registry):
    rendered = registry.render(
        PromptRole.SUMMARIZER,
        Setting.QUALITY,
        Stage.SUMMARIZE,
        {**BASE_CONTEXT, "format_instructions": SUMMARIZER_FORMAT_INSTRUCTIONS},
    )
    assert "Please summarize the following document." in rendered.user
    assert BASE_CONTEXT["document"] in rendered.user


def test_control_summarize_without_topic_raises(registry):
    context = dict(BASE_CONTEXT)
    del context["topic"]
    with pytest.raises(MissingSlot) as err:
        registry.render(PromptRole.SUMMARIZER, Setting.CONTROL, Stage.SUMMARIZE, context)
    assert err.value.slot == "topic"


def test_faithfulness_prompts_embed_triplets(registry):
    for role, stage in ((PromptRole.SUMMARIZER, Stage.SUMMARIZE), (PromptRole.EVALUATOR, Stage.EVALUATE)):
        rendered = registry.render(role, Setting.FAITHFULNESS, stage, BASE_CONTEXT)
        assert BASE_CONTEXT["triplets"] in rendered.user


def test_refine_prompt_threads_suggestions(registry):
    rendered = registry.render(PromptRole.SUMMARIZER, Setting.QUALITY, Stage.REFINE, BASE_CONTEXT)
    assert rendered.user.startswith(BASE_CONTEXT["suggestions"])
    assert "Revise the summary. Follow all the suggestions" in rendered.user
    assert BASE_CONTEXT["document"] not in rendered.user


def test_system_prompt_carries_configured_stop_marker(registry):
    rendered = registry.render(
        PromptRole.EVALUATOR, Setting.QUALITY, Stage.EVALUATE, {**BASE_CONTEXT, "stop_marker": "[HALT]"}
    )
    assert '"[HALT]"' in rendered.system


def test_render_idempotent(registry):
    first = registry.render(PromptRole.EVALUATOR, Setting.QUALITY, Stage.EVALUATE, BASE_CONTEXT)
    second = registry.render(PromptRole.EVALUATOR, Setting.QUALITY, Stage.EVALUATE, BASE_CONTEXT)
    assert first == second


def test_slot_syntax_in_payload_passes_through(registry):
    context = {**BASE_CONTEXT, "document": "weird text with {{summary}} inside"}
    rendered = registry.render(PromptRole.EVALUATOR, Setting.QUALITY, Stage.EVALUATE, context)
    assert "weird text with {{summary}} inside" in rendered.user


def _every_prompt():
    return [(role, setting, stage) for role, stages in ROLE_STAGES.items() for setting in Setting for stage in stages]


def test_packaged_prompts_render_as_the_substitution_oracle_does(registry):
    context = {
        **BASE_CONTEXT,
        "document": "A {{summary}} and a {{missing}} inside the document.",
        "summary": "{{document}}",
        "exemplars": "Example 1:\n{{topic}}\n\n",
    }
    for role, setting, stage in _every_prompt():
        rendered = registry.render(role, setting, stage, context)
        assert rendered.user == "".join(rendered.user_parts)
        assert rendered.user == render_oracle(registry.template(role, setting, stage), context)


_SLOTS = ("document", "summary", "topic")
_pieces = st.sampled_from(["{{document}}", "{{summary}}", "{{topic}}", "{{", "}}", "{", "}", "{{ x }}", "a ", "\n", ""])
_templates = st.lists(_pieces, max_size=8).map("".join)
_values = st.lists(st.sampled_from(["{{summary}}", "{{document}}", "{{", "}}", "word", " ", "\n", "é"]), max_size=4).map(
    "".join
)


@given(_templates, _templates, st.dictionaries(st.sampled_from(_SLOTS), _values))
def test_render_matches_the_substitution_oracle(system, user, context):
    users = {(role.value, setting.value, stage.value): user for role, setting, stage in _every_prompt()}
    registry = PromptRegistry({role: system for role in PromptRole}, users)
    render = lambda: registry.render(PromptRole.EVALUATOR, Setting.QUALITY, Stage.EVALUATE, context)  # noqa: E731
    try:
        expected = (render_oracle(system, context), render_oracle(user, context))
    except MissingSlot as missing:
        with pytest.raises(MissingSlot) as raised:
            render()
        assert raised.value.slot == missing.slot
        return
    rendered = render()
    assert (rendered.system, rendered.user) == expected
    assert "".join(rendered.user_parts) == rendered.user
    assert all(rendered.user_parts)
    for slot in re.findall(r"\{\{(\w+)\}\}", user):
        if context[slot]:
            assert any(part is context[slot] for part in rendered.user_parts)


def test_exemplars_precede_task_in_order(registry):
    exemplars = [
        Exemplar(document="First example document.", summary="First example summary."),
        Exemplar(document="Second example document.", summary="Second example summary."),
    ]
    context = {
        **BASE_CONTEXT,
        "format_instructions": SUMMARIZER_FORMAT_INSTRUCTIONS,
        "exemplars": format_exemplars(exemplars, PromptRole.SUMMARIZER),
    }
    user = registry.render(PromptRole.SUMMARIZER, Setting.QUALITY, Stage.SUMMARIZE, context).user
    first = user.index("First example document.")
    second = user.index("Second example document.")
    task = user.index(BASE_CONTEXT["document"])
    assert first < second < task


def test_evaluator_exemplars_require_explanation():
    exemplar = Exemplar(document="d", summary="s")
    with pytest.raises(MissingSlot):
        format_exemplars([exemplar], PromptRole.EVALUATOR)
    block = format_exemplars([Exemplar("d", "s", explanation="fine")], PromptRole.EVALUATOR)
    assert "Evaluation:" in block


def test_no_exemplars_renders_empty_block():
    assert format_exemplars([], PromptRole.SUMMARIZER) == ""


def test_registry_override_directory(tmp_path, registry):
    # Copy the packaged templates, tweak one, and load from the override path.
    src = resources.files("summit").joinpath("templates")
    for entry in src.iterdir():
        (tmp_path / entry.name).write_text(entry.read_text(encoding="utf-8"), encoding="utf-8")
    target = tmp_path / "summarizer_quality_summarize.txt"
    target.write_text("{{exemplars}}Custom instruction.\n\n{{document}}\n\n{{format_instructions}}", encoding="utf-8")
    custom = PromptRegistry.load(tmp_path)
    rendered = custom.render(
        PromptRole.SUMMARIZER,
        Setting.QUALITY,
        Stage.SUMMARIZE,
        {**BASE_CONTEXT, "format_instructions": SUMMARIZER_FORMAT_INSTRUCTIONS},
    )
    assert "Custom instruction." in rendered.user
    assert custom.fingerprint() != registry.fingerprint()
    assert custom.fingerprint() == fingerprint_oracle(tmp_path)


def test_incomplete_registry_rejected(tmp_path):
    src = resources.files("summit").joinpath("templates")
    for entry in src.iterdir():
        (tmp_path / entry.name).write_text(entry.read_text(encoding="utf-8"), encoding="utf-8")
    manifest = json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))
    del manifest["user"]["evaluator/quality/evaluate"]
    (tmp_path / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    with pytest.raises(ValueError, match="missing user templates"):
        PromptRegistry.load(tmp_path)


def test_fingerprint_stable(registry):
    assert registry.fingerprint() == PromptRegistry.load().fingerprint()


def test_fingerprint_hashes_its_documented_layout(registry):
    assert registry.fingerprint() == fingerprint_oracle(resources.files("summit").joinpath("templates"))
    # The packaged templates' fingerprint, as every earlier run manifest records it.
    assert registry.fingerprint() == "be2540a6a70671c17d442b85d7ea180c78393fa752eece32414ad9035b0351c9"
