from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import summit.backend as backend_module
from helpers import (
    CONTINUE_BEHAVIORS,
    STOP,
    STOPPING_BEHAVIORS,
    CountingHashlib,
    RecordingBackend,
    cache_key_oracle,
    plan_session,
    random_session_plan,
)
from summit.backend import CachedBackend, ReplayBackend, ScriptedBackend, ScriptStep
from summit.cache import ResponseCache
from summit.errors import BudgetExceeded, ConfigError, ParseError
from summit.parsing import parse_feedback
from summit.session import run_session, should_stop
from summit.types import (
    Document,
    EditKind,
    EditOp,
    Feedback,
    ServedFrom,
    SessionConfig,
    Setting,
    StopReason,
    Summary,
    SummaryOrigin,
)

DOC = Document(
    id="fixture-doc",
    text=(
        "The harbor council approved emergency repairs on Friday after the winter "
        "storms damaged the north pier. Local businesses asked for a faster "
        "schedule. Funding comes from the regional budget."
    ),
)


def feedback(stop=False, ops=(), raw_extra=""):
    raw = " ".join(["Scores: 3:0.5 4:0.5", raw_extra] + [STOP] * stop)
    return Feedback(
        raw=raw,
        score_distribution={1: 0, 2: 0, 3: 0.5, 4: 0.5, 5: 0},
        expected_score=3.5,
        edit_ops=list(ops),
        stop_requested=stop,
    )


# --- should_stop precedence table -------------------------------------------------


@pytest.mark.parametrize(
    "stop,ops,iteration,max_iters,expected",
    [
        (True, [], 1, 5, StopReason.EVALUATOR_STOP),
        (True, [EditOp(EditKind.KEEP)], 1, 5, StopReason.EVALUATOR_STOP),
        (True, [], 5, 5, StopReason.EVALUATOR_STOP),
        (False, [EditOp(EditKind.KEEP)], 2, 5, StopReason.KEEP_ONLY),
        (False, [EditOp(EditKind.KEEP)], 5, 5, StopReason.KEEP_ONLY),
        (False, [EditOp(EditKind.REPHRASE, "x")], 5, 5, StopReason.MAX_ITERATIONS),
        (False, [], 5, 5, StopReason.MAX_ITERATIONS),
        (False, [EditOp(EditKind.REPHRASE, "x")], 2, 5, None),
        (False, [], 2, 5, None),
        (False, [EditOp(EditKind.KEEP), EditOp(EditKind.SIMPLIFY)], 2, 5, None),
    ],
)
def test_stop_precedence(stop, ops, iteration, max_iters, expected):
    fb = feedback(stop=stop, ops=ops)
    config = SessionConfig(max_iterations=max_iters)
    assert should_stop(fb, iteration, config) is expected


# --- run_session examples -----------------------------------------------------------


def test_immediate_stop_gives_single_step(registry):
    plan = plan_session(["stop"], max_iterations=5)
    trace = run_session(DOC, SessionConfig(), ScriptedBackend(plan.steps), registry)
    assert len(trace.steps) == 1
    assert trace.stopped_by is StopReason.EVALUATOR_STOP
    assert trace.steps[0].summary.origin is SummaryOrigin.INITIAL


def test_never_stopping_hits_max_iterations(registry):
    plan = plan_session(["ops"] * 5, max_iterations=5)
    trace = run_session(DOC, SessionConfig(max_iterations=5), ScriptedBackend(plan.steps), registry)
    assert len(trace.steps) == 5
    assert trace.stopped_by is StopReason.MAX_ITERATIONS


def test_keep_only_stops_without_marker(registry):
    plan = plan_session(["ops", "keep"], max_iterations=5)
    trace = run_session(DOC, SessionConfig(), ScriptedBackend(plan.steps), registry)
    assert trace.stopped_by is StopReason.KEEP_ONLY
    assert len(trace.steps) == 2
    assert STOP not in trace.final_feedback.raw


def test_trace_iterations_increase_by_one(registry):
    plan = plan_session(["ops", "ops", "stop"], max_iterations=5)
    trace = run_session(DOC, SessionConfig(), ScriptedBackend(plan.steps), registry)
    assert [step.summary.iteration for step in trace.steps] == [0, 1, 2]
    assert trace.steps[1].summary.origin is SummaryOrigin.REFINED


def test_refine_prompt_embeds_feedback_verbatim(registry):
    plan = plan_session(["ops", "stop"], max_iterations=5)
    recorder = RecordingBackend(ScriptedBackend(plan.steps))
    trace = run_session(DOC, SessionConfig(), recorder, registry)
    refines = recorder.stage("refine")
    assert len(refines) == 1
    assert trace.steps[0].feedback.raw in refines[0].user
    # Conversation memory: the document appears in summarize, never in refine.
    assert DOC.text not in refines[0].user


def test_echoed_refine_is_marked_unchanged(registry):
    plan = plan_session(["ops", "stop"], max_iterations=5, echo_refine=True)
    trace = run_session(DOC, SessionConfig(), ScriptedBackend(plan.steps), registry)
    assert trace.steps[1].summary.origin is SummaryOrigin.UNCHANGED
    assert trace.steps[1].summary.text == trace.steps[0].summary.text


def test_replay_determinism(registry):
    plan = plan_session(["multi", "ops", "stop"], max_iterations=5)
    config = SessionConfig()
    first = run_session(DOC, config, ScriptedBackend(plan.steps), registry)
    second = run_session(DOC, config, ScriptedBackend(plan.steps), registry)
    assert [s.summary.text for s in first.steps] == [s.summary.text for s in second.steps]
    assert [s.feedback.raw for s in first.steps] == [s.feedback.raw for s in second.steps]
    assert first.stopped_by is second.stopped_by
    assert first.calls == second.calls


def test_degenerate_document_short_circuits(registry):
    tiny = Document(id="tiny", text="Far too short to bother.")
    for strict in (False, True):
        backend = ScriptedBackend([ScriptStep(response="Tiny summary.", match="Please summarize")])
        trace = run_session(tiny, SessionConfig(strict_parsing=strict), backend, registry)
        assert len(trace.steps) == 1
        assert trace.stopped_by is StopReason.EVALUATOR_STOP
        feedback = trace.final_feedback
        assert feedback.stop_requested
        assert "<STOP>" in feedback.raw
        # No scores were given, strict or not: the uniform fallback, flagged.
        assert feedback.expected_score == 3.0
        assert feedback.distribution_parsed is False
        assert feedback.edit_ops == []
        assert backend.cursor == 1  # no evaluator call was issued


def test_control_setting_threads_topic(registry):
    config = SessionConfig(setting=Setting.CONTROL, topic_query="pier repairs")
    plan = plan_session(["stop"], max_iterations=5)
    recorder = RecordingBackend(ScriptedBackend(plan.steps))
    run_session(DOC, config, recorder, registry)
    summarize = recorder.requests[0]
    evaluate = recorder.requests[1]
    assert "pier repairs" in summarize.user
    assert "pier repairs" in evaluate.user


def test_control_without_topic_rejected(registry):
    config = SessionConfig(setting=Setting.CONTROL)
    with pytest.raises(ConfigError, match="^control setting requires a topic_query$"):
        config.check()
    recorder = RecordingBackend(ScriptedBackend(plan_session(["stop"], max_iterations=5).steps))
    with pytest.raises(ConfigError, match="^control setting requires a topic_query$"):
        run_session(DOC, config, recorder, registry)
    assert recorder.requests == []  # refused before any call


@pytest.mark.parametrize(
    "values, message",
    [
        ({"max_iterations": 0}, "max_iterations must be >= 1"),
        ({"temperature": -0.1}, "temperature must be >= 0 and finite, not -0.1"),
        ({"max_output_tokens": 0}, "max_output_tokens must be positive"),
        ({"stop_marker": ""}, "stop_marker must be non-empty"),
        ({"token_budget": 0}, "token_budget must be positive when set"),
    ],
    ids=["max_iterations", "temperature", "max_output_tokens", "stop_marker", "token_budget"],
)
def test_session_config_compares_by_value_and_checks_each_value(registry, values, message):
    config = SessionConfig(max_iterations=3)
    assert config == SessionConfig(max_iterations=3) != SessionConfig()
    with pytest.raises(AttributeError):
        config.max_iterations = 4
    assert config.check() is config
    # Building a config checks nothing; its check does, and run_session checks
    # it before the first call, for a library caller that did not.
    for unchecked in (SessionConfig(**values), config._replace(**values)):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            unchecked.check()
    recorder = RecordingBackend(ScriptedBackend(plan_session(["stop"], max_iterations=3).steps))
    with pytest.raises(ConfigError, match=f"^{message}$"):
        run_session(DOC, config._replace(**values), recorder, registry)
    assert recorder.requests == []


def test_documents_and_summaries_compare_by_value_and_check_their_values(registry):
    assert DOC == Document(DOC.id, DOC.text) != Document(DOC.id, "Other text.")
    draft = Summary("Draft.", 0, SummaryOrigin.INITIAL)
    assert draft == Summary(text="Draft.", iteration=0, origin=SummaryOrigin.INITIAL)
    assert draft != Summary("Draft.", 1, SummaryOrigin.UNCHANGED)
    for record, field in ((DOC, "text"), (draft, "text")):
        with pytest.raises(AttributeError):
            setattr(record, field, "changed")
    # Neither checks itself. An empty document is refused where documents
    # enter (the corpus loader, summarize). run_session, which builds every
    # draft, numbers them from 0 and makes iteration 0, and only it, INITIAL.
    plan = plan_session(["multi", "ops", "stop"], max_iterations=5)
    drafts = [step.summary for step in run_session(DOC, SessionConfig(), ScriptedBackend(plan.steps), registry).steps]
    assert [d.iteration for d in drafts] == [0, 1, 2]
    assert [d.origin for d in drafts] == [SummaryOrigin.INITIAL, SummaryOrigin.REFINED, SummaryOrigin.REFINED]


def test_faithfulness_setting_renders_triplets_for_both_roles(registry):
    config = SessionConfig(setting=Setting.FAITHFULNESS)
    plan = plan_session(["stop"], max_iterations=5)
    recorder = RecordingBackend(ScriptedBackend(plan.steps))
    run_session(DOC, config, recorder, registry)
    summarize, evaluate = recorder.requests[0], recorder.requests[1]
    # The naive extractor finds at least the approval event.
    assert "(" in summarize.user and ";" in summarize.user
    assert "Relationships:" in summarize.user
    assert "Relationships:" in evaluate.user


def test_custom_stop_marker(registry):
    marker = "[HALT]"
    steps = [
        ScriptStep(response="Initial summary.", match="Please summarize"),
        ScriptStep(response=f"Scores: 4:0.5 5:0.5 Do nothing. {marker}", match="Please evaluate"),
    ]
    config = SessionConfig(stop_marker=marker)
    trace = run_session(DOC, config, ScriptedBackend(steps), registry)
    assert trace.stopped_by is StopReason.EVALUATOR_STOP
    # The default marker means nothing under a custom configuration.
    fb = parse_feedback("Do nothing. <STOP>", marker)
    assert not fb.stop_requested


@pytest.mark.parametrize(
    "crossing_call,steps_kept",
    [(0, 0), (3, 1), (2, 1)],
    ids=["summarize", "second-evaluate", "first-refine"],
)
def test_token_budget_enforced(registry, crossing_call, steps_kept):
    plan = plan_session(["ops"] * 5, max_iterations=5)
    totals = []

    class Totalling:
        def __init__(self):
            self.inner = ScriptedBackend(plan.steps)

        def complete(self, request):
            response = self.inner.complete(request)
            totals.append((totals[-1] if totals else 0) + response.prompt_tokens + response.completion_tokens)
            return response

    run_session(DOC, SessionConfig(max_iterations=5), Totalling(), registry)
    # The smallest budget that the crossing call exceeds and no earlier call does.
    budget = totals[crossing_call] - 1
    assert crossing_call == 0 or totals[crossing_call - 1] <= budget
    recorder = RecordingBackend(ScriptedBackend(plan.steps))
    with pytest.raises(BudgetExceeded) as err:
        run_session(DOC, SessionConfig(max_iterations=5, token_budget=budget), recorder, registry)
    assert str(err.value) == f"token budget of {budget} exceeded ({totals[crossing_call]} tokens used)"
    assert len(err.value.partial_trace) == steps_kept
    stages = ["summarize", "evaluate", "refine", "evaluate"][: crossing_call + 1]
    assert [r.stage for r in recorder.requests] == stages


# --- the session's calls ------------------------------------------------------------


def test_a_scripted_session_lists_its_replies_in_call_order(registry):
    plan = plan_session(["ops", "multi", "stop"], max_iterations=5)
    inner = ScriptedBackend(plan.steps)
    replies = []

    class Keeping:
        def complete(self, request):
            replies.append(inner.complete(request))
            return replies[-1]

    trace = run_session(DOC, SessionConfig(), Keeping(), registry)
    assert trace.calls == replies
    assert [call.text for call in trace.calls] == [step.response for step in plan.steps[: plan.expected_calls]]
    assert all(call.served_from is ServedFrom.SCRIPT for call in trace.calls)


def test_a_rerun_through_the_cache_it_filled_lists_the_same_replies_from_the_cache(registry):
    plan = plan_session(["ops", "multi", "stop"], max_iterations=5)
    cache = ResponseCache()
    first = run_session(DOC, SessionConfig(), CachedBackend(ScriptedBackend(plan.steps), cache), registry)
    again = run_session(DOC, SessionConfig(), ReplayBackend(cache), registry)
    assert [call.served_from for call in first.calls] == [ServedFrom.SCRIPT] * plan.expected_calls
    assert again.calls == [call._replace(served_from=ServedFrom.CACHE) for call in first.calls]


def test_a_passed_list_holds_the_replies_made_before_the_budget_ran_out(registry):
    plan = plan_session(["ops", "stop"], max_iterations=5)
    backend = ScriptedBackend(plan.steps)
    calls = []
    with pytest.raises(BudgetExceeded):
        run_session(DOC, SessionConfig(token_budget=1), backend, registry, calls=calls)
    assert backend.cursor == 1
    assert [(call.text, call.served_from) for call in calls] == [(plan.steps[0].response, ServedFrom.SCRIPT)]


def test_strict_parsing_propagates(registry):
    steps = [
        ScriptStep(response="Initial summary.", match="Please summarize"),
        ScriptStep(response="unstructured rambling", match="Please evaluate"),
    ]
    config = SessionConfig(strict_parsing=True)
    with pytest.raises(ParseError):
        run_session(DOC, config, ScriptedBackend(steps), registry)


def test_exemplars_are_prepended_per_role(registry):
    from summit.types import Exemplar

    config = SessionConfig(
        exemplars=[Exemplar("Example doc.", "Example sum.", explanation="Good work.")]
    )
    plan = plan_session(["stop"], max_iterations=5)
    recorder = RecordingBackend(ScriptedBackend(plan.steps))
    run_session(DOC, config, recorder, registry)
    summarize, evaluate = recorder.requests[0], recorder.requests[1]
    assert "Example doc." in summarize.user
    assert "Good work." not in summarize.user
    assert "Good work." in evaluate.user


@pytest.mark.parametrize("setting", list(Setting))
def test_finished_trace_holds_no_copy_of_the_document(registry, setting):
    sentinel = "quuxsentinel"
    doc = Document(id="sentinel-doc", text=f"{DOC.text} The {sentinel} was seen at the pier.")
    config = SessionConfig(setting=setting, topic_query="pier repairs")
    plan = plan_session(["ops", "multi", "stop"], max_iterations=5)
    trace = run_session(doc, config, ScriptedBackend(plan.steps), registry)
    assert len(trace.steps) == 3
    assert sentinel not in repr(trace)


def test_a_cached_session_keys_every_call_right_and_hashes_each_thread_once(registry, monkeypatch):
    counter = CountingHashlib()
    monkeypatch.setattr(backend_module, "hashlib", counter)
    plan = plan_session(["ops", "multi", "stop"], max_iterations=5)
    cache = ResponseCache()
    inner = CachedBackend(ScriptedBackend(plan.steps), cache)
    requests = []

    class Keeping:
        def complete(self, request):
            requests.append(request)
            return inner.complete(request)

    run_session(DOC, SessionConfig(), Keeping(), registry)
    assert len(requests) == plan.expected_calls
    assert all(cache.get(cache_key_oracle(request)) is not None for request in requests)
    assert counter.started == 2  # the first request of each of the two threads
    evaluations = [r for r in requests if "/evaluate/" in r.request_tag]
    assert [r.parent for r in evaluations] == [None, *evaluations[:-1]]
    assert all(any(part is DOC.text for part in r.messages[-1].parts) for r in evaluations)


# --- randomized loop invariants -----------------------------------------------------


def _check_invariants(plan, trace, recorder, config):
    assert 1 <= len(trace.steps) <= config.max_iterations
    assert len(trace.steps) == plan.expected_steps
    assert trace.stopped_by.value == plan.expected_stop
    assert recorder.inner.cursor == plan.expected_calls
    evaluator_calls = len(recorder.stage("evaluate"))
    summarizer_calls = len(recorder.stage("summarize", "refine"))
    assert evaluator_calls <= config.max_iterations
    assert summarizer_calls <= config.max_iterations
    assert [s.summary.iteration for s in trace.steps] == list(range(len(trace.steps)))
    if trace.stopped_by is StopReason.EVALUATOR_STOP:
        assert STOP in trace.final_feedback.raw
    for step, call in zip(trace.steps[:-1], recorder.stage("refine")):
        assert step.feedback.raw in call.user


@given(
    behaviors=st.lists(
        st.sampled_from(CONTINUE_BEHAVIORS + STOPPING_BEHAVIORS), min_size=1, max_size=6
    ),
    max_iterations=st.integers(min_value=1, max_value=6),
    echo=st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_loop_invariants_property(registry, behaviors, max_iterations, echo):
    plan = plan_session(behaviors, max_iterations, echo_refine=echo)
    config = SessionConfig(max_iterations=max_iterations)
    recorder = RecordingBackend(ScriptedBackend(plan.steps))
    trace = run_session(DOC, config, recorder, registry)
    _check_invariants(plan, trace, recorder, config)


def test_loop_invariants_seeded_sample(registry):
    rng = random.Random(20250811)
    for _ in range(100):
        plan = random_session_plan(rng)
        config = SessionConfig(max_iterations=plan.max_iterations)
        recorder = RecordingBackend(ScriptedBackend(plan.steps))
        trace = run_session(DOC, config, recorder, registry)
        _check_invariants(plan, trace, recorder, config)
