"""The iterative refinement state machine.

One session alternates summarize -> evaluate -> refine over a completion
backend until the evaluator asks to stop, its feedback is keep-only, or the
iteration budget runs out. ``run_session`` keeps the summarizer's and the
evaluator's full chat histories (system prompt plus all prior turns) apart,
so refine prompts never re-embed the document and re-evaluations see the
revision history. Every evaluate prompt embeds the document again.
"""

from __future__ import annotations

from .backend import ChatMessage, CompletionBackend, CompletionRequest, Role
from .errors import BudgetExceeded
from .knowledge import NaiveExtractor, TripletExtractor, extract_triplets, render_triplets, select_for_prompt
from .metrics import has_tokens

# Not called here. The name stays because perfbench/tracer.py replaces
# summit.session.tokenize to count calls, and fails to install without it.
from .metrics import tokenize  # noqa: F401
from .parsing import parse_feedback
from .prompting import (
    EVALUATOR_FORMAT_INSTRUCTIONS,
    SUMMARIZER_FORMAT_INSTRUCTIONS,
    PromptRegistry,
    PromptRole,
    Stage,
    format_exemplars,
)
from .types import (
    CompletionResponse,
    Document,
    EditKind,
    Feedback,
    SessionConfig,
    SessionTrace,
    Setting,
    StopReason,
    Summary,
    SummaryOrigin,
    TraceStep,
)


def should_stop(feedback: Feedback, iteration: int, config: SessionConfig) -> StopReason | None:
    """Decide whether the loop halts after ``iteration`` evaluator calls.

    None means continue. Precedence: the evaluator's explicit stop marker,
    then keep-only feedback, then the iteration budget.
    """
    if feedback.stop_requested:
        return StopReason.EVALUATOR_STOP
    if len(feedback.edit_ops) == 1 and feedback.edit_ops[0].kind is EditKind.KEEP:
        return StopReason.KEEP_ONLY
    if iteration >= config.max_iterations:
        return StopReason.MAX_ITERATIONS
    return None


def _base_context(doc: Document, config: SessionConfig, extractor: TripletExtractor | None) -> dict[str, str]:
    context = {"document": doc.text, "stop_marker": config.stop_marker}
    if config.setting is Setting.CONTROL:
        context["topic"] = config.topic_query or ""
    if config.setting is Setting.FAITHFULNESS:
        triplets = extract_triplets(extractor or NaiveExtractor(), doc.text)
        context["triplets"] = render_triplets(select_for_prompt(triplets))
    return context


def _synthetic_stop_feedback(config: SessionConfig) -> Feedback:
    """A stop with no scores: lenient parsing gives the uniform fallback."""
    raw = (
        f"Document is below the minimum of {config.min_document_tokens} tokens; "
        f"the single-pass summary is accepted as-is. {config.stop_marker}"
    )
    return parse_feedback(raw, config.stop_marker)


def run_session(
    doc: Document,
    config: SessionConfig,
    backend: CompletionBackend,
    prompts: PromptRegistry,
    extractor: TripletExtractor | None = None,
    calls: list[CompletionResponse] | None = None,
) -> SessionTrace:
    """Run one full refinement session and return its trace.

    Each backend reply is appended to ``calls`` in call order; a list the
    caller passes stays readable when the session raises. A ``config`` value
    out of range is a ConfigError before any call."""
    config.check()
    if calls is None:
        calls = []
    tokens = 0
    base = _base_context(doc, config, extractor)
    steps: list[TraceStep] = []
    instructions = {
        PromptRole.SUMMARIZER: SUMMARIZER_FORMAT_INSTRUCTIONS,
        PromptRole.EVALUATOR: EVALUATOR_FORMAT_INSTRUCTIONS,
    }
    contexts = {
        role: {**base, "format_instructions": text, "exemplars": format_exemplars(config.exemplars, role)}
        for role, text in instructions.items()
    }
    histories: dict[PromptRole, list[ChatMessage]] = {role: [] for role in instructions}
    parents: dict[PromptRole, CompletionRequest | None] = dict.fromkeys(instructions)

    def post(role: PromptRole, stage: Stage, iteration: int, **slots: str) -> str:
        """Make one backend call in ``role``'s history, then stop the session if it crossed the token budget."""
        nonlocal tokens
        rendered = prompts.render(role, config.setting, stage, {**contexts[role], **slots})
        messages = histories[role]
        if not messages:
            messages.append(ChatMessage(Role.SYSTEM, rendered.system))
        messages.append(ChatMessage(Role.USER, rendered.user, rendered.user_parts))
        request = CompletionRequest(
            model_id=config.model_id,
            messages=tuple(messages),
            temperature=config.temperature,
            max_output_tokens=config.max_output_tokens,
            request_tag=f"{doc.id}/{stage.value}/{iteration}",
            parent=parents[role],
        )
        response = backend.complete(request)
        parents[role] = request
        messages.append(ChatMessage(Role.ASSISTANT, response.text))
        calls.append(response)
        tokens += response.prompt_tokens + response.completion_tokens
        if config.token_budget is not None and tokens > config.token_budget:
            raise BudgetExceeded(
                f"token budget of {config.token_budget} exceeded ({tokens} tokens used)",
                partial_trace=list(steps),
            )
        return response.text

    draft = Summary(post(PromptRole.SUMMARIZER, Stage.SUMMARIZE, 0), 0, SummaryOrigin.INITIAL)
    if not has_tokens(doc.text, config.min_document_tokens):
        steps.append(TraceStep(draft, _synthetic_stop_feedback(config)))
        return SessionTrace(doc.id, steps, StopReason.EVALUATOR_STOP, calls)

    stopped_by = StopReason.MAX_ITERATIONS
    for iteration in range(1, config.max_iterations + 1):
        raw = post(PromptRole.EVALUATOR, Stage.EVALUATE, iteration, summary=draft.text)
        feedback = parse_feedback(raw, config.stop_marker, strict=config.strict_parsing)
        steps.append(TraceStep(draft, feedback))
        reason = should_stop(feedback, iteration, config)
        if reason is not None:
            stopped_by = reason
            break
        text = post(PromptRole.SUMMARIZER, Stage.REFINE, iteration, suggestions=feedback.raw)
        origin = SummaryOrigin.UNCHANGED if text == draft.text else SummaryOrigin.REFINED
        draft = Summary(text, iteration, origin)

    return SessionTrace(doc.id, steps, stopped_by, calls)
