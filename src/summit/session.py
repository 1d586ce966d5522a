"""The iterative refinement state machine.

One session alternates summarize -> evaluate -> refine over a completion
backend until the evaluator asks to stop, its feedback is keep-only, or the
iteration budget runs out. The summarizer and evaluator each hold their own
full chat history (system prompt plus all prior turns), so refine prompts
never re-embed the document and re-evaluations see the revision history.
Every evaluate prompt embeds the document again.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    Usage,
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


@dataclass
class ChatThread:
    """Accumulated conversation state for one role within one session."""

    role: PromptRole
    config: SessionConfig
    context: dict[str, str]
    usage: Usage
    document_id: str = ""
    messages: list[ChatMessage] = field(default_factory=list)
    last_summary: Summary | None = None

    def post(
        self,
        stage: Stage,
        extra: dict[str, str],
        iteration: int,
        prompts: PromptRegistry,
        backend: CompletionBackend,
    ) -> str:
        rendered = prompts.render(self.role, self.config.setting, stage, {**self.context, **extra})
        if not self.messages:
            self.messages.append(ChatMessage(Role.SYSTEM, rendered.system))
        self.messages.append(ChatMessage(Role.USER, rendered.user))
        request = CompletionRequest(
            model_id=self.config.model_id,
            messages=tuple(self.messages),
            temperature=self.config.temperature,
            max_output_tokens=self.config.max_output_tokens,
            request_tag=f"{self.document_id}/{stage.value}/{iteration}",
        )
        response = backend.complete(request)
        self.messages.append(ChatMessage(Role.ASSISTANT, response.text))
        self.usage.prompt_tokens += response.usage.prompt_tokens
        self.usage.completion_tokens += response.usage.completion_tokens
        self.usage.calls[response.served_from.value] += 1
        return response.text


def step_refine(
    history: ChatThread,
    feedback: Feedback,
    prompts: PromptRegistry,
    backend: CompletionBackend,
) -> Summary:
    """Ask the summarizer to revise, threading the raw feedback verbatim."""
    previous = history.last_summary
    if previous is None:
        raise ValueError("refine requires a previous summary in the thread")
    iteration = previous.iteration + 1
    text = history.post(Stage.REFINE, {"suggestions": feedback.raw}, iteration, prompts, backend)
    origin = SummaryOrigin.UNCHANGED if text == previous.text else SummaryOrigin.REFINED
    summary = Summary(text=text, iteration=iteration, origin=origin)
    history.last_summary = summary
    return summary


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
    usage: Usage | None = None,
) -> SessionTrace:
    """Run one full refinement session and return its trace.

    Tokens and calls are tallied into ``usage`` when the caller passes one,
    so they stay readable when the session raises."""
    if usage is None:
        usage = Usage()
    base = _base_context(doc, config, extractor)
    summarizer = ChatThread(
        role=PromptRole.SUMMARIZER,
        config=config,
        context={
            **base,
            "format_instructions": SUMMARIZER_FORMAT_INSTRUCTIONS,
            "exemplars": format_exemplars(config.exemplars, PromptRole.SUMMARIZER),
        },
        usage=usage,
        document_id=doc.id,
    )
    evaluator = ChatThread(
        role=PromptRole.EVALUATOR,
        config=config,
        context={
            **base,
            "format_instructions": EVALUATOR_FORMAT_INSTRUCTIONS,
            "exemplars": format_exemplars(config.exemplars, PromptRole.EVALUATOR),
        },
        usage=usage,
        document_id=doc.id,
    )

    steps: list[TraceStep] = []

    def check_budget() -> None:
        if config.token_budget is not None and usage.total_tokens > config.token_budget:
            raise BudgetExceeded(
                f"token budget of {config.token_budget} exceeded "
                f"({usage.total_tokens} tokens used)",
                partial_trace=list(steps),
            )

    text = summarizer.post(Stage.SUMMARIZE, {}, 0, prompts, backend)
    check_budget()
    summary = Summary(text=text, iteration=0, origin=SummaryOrigin.INITIAL)
    summarizer.last_summary = summary

    if not has_tokens(doc.text, config.min_document_tokens):
        steps.append(TraceStep(summary=summary, feedback=_synthetic_stop_feedback(config)))
        return SessionTrace(doc.id, steps, StopReason.EVALUATOR_STOP, usage)

    stopped_by = StopReason.MAX_ITERATIONS
    for iteration in range(1, config.max_iterations + 1):
        raw = evaluator.post(Stage.EVALUATE, {"summary": summary.text}, iteration, prompts, backend)
        check_budget()
        feedback = parse_feedback(raw, config.stop_marker, strict=config.strict_parsing)
        steps.append(TraceStep(summary=summary, feedback=feedback))
        reason = should_stop(feedback, iteration, config)
        if reason is not None:
            stopped_by = reason
            break
        summary = step_refine(summarizer, feedback, prompts, backend)
        check_budget()

    return SessionTrace(doc.id, steps, stopped_by, usage)
