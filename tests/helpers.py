"""Shared test machinery: brute-force oracles, scripted-session generators,
and fixture corpus builders."""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass
from pathlib import Path

from summit.backend import SCRIPT_SCHEMA, CompletionBackend, CompletionRequest, CompletionResponse, ScriptStep
from summit.corpus import DatasetRecord, write_corpus
from summit.errors import MissingSlot
from summit.knowledge import _AUX, _PARTICLES, NAIVE_CONFIDENCE, Triplet, _looks_like_verb
from summit.prompting import EVALUATOR_FORMAT_INSTRUCTIONS, SUMMARIZER_FORMAT_INSTRUCTIONS
from summit.types import EditKind

# --- brute-force ROUGE oracles ----------------------------------------------


def f1_oracle(precision: float, recall: float) -> float:
    return 2 * precision * recall / (precision + recall) if precision + recall else 0.0


def rouge_n_oracle(cand: list[str], ref: list[str], n: int) -> tuple[float, float, float]:
    """Clipped overlap by explicit one-for-one n-gram pairing."""
    cand_grams = [tuple(cand[i : i + n]) for i in range(len(cand) - n + 1)]
    ref_grams = [tuple(ref[i : i + n]) for i in range(len(ref) - n + 1)]
    remaining = list(ref_grams)
    overlap = 0
    for gram in cand_grams:
        if gram in remaining:
            remaining.remove(gram)
            overlap += 1
    precision = overlap / len(cand_grams) if cand_grams else 0.0
    recall = overlap / len(ref_grams) if ref_grams else 0.0
    return precision, recall, f1_oracle(precision, recall)


def _is_subsequence(needle: list[str], haystack: list[str]) -> bool:
    it = iter(haystack)
    return all(token in it for token in needle)


def lcs_oracle(a: list[str], b: list[str]) -> int:
    """Maximize over every subsequence of the shorter side (lengths <= ~12)."""
    short, long_ = (a, b) if len(a) <= len(b) else (b, a)
    best = 0
    for mask in range(1 << len(short)):
        sub = [short[i] for i in range(len(short)) if (mask >> i) & 1]
        if len(sub) > best and _is_subsequence(sub, long_):
            best = len(sub)
    return best


def lcs_dp_oracle(a: list[str], b: list[str]) -> int:
    """LCS length by the two-row dynamic program, for sequences of any length."""
    if not a or not b:
        return 0
    if len(b) > len(a):
        a, b = b, a
    prev = [0] * (len(b) + 1)
    for x in a:
        curr = [0]
        for j, y in enumerate(b, start=1):
            if x == y:
                curr.append(prev[j - 1] + 1)
            else:
                curr.append(max(prev[j], curr[j - 1]))
        prev = curr
    return prev[-1]


# --- cache-key oracle ---------------------------------------------------------


def cache_key_oracle(request: CompletionRequest) -> str:
    """SHA-256 of the whole request serialized in one ``json.dumps`` call."""
    canonical = json.dumps(
        {
            "model": request.model_id,
            "temperature": float(request.temperature),
            "max_output_tokens": request.max_output_tokens,
            "messages": [[m.role.value, m.content] for m in request.messages],
        },
        sort_keys=True,
        ensure_ascii=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class CountingHashlib:
    """Stands in for ``hashlib`` and counts the bytes given to ``sha256``
    objects it made; as under the benchmark's tracer, their ``copy()`` is an
    uncounted real hash object."""

    def __init__(self):
        self.started = 0
        self.hashed_bytes = 0

    def sha256(self, data: bytes = b""):
        self.started += 1
        return _CountingHash(self, data)


class _CountingHash:
    def __init__(self, counter: CountingHashlib, data: bytes):
        self._counter = counter
        self._real = hashlib.sha256()
        self.update(data)

    def update(self, data: bytes) -> None:
        self._counter.hashed_bytes += len(data)
        self._real.update(data)

    def __getattr__(self, name):
        return getattr(self._real, name)


def fingerprint_oracle(directory) -> str:
    """``hashlib.sha256``, in one call, over the byte layout that
    ``PromptRegistry.fingerprint`` documents, read straight from the
    template directory's ``manifest.json`` and files."""
    manifest = json.loads(directory.joinpath("manifest.json").read_text(encoding="utf-8"))

    def text(filename: str) -> str:
        return directory.joinpath(filename).read_text(encoding="utf-8").rstrip("\n")

    parts = [f"system/{role}\x00{text(name)}\x00" for role, name in sorted(manifest["system"].items())]
    users = sorted(manifest["user"].items(), key=lambda item: item[0].split("/"))
    parts += [f"{key}\x00{text(name)}\x00" for key, name in users]
    parts += [SUMMARIZER_FORMAT_INSTRUCTIONS, EVALUATOR_FORMAT_INSTRUCTIONS]
    return hashlib.sha256("".join(parts).encode("utf-8")).hexdigest()


# --- template oracle ------------------------------------------------------------

_SLOT_RE = re.compile(r"\{\{(\w+)\}\}")


def render_oracle(template: str, context: dict[str, str]) -> str:
    """The first renderer: check every slot is set, then one ``re.sub`` pass."""
    for slot in sorted(set(_SLOT_RE.findall(template))):
        if slot not in context:
            raise MissingSlot(slot)
    return _SLOT_RE.sub(lambda m: context[m.group(1)], template)


# --- naive triplet oracle -----------------------------------------------------

_SENTENCE_SPLIT_RE = re.compile(r"(?<=[.!?])\s+|\n+")


def naive_extract_oracle(text: str) -> list[Triplet]:
    """``NaiveExtractor.extract`` as it was written first: a look-behind
    sentence split, then a strip and a whitespace split of each sentence."""
    triplets = []
    for sentence in _SENTENCE_SPLIT_RE.split(text):
        triplet = _oracle_sentence(sentence.strip())
        if triplet is not None:
            triplets.append(triplet)
    return triplets


def _oracle_sentence(sentence: str) -> Triplet | None:
    words = [w.strip(".,;:!?\"'()[]") for w in sentence.split()]
    words = [w for w in words if w]
    if len(words) < 3:
        return None
    verb_start = next((i for i in range(1, len(words)) if _looks_like_verb(words[i])), None)
    if verb_start is None:
        return None
    verb_end = verb_start + 1
    while verb_end < len(words) and words[verb_end].lower() in _AUX:
        verb_end += 1
    # One more non-aux verb may close the group ("has been linked").
    if verb_end > verb_start + 1 and verb_end < len(words) and _looks_like_verb(words[verb_end]):
        verb_end += 1
    while verb_end < len(words) - 1 and words[verb_end].lower() in _PARTICLES:
        verb_end += 1
    subject = " ".join(words[:verb_start])
    relation = " ".join(words[verb_start:verb_end])
    obj = " ".join(words[verb_end:])
    if not (subject and relation and obj):
        return None
    return Triplet(subject, relation, obj, confidence=NAIVE_CONFIDENCE)


# --- scripted session generation ---------------------------------------------

STOP = "<STOP>"

#: evaluator behavior -> (raw text template, has ops that continue the loop)
EVAL_BEHAVIORS = {
    "ops": "Scores: 1:0.1 2:0.2 3:0.4 4:0.2 5:0.1 Rephrase the information of item {i} in the summary.",
    "multi": "Scores: 1:0.0 2:0.1 3:0.3 4:0.4 5:0.2 1. Add the information of fact {i}. 2. Shorten the summary.",
    "prose": "The revised summary is clear, concise, and covers the key points.",
    "keep": "Scores: 1:0.0 2:0.0 3:0.1 4:0.3 5:0.6 Do nothing.",
    "keep_unchanged": "Scores: 1:0.0 2:0.0 3:0.1 4:0.3 5:0.6 Keep the summary unchanged.",
    "stop": "Scores: 1:0.0 2:0.0 3:0.0 4:0.2 5:0.8 Do nothing. " + STOP,
    "stop_with_ops": "Scores: 1:0.0 2:0.1 3:0.2 4:0.4 5:0.3 Shorten the summary. " + STOP,
}

CONTINUE_BEHAVIORS = ("ops", "multi", "prose")
STOPPING_BEHAVIORS = ("keep", "keep_unchanged", "stop", "stop_with_ops")


@dataclass
class PlannedSession:
    """A scripted session plus its independently derived expectations."""

    steps: list[ScriptStep]
    behaviors: list[str]
    max_iterations: int
    expected_steps: int
    expected_stop: str  # StopReason value
    expected_calls: int


def plan_session(behaviors: list[str], max_iterations: int, echo_refine: bool = False) -> PlannedSession:
    """Build a script and hand-derive the loop outcome from the stop rules.

    The derivation below is the test oracle: explicit stop marker beats
    keep-only feedback beats the iteration budget.
    """
    steps = [ScriptStep(response="Initial summary.", match="Please summarize")]
    expected_steps = 0
    expected_stop = "max_iterations"
    calls = 1
    for k in range(1, max_iterations + 1):
        behavior = behaviors[(k - 1) % len(behaviors)]
        steps.append(ScriptStep(response=EVAL_BEHAVIORS[behavior].format(i=k), match="Please evaluate"))
        calls += 1
        expected_steps = k
        if behavior in ("stop", "stop_with_ops"):
            expected_stop = "evaluator_stop"
            break
        if behavior in ("keep", "keep_unchanged"):
            expected_stop = "keep_only"
            break
        if k == max_iterations:
            expected_stop = "max_iterations"
            break
        refine_text = "Initial summary." if echo_refine else f"Summary revision {k}."
        steps.append(ScriptStep(response=refine_text, match="Revise the summary"))
        calls += 1
    return PlannedSession(
        steps=steps,
        behaviors=behaviors,
        max_iterations=max_iterations,
        expected_steps=expected_steps,
        expected_stop=expected_stop,
        expected_calls=calls,
    )


def random_session_plan(rng: random.Random) -> PlannedSession:
    max_iterations = rng.randint(1, 6)
    behaviors = []
    for _ in range(max_iterations):
        if rng.random() < 0.3:
            behaviors.append(rng.choice(STOPPING_BEHAVIORS))
        else:
            behaviors.append(rng.choice(CONTINUE_BEHAVIORS))
    return plan_session(behaviors, max_iterations, echo_refine=rng.random() < 0.1)


@dataclass(frozen=True)
class RecordedRequest:
    """One request a session sent: its stage (from the request tag,
    ``document_id/stage/iteration``) and its last user message."""

    stage: str
    user: str


class RecordingBackend:
    """Wraps a backend and keeps every request sent through it, in order."""

    def __init__(self, inner: CompletionBackend):
        self.inner = inner
        self.requests: list[RecordedRequest] = []

    def complete(self, request: CompletionRequest) -> CompletionResponse:
        stage = request.request_tag.rsplit("/", 2)[1]
        self.requests.append(RecordedRequest(stage, request.last_user_content))
        return self.inner.complete(request)

    def stage(self, *stages: str) -> list[RecordedRequest]:
        """The recorded requests of the given stages."""
        return [r for r in self.requests if r.stage in stages]


QUALITY_SCRIPT = [
    {"match": "Please summarize", "response": "Initial summary of the document."},
    {
        "match": "Please evaluate",
        "response": "Scores: 1:0.0 2:0.1 3:0.4 4:0.4 5:0.1 Rephrase the information of the opening in the summary.",
    },
    {"match": "Revise the summary", "response": "Refined summary of the document."},
    {
        "match": "Please evaluate",
        "response": "Scores: 1:0.0 2:0.0 3:0.1 4:0.3 5:0.6 Do nothing. " + STOP,
    },
]


def write_script(path: Path, steps: list[dict]) -> Path:
    path.write_text(
        json.dumps({"schema": SCRIPT_SCHEMA, "version": 1, "steps": steps}) + "\n",
        encoding="utf-8",
    )
    return path


# --- fixture corpora ----------------------------------------------------------

_FILLERS = (
    "market", "council", "report", "coastal", "project", "village", "record",
    "service", "winter", "garden", "museum", "harbor", "signal", "bridge",
)


def _text_of(word_count: int, rng: random.Random) -> str:
    words = [rng.choice(_FILLERS) for _ in range(word_count)]
    sentences = []
    for start in range(0, len(words), 12):
        chunk = words[start : start + 12]
        sentences.append(" ".join(chunk).capitalize() + ".")
    return " ".join(sentences)


def make_records(
    n: int,
    seed: int = 7,
    doc_words: int = 40,
    summary_words: int = 12,
    topics: bool = False,
) -> list[DatasetRecord]:
    rng = random.Random(seed)
    records = []
    for i in range(n):
        summaries = [_text_of(summary_words, rng)]
        record_topics: tuple[str, ...] = ()
        if topics:
            summaries.append(_text_of(summary_words, rng))
            record_topics = (f"topic alpha {i}", f"topic beta {i}")
        records.append(
            DatasetRecord(
                id=f"doc{i:04d}",
                document=_text_of(doc_words, rng),
                summaries=tuple(summaries),
                topics=record_topics,
            )
        )
    return records


def make_corpus_file(path: Path, n: int, **kwargs) -> list[DatasetRecord]:
    records = make_records(n, **kwargs)
    write_corpus(records, path)
    return records


def make_length_profiled_records(
    n: int, mean_doc_words: float, mean_summary_words: float, seed: int = 11
) -> list[DatasetRecord]:
    """Records whose exact mean token counts hit the requested targets."""
    rng = random.Random(seed)

    def counts(mean: float) -> list[int]:
        base = int(mean)
        extra = round((mean - base) * n)
        values = [base + 1] * extra + [base] * (n - extra)
        rng.shuffle(values)
        return values

    doc_counts = counts(mean_doc_words)
    sum_counts = counts(mean_summary_words)
    return [
        DatasetRecord(
            id=f"doc{i:04d}",
            document=_text_of(doc_counts[i], rng),
            summaries=(_text_of(sum_counts[i], rng),),
        )
        for i in range(n)
    ]


# --- random edit ops -----------------------------------------------------------

_TARGET_WORDS = (
    "the transfer fee", "the stadium plans", "his youth career", "the fifth place",
    "her latest album", "the storm damage", "the quarterly result", "the long route",
)


def random_edit_op(rng: random.Random):
    from summit.types import EditOp

    kind = rng.choice(list(EditKind))
    if kind in (EditKind.SIMPLIFY, EditKind.KEEP):
        return EditOp(kind)
    base = rng.choice(_TARGET_WORDS)
    if rng.random() < 0.4:
        base = f"{base} {rng.randint(0, 999)}"
    return EditOp(kind, base)
