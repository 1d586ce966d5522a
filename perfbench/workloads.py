"""Workload definitions and the seeded input generator.

Every input is derived from ``(workload, seed)``: the corpus, the backend
script and the run manifest. Document and reference lengths vary per record
(from half to one and a half times the stated mean), but the lengths are a
seeded permutation of a fixed ladder, so every seed gives the same total
amount of text and only its content changes. That keeps per-run work, and
hence run-to-run spread, independent of the seed.

Text comes from a Zipf-distributed vocabulary: a head of real function words
(so the naive triplet extractor finds verbs) followed by several thousand
synthetic words. References draw most of their words from their document and
scripted drafts draw from the same Zipf distribution, so ROUGE scores land at
realistic nonzero values.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path

STOP_MARKER = "<STOP>"

# Evaluator behaviours a script can plan, per iteration.
CONTINUE_OPS = "ops"  # parseable scores plus targeted edits; the loop goes on
CONTINUE_PROSE = "prose"  # no score list (uniform fallback); the loop goes on
STOP = "stop"  # explicit stop marker
KEEP = "keep"  # keep-only feedback


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setting: str  # summit Setting value
    corpus_schema: str  # summit CorpusSchema value
    mode: str  # "scripted-fresh-cache", "replay" or "scripted"
    docs: int
    doc_words: int
    ref_words: int
    draft_words: int
    references: int
    plan: tuple[str, ...]  # evaluator behaviour at iterations 1, 2, ...
    max_iterations: int = 5

    @property
    def expected_iterations(self) -> int:
        return len(self.plan)

    @property
    def expected_stop(self) -> str:
        last = self.plan[-1]
        if last == STOP:
            return "evaluator_stop"
        if last == KEEP:
            return "keep_only"
        if len(self.plan) != self.max_iterations:
            raise ValueError(f"{self.name}: a plan that never stops must run every iteration")
        return "max_iterations"

    @property
    def calls_per_doc(self) -> int:
        # One summarize, one evaluate per iteration, one refine between evaluations.
        return 1 + 2 * len(self.plan) - 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="refine-cnndm",
            why="CNN/DM-shaped quality runs of 5 turns behind a fresh cache: long histories, "
            "ROUGE-L on long pairs, cache keys over big requests and cache appends",
            setting="quality",
            corpus_schema="generic",
            mode="scripted-fresh-cache",
            docs=160,
            doc_words=780,
            ref_words=56,
            draft_words=60,
            references=1,
            plan=(CONTINUE_OPS, CONTINUE_OPS, CONTINUE_PROSE, CONTINUE_OPS, CONTINUE_OPS),
        ),
        Workload(
            name="replay-xsum",
            why="XSum-shaped faithfulness runs replayed from a cache built in set-up: cache load, "
            "key and get, naive triplet extraction; little ROUGE-L work",
            setting="faithfulness",
            corpus_schema="generic",
            mode="replay",
            docs=400,
            doc_words=430,
            ref_words=23,
            draft_words=25,
            references=1,
            plan=(CONTINUE_OPS, CONTINUE_OPS, STOP),
        ),
        Workload(
            name="control-newts",
            why="NEWTS-shaped control runs stopping at turn 2 with no cache: per-document fixed "
            "costs (topics, topic similarity, trace writing, stats); the cache does no work",
            setting="control",
            corpus_schema="newts",
            mode="scripted",
            docs=300,
            doc_words=300,
            ref_words=50,
            draft_words=50,
            references=2,
            plan=(CONTINUE_OPS, KEEP),
        ),
    )
}

#: Allowed relative miss between a stated mean length and the generated one.
SHAPE_TOLERANCE = 0.05

_FUNCTION_WORDS = (
    "the of and to a in is was for on that with said by has as at it from he "
    "his be have are were had its an they their who been will which after "
    "would more new also this but not year when could first two over into "
    "can told about last may up out she her them people than other all some"
).split()
_ONSETS = "b c d f g h j k l m n p r s t v w z br st tr sh ch".split()
_NUCLEI = "a e i o u a e i o ea".split()
_CODAS = ["", "", "", "", "n", "r", "s", "l", "m", "t", "nd", "st"]
_SUFFIXES = ("s", "ed", "ing", "er", "ion")

VOCABULARY_SIZE = 6000
ZIPF_EXPONENT = 1.07
_VOCABULARY_SEED = 20230523


def vocabulary() -> list[str]:
    """Function words then synthetic words, in Zipf rank order (fixed across seeds)."""
    rng = random.Random(_VOCABULARY_SEED)
    words = list(_FUNCTION_WORDS)
    seen = set(words)
    while len(words) < VOCABULARY_SIZE:
        word = "".join(
            rng.choice(_ONSETS) + rng.choice(_NUCLEI) + rng.choice(_CODAS)
            for _ in range(rng.choice((1, 2, 2, 2, 3)))
        )
        if rng.random() < 0.2:
            word += rng.choice(_SUFFIXES)
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


class TextSource:
    """Seeded Zipf word source plus sentence assembly."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.words = vocabulary()
        self.cum_weights = list(accumulate(1.0 / rank**ZIPF_EXPONENT for rank in range(1, len(self.words) + 1)))

    def zipf_words(self, count: int) -> list[str]:
        return self.rng.choices(self.words, cum_weights=self.cum_weights, k=count)

    def sentences(self, words: list[str]) -> str:
        """Join words into capitalised, full-stopped sentences of 6-22 words."""
        out = []
        i = 0
        while i < len(words):
            length = self.rng.randint(6, 22)
            chunk = words[i : i + length]
            i += length
            chunk[0] = chunk[0].capitalize()
            out.append(" ".join(chunk) + ".")
        return " ".join(out)

    def ladder(self, mean: int, n: int) -> list[int]:
        """``n`` lengths from 0.5x to 1.5x ``mean`` whose mean is ``mean``, shuffled."""
        if n == 1:
            return [mean]
        values = [round(mean * (0.5 + i / (n - 1))) for i in range(n)]
        self.rng.shuffle(values)
        return values

    def reference(self, document_words: list[str], length: int) -> str:
        # Mostly words lifted from the document, the rest from the Zipf source.
        words = [
            self.rng.choice(document_words) if self.rng.random() < 0.6 else self.zipf_words(1)[0]
            for _ in range(length)
        ]
        return self.sentences(words)


# Word counts of the edit targets and the relative draft lengths are fixed, so
# token counts per document do not depend on the seed.
_TARGET_WORDS = (3, 4, 2)
_DRAFT_SCALES = (1.0, 0.9, 1.1, 0.95, 1.05, 1.0)


def _feedback(source: TextSource, behaviour: str) -> str:
    first, second, third = (" ".join(source.zipf_words(n)) for n in _TARGET_WORDS)
    if behaviour == CONTINUE_OPS:
        return (
            "Scores: 1:0.05 2:0.15 3:0.4 4:0.3 5:0.1\n"
            f"1. Add the information of {first}.\n"
            f"2. Rephrase the information of {second} in the summary.\n"
            f"3. Remove the information of {third} from the summary.\n"
            "4. Shorten the summary."
        )
    if behaviour == CONTINUE_PROSE:
        return f"The summary covers {first} but misses {second}. Add the information of {third}."
    if behaviour == STOP:
        return f"Scores: 1:0.0 2:0.0 3:0.1 4:0.3 5:0.6\nDo nothing. {STOP_MARKER}"
    if behaviour == KEEP:
        return "Scores: 1:0.0 2:0.0 3:0.1 4:0.4 5:0.5\nKeep the summary unchanged."
    raise ValueError(f"unknown evaluator behaviour {behaviour!r}")


def script_steps(workload: Workload, source: TextSource) -> list[dict]:
    """One session's script; the scripted backend replays it for every document."""

    def draft(iteration: int) -> str:
        length = round(workload.draft_words * _DRAFT_SCALES[iteration])
        return source.sentences(source.zipf_words(length))

    steps = [{"match": "Please summarize", "response": draft(0)}]
    for iteration, behaviour in enumerate(workload.plan, start=1):
        steps.append({"match": "Please evaluate", "response": _feedback(source, behaviour)})
        if iteration < len(workload.plan):
            steps.append({"match": "Revise the summary", "response": draft(iteration)})
    return steps


def corpus_records(workload: Workload, source: TextSource, seed: int, docs: int) -> list[dict]:
    doc_lengths = source.ladder(workload.doc_words, docs)
    ref_lengths = [source.ladder(workload.ref_words, docs) for _ in range(workload.references)]
    records = []
    for i in range(docs):
        words = source.zipf_words(doc_lengths[i])
        summaries = [source.reference(words, lengths[i]) for lengths in ref_lengths]
        topics = []
        if workload.corpus_schema == "newts":
            topics = [
                "The topic is about " + " ".join(source.rng.sample(words, 6)) + "."
                for _ in range(workload.references)
            ]
        records.append(
            {
                "id": f"{workload.name}-{seed}-{i:04d}",
                "document": source.sentences(words),
                "summaries": summaries,
                "topics": topics,
            }
        )
    return records


def manifest(workload: Workload, seed: int, docs: int, mode: str, cache: str | None) -> dict:
    """A run manifest for a directory one level below the generated inputs."""
    backend: dict = {"mode": mode}
    if mode == "scripted":
        backend["script"] = "../script.json"
    if cache is not None:
        backend["cache"] = cache
    return {
        "schema": "summit/manifest",
        "name": workload.name,
        "corpus": {"path": "../corpus.jsonl", "schema": workload.corpus_schema},
        "sample": {"n": docs, "seed": seed, "split": "dev"},
        "session": {
            "setting": workload.setting,
            "max_iterations": workload.max_iterations,
            "stop_marker": STOP_MARKER,
        },
        "backend": backend,
        "output_dir": "out",
        "workers": 1,
    }


def repetition_manifest(workload: Workload, seed: int, docs: int) -> dict:
    if workload.mode == "scripted-fresh-cache":
        # A cache inside the fresh repetition directory never exists beforehand.
        return manifest(workload, seed, docs, "scripted", "cache.jsonl")
    if workload.mode == "replay":
        return manifest(workload, seed, docs, "replay", "../replay_cache.jsonl")
    return manifest(workload, seed, docs, "scripted", None)


def write_inputs(workload: Workload, seed: int, docs: int, directory: Path) -> None:
    """Write corpus.jsonl and script.json for one (workload, seed)."""
    source = TextSource(seed)
    records = corpus_records(workload, source, seed, docs)
    steps = script_steps(workload, source)
    with (directory / "corpus.jsonl").open("w", encoding="utf-8") as fh:
        fh.write(json.dumps({"schema": "summit/corpus", "version": 1}) + "\n")
        for record in records:
            fh.write(json.dumps(record) + "\n")
    (directory / "script.json").write_text(
        json.dumps({"schema": "summit/script", "version": 1, "steps": steps}, indent=1),
        encoding="utf-8",
    )
