"""Scoring: ROUGE-1/2/L, expected evaluator score, topic similarity, aggregation.

ROUGE is implemented from scratch on a fixed tokenizer (lowercase, split on
runs of non-alphanumeric characters, no stemming or stopword removal), so
scores are exact against the in-repo oracles rather than against any
particular third-party ROUGE build. ROUGE-L's longest common subsequence is
the bit-parallel LCS-length recurrence of Allison & Dix (1986), "A
bit-string longest-common-subsequence algorithm", in the form of Hyyrö
(2004), "Bit-parallel LCS-length computation revisited", over Python ints.

``rouge_n`` and ``rouge_l`` score one pair of strings; ``rouge_n_multi`` and
``rouge_l_multi`` score a token list against several references, and
``topic_similarity`` also takes token lists, so a caller scoring many
candidates tokenizes each text, and counts each reference's n-grams, once.
"""

from __future__ import annotations

import logging
import math
import re
from collections import Counter
from dataclasses import dataclass

from .errors import DegenerateDistribution, EmptyInput, RemoteUnavailable

log = logging.getLogger(__name__)

# Maximal runs of alphanumeric characters; underscore counts as a separator.
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)

_SUM_TOLERANCE = 1e-6


def tokenize(text: str) -> list[str]:
    """Lowercase and split on any maximal run of non-alphanumeric characters."""
    return _TOKEN_RE.findall(text.lower())


def has_tokens(text: str, minimum: int) -> bool:
    """``len(tokenize(text)) >= minimum``, counting tokens only until ``minimum``."""
    if minimum <= 0:
        return True
    for count, _ in enumerate(_TOKEN_RE.finditer(text.lower()), start=1):
        if count == minimum:
            return True
    return False


@dataclass(frozen=True)
class RougeScore:
    precision: float
    recall: float
    f1: float


def _f1(precision: float, recall: float) -> float:
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def ngrams(tokens: list[str], n: int) -> Counter:
    """The n-gram counts of a token list: a reference as ``rouge_n_multi`` takes it."""
    return Counter(zip(*(tokens[i:] for i in range(n))))


def _score(overlap: int, cand_total: int, ref_total: int) -> RougeScore:
    precision = overlap / cand_total if cand_total else 0.0
    recall = overlap / ref_total if ref_total else 0.0
    return RougeScore(precision, recall, _f1(precision, recall))


def rouge_n(candidate: str, reference: str, n: int) -> RougeScore:
    """Clipped n-gram overlap between candidate and reference."""
    return rouge_n_multi(tokenize(candidate), [ngrams(tokenize(reference), n)], n)


def lcs_length(a: list[str], b: list[str]) -> int:
    """Longest common subsequence length, bit-parallel (Allison & Dix 1986;
    Hyyrö 2004, "Bit-parallel LCS-length computation revisited").

    Bit j of ``v`` stands for token j of the shorter side. Each token of the
    longer side updates all of ``v`` at once with a few operations on
    len(shorter)-bit ints, so a pair costs O(n * ceil(m / w)) machine-word
    operations in place of the O(n * m) cells of the two-row dynamic
    program; afterwards the zero bits of ``v`` number the LCS.
    """
    if len(b) > len(a):
        a, b = b, a
    masks: dict[str, int] = {}
    for j, token in enumerate(b):
        masks[token] = masks.get(token, 0) | (1 << j)
    full = (1 << len(b)) - 1
    v = full
    for token in a:
        match = masks.get(token)
        if match:
            u = v & match
            v = ((v + u) | (v - u)) & full
    return len(b) - v.bit_count()


def rouge_l(candidate: str, reference: str) -> RougeScore:
    """LCS-based overlap between candidate and reference token sequences."""
    return rouge_l_multi(tokenize(candidate), [tokenize(reference)])


def rouge_n_multi(candidate: list[str], references: list[Counter], n: int) -> RougeScore:
    """ROUGE-N of a token list against each reference's ``ngrams(tokens, n)``; the max-F1 score."""
    if not references:
        raise EmptyInput("at least one reference is required")
    if n < 1:
        raise ValueError("n must be >= 1")
    cand = ngrams(candidate, n)
    cand_total = sum(cand.values())
    scores = []
    for ref in references:
        overlap = sum(min(count, ref[gram]) for gram, count in cand.items() if gram in ref)
        scores.append(_score(overlap, cand_total, sum(ref.values())))
    return max(scores, key=lambda s: s.f1)


def rouge_l_multi(candidate: list[str], references: list[list[str]]) -> RougeScore:
    """ROUGE-L of a token list against each reference token list; the max-F1 score."""
    if not references:
        raise EmptyInput("at least one reference is required")
    return max(
        (_score(lcs_length(candidate, ref), len(candidate), len(ref)) for ref in references),
        key=lambda s: s.f1,
    )


def expected_score(distribution: dict[int, float]) -> float:
    """Expected value of a 1..5 score distribution; renormalizes if needed."""
    if any(k not in (1, 2, 3, 4, 5) for k in distribution):
        raise ValueError("score keys must be in 1..5")
    if any(v < 0 for v in distribution.values()):
        raise ValueError("probabilities must be non-negative")
    total = sum(distribution.values())
    if total == 0:
        raise DegenerateDistribution("distribution has zero total mass")
    if not math.isclose(total, 1.0, abs_tol=_SUM_TOLERANCE):
        log.debug("renormalizing score distribution with mass %.6f", total)
        distribution = {k: v / total for k, v in distribution.items()}
    # A mass within the tolerance of 1 is not renormalized, and could carry
    # the expectation just past either end of the scale.
    return min(5.0, max(1.0, sum(score * p for score, p in distribution.items())))


def topic_similarity(query: str | list[str], summary: str | list[str]) -> float:
    """Cosine similarity of term-frequency vectors over the shared tokenizer.

    Either side may be given as its token list instead of its text.
    """
    q = Counter(tokenize(query) if isinstance(query, str) else query)
    s = Counter(tokenize(summary) if isinstance(summary, str) else summary)
    if not q or not s:
        return 0.0
    dot = sum(count * s[token] for token, count in q.items())
    norm_q = math.sqrt(sum(c * c for c in q.values()))
    norm_s = math.sqrt(sum(c * c for c in s.values()))
    return dot / (norm_q * norm_s)


@dataclass
class CorpusStats:
    """Per-document values of one metric plus their arithmetic mean."""

    name: str
    mean: float
    count: int
    values: list[float]

    def to_dict(self) -> dict:
        return {"name": self.name, "mean": self.mean, "count": self.count, "values": self.values}


def aggregate(values: list[float], name: str) -> CorpusStats:
    if not values:
        raise EmptyInput(f"no values to aggregate for {name!r}")
    return CorpusStats(name=name, mean=sum(values) / len(values), count=len(values), values=list(values))


class FaithfulnessScorer:
    """Client for a remote consistency classifier.

    Wire shape: POST ``{"document": ..., "summary": ...}`` as JSON to the
    configured endpoint; the response body is either a bare JSON number or
    ``{"score": <number>}``, a real in [0, 1].
    """

    def __init__(self, endpoint: str, timeout: float = 30.0, session=None):
        self.endpoint = endpoint
        self.timeout = timeout
        if session is None:
            import requests as session  # here, so that offline runs do not pay for importing it
        self._session = session

    def score(self, document: str, summary: str) -> float:
        try:
            resp = self._session.post(
                self.endpoint,
                json={"document": document, "summary": summary},
                timeout=self.timeout,
            )
        except Exception as exc:
            raise RemoteUnavailable(f"faithfulness endpoint unreachable: {exc}") from exc
        if resp.status_code != 200:
            raise RemoteUnavailable(f"faithfulness endpoint returned HTTP {resp.status_code}")
        try:
            body = resp.json()
        except ValueError as exc:
            raise RemoteUnavailable(f"faithfulness endpoint returned non-JSON body: {exc}") from exc
        value = body.get("score") if isinstance(body, dict) else body
        if not isinstance(value, (int, float)) or not 0.0 <= float(value) <= 1.0:
            raise RemoteUnavailable(f"faithfulness score out of range or missing: {value!r}")
        return float(value)
