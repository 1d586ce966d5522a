"""Scoring: ROUGE-1/2/L, expected evaluator score, topic similarity, aggregation.

ROUGE is implemented from scratch on a fixed tokenizer (lowercase, split on
runs of non-alphanumeric characters, no stemming or stopword removal), so
scores are exact against the in-repo oracles rather than against any
particular third-party ROUGE build.
"""

from __future__ import annotations

import logging
import math
import re
from collections import Counter
from dataclasses import dataclass

import requests

from .errors import DegenerateDistribution, EmptyInput, RemoteUnavailable

log = logging.getLogger(__name__)

# Maximal runs of alphanumeric characters; underscore counts as a separator.
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)

_SUM_TOLERANCE = 1e-6


def tokenize(text: str) -> list[str]:
    """Lowercase and split on any maximal run of non-alphanumeric characters."""
    return _TOKEN_RE.findall(text.lower())


@dataclass(frozen=True)
class RougeScore:
    precision: float
    recall: float
    f1: float


def _f1(precision: float, recall: float) -> float:
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def _ngrams(tokens: list[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def rouge_n(candidate: str, reference: str, n: int) -> RougeScore:
    """Clipped n-gram overlap between candidate and reference."""
    if n < 1:
        raise ValueError("n must be >= 1")
    cand = _ngrams(tokenize(candidate), n)
    ref = _ngrams(tokenize(reference), n)
    overlap = sum((cand & ref).values())
    cand_total = sum(cand.values())
    ref_total = sum(ref.values())
    precision = overlap / cand_total if cand_total else 0.0
    recall = overlap / ref_total if ref_total else 0.0
    return RougeScore(precision, recall, _f1(precision, recall))


def lcs_length(a: list[str], b: list[str]) -> int:
    """Longest common subsequence length via two-row dynamic programming."""
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


def rouge_l(candidate: str, reference: str) -> RougeScore:
    """LCS-based overlap between candidate and reference token sequences."""
    cand = tokenize(candidate)
    ref = tokenize(reference)
    length = lcs_length(cand, ref)
    precision = length / len(cand) if cand else 0.0
    recall = length / len(ref) if ref else 0.0
    return RougeScore(precision, recall, _f1(precision, recall))


def rouge_n_multi(candidate: str, references: list[str], n: int) -> RougeScore:
    """Score against each reference, keep the max-F1 score."""
    if not references:
        raise EmptyInput("at least one reference is required")
    return max((rouge_n(candidate, ref, n) for ref in references), key=lambda s: s.f1)


def rouge_l_multi(candidate: str, references: list[str]) -> RougeScore:
    if not references:
        raise EmptyInput("at least one reference is required")
    return max((rouge_l(candidate, ref) for ref in references), key=lambda s: s.f1)


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
    return sum(score * p for score, p in distribution.items())


def topic_similarity(query: str, summary: str) -> float:
    """Cosine similarity of term-frequency vectors over the shared tokenizer."""
    q = Counter(tokenize(query))
    s = Counter(tokenize(summary))
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
        self._session = session or requests

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
