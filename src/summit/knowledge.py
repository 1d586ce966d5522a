"""Knowledge-triplet extraction for faithfulness-guided summarization.

Two extractors share one interface: a remote client for an annotation
server that does real open information extraction, and a naive rule-based
extractor. The naive one is a deliberately low-recall offline stand-in so
the faithfulness pipeline stays testable without a server; it makes no
claim of parity with a real extractor.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Protocol

from .errors import RemoteUnavailable

log = logging.getLogger(__name__)

NAIVE_CONFIDENCE = 0.5
PROMPT_TRIPLET_LIMIT = 20
DEFAULT_CONNECT_TIMEOUT = 5.0

# Stripped from both ends of each whitespace-separated token.
_WORD_PUNCTUATION = ".,;:!?\"'()[]"
# A token whose last character is one of these ends its sentence.
_SENTENCE_ENDS = ".!?"

# Auxiliaries/copulas that anchor a finite verb group.
_AUX = {
    "is", "are", "was", "were", "be", "been", "being", "am",
    "has", "have", "had", "do", "does", "did",
    "will", "would", "shall", "should", "can", "could", "may", "might", "must",
}
# Prepositions/particles absorbed into the relation when they trail the verb group.
_PARTICLES = {
    "of", "to", "with", "for", "from", "at", "by", "into", "on", "in",
    "up", "out", "off", "over", "as", "about",
}


@dataclass(frozen=True)
class Triplet:
    subject: str
    relation: str
    object: str
    confidence: float | None = None

    def __post_init__(self):
        if not (self.subject.strip() and self.relation.strip() and self.object.strip()):
            raise ValueError("triplet fields must be non-empty")
        if self.confidence is not None and not 0.0 <= self.confidence <= 1.0:
            raise ValueError("confidence must be in [0, 1]")


class TripletExtractor(Protocol):
    def extract(self, text: str) -> list[Triplet]: ...


def dedup_triplets(triplets: list[Triplet]) -> list[Triplet]:
    """Drop repeats of (subject, relation, object), keeping first occurrences."""
    seen: set[tuple[str, str, str]] = set()
    out = []
    for t in triplets:
        key = (t.subject, t.relation, t.object)
        if key not in seen:
            seen.add(key)
            out.append(t)
    return out


def extract_triplets(extractor: TripletExtractor, text: str) -> list[Triplet]:
    """Run an extractor over non-empty text and deduplicate the result."""
    if not text.strip():
        raise ValueError("text must be non-empty")
    return dedup_triplets(extractor.extract(text))


def _looks_like_verb(word: str) -> bool:
    lower = word.lower()
    if lower in _AUX:
        return True
    if word[0].isupper():
        # Mid-sentence capitalization reads as a proper noun, not a verb.
        return False
    if lower.endswith("ed") and len(lower) > 3:
        return True
    if lower.endswith("ing") and len(lower) > 4:
        return True
    if lower.endswith("s") and not lower.endswith("ss") and len(lower) > 3:
        return True
    return False


class NaiveExtractor:
    """One triplet per sentence at most: subject before the first finite verb
    group, relation = that verb group plus trailing particles, object = rest.

    The text is read once. Each line (text between ``\n`` characters) is split
    on whitespace into tokens; a sentence ends at the end of a line and after
    each token whose last character is ``.``, ``!`` or ``?``. A sentence's
    words are its tokens stripped of ``.,;:!?"'()[]`` at both ends, those that
    strip to nothing dropped. Every triplet has confidence 0.5."""

    def extract(self, text: str) -> list[Triplet]:
        sentences = []
        for line in text.split("\n"):
            words: list[str] = []
            for token in line.split():
                word = token.strip(_WORD_PUNCTUATION)
                if word:
                    words.append(word)
                if token[-1] in _SENTENCE_ENDS:
                    sentences.append(words)
                    words = []
            sentences.append(words)
        return [t for t in map(self._extract_sentence, sentences) if t is not None]

    def _extract_sentence(self, words: list[str]) -> Triplet | None:
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


class RemoteExtractor:
    """Client for an annotation server that returns open-IE style triples.

    POSTs the raw text (text/plain) and expects the common response shape:
    ``{"sentences": [{"openie": [{"subject", "relation", "object",
    "confidence"?}]}]}``.
    """

    def __init__(self, endpoint: str, timeout: float = DEFAULT_CONNECT_TIMEOUT, session=None):
        self.endpoint = endpoint
        self.timeout = timeout
        if session is None:
            import requests as session  # here, so that offline runs do not pay for importing it
        self._session = session

    def extract(self, text: str) -> list[Triplet]:
        try:
            resp = self._session.post(
                self.endpoint,
                data=text.encode("utf-8"),
                headers={"Content-Type": "text/plain; charset=utf-8"},
                timeout=self.timeout,
            )
        except Exception as exc:
            raise RemoteUnavailable(f"annotation server unreachable: {exc}") from exc
        if resp.status_code != 200:
            raise RemoteUnavailable(f"annotation server returned HTTP {resp.status_code}")
        try:
            payload = resp.json()
        except ValueError as exc:
            raise RemoteUnavailable(f"annotation server returned non-JSON body: {exc}") from exc
        triplets = []
        for sentence in payload.get("sentences", []):
            for triple in sentence.get("openie", []):
                try:
                    triplets.append(
                        Triplet(
                            subject=triple["subject"],
                            relation=triple["relation"],
                            object=triple["object"],
                            confidence=triple.get("confidence"),
                        )
                    )
                except (KeyError, ValueError):
                    continue
        return triplets


class FallbackExtractor:
    """Route around an unreachable remote extractor with a local one."""

    def __init__(self, primary: TripletExtractor, fallback: TripletExtractor | None = None):
        self.primary = primary
        self.fallback = fallback or NaiveExtractor()

    def extract(self, text: str) -> list[Triplet]:
        try:
            return self.primary.extract(text)
        except RemoteUnavailable as exc:
            log.warning("remote extractor unavailable (%s); using naive fallback", exc)
            return self.fallback.extract(text)


def build_extractor(endpoint: str | None, fallback: bool = True) -> TripletExtractor | None:
    """The remote extractor at ``endpoint`` (None without one), behind the
    naive fallback unless ``fallback`` is False."""
    if not endpoint:
        return None
    return FallbackExtractor(RemoteExtractor(endpoint)) if fallback else RemoteExtractor(endpoint)


def select_for_prompt(triplets: list[Triplet], limit: int = PROMPT_TRIPLET_LIMIT) -> list[Triplet]:
    """Highest-confidence ``limit`` triplets, stable under ties."""
    ranked = sorted(
        triplets,
        key=lambda t: -(t.confidence if t.confidence is not None else NAIVE_CONFIDENCE),
    )
    return ranked[:limit]


def render_triplets(triplets: list[Triplet]) -> str:
    """One ``(subject; relation; object)`` line per triplet, order preserved."""
    return "\n".join(f"({t.subject}; {t.relation}; {t.object})" for t in triplets)
