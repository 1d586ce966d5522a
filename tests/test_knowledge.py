from __future__ import annotations

import pytest
import requests
from hypothesis import given
from hypothesis import strategies as st

from helpers import naive_extract_oracle
from summit.errors import RemoteUnavailable
from summit.knowledge import (
    FallbackExtractor,
    NaiveExtractor,
    RemoteExtractor,
    Triplet,
    dedup_triplets,
    extract_triplets,
    render_triplets,
    select_for_prompt,
)


def test_naive_worked_example():
    triplets = extract_triplets(NaiveExtractor(), "Obiang joined Sampdoria in 2010.")
    assert triplets == [Triplet("Obiang", "joined", "Sampdoria in 2010", confidence=0.5)]


def test_naive_verb_group_absorbs_auxiliaries_and_particles():
    [t] = extract_triplets(NaiveExtractor(), "The midfielder has been linked with a move.")
    assert t.subject == "The midfielder"
    assert t.relation == "has been linked with"
    assert t.object == "a move"


def test_naive_one_triplet_per_sentence_max():
    text = "Stoke approved the offer. What a chaotic day! The club signed him."
    triplets = NaiveExtractor().extract(text)
    assert len(triplets) == 2


#: Separators: whitespace that both ``str.split`` and the regex ``\s`` match
#: (line ends other than ``\n`` among them), runs of ``\n``, and ``\u200b``,
#: which is not whitespace. Tokens: the stripped punctuation alone and in
#: runs, words that pass or fail the verb test, and sentence ends.
_SEPARATORS = [
    " ", "\n", "\r", "\t", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0",
    "\u2028", "\u2029", "\u200b", "\u3000", "\n\n", " \n ",
]
_TOKENS = [
    ".", "!", "?", ",", ";", ":", '"', "'", "(", ")", "[", "]", "..", ".)", "?!", "(.", "'.'",
    "The", "Council", "İstanbul", "ΣΟΦΙΑ", "Σ", "it", "a", "the", "pier",
    "is", "was", "has", "been", "will", "Has", "of", "to", "with", "up", "as",
    "joined", "linked", "moving", "sing", "runs", "class", "bus", "Approved", "led",
    "end.", "end!", "end?", "(end).", "U.S.", "end.)", "said,", "\"quote\"", "e.g.x",
]
_texts = st.lists(
    st.tuples(
        st.one_of(st.sampled_from(_TOKENS), st.text(max_size=3)),
        st.one_of(st.just(" "), st.sampled_from(_SEPARATORS)),
    ),
    max_size=30,
).map(lambda parts: "".join(token + separator for token, separator in parts))


@given(_texts)
def test_naive_extractor_equals_the_look_behind_oracle(text):
    assert NaiveExtractor().extract(text) == naive_extract_oracle(text)


def test_naive_is_deterministic():
    text = "The council approved the repairs after the storm."
    assert NaiveExtractor().extract(text) == NaiveExtractor().extract(text)


def test_empty_input_rejected():
    with pytest.raises(ValueError):
        extract_triplets(NaiveExtractor(), "   ")


def test_dedup_keeps_first_and_is_idempotent():
    a = Triplet("a", "likes", "b", confidence=0.9)
    b = Triplet("a", "likes", "b", confidence=0.1)
    c = Triplet("c", "sees", "d")
    once = dedup_triplets([a, b, c, a])
    assert once == [a, c]
    assert dedup_triplets(once) == once


def test_triplet_field_invariants():
    with pytest.raises(ValueError):
        Triplet(" ", "likes", "b")
    with pytest.raises(ValueError):
        Triplet("a", "likes", "b", confidence=1.5)


def test_render_single():
    assert render_triplets([Triplet("A", "likes", "B")]) == "(A; likes; B)"


def test_render_empty():
    assert render_triplets([]) == ""


def test_render_two_lines_order_preserved():
    triplets = [Triplet("A", "likes", "B"), Triplet("C", "sees", "D")]
    assert render_triplets(triplets) == "(A; likes; B)\n(C; sees; D)"


def test_render_line_count_matches():
    triplets = [Triplet(f"s{i}", "r", "o") for i in range(7)]
    assert len(render_triplets(triplets).splitlines()) == 7


def test_select_for_prompt_ranks_by_confidence():
    low = Triplet("low", "r", "o", confidence=0.2)
    high = Triplet("high", "r", "o", confidence=0.9)
    naive = Triplet("naive", "r", "o")  # unranked -> treated as 0.5
    assert select_for_prompt([low, high, naive], limit=2) == [high, naive]


class _StubSession:
    def __init__(self, reply):
        self.reply = reply
        self.posted = None

    def post(self, url, data=None, headers=None, timeout=None):
        self.posted = data
        if isinstance(self.reply, Exception):
            raise self.reply
        status, body = self.reply

        class _Resp:
            status_code = status

            def json(self):
                return body

        return _Resp()


def test_remote_extractor_parses_server_shape():
    body = {
        "sentences": [
            {
                "openie": [
                    {"subject": "Obiang", "relation": "joined", "object": "Sampdoria", "confidence": 0.93},
                    {"subject": "Obiang", "relation": "joined", "object": "Sampdoria", "confidence": 0.93},
                ]
            },
            {"openie": [{"subject": "club", "relation": "sits", "object": "fifth"}]},
        ]
    }
    extractor = RemoteExtractor("http://annotate", session=_StubSession((200, body)))
    triplets = extract_triplets(extractor, "whatever text")
    assert triplets == [
        Triplet("Obiang", "joined", "Sampdoria", confidence=0.93),
        Triplet("club", "sits", "fifth"),
    ]


def test_remote_extractor_without_a_session_posts_through_requests(monkeypatch):
    stub = _StubSession((200, {"sentences": [{"openie": [{"subject": "a", "relation": "r", "object": "b"}]}]}))
    monkeypatch.setattr(requests, "post", stub.post)
    assert RemoteExtractor("http://annotate").extract("whatever") == [Triplet("a", "r", "b")]
    assert stub.posted == b"whatever"


def test_remote_extractor_unreachable():
    extractor = RemoteExtractor("http://annotate", session=_StubSession(ConnectionError("nope")))
    with pytest.raises(RemoteUnavailable):
        extractor.extract("text")


def test_remote_extractor_http_error():
    extractor = RemoteExtractor("http://annotate", session=_StubSession((500, {})))
    with pytest.raises(RemoteUnavailable):
        extractor.extract("text")


def test_fallback_extractor_degrades_to_naive():
    remote = RemoteExtractor("http://annotate", session=_StubSession(ConnectionError("down")))
    triplets = FallbackExtractor(remote).extract("Obiang joined Sampdoria in 2010.")
    assert triplets == [Triplet("Obiang", "joined", "Sampdoria in 2010", confidence=0.5)]


def test_fallback_extractor_prefers_remote():
    body = {"sentences": [{"openie": [{"subject": "a", "relation": "r", "object": "b"}]}]}
    remote = RemoteExtractor("http://annotate", session=_StubSession((200, body)))
    assert FallbackExtractor(remote).extract("whatever") == [Triplet("a", "r", "b")]
