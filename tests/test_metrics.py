from __future__ import annotations

import random

import pytest
import requests
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import lcs_dp_oracle, lcs_oracle, rouge_n_oracle
from summit.errors import DegenerateDistribution, EmptyInput, RemoteUnavailable
from summit.metrics import (
    FaithfulnessScorer,
    aggregate,
    expected_score,
    has_tokens,
    lcs_length,
    ngrams,
    rouge_l,
    rouge_l_multi,
    rouge_n,
    rouge_n_multi,
    tokenize,
    topic_similarity,
)

tokens = st.lists(st.sampled_from("a b c d e f".split()), max_size=12)


# --- tokenize -------------------------------------------------------------------


def test_tokenize_rules():
    assert tokenize("The cat, sat!") == ["the", "cat", "sat"]
    assert tokenize("") == []
    assert tokenize("state-of-the-art 3D") == ["state", "of", "the", "art", "3d"]


def test_tokenize_underscore_is_a_separator():
    assert tokenize("foo_bar") == ["foo", "bar"]


@given(st.text(max_size=200))
def test_tokenize_idempotent_on_joined_output(text):
    joined = " ".join(tokenize(text))
    assert tokenize(joined) == tokenize(text)


_counting_text = st.lists(
    st.one_of(st.sampled_from(["a", " B7 ", "_", " ", "-", "xİx", "Σ", "\u0307", "\n"]), st.characters()),
    max_size=20,
).map("".join)


@given(_counting_text, st.integers(-1, 15))
def test_has_tokens_equals_counting_every_token(text, minimum):
    assert has_tokens(text, minimum) == (len(tokenize(text)) >= minimum)


# --- rouge worked examples --------------------------------------------------------

CAND = "the cat sat on the mat"
REF = "the cat was on the mat"


def test_rouge_identity():
    for fn in (lambda a, b: rouge_n(a, b, 1), lambda a, b: rouge_n(a, b, 2), rouge_l):
        score = fn("a small example text", "a small example text")
        assert score.precision == score.recall == score.f1 == 1.0


def test_rouge1_worked_example():
    score = rouge_n(CAND, REF, 1)
    assert score.precision == pytest.approx(5 / 6, abs=1e-9)
    assert score.recall == pytest.approx(5 / 6, abs=1e-9)
    assert score.f1 == pytest.approx(5 / 6, abs=1e-9)


def test_rouge2_worked_example():
    score = rouge_n(CAND, REF, 2)
    assert score.f1 == pytest.approx(3 / 5, abs=1e-9)


def test_rouge_l_worked_example():
    score = rouge_l(CAND, REF)
    assert score.f1 == pytest.approx(5 / 6, abs=1e-9)


def test_disjoint_vocabulary_scores_zero():
    assert rouge_n("alpha beta", "gamma delta", 1).f1 == 0.0
    assert rouge_l("alpha beta", "gamma delta").f1 == 0.0


def test_empty_side_scores_zero():
    assert rouge_l("", "some words").f1 == 0.0
    assert rouge_n("some words", "", 1).f1 == 0.0


def test_clipping_counts_each_reference_gram_once():
    # "the" appears 3x in candidate but only once in reference.
    score = rouge_n("the the the", "the cat", 1)
    assert score.precision == pytest.approx(1 / 3)
    assert score.recall == pytest.approx(1 / 2)


# --- oracle equivalence -----------------------------------------------------------


@given(tokens, tokens)
@settings(max_examples=200)
def test_lcs_matches_brute_force(a, b):
    assert lcs_length(a, b) == lcs_oracle(a, b)


@given(tokens, tokens, st.integers(min_value=1, max_value=3))
@settings(max_examples=200)
def test_rouge_n_matches_brute_force(a, b, n):
    got = rouge_n(" ".join(a), " ".join(b), n)
    expected = rouge_n_oracle(a, b, n)
    assert got.precision == pytest.approx(expected[0], abs=1e-9)
    assert got.recall == pytest.approx(expected[1], abs=1e-9)
    assert got.f1 == pytest.approx(expected[2], abs=1e-9)


@given(tokens, tokens)
@settings(max_examples=200)
def test_swap_symmetry(a, b):
    ab = rouge_n(" ".join(a), " ".join(b), 1)
    ba = rouge_n(" ".join(b), " ".join(a), 1)
    assert ab.precision == pytest.approx(ba.recall, abs=1e-12)
    l_ab = rouge_l(" ".join(a), " ".join(b))
    l_ba = rouge_l(" ".join(b), " ".join(a))
    assert l_ab.precision == pytest.approx(l_ba.recall, abs=1e-12)


@given(tokens, tokens)
@settings(max_examples=200)
def test_bounds_and_lcs_dominance(a, b):
    score = rouge_l(" ".join(a), " ".join(b))
    for value in (score.precision, score.recall, score.f1):
        assert 0.0 <= value <= 1.0
    assert lcs_length(a, b) <= min(len(a), len(b))


def test_multi_reference_takes_max_f1():
    refs = ["the cat was on the mat", "completely unrelated words here"]
    assert rouge_n_multi(tokenize(CAND), [ngrams(tokenize(r), 1) for r in refs], 1).f1 == pytest.approx(5 / 6, abs=1e-9)


@given(tokens, st.lists(tokens, min_size=1, max_size=4), st.integers(min_value=1, max_value=3))
def test_token_level_multi_is_max_f1_of_string_level(cand, refs, n):
    cand_text, ref_texts = " ".join(cand), [" ".join(r) for r in refs]
    expected = max((rouge_n(cand_text, r, n) for r in ref_texts), key=lambda s: s.f1)
    assert rouge_n_multi(cand, [ngrams(r, n) for r in refs], n) == expected
    assert rouge_l_multi(cand, refs) == max((rouge_l(cand_text, r) for r in ref_texts), key=lambda s: s.f1)


def test_multi_without_references_raises():
    with pytest.raises(EmptyInput):
        rouge_n_multi(["a"], [], 1)
    with pytest.raises(EmptyInput):
        rouge_l_multi(["a"], [])


# --- long sequences: the bit-parallel LCS against the two-row DP ----------------------

WORDS = "a b c d e f g h".split()


@st.composite
def long_token_pairs(draw):
    # Lengths are drawn first: plain st.lists stays short and never leaves one machine word.
    alphabet = st.sampled_from(WORDS[: draw(st.integers(min_value=2, max_value=8))])
    sides = []
    for _ in range(2):
        length = draw(st.integers(min_value=0, max_value=300))
        sides.append(draw(st.lists(alphabet, min_size=length, max_size=length)))
    return tuple(sides)


@given(long_token_pairs())
@settings(deadline=None)
def test_lcs_matches_dp_on_long_sequences(pair):
    a, b = pair
    assert lcs_length(a, b) == lcs_dp_oracle(a, b)


def _random_tokens(length: int, alphabet: int, seed: int) -> list[str]:
    rng = random.Random(seed)
    return [rng.choice(WORDS[:alphabet]) for _ in range(length)]


@pytest.mark.parametrize("short_len", [29, 30, 31, 59, 60, 61, 62, 63, 64, 65])
@pytest.mark.parametrize("alphabet", [2, 4, 8])
def test_lcs_at_machine_word_boundaries(short_len, alphabet):
    short = _random_tokens(short_len, alphabet, seed=short_len)
    for long_len in (short_len, short_len + 1, 3 * short_len):
        long_ = _random_tokens(long_len, alphabet, seed=1000 + long_len)
        expected = lcs_dp_oracle(short, long_)
        assert lcs_length(short, long_) == expected
        assert lcs_length(long_, short) == expected


@pytest.mark.parametrize("length", [1, 2, 30, 64, 65, 200])
def test_lcs_degenerate_shapes(length):
    seq = _random_tokens(length, 8, seed=length)
    assert lcs_length(seq, seq) == length
    assert lcs_length(seq, ["a"]) == lcs_length(["a"], seq) == ("a" in seq)
    assert lcs_length(seq, ["z"]) == 0
    repeated = ["b"] * length
    assert lcs_length(repeated, ["b"] * (length + 3)) == length
    assert lcs_length(repeated, seq) == lcs_dp_oracle(repeated, seq)


# --- expected score -----------------------------------------------------------------


def test_expected_score_point_mass():
    assert expected_score({5: 1.0}) == 5.0


def test_expected_score_worked_example():
    assert expected_score({3: 0.2, 4: 0.5, 5: 0.3}) == pytest.approx(4.1, abs=1e-9)


def test_expected_score_zero_mass_raises():
    with pytest.raises(DegenerateDistribution):
        expected_score({1: 0.0, 2: 0.0})


def test_expected_score_renormalizes():
    assert expected_score({4: 2.0, 5: 2.0}) == pytest.approx(4.5)


def test_expected_score_mass_within_tolerance_stays_on_the_scale():
    assert expected_score({5: 1.0000005}) == 5.0
    assert expected_score({1: 0.9999995}) == 1.0


def test_expected_score_rejects_bad_keys_and_values():
    with pytest.raises(ValueError):
        expected_score({6: 1.0})
    with pytest.raises(ValueError):
        expected_score({5: -0.5, 4: 1.5})


@given(
    st.dictionaries(
        st.integers(min_value=1, max_value=5),
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
        min_size=1,
    )
)
def test_expected_score_in_range(dist):
    if sum(dist.values()) == 0:
        with pytest.raises(DegenerateDistribution):
            expected_score(dist)
    else:
        assert 1.0 <= expected_score(dist) <= 5.0


# --- topic similarity -----------------------------------------------------------------


def test_topic_similarity_identity():
    assert topic_similarity("green energy plan", "green energy plan") == pytest.approx(1.0, abs=1e-9)


def test_topic_similarity_disjoint():
    assert topic_similarity("alpha beta", "gamma delta") == 0.0


def test_topic_similarity_worked_example():
    # q = (climate 1, policy 1); s = (policy 2, on 1, climate 1, and 1, reform 1)
    # dot = 3, |q| = sqrt(2), |s| = sqrt(8) -> 3 / 4
    value = topic_similarity("climate policy", "policy on climate and policy reform")
    assert value == pytest.approx(0.75, abs=1e-9)


def test_topic_similarity_empty_side_is_zero():
    assert topic_similarity("...", "words here") == 0.0


@given(st.text(max_size=80), st.text(max_size=80))
@settings(max_examples=200)
def test_topic_similarity_bounds(q, s):
    assert 0.0 <= topic_similarity(q, s) <= 1.0 + 1e-12


@given(st.text(max_size=80), st.text(max_size=80))
@settings(max_examples=200)
def test_topic_similarity_of_token_lists_equals_of_texts(q, s):
    assert topic_similarity(tokenize(q), tokenize(s)) == topic_similarity(q, s)


# --- aggregation ------------------------------------------------------------------------


def test_aggregate_examples():
    stats = aggregate([1.0, 0.0], "demo")
    assert stats.mean == 0.5
    assert stats.count == 2
    single = aggregate([0.8333], "demo")
    assert single.mean == pytest.approx(0.8333)
    assert single.count == 1


def test_aggregate_empty_raises():
    with pytest.raises(EmptyInput):
        aggregate([], "demo")


def test_aggregate_matches_independent_summation():
    rng = random.Random(555)
    values = [rng.random() for _ in range(1000)]
    total = 0.0
    for v in values:
        total += v
    assert aggregate(values, "demo").mean == pytest.approx(total / 1000, abs=1e-12)


# --- remote faithfulness scorer ------------------------------------------------------------


class _StubSession:
    def __init__(self, responses):
        self.responses = responses
        self.calls = []

    def post(self, url, json=None, timeout=None):
        self.calls.append(json)
        reply = self.responses[min(len(self.calls) - 1, len(self.responses) - 1)]
        if isinstance(reply, Exception):
            raise reply
        status, body = reply

        class _Resp:
            status_code = status

            def json(self):
                return body

        return _Resp()


def test_faithfulness_passthrough_stub():
    scorer = FaithfulnessScorer("http://scorer", session=_StubSession([(200, {"score": 0.36})]))
    assert scorer.score("doc", "sum") == pytest.approx(0.36)


def test_faithfulness_without_a_session_posts_through_requests(monkeypatch):
    stub = _StubSession([(200, {"score": 0.36})])
    monkeypatch.setattr(requests, "post", stub.post)
    assert FaithfulnessScorer("http://scorer").score("doc", "sum") == pytest.approx(0.36)
    assert stub.calls == [{"document": "doc", "summary": "sum"}]


def test_faithfulness_accepts_bare_number():
    scorer = FaithfulnessScorer("http://scorer", session=_StubSession([(200, 0.7)]))
    assert scorer.score("doc", "sum") == pytest.approx(0.7)


def test_faithfulness_unreachable():
    scorer = FaithfulnessScorer("http://scorer", session=_StubSession([ConnectionError("refused")]))
    with pytest.raises(RemoteUnavailable):
        scorer.score("doc", "sum")


def test_faithfulness_rejects_out_of_range():
    scorer = FaithfulnessScorer("http://scorer", session=_StubSession([(200, {"score": 1.4})]))
    with pytest.raises(RemoteUnavailable):
        scorer.score("doc", "sum")

