from __future__ import annotations

import json
import math
import random
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import exact_sum, random_edit_op
from summit.errors import ParseError
from summit.parsing import (
    parse_edit_ops,
    parse_feedback,
    parse_score_distribution,
    render_edit_op,
)
from summit.types import EditKind, EditOp

FIXTURE = Path(__file__).parent / "fixtures" / "edit_op_cases.jsonl"


def load_cases():
    cases = []
    with FIXTURE.open(encoding="utf-8") as fh:
        for line in fh:
            raw = json.loads(line)
            expected = [
                EditOp(EditKind(kind), target) for kind, target in raw["ops"]
            ]
            cases.append((raw["text"], expected))
    return cases


CASES = load_cases()


def test_fixture_has_fifty_cases():
    assert len(CASES) == 50


@pytest.mark.parametrize("text,expected", CASES, ids=range(len(CASES)))
def test_edit_op_fixture_case(text, expected):
    assert parse_edit_ops(text) == expected


def test_order_preserved_across_kinds():
    text = (
        "1. Shorten the summary. 2. Add the information of the score. "
        "3. Remove the information of the date from the summary."
    )
    kinds = [op.kind for op in parse_edit_ops(text)]
    assert kinds == [EditKind.SIMPLIFY, EditKind.ADD, EditKind.REMOVE]


# --- round-trip ---------------------------------------------------------------


def test_round_trip_seeded_1000():
    rng = random.Random(991)
    for _ in range(1000):
        op = random_edit_op(rng)
        assert parse_edit_ops(render_edit_op(op)) == [op]


_IDIOM_SUFFIX = ("from the summary", "in the summary")

target_texts = (
    st.text(
        alphabet=st.characters(blacklist_characters=".!?\n", blacklist_categories=("Cs",)),
        min_size=1,
        max_size=40,
    )
    .map(str.strip)
    .filter(lambda t: t and not t.lower().endswith(_IDIOM_SUFFIX))
    .filter(lambda t: not (t[0] == t[-1] and t[0] in "\"'`"))
)


@given(
    kind=st.sampled_from(list(EditKind)),
    target=target_texts,
)
def test_round_trip_property(kind, target):
    targeted = kind in (EditKind.ADD, EditKind.REMOVE, EditKind.REPHRASE)
    op = EditOp(kind, target if targeted else None)
    assert parse_edit_ops(render_edit_op(op)) == [op]
    # An op compares by value and is immutable. It checks nothing itself: the
    # parser keeps the target rule by construction, and read_trace checks the
    # ops a file holds (tests/test_trace_io.py).
    assert op == EditOp(kind=op.kind, target=op.target)
    with pytest.raises(AttributeError):
        op.kind = kind


@given(st.text(max_size=300))
def test_parse_edit_ops_total(text):
    for op in parse_edit_ops(text):
        if op.kind in (EditKind.ADD, EditKind.REMOVE, EditKind.REPHRASE):
            assert op.target
        else:
            assert op.target is None


# --- feedback parsing -----------------------------------------------------------


def test_parse_feedback_worked_example():
    raw = "Scores: 1:0.0 2:0.0 3:0.2 4:0.5 5:0.3 The summary is fine. Do nothing. <STOP>"
    fb = parse_feedback(raw, "<STOP>")
    assert fb.score_distribution == {1: 0.0, 2: 0.0, 3: 0.2, 4: 0.5, 5: 0.3}
    assert fb.expected_score == pytest.approx(4.1, abs=1e-9)
    assert fb.stop_requested
    assert fb.edit_ops == [EditOp(EditKind.KEEP)]
    assert fb.distribution_parsed


def test_no_marker_means_no_stop():
    fb = parse_feedback("Scores: 5:1.0 Do nothing.", "<STOP>")
    assert not fb.stop_requested


def test_free_prose_falls_back_to_uniform():
    fb = parse_feedback("The revised summary is clear, concise, and accurate.", "<STOP>")
    assert fb.score_distribution == {s: 0.2 for s in (1, 2, 3, 4, 5)}
    assert fb.expected_score == pytest.approx(3.0)
    assert not fb.distribution_parsed
    assert fb.edit_ops == []


def test_strict_mode_raises_on_unparseable():
    with pytest.raises(ParseError):
        parse_feedback("no scores here", "<STOP>", strict=True)


def test_missing_scores_fill_with_zero():
    dist = parse_score_distribution("Scores: 4:0.6 5:0.4")
    assert dist == {1: 0.0, 2: 0.0, 3: 0.0, 4: 0.6, 5: 0.4}


@pytest.mark.parametrize(
    "raw",
    [
        "Scores: 1:0.0, 2:0.0, 3:0.2, 4:0.5, 5:0.3",
        "{1: 0.0, 2: 0.0, 3: 0.2, 4: 0.5, 5: 0.3}",
        "[1:0.0 2:0.0 3:0.2 4:0.5 5:0.3]",
        "score distribution: 1=0.0 2=0.0 3=0.2 4=0.5 5=0.3",
    ],
)
def test_distribution_surface_variants(raw):
    dist = parse_score_distribution(raw)
    assert dist is not None
    assert dist[4] == pytest.approx(0.5)
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-6)


def test_lone_pair_needs_a_cue():
    assert parse_score_distribution("iteration 4: 0.5 seconds elapsed") is None
    assert parse_score_distribution("probability of score 5: 1.0") == {
        1: 0.0, 2: 0.0, 3: 0.0, 4: 0.0, 5: 1.0,
    }


def test_unnormalized_distribution_is_renormalized():
    dist = parse_score_distribution("Scores: 4:2.0 5:2.0")
    assert dist is not None
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-6)
    assert dist[4] == pytest.approx(0.5)


@given(st.lists(st.from_regex(r"\d{1,3}(\.\d{1,3})?", fullmatch=True), min_size=5, max_size=5))
def test_a_distribution_is_renormalized_by_the_exact_sum_of_its_values(numbers):
    values = [float(number) for number in numbers]
    total = exact_sum(values)
    assume(total > 0)
    expected = values if abs(total - 1.0) <= 1e-6 else [value / total for value in values]
    raw = "Scores: " + " ".join(f"{score}:{number}" for score, number in enumerate(numbers, start=1))
    assert parse_score_distribution(raw) == dict(enumerate(expected, start=1))


def test_a_score_list_past_the_float_range_is_no_distribution():
    assert parse_score_distribution("Scores: 4:" + "9" * 400 + " 5:0.5") is None
    assert parse_score_distribution("Scores: 4:" + "9" * 308 + " 5:" + "9" * 308) is None


def test_prose_then_late_score_list_is_found():
    raw = "Good work overall. Final assessment -> Scores: 3:0.5 4:0.5"
    fb = parse_feedback(raw, "<STOP>")
    assert fb.distribution_parsed
    assert fb.expected_score == pytest.approx(3.5)


@given(st.text(max_size=400), st.sampled_from(["<STOP>", "[DONE]"]))
@settings(max_examples=300)
def test_parse_feedback_total_and_normalized(raw, marker):
    fb = parse_feedback(raw, marker)
    assert math.isclose(sum(fb.score_distribution.values()), 1.0, abs_tol=1e-6)
    assert all(0.0 <= p <= 1.0 for p in fb.score_distribution.values())
    assert 1.0 <= fb.expected_score <= 5.0
    assert fb.stop_requested == (marker in raw)


def test_empty_marker_rejected():
    with pytest.raises(ValueError):
        parse_feedback("anything", "")
