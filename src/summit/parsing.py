"""Parsers that turn raw evaluator text into structured feedback.

Both parsers are total on arbitrary unicode in lenient mode: anything that
does not match is ignored rather than raised on.
"""

from __future__ import annotations

import math
import re

from .errors import ParseError
from .metrics import expected_score
from .types import EditKind, EditOp, Feedback

UNIFORM_DISTRIBUTION = {s: 0.2 for s in (1, 2, 3, 4, 5)}

# The five recognized operation surface forms. Targets run up to the next
# sentence terminator; trailing "from/in the summary" idioms are stripped once.
_OP_RE = re.compile(
    r"""
    (?P<verb>add|remove|rephrase)\s+the\s+information\s+of\s+(?P<target>[^.!?\n]+)
    | (?P<simplify>shorten\s+the\s+summary)
    | (?P<keep>do\s+nothing | keep\s+the\s+summary\s+unchanged)
    """,
    re.IGNORECASE | re.VERBOSE,
)

_TRAILING_IDIOM_RE = re.compile(r"(?:^|\s+)(?:from|in)\s+the\s+summary\s*$", re.IGNORECASE)

_VERB_TO_KIND = {"add": EditKind.ADD, "remove": EditKind.REMOVE, "rephrase": EditKind.REPHRASE}

# score:probability pairs, e.g. "3:0.2", "4 = 0.5".
_PAIR_RE = re.compile(r"\b([1-5])\s*[:=]\s*(\d+(?:\.\d+)?|\.\d+)")
# Text allowed between two pairs of the same score list.
_PAIR_GAP_RE = re.compile(r"[\s,;|\[\]{}()]*")
_SCORE_CUE_RE = re.compile(r"scor|distribut|probab", re.IGNORECASE)


def _clean_target(raw: str) -> str:
    target = raw.strip()
    target = _TRAILING_IDIOM_RE.sub("", target, count=1)
    if len(target) >= 2 and target[0] == target[-1] and target[0] in "\"'`":
        target = target[1:-1]
    return target.strip()


def parse_edit_ops(raw: str) -> list[EditOp]:
    """Extract the recognized edit operations from free text, in order."""
    ops: list[EditOp] = []
    for match in _OP_RE.finditer(raw):
        if match.group("verb"):
            target = _clean_target(match.group("target"))
            if target:
                ops.append(EditOp(_VERB_TO_KIND[match.group("verb").lower()], target))
        elif match.group("simplify"):
            ops.append(EditOp(EditKind.SIMPLIFY))
        else:
            ops.append(EditOp(EditKind.KEEP))
    return ops


def render_edit_op(op: EditOp) -> str:
    """Canonical sentence form of an operation (the parser's inverse)."""
    if op.kind is EditKind.ADD:
        return f"Add the information of {op.target}."
    if op.kind is EditKind.REMOVE:
        return f"Remove the information of {op.target} from the summary."
    if op.kind is EditKind.REPHRASE:
        return f"Rephrase the information of {op.target} in the summary."
    if op.kind is EditKind.SIMPLIFY:
        return "Shorten the summary."
    return "Keep the summary unchanged."


def _pair_runs(raw: str) -> list[list[re.Match]]:
    """Group score:probability matches into runs separated only by list glue."""
    matches = list(_PAIR_RE.finditer(raw))
    runs: list[list[re.Match]] = []
    for match in matches:
        if runs:
            gap = raw[runs[-1][-1].end() : match.start()]
            if len(gap) <= 6 and _PAIR_GAP_RE.fullmatch(gap):
                runs[-1].append(match)
                continue
        runs.append([match])
    return runs


def parse_score_distribution(raw: str) -> dict[int, float] | None:
    """Find the first plausible score list; None when nothing parses.

    A run of two or more pairs is accepted anywhere; a lone pair only when a
    scoring cue word appears shortly before it (guards against prose like
    "iteration 4: 0.5 seconds").
    """
    for run in _pair_runs(raw):
        if len(run) < 2:
            lead = raw[max(0, run[0].start() - 30) : run[0].start()]
            if not _SCORE_CUE_RE.search(lead):
                continue
        distribution = {s: 0.0 for s in (1, 2, 3, 4, 5)}
        seen: set[int] = set()
        for match in run:
            score = int(match.group(1))
            if score in seen:
                continue
            seen.add(score)
            distribution[score] = float(match.group(2))
        try:
            total = math.fsum(distribution.values())
        except OverflowError:  # finite values whose sum is past the float range
            total = math.inf
        if total == 0 or total == math.inf:  # no mass, or more than a float holds
            continue
        if abs(total - 1.0) > 1e-6:
            distribution = {s: p / total for s, p in distribution.items()}
        return distribution
    return None


def parse_feedback(raw: str, stop_marker: str, strict: bool = False) -> Feedback:
    """Parse raw evaluator output into structured feedback.

    Lenient mode never fails: an unparseable score list degrades to the
    uniform distribution (flagged via ``distribution_parsed=False``).
    """
    if not stop_marker:
        raise ValueError("stop_marker must be non-empty")
    distribution = parse_score_distribution(raw)
    if distribution is None:
        if strict:
            raise ParseError("no score distribution found in evaluator output")
        distribution = dict(UNIFORM_DISTRIBUTION)
        parsed = False
    else:
        parsed = True
    return Feedback(
        raw=raw,
        score_distribution=distribution,
        expected_score=expected_score(distribution),
        edit_ops=parse_edit_ops(raw),
        stop_requested=stop_marker in raw,
        distribution_parsed=parsed,
    )
