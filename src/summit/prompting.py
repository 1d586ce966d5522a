"""Prompt templates, exemplar injection, and rendering.

Templates are plain-text files with ``{{slot_name}}`` markers, shipped with
the package and overridable by pointing the registry at another directory
carrying the same ``manifest.json`` layout. Each template is split once, at
load, into literal and slot pieces, and rendering joins the literals with the
slot values: marker syntax inside substituted values is payload, not a slot,
and passes through verbatim.
"""

from __future__ import annotations

import enum
import json
import re
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .backend import hashlib
from .errors import MissingSlot
from .types import Exemplar

__all__ = [
    "PromptRole",
    "Stage",
    "PromptRegistry",
    "RenderedPrompt",
    "Exemplar",
    "format_exemplars",
    "DEFAULT_SHOTS",
    "SUMMARIZER_FORMAT_INSTRUCTIONS",
    "EVALUATOR_FORMAT_INSTRUCTIONS",
]

DEFAULT_SHOTS = 2

SUMMARIZER_FORMAT_INSTRUCTIONS = (
    "Output only the summary text, with no preamble, labels, or commentary."
)

EVALUATOR_FORMAT_INSTRUCTIONS = (
    "Begin your output with a single line of exactly this form:\n"
    "Scores: 1:p 2:p 3:p 4:p 5:p\n"
    "where each p is a probability between 0 and 1 and the five probabilities "
    "sum to 1. Then list your suggestions as numbered sentences, using only "
    "the five allowed operations."
)


class PromptRole(enum.Enum):
    SUMMARIZER = "summarizer"
    EVALUATOR = "evaluator"


class Stage(enum.Enum):
    SUMMARIZE = "summarize"
    REFINE = "refine"
    EVALUATE = "evaluate"


#: The (role, stage) combinations that exist, for every setting.
ROLE_STAGES = {
    PromptRole.SUMMARIZER: (Stage.SUMMARIZE, Stage.REFINE),
    PromptRole.EVALUATOR: (Stage.EVALUATE,),
}

_SLOT_RE = re.compile(r"\{\{(\w+)\}\}")


@dataclass(frozen=True)
class RenderedPrompt:
    """Both messages of one call. ``user_parts`` are the non-empty pieces of
    the user message in order, so they join to ``user``; each slot's piece is
    the context's own value object, which lets a message count and escape a
    value that recurs across calls (the document) once."""

    system: str
    user: str
    user_parts: tuple[str, ...]


class _Template:
    """A template split into pieces: literals at even indices, slot names at
    odd ones (``_SLOT_RE.split``)."""

    def __init__(self, text: str):
        self.pieces = _SLOT_RE.split(text)
        self.slots = sorted(set(self.pieces[1::2]))

    def fill(self, context: dict[str, str]) -> tuple[str, ...]:
        """The non-empty literals and slot values, in order."""
        for slot in self.slots:
            if slot not in context:
                raise MissingSlot(slot)
        parts = list(self.pieces)
        parts[1::2] = [context[slot] for slot in self.pieces[1::2]]
        # From a list, not an iterator: tuple() of an iterator allocates a
        # guessed size and shrinks it, so each call would add a block to
        # CPython's free list of tuples of the final size (+0.35 MiB of peak
        # RSS over a replay-xsum benchmark run).
        return tuple([part for part in parts if part])


def format_exemplars(exemplars: list[Exemplar], role: PromptRole) -> str:
    """Render in-context examples as a block that precedes the task instance.

    Summarizer exemplars are document/summary pairs; evaluator exemplars must
    also carry an explanation.
    """
    if not exemplars:
        return ""
    blocks = []
    for i, ex in enumerate(exemplars, start=1):
        lines = [f"Example {i}:", "Document:", ex.document, "Summary:", ex.summary]
        if role is PromptRole.EVALUATOR:
            if ex.explanation is None:
                raise MissingSlot("explanation")
            lines += ["Evaluation:", ex.explanation]
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n\n"


def _user_key(role: PromptRole, setting, stage: Stage) -> tuple[str, str, str]:
    return (role.value, getattr(setting, "value", setting), stage.value)


class PromptRegistry:
    """All prompt templates, keyed by (role, setting value, stage)."""

    def __init__(self, systems: dict[PromptRole, str], users: dict[tuple[str, str, str], str]):
        self._systems = systems
        self._users = users
        self.validate()
        self._system_templates = {role: _Template(text) for role, text in systems.items()}
        self._user_templates = {key: _Template(text) for key, text in users.items()}

    @classmethod
    def load(cls, directory: str | Path | None = None) -> "PromptRegistry":
        """Load from a template directory; None means the packaged defaults."""
        if directory is None:
            root = resources.files("summit").joinpath("templates")
        else:
            root = Path(directory)
        manifest = json.loads(root.joinpath("manifest.json").read_text(encoding="utf-8"))
        if manifest.get("schema") != "summit/prompts":
            raise ValueError(f"not a prompt manifest: {manifest.get('schema')!r}")
        systems = {
            PromptRole(role): root.joinpath(filename).read_text(encoding="utf-8").rstrip("\n")
            for role, filename in manifest["system"].items()
        }
        users = {}
        for key, filename in manifest["user"].items():
            role, setting, stage = key.split("/")
            users[(role, setting, stage)] = (
                root.joinpath(filename).read_text(encoding="utf-8").rstrip("\n")
            )
        return cls(systems, users)

    def validate(self) -> None:
        for role in PromptRole:
            if role not in self._systems:
                raise ValueError(f"missing system template for {role.value}")
        missing = [
            f"{role.value}/{setting}/{stage.value}"
            for role, stages in ROLE_STAGES.items()
            for setting in ("quality", "control", "faithfulness")
            for stage in stages
            if (role.value, setting, stage.value) not in self._users
        ]
        if missing:
            raise ValueError(f"missing user templates: {', '.join(missing)}")

    def template(self, role: PromptRole, setting, stage: Stage) -> str:
        return self._users[_user_key(role, setting, stage)]

    def render(self, role: PromptRole, setting, stage: Stage, context: dict[str, str]) -> RenderedPrompt:
        """Fill both system and user templates from the same context."""
        system = self._system_templates[role].fill(context)
        user_parts = self._user_templates[_user_key(role, setting, stage)].fill(context)
        return RenderedPrompt(system="".join(system), user="".join(user_parts), user_parts=user_parts)

    def fingerprint(self) -> str:
        """Content hash over every template, for peek-guarding experiment runs.

        SHA-256 over UTF-8: ``system/ROLE NUL text NUL`` per system template
        in role order, ``ROLE/SETTING/STAGE NUL text NUL`` per user template
        in key order, then the summarizer's and the evaluator's format
        instructions.
        """
        digest = hashlib.sha256()
        for role in sorted(self._systems, key=lambda r: r.value):
            digest.update(f"system/{role.value}\x00{self._systems[role]}\x00".encode("utf-8"))
        for key in sorted(self._users):
            digest.update(("/".join(key) + "\x00" + self._users[key] + "\x00").encode("utf-8"))
        digest.update(SUMMARIZER_FORMAT_INSTRUCTIONS.encode("utf-8"))
        digest.update(EVALUATOR_FORMAT_INSTRUCTIONS.encode("utf-8"))
        return digest.hexdigest()
