"""Report tables over one or more experiment run directories.

ROUGE cells are scaled x100 at this layer only (the library stays in
[0, 1]); the evaluator score stays on its native 1-5 scale. The
faithfulness column, when present, is the mean remote-scorer output.
"""

from __future__ import annotations

import csv
import unicodedata
from pathlib import Path
from typing import NamedTuple

from .errors import ESCAPING, MissingStats, open_for_writing, read_json
from .experiment import STATS_HEADER

MISSING_CELL = "—"

#: (stats metric key, column header, x100 scaling)
COLUMNS = (
    ("rouge1", "R1", True),
    ("rouge2", "R2", True),
    ("rougeL", "RL", True),
    ("gpt_eval", "GPT-Eval", False),
    ("faithfulness", "Faithfulness", False),
    ("topic_similarity", "TopicSim", True),
)


class ReportRow(NamedTuple):
    label: str
    cells: dict[str, float]


def load_run_stats(run_dir: str | Path) -> dict:
    """The stats of a run directory; MissingStats when it has no stats file
    or one whose body a report cannot read, ConfigError when its file is not
    UTF-8 JSON with a stats header."""
    stats_path = Path(run_dir) / "stats.json"
    if not stats_path.exists():
        raise MissingStats(f"no stats.json in {run_dir}")
    stats = read_json(stats_path, STATS_HEADER)
    problem = _shape_problem(stats)
    if problem:
        raise MissingStats(f"{stats_path}: {problem}")
    return stats


def _shape_problem(stats: dict) -> str | None:
    """What in a stats body ``build_rows`` could not read, or None."""
    run = stats.get("run", {})
    if not isinstance(run, dict) or not isinstance(run.get("name") or "", str):
        return "'run' is not an object with a string name"
    phases = stats.get("metrics", {})
    if not isinstance(phases, dict):
        return "'metrics' is not an object"
    for phase, table in phases.items():
        if not isinstance(table, dict):
            return f"metrics.{phase} is not an object"
        for key, summary in table.items():
            mean = summary.get("mean") if isinstance(summary, dict) else None
            if type(mean) not in (int, float):
                return f"metrics.{phase}.{key} has no numeric mean"
    return None


def build_rows(run_dirs: list[str | Path], include_init: bool = False) -> list[ReportRow]:
    """One row per run (final summaries), ordered by run label.

    ``include_init`` adds a ``<label>:init`` row per run for side-by-side
    initial-vs-final comparison. Runs sharing a manifest name (e.g. a run and
    its replay) are disambiguated with their directory name.
    """
    loaded = [(load_run_stats(run_dir), Path(run_dir).name) for run_dir in run_dirs]
    names = [stats.get("run", {}).get("name") or dirname for stats, dirname in loaded]
    rows = []
    for (stats, dirname), name in zip(loaded, names):
        label = f"{name} ({dirname})" if names.count(name) > 1 else name
        labelled = [(label, "final")]
        if include_init:
            labelled.insert(0, (f"{label}:init", "init"))
        for row_label, phase in labelled:
            metrics = stats.get("metrics", {}).get(phase, {})
            rows.append(
                ReportRow(
                    label=row_label,
                    cells={key: metrics[key]["mean"] for key, _, _ in COLUMNS if key in metrics},
                )
            )
    rows.sort(key=lambda r: r.label)
    return rows


def _cell(row: ReportRow, key: str, scaled: bool) -> str:
    if key not in row.cells:
        return MISSING_CELL
    value = row.cells[key] * 100 if scaled else row.cells[key]
    return f"{value:.2f}"


def _grid(rows: list[ReportRow]) -> tuple[list[str], list[list[str]]]:
    """The headers of the columns any row has a cell in, and each row's label and cells."""
    columns = [(key, header, scaled) for key, header, scaled in COLUMNS if any(key in row.cells for row in rows)]
    body = [[row.label] + [_cell(row, key, scaled) for key, _, scaled in columns] for row in rows]
    return [header for _, header, _ in columns], body


def _printed_width(text: str, encoding: str) -> int:
    """The columns ``text`` takes when printed to a stream of ``encoding``:
    a character it cannot encode prints as its escape, such as ``\\xe9``,
    and a wide or full-width character takes two."""
    printed = text.encode(encoding, ESCAPING).decode(encoding)
    return sum(2 if unicodedata.east_asian_width(ch) in ("W", "F") else 1 for ch in printed)


def format_table(rows: list[ReportRow], encoding: str) -> str:
    """The table of ``rows``, its columns aligned as printed to a stream of ``encoding``."""
    headers, body = _grid(rows)
    headers = ["Run"] + headers
    widths = [max(_printed_width(cell, encoding) for cell in col) for col in zip(headers, *body)]

    def line(cells: list[str]) -> str:
        padded = (cell + " " * (width - _printed_width(cell, encoding)) for cell, width in zip(cells, widths))
        return "  ".join(padded).rstrip()

    return "\n".join([line(headers), "  ".join("-" * width for width in widths), *map(line, body)])


def write_csv(rows: list[ReportRow], path: str | Path) -> None:
    headers, body = _grid(rows)
    with open_for_writing(path) as fh:
        csv.writer(fh).writerows([["run", *headers], *body])
