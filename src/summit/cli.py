"""Command surface: summarize, run-exp, replay, report, estimate, convert.

Exit codes: 0 success; 1 internal error (no input should cause one); 2
configuration, usage or input error, a file-system error on a named path
included; 3 backend failure (transport, auth, script, replay miss, budget,
an unparseable reply under --strict); 4 experiment completed with
per-document failures, a remote extractor or scorer that is down included
(summarize falls back to the naive extractor). Each error class carries its code.
"""

from __future__ import annotations

import functools
import json
import sys
from pathlib import Path

import click

from ._version import __version__
from .backend import BACKEND_MODES, BackendSettings
from .config import load_config_file, mapping, resolve_backend_settings
from .corpus import CONVERT_FORMATS, convert_corpus
from .errors import ESCAPING, BackendError, ConfigError, SummitError
from .experiment import RunManifest, build_parts, claim_cache, estimate_calls, run_experiment
from .prompting import DEFAULT_SHOTS
from .report import build_rows, format_table, write_csv
from .session import run_session
from .trace_io import write_trace
from .types import Document, SessionConfig, Setting

EXIT_CONFIG = ConfigError.exit_code
EXIT_BACKEND = BackendError.exit_code
EXIT_PARTIAL = 4

#: The stderr prefix of each exit code; any other code prints "error".
_PREFIXES = {SummitError.exit_code: "internal error", EXIT_BACKEND: "backend error"}

_SESSION_DEFAULTS = SessionConfig._field_defaults


def _echo(message: str, err: bool = False) -> None:
    """Print ``message`` to sys.stdout, or sys.stderr, as it is at call time,
    so that the error handler ``main`` sets applies. click's own stream for
    an ASCII stdout would print a character it cannot encode as "?"."""
    click.echo(message, file=sys.stderr if err else sys.stdout)


def _handle_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except SummitError as exc:
            _echo(f"{_PREFIXES.get(exc.exit_code, 'error')}: {exc}", err=True)
            sys.exit(exc.exit_code)
        except OSError as exc:
            if exc.filename is None:  # no path to name: not an input error
                raise
            _echo(f"error: {exc}", err=True)
            sys.exit(EXIT_CONFIG)

    return wrapper


@click.group()
@click.version_option(version=__version__, prog_name="summit")
def main():
    """Iterative summarization engine and evaluation harness."""
    for stream in (sys.stdout, sys.stderr):  # what is printed follows the file writers' rule
        if hasattr(stream, "reconfigure"):
            stream.reconfigure(errors=ESCAPING)


@main.command()
@click.option("--doc", type=click.Path(exists=True, dir_okay=False), help="Document file (default: stdin).")
@click.option("--doc-id", default=None, help="Identifier recorded in the trace (default: the file stem, or stdin).")
@click.option("--setting", type=click.Choice([s.value for s in Setting]), default=_SESSION_DEFAULTS["setting"].value, show_default=True)
@click.option("--topic", default=None, help="Topic query (required for --setting control).")
@click.option("--max-iters", type=int, default=_SESSION_DEFAULTS["max_iterations"], show_default=True)
@click.option("--model", default=None, help="Model id (default: SUMMIT_MODEL or config).")
@click.option("--trace-out", type=click.Path(dir_okay=False), default=None, help="Write the session trace here.")
@click.option("--backend", "mode", type=click.Choice(BACKEND_MODES), default=BackendSettings._field_defaults["mode"], show_default=True)
@click.option("--script", type=click.Path(exists=True, dir_okay=False), default=None, help="Script file for --backend scripted.")
@click.option("--cache", default=None, help="Response cache file.")
@click.option("--base-url", default=None, help="Chat-completions base URL.")
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--exemplars", type=click.Path(exists=True, dir_okay=False), default=None, help="JSONL exemplar file for few-shot prompts.")
@click.option("--shots", type=click.IntRange(min=0), default=DEFAULT_SHOTS, show_default=True, help="Exemplars per prompt; 0 means none.")
@click.option("--prompts-dir", type=click.Path(exists=True, file_okay=False), default=None, help="Override the packaged prompt templates.")
@click.option("--temperature", type=float, default=_SESSION_DEFAULTS["temperature"], show_default=True)
@click.option("--max-output-tokens", type=int, default=_SESSION_DEFAULTS["max_output_tokens"], show_default=True)
@click.option("--stop-marker", default=_SESSION_DEFAULTS["stop_marker"], show_default=True)
@click.option("--strict", is_flag=True, help="Raise on unparseable evaluator output.")
@click.option("--token-budget", type=int, default=None, help="Abort the session past this many tokens.")
@click.option("--knowledge-endpoint", default=None, help="Remote triplet extractor for --setting faithfulness.")
@_handle_errors
def summarize(
    doc, doc_id, setting, topic, max_iters, model, trace_out, mode, script,
    cache, base_url, config_path, exemplars, shots, prompts_dir, temperature,
    max_output_tokens, stop_marker, strict, token_budget, knowledge_endpoint,
):
    """Summarize one document and print the final summary."""
    if setting == "control" and not topic:
        raise ConfigError("--setting control requires --topic")
    if not doc:
        # UTF-8 under any locale: the C locale would read a bad byte as a surrogate escape.
        sys.stdin.reconfigure(encoding="utf-8", errors="strict")
    try:
        text = Path(doc).read_text(encoding="utf-8") if doc else sys.stdin.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"document {doc or 'on stdin'} is not UTF-8: {exc}") from None
    if not text.strip():
        raise ConfigError("document is empty")
    file_config = load_config_file(config_path)
    settings = resolve_backend_settings(
        file_config, mode=mode, script=script, cache=cache, base_url=base_url, model=model
    )
    endpoint = knowledge_endpoint or mapping(file_config.get("knowledge"), "knowledge").get("endpoint")
    prompts, exemplar_list, factory, extractor, response_cache = build_parts(
        settings, prompts_dir, exemplars, shots, endpoint
    )
    config = SessionConfig(
        model_id=settings.model,
        setting=Setting(setting),
        max_iterations=max_iters,
        topic_query=topic,
        exemplars=tuple(exemplar_list),
        temperature=temperature,
        max_output_tokens=max_output_tokens,
        stop_marker=stop_marker,
        strict_parsing=strict,
        token_budget=token_budget,
    ).check()
    document = Document(id=doc_id or (Path(doc).stem if doc else "stdin"), text=text)
    try:
        # The trace's directory is made before any call is paid for.
        claim_cache(settings, response_cache, Path(trace_out).parent if trace_out else None)
        trace = run_session(document, config, factory(), prompts, extractor)
    finally:
        if response_cache is not None:
            response_cache.close()
    if trace_out:
        write_trace(trace, trace_out)
        _echo(f"trace written to {trace_out}", err=True)
    _echo(trace.final_summary.text)


def _load_manifest(manifest_path, mode, out, workers):
    manifest = RunManifest.from_file(manifest_path)
    changes = {}
    if mode is not None:
        changes["backend"] = manifest.backend._replace(mode=mode)
    if out is not None:
        if not out:
            raise ConfigError("--out must name a directory")
        changes["output_dir"] = Path(out).resolve()
    if workers is not None:
        changes["workers"] = workers
    return manifest._replace(**changes) if changes else manifest


def _finish_experiment(result):
    stats = result.stats
    _echo(
        f"completed {stats['run']['completed']}/{stats['run']['sampled']} documents; "
        f"outputs in {result.output_dir}"
    )
    if result.failures:
        _echo(f"{len(result.failures)} document(s) failed; see failures.jsonl", err=True)
        sys.exit(EXIT_PARTIAL)


@main.command("run-exp")
@click.argument("manifest_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--mode", type=click.Choice(BACKEND_MODES), default=None, help="Override the manifest's backend mode.")
@click.option("--out", default=None, help="Override the manifest's output directory.")
@click.option("--workers", type=int, default=None, help="Override the manifest's worker count.")
@click.option("--yes", is_flag=True, help="Confirm a live run after reviewing its estimate.")
@click.option("--acknowledge-peek", is_flag=True, help="Allow re-running a test split with changed prompts.")
@_handle_errors
def run_exp(manifest_path, mode, out, workers, yes, acknowledge_peek):
    """Run a batch experiment described by a manifest."""
    manifest = _load_manifest(manifest_path, mode, out, workers)
    result = run_experiment(manifest, yes=yes, acknowledge_peek=acknowledge_peek)
    _finish_experiment(result)


@main.command()
@click.argument("manifest_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", default=None, help="Override the manifest's output directory.")
@click.option("--workers", type=int, default=None)
@_handle_errors
def replay(manifest_path, out, workers):
    """Re-run an experiment entirely from its response cache (zero live calls)."""
    manifest = _load_manifest(manifest_path, "replay", out, workers)
    result = run_experiment(manifest)
    _finish_experiment(result)


@main.command()
@click.argument("run_dirs", nargs=-1, required=True, type=click.Path(exists=True, file_okay=False))
@click.option("--csv", "csv_path", type=click.Path(dir_okay=False), default=None, help="Also write the table as CSV.")
@click.option("--include-init", is_flag=True, help="Add per-run rows for the initial summaries.")
@_handle_errors
def report(run_dirs, csv_path, include_init):
    """Print a metrics table over one or more run directories."""
    rows = build_rows(list(run_dirs), include_init=include_init)
    _echo(format_table(rows, sys.stdout.encoding or "utf-8"))
    if csv_path:
        write_csv(rows, csv_path)
        _echo(f"csv written to {csv_path}", err=True)


@main.command()
@click.argument("manifest_path", type=click.Path(exists=True, dir_okay=False))
@_handle_errors
def estimate(manifest_path):
    """Project worst-case backend call counts for a manifest."""
    manifest = RunManifest.from_file(manifest_path)
    _echo(json.dumps(estimate_calls(manifest), indent=2, sort_keys=True))


@main.command()
@click.argument("source", type=click.Path(exists=True, dir_okay=False))
@click.argument("dest", type=click.Path(dir_okay=False))
@click.option("--format", "source_format", type=click.Choice(list(CONVERT_FORMATS)), required=True)
@_handle_errors
def convert(source, dest, source_format):
    """Convert a public-release JSONL file into the canonical corpus format."""
    from .corpus import load_corpus, word_stats

    count = convert_corpus(source, dest, source_format)
    stats = word_stats(load_corpus(dest).records)
    _echo(
        f"wrote {count} records to {dest} "
        f"(mean words: document {stats.mean_document_words:.1f}, "
        f"summary {stats.mean_summary_words:.1f})"
    )


if __name__ == "__main__":
    main()
