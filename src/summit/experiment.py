"""Batch experiment runner: manifests, per-document traces, corpus stats.

A run manifest is a JSON file that pins everything needed to re-run an
experiment: corpus path, sampling plan, session configuration, backend
mode, and output directory. Relative paths are resolved against the
manifest's own directory. Run outputs contain no timestamps, so a replayed
run is byte-comparable against the original.

A run has one session, ``RunManifest.session``. A control run's document takes
the pinned ``topic_query``, else its record's ``topics[topic_index]`` (with
neither, it fails alone), and is scored against its ``topic_index``-th summary
when the record has topics and that summary, else against every summary.
"""

from __future__ import annotations

import enum
from itertools import islice, takewhile
from pathlib import Path
from typing import Callable, NamedTuple, get_type_hints

from . import metrics
from ._version import __version__
from .backend import BackendSettings, CompletionBackend, backend_factory
from .cache import ResponseCache
from .config import coerce, environment, is_set, key_paths, mapping, params_of, resolve_settings
from .corpus import CorpusSchema, DatasetRecord, SampleSpec, Split, load_corpus, sample
from .errors import ConfigError, SummitError, read_json, read_json_lines, write_json, write_json_lines
from .knowledge import TripletExtractor, build_extractor
from .metrics import FaithfulnessScorer, aggregate, rouge_l_multi, rouge_n_multi, topic_similarity
from .prompting import DEFAULT_SHOTS, PromptRegistry
from .session import run_session
from .trace_io import trace_file_name, write_trace
from .types import CompletionResponse, Document, Exemplar, ServedFrom, SessionConfig, SessionTrace, Setting, usage_of

MANIFEST_HEADER = {"schema": "summit/manifest", "version": 1}
STATS_HEADER = {"schema": "summit/stats", "version": 1}
CALLS_HEADER = {"schema": "summit/calls", "version": 1}


class RunManifest(NamedTuple):
    """A run description. ``session_params`` holds the keyword arguments of
    the run's SessionConfig, ``session``; its exemplars come from
    ``exemplars_path``, and a control run without a pinned ``topic_query``
    takes each document's topic from its record. ``KEYS`` names
    each field's place in the manifest JSON; its type and default give the
    rest.
    """

    name: str
    corpus_path: Path
    sample: SampleSpec
    session_params: dict
    output_dir: Path
    corpus_schema: CorpusSchema = CorpusSchema.GENERIC
    backend: BackendSettings = BackendSettings()
    workers: int = 4
    topic_index: int = 0
    exemplars_path: Path | None = None
    shots: int = DEFAULT_SHOTS
    knowledge_endpoint: str | None = None
    knowledge_fallback: bool = True
    faithfulness_endpoint: str | None = None
    prompts_dir: Path | None = None

    #: Each field's key in the manifest JSON: "section.name" or a top-level name.
    KEYS = {
        "name": "name",
        "corpus_path": "corpus.path",
        "sample": "sample",
        "session_params": "session",
        "output_dir": "output_dir",
        "corpus_schema": "corpus.schema",
        "backend": "backend",
        "workers": "workers",
        "topic_index": "session.topic_index",
        "exemplars_path": "session.exemplars_path",
        "shots": "session.shots",
        "knowledge_endpoint": "knowledge.endpoint",
        "knowledge_fallback": "knowledge.fallback_to_naive",
        "faithfulness_endpoint": "faithfulness.endpoint",
        "prompts_dir": "prompts.dir",
    }

    def check(self) -> RunManifest:
        """This manifest, unless its sample (ValueError), its backend, its
        worker or shot count, its topic index or its session template
        (ConfigError) is out of range. A template that pins no topic is
        checked with a placeholder, since a control run's records give their own."""
        self.sample.check()
        self.backend.check()
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if self.shots < 0:
            raise ConfigError("shots must be >= 0")
        if self.topic_index not in (0, 1):  # a record holds at most two topics
            raise ConfigError(f"topic_index must be 0 or 1, not {self.topic_index}")
        try:
            self.session._replace(topic_query=self.session.topic_query or "probe").check()
        except ConfigError as exc:
            raise ConfigError(f"invalid session template: {exc}") from exc
        return self

    @property
    def session(self) -> SessionConfig:
        """The run's session; each field ``session_params`` leaves out takes its default."""
        return SessionConfig(**self.session_params)

    def resolved(self) -> "RunManifest":
        """This manifest with its backend settings resolved (manifest >
        environment > default) and written in, so its emitted copy pins them.
        The model is the session's ``model_id``."""
        values = {**self.backend._asdict(), "model": self.session_params.get("model_id")}
        backend = resolve_settings(values, environment())
        params = {**self.session_params, "model_id": backend.model}
        return self._replace(backend=backend, session_params=params)

    @classmethod
    def from_file(cls, path: str | Path) -> "RunManifest":
        path = Path(path)
        data = read_json(path, MANIFEST_HEADER)
        unknown = sorted(key_paths(data) - _KNOWN_KEYS)
        if unknown:
            raise ConfigError(f"unknown manifest key {unknown[0]!r} in {path}")
        data = {**data, "name": data.get("name") or path.stem}
        hints = get_type_hints(cls)
        values = {}
        try:
            for field, place in cls.KEYS.items():
                section, _, key = place.rpartition(".")
                source = mapping(data.get(section), section) if section else data
                if field == "session_params":
                    values[field] = params_of(SessionConfig, mapping(data.get(key), key))
                elif is_set(source.get(key)):
                    values[field] = coerce(hints[field], source[key], path.parent, key)
            return cls(**values).check()
        except (AttributeError, KeyError, ValueError, TypeError) as exc:
            raise ConfigError(f"invalid manifest {path}: {exc}") from exc

    def to_dict(self) -> dict:
        out: dict = dict(MANIFEST_HEADER)
        for field, place in self.KEYS.items():
            section, _, key = place.rpartition(".")
            if field == "session_params":
                # Every session field but the exemplars, which come from exemplars_path.
                session = {k: _encode(v) for k, v in self.session._asdict().items() if k != "exemplars"}
                out.setdefault(key, {}).update(session)
            elif field == "backend":
                # The model is the session's model_id; the API key is never written.
                backend = _encode(self.backend)
                del backend["model"], backend["api_key"]
                out[key] = backend
            elif section:
                out.setdefault(section, {})[key] = _encode(getattr(self, field))
            else:
                out[key] = _encode(getattr(self, field))
        return out


def _encode(value):
    """A field value as the manifest JSON stores it."""
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, Path):
        return str(value)
    if hasattr(value, "_asdict"):  # a nested record: BackendSettings or SampleSpec
        return {name: _encode(item) for name, item in value._asdict().items()}
    return value


#: Every key a manifest may hold: those of a default manifest, the API key
#: (never written out) and the provenance an emitted manifest adds.
_KNOWN_KEYS = key_paths(
    RunManifest(name="", corpus_path=Path(), sample=SampleSpec(1, 0), session_params={}, output_dir=Path()).to_dict()
) | {"backend.api_key", "prompt_fingerprint", "package_version"}


def load_exemplars(path: str | Path, shots: int) -> list[Exemplar]:
    """First ``shots`` entries of a JSONL exemplar file; none for 0. Each
    is an object with a string ``document``, ``summary`` and ``explanation``
    (ConfigError naming the file and line otherwise). Every session puts the
    exemplars into the evaluator's prompt, which needs the explanation; it
    is checked once every line is read, so a line that cannot be read is
    named first."""
    numbered = []
    # Sliced, so that no line after the last exemplar taken is read.
    for lineno, raw in islice(read_json_lines(path), shots):
        raw = mapping(raw, f"exemplar at {path}:{lineno}")
        exemplar = Exemplar(raw.get("document"), raw.get("summary"), raw.get("explanation"))
        if not isinstance(exemplar.document, str) or not isinstance(exemplar.summary, str):
            raise ConfigError(f"exemplar at {path}:{lineno} needs a string document and summary")
        numbered.append((lineno, exemplar))
    for lineno, exemplar in numbered:
        if not isinstance(exemplar.explanation, str):
            raise ConfigError(f"exemplar at {path}:{lineno} needs a string explanation for the evaluator's prompt")
    return [exemplar for _, exemplar in numbered]


def estimate_calls(manifest: RunManifest) -> dict:
    """Worst-case live call counts for a run (the --yes gate shows these)."""
    per_doc = 2 * manifest.session.max_iterations
    return {
        "documents": manifest.sample.n,
        "max_iterations": manifest.session.max_iterations,
        "worst_case_calls_per_document": per_doc,
        "worst_case_total_calls": manifest.sample.n * per_doc,
    }


class ExperimentResult(NamedTuple):
    output_dir: Path
    stats: dict
    failures: list[dict]


def build_parts(
    settings: BackendSettings,
    prompts_dir: Path | None = None,
    exemplars_path: Path | None = None,
    shots: int = DEFAULT_SHOTS,
    knowledge_endpoint: str | None = None,
    knowledge_fallback: bool = True,
) -> tuple[
    PromptRegistry, list[Exemplar], Callable[[], CompletionBackend], TripletExtractor | None, ResponseCache | None
]:
    """The prompts, exemplars, per-session backend factory, triplet extractor
    and response cache of a run; the caller closes the cache. ``summarize``
    and ``run_experiment`` both build here, so a malformed prompt manifest,
    exemplar, script or cache file is a ConfigError for both."""
    try:
        prompts = PromptRegistry.load(prompts_dir)
        exemplars = load_exemplars(exemplars_path, shots) if exemplars_path else []
        cache = ResponseCache(settings.cache) if settings.cache else None
        factory = backend_factory(settings, cache)
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"invalid input file ({type(exc).__name__}): {exc}") from exc
    extractor = build_extractor(knowledge_endpoint, knowledge_fallback, settings.max_attempts)
    return prompts, exemplars, factory, extractor, cache


def claim_cache(settings: BackendSettings, cache: ResponseCache | None, directory: Path | None = None) -> None:
    """Make ``directory``, where the command writes, then take the writer
    lock of a cache the backend will write to, before the first call, so a
    run never pays for calls it could not cache. A refused claim removes the
    directories it made, so the refused command leaves nothing behind.
    Replay only reads its cache and takes no lock."""
    made = []
    if directory is not None:
        made = list(takewhile(lambda path: not path.exists(), (directory, *directory.parents)))
        directory.mkdir(parents=True, exist_ok=True)  # first, so that a bad directory leaves no cache file
    try:
        if cache is not None and settings.mode != "replay":
            cache.claim()
    except ConfigError:
        for path in made:
            path.rmdir()
        raise


def _topic_and_references(
    record: DatasetRecord, session: SessionConfig, topic_index: int
) -> tuple[str | None, list[str]]:
    """The topic a document's session controls on (None outside the control
    setting) and the references its drafts are scored against (see the
    module docstring); ConfigError for a control record with no topic."""
    if session.setting is not Setting.CONTROL:
        return None, list(record.summaries)
    topic = session.topic_query or (record.topics[topic_index] if topic_index < len(record.topics) else None)
    if topic is None:
        raise ConfigError("record has no topic to control on")
    if record.topics and topic_index < len(record.summaries):
        return topic, [record.summaries[topic_index]]
    return topic, list(record.summaries)


def _doc_metrics(
    record: DatasetRecord,
    trace: SessionTrace,
    references: list[str],
    topic: str | None,
    scorer: FaithfulnessScorer | None,
) -> dict:
    # Each text is tokenized once, through the metrics module so the calls
    # stay countable there (perfbench/tracer.py counts metrics.tokenize), and
    # each reference's n-grams are counted once for both drafts.
    references = [metrics.tokenize(ref) for ref in references]
    grams = {n: [metrics.ngrams(ref, n) for ref in references] for n in (1, 2)}
    topic_tokens = None if topic is None else metrics.tokenize(topic)

    def score(step) -> dict:
        text = step.summary.text
        tokens = metrics.tokenize(text)
        row = {
            "rouge1": rouge_n_multi(tokens, grams[1], 1).f1,
            "rouge2": rouge_n_multi(tokens, grams[2], 2).f1,
            "rougeL": rouge_l_multi(tokens, references).f1,
            "gpt_eval": step.feedback.expected_score,
        }
        if topic_tokens is not None:
            row["topic_similarity"] = topic_similarity(topic_tokens, tokens)
        if scorer is not None:
            row["faithfulness"] = scorer.score(record.document, text)
        return row

    init = score(trace.steps[0])
    # A one-step trace's first step is its last: score it once.
    final = score(trace.steps[-1]) if len(trace.steps) > 1 else dict(init)
    return {"iterations": len(trace.steps), "init": init, "final": final}


def _check_peek_guard(manifest: RunManifest, fingerprint: str, acknowledge_peek: bool) -> None:
    existing = manifest.output_dir / "manifest.json"
    if acknowledge_peek or manifest.sample.split is not Split.TEST or not existing.exists():
        return
    old_fp = read_json(existing, MANIFEST_HEADER).get("prompt_fingerprint")
    if old_fp and old_fp != fingerprint:
        raise ConfigError(
            "prompts changed since this test-split run directory was created; "
            "tune prompts on a dev sample, or pass --acknowledge-peek to proceed"
        )


def run_experiment(
    manifest: RunManifest,
    yes: bool = False,
    acknowledge_peek: bool = False,
) -> ExperimentResult:
    """Process the manifest's sample and write traces + stats to its output dir.

    The emitted manifest is written before the first session and each
    document's trace as soon as its session ends; stats.json and calls.json
    are written once every document is done."""
    manifest = manifest.check().resolved()
    prompts, exemplars, factory, extractor, cache = build_parts(
        manifest.backend, manifest.prompts_dir, manifest.exemplars_path, manifest.shots,
        manifest.knowledge_endpoint, manifest.knowledge_fallback,
    )
    fingerprint = prompts.fingerprint()
    _check_peek_guard(manifest, fingerprint, acknowledge_peek)

    if manifest.backend.mode == "live" and not yes:
        estimate = estimate_calls(manifest)
        raise ConfigError(
            f"live run would issue up to {estimate['worst_case_total_calls']} calls "
            f"({estimate['documents']} documents x {estimate['worst_case_calls_per_document']}); "
            "pass --yes to proceed (see the estimate command)"
        )

    loaded = load_corpus(manifest.corpus_path, manifest.corpus_schema, strict=True)
    records = sample(loaded.records, manifest.sample)

    endpoint = manifest.faithfulness_endpoint
    scorer = FaithfulnessScorer(endpoint, max_attempts=manifest.backend.max_attempts) if endpoint else None
    traces = manifest.output_dir / "traces"
    session = manifest.session
    if exemplars:
        session = session._replace(exemplars=tuple(exemplars))

    def process(record: DatasetRecord) -> tuple[list[ServedFrom], dict, dict | str]:
        """Run, score and write one document: where each backend reply was
        served from, the replies' usage object, and the document's scores or
        its error. Its session is the run's with its topic filled in."""
        calls: list[CompletionResponse] = []
        try:
            topic, references = _topic_and_references(record, session, manifest.topic_index)
            config = session if topic is None else session._replace(topic_query=topic)
            doc = Document(id=record.id, text=record.document)
            trace = run_session(doc, config, factory(), prompts, extractor, calls=calls)
            # Written before scoring, so a scorer outage keeps the finished session.
            write_trace(trace, traces / trace_file_name(record.id))
            outcome = _doc_metrics(record, trace, references, topic, scorer)
        except SummitError as exc:
            outcome = f"{type(exc).__name__}: {exc}"
        return [call.served_from for call in calls], usage_of(calls), outcome

    try:
        claim_cache(manifest.backend, cache, traces)
        for stale in traces.glob("*.jsonl"):
            stale.unlink()  # an earlier run's; the traces directory holds this run's alone
        # Written before any session, so an interrupted run can be replayed.
        emitted = {**manifest.to_dict(), "prompt_fingerprint": fingerprint, "package_version": __version__}
        write_json(manifest.output_dir / "manifest.json", emitted)
        if manifest.workers == 1 or len(records) <= 1:
            outcomes = [process(r) for r in records]
        else:
            # Here, so that a one-worker run does not pay for importing it.
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(max_workers=manifest.workers) as pool:
                outcomes = list(pool.map(process, records))
    finally:
        if cache is not None:
            cache.close()  # only sessions write to it

    return _write_outputs(manifest, records, outcomes)


def _write_outputs(manifest, records, outcomes) -> ExperimentResult:
    """stats.json, calls.json and failures.jsonl.
    Call origins count every document's replies; the usage object sums only
    those of completed documents."""
    outdir = manifest.output_dir
    failures = []
    origins = [origin for served, _, _ in outcomes for origin in served]
    counts = {origin.value: origins.count(origin) for origin in ServedFrom}
    usage = usage_of(())
    per_metric: dict[str, dict[str, list[float]]] = {"init": {}, "final": {}}
    iteration_values: list[float] = []

    for record, (_, doc_usage, scores) in zip(records, outcomes):
        if isinstance(scores, str):
            failures.append({"document_id": record.id, "error": scores})
            continue
        for name, count in doc_usage.items():
            usage[name] += count
        iteration_values.append(float(scores["iterations"]))
        for label in ("init", "final"):
            for metric, value in scores[label].items():
                per_metric[label].setdefault(metric, []).append(value)

    # Everything in stats.json derives from the sample alone, never from the
    # backend mode, so a replayed run reproduces it byte-for-byte. Call and
    # token accounting (which legitimately differ between a live run and its
    # replay) go to calls.json instead.
    stats: dict = {
        **STATS_HEADER,
        "run": {
            "name": manifest.name,
            "setting": manifest.session.setting.value,
            "sampled": len(records),
            "completed": len(records) - len(failures),
            "failures": len(failures),
        },
        "metrics": {},
    }
    if iteration_values:
        stats["iterations"] = aggregate(iteration_values, "iterations")._asdict()
    for label in ("init", "final"):
        stats["metrics"][label] = {
            metric: aggregate(values, f"{label}/{metric}")._asdict()
            for metric, values in sorted(per_metric[label].items())
        }

    write_json(outdir / "stats.json", stats)
    calls = {**CALLS_HEADER, "mode": manifest.backend.mode, "calls": counts, "usage": usage}
    write_json(outdir / "calls.json", calls)
    (outdir / "failures.jsonl").unlink(missing_ok=True)  # an earlier run's
    if failures:
        write_json_lines(outdir / "failures.jsonl", failures)

    return ExperimentResult(output_dir=outdir, stats=stats, failures=failures)
