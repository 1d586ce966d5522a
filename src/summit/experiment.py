"""Batch experiment runner: manifests, per-document traces, corpus stats.

A run manifest is a JSON file that pins everything needed to re-run an
experiment: corpus path, sampling plan, session configuration, backend
mode, and output directory. Relative paths are resolved against the
manifest's own directory. Run outputs contain no timestamps, so a replayed
run is byte-comparable against the original.
"""

from __future__ import annotations

import enum
import json
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import Callable, get_type_hints

from . import metrics
from ._version import __version__
from .backend import BackendSettings, CompletionBackend, ServedFrom, backend_factory
from .cache import ResponseCache
from .config import coerce, environment, is_set, key_paths, mapping, params_of, resolve_settings
from .corpus import CorpusSchema, DatasetRecord, SampleSpec, Split, load_corpus, sample
from .errors import ConfigError, SummitError
from .knowledge import TripletExtractor, build_extractor
from .metrics import FaithfulnessScorer, aggregate, rouge_l_multi, rouge_n_multi, topic_similarity
from .prompting import DEFAULT_SHOTS, PromptRegistry
from .session import run_session
from .trace_io import write_trace
from .types import Document, Exemplar, SessionConfig, SessionTrace, Setting, Usage

MANIFEST_SCHEMA = "summit/manifest"
MANIFEST_VERSION = 1
STATS_SCHEMA = "summit/stats"
STATS_VERSION = 1
CALLS_SCHEMA = "summit/calls"


def _at(key: str, default=MISSING, default_factory=MISSING):
    """A RunManifest field stored at ``key`` in the manifest JSON: either
    "section.name" or a top-level name."""
    section, _, name = key.rpartition(".")
    return field(default=default, default_factory=default_factory, metadata={"section": section, "key": name})


#: The SessionConfig fields a manifest's session section holds (exemplars
#: come from exemplars_path).
_CONFIG_FIELDS = [f for f in fields(SessionConfig) if f.name != "exemplars"]


@dataclass
class RunManifest:
    """A run description. ``session_params`` holds SessionConfig keyword
    arguments for one SessionConfig per document (control runs take the
    topic from each record unless the manifest pins one). Each field names
    its place in the manifest JSON; its type and default give the rest.
    """

    name: str = _at("name")
    corpus_path: Path = _at("corpus.path")
    sample: SampleSpec = _at("sample")
    session_params: dict = _at("session")
    output_dir: Path = _at("output_dir")
    corpus_schema: CorpusSchema = _at("corpus.schema", CorpusSchema.GENERIC)
    backend: BackendSettings = _at("backend", default_factory=BackendSettings)
    workers: int = _at("workers", 4)
    topic_index: int = _at("session.topic_index", 0)
    exemplars_path: Path | None = _at("session.exemplars_path", None)
    shots: int = _at("session.shots", DEFAULT_SHOTS)
    knowledge_endpoint: str | None = _at("knowledge.endpoint", None)
    knowledge_fallback: bool = _at("knowledge.fallback_to_naive", True)
    faithfulness_endpoint: str | None = _at("faithfulness.endpoint", None)
    prompts_dir: Path | None = _at("prompts.dir", None)

    def __post_init__(self):
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if self.shots < 0:
            raise ConfigError("shots must be >= 0")
        # Validate the non-topic template knobs early; control runs may defer
        # the topic itself to per-record data.
        try:
            self.session_for(topic="probe" if self.setting is Setting.CONTROL else None)
        except ConfigError as exc:
            raise ConfigError(f"invalid session template: {exc}") from exc

    def _param(self, name: str):
        return self.session_params.get(name, getattr(SessionConfig, name))

    @property
    def setting(self) -> Setting:
        return self._param("setting")

    @property
    def topic_query(self) -> str | None:
        return self._param("topic_query")

    @property
    def max_iterations(self) -> int:
        return self._param("max_iterations")

    def session_for(self, topic: str | None = None, exemplars: list[Exemplar] | None = None) -> SessionConfig:
        params = dict(self.session_params)
        if topic is not None and not params.get("topic_query"):
            params["topic_query"] = topic
        if exemplars:
            params["exemplars"] = exemplars
        return SessionConfig(**params)

    def resolved(self) -> "RunManifest":
        """This manifest with its backend settings resolved (manifest >
        environment > default) and written in, so its emitted copy pins them.
        The model is the session's ``model_id``."""
        values = {**asdict(self.backend), "model": self.session_params.get("model_id")}
        backend = resolve_settings(values, environment())
        params = {**self.session_params, "model_id": backend.model}
        return replace(self, backend=backend, session_params=params)

    @classmethod
    def from_file(cls, path: str | Path) -> "RunManifest":
        path = Path(path)
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except ValueError as exc:
            raise ConfigError(f"manifest is not valid JSON: {exc}") from None
        if not isinstance(data, dict) or data.get("schema") != MANIFEST_SCHEMA:
            raise ConfigError(f"not a run manifest: {path}")
        unknown = sorted(key_paths(data) - _KNOWN_KEYS)
        if unknown:
            raise ConfigError(f"unknown manifest key {unknown[0]!r} in {path}")
        data = {**data, "name": data.get("name") or path.stem}
        hints = get_type_hints(cls)
        values = {}
        try:
            for f in fields(cls):
                section, key = f.metadata["section"], f.metadata["key"]
                source = mapping(data.get(section), section) if section else data
                if f.name == "session_params":
                    values[f.name] = params_of(SessionConfig, mapping(data.get(key), key))
                elif is_set(source.get(key)):
                    values[f.name] = coerce(hints[f.name], source[key], path.parent, key)
            return cls(**values)
        except (AttributeError, KeyError, ValueError, TypeError) as exc:
            raise ConfigError(f"invalid manifest {path}: {exc}") from exc

    def to_dict(self) -> dict:
        out: dict = {"schema": MANIFEST_SCHEMA, "version": MANIFEST_VERSION}
        for f in fields(self):
            section, key = f.metadata["section"], f.metadata["key"]
            if f.name == "session_params":
                # Every session key; those the params leave out take their defaults.
                params = self.session_params
                session = {c.name: _encode(params.get(c.name, c.default)) for c in _CONFIG_FIELDS}
                out.setdefault(key, {}).update(session)
            elif f.name == "backend":
                # The model is the session's model_id; the API key is never written.
                backend = _encode(self.backend)
                del backend["model"], backend["api_key"]
                out[key] = backend
            elif section:
                out.setdefault(section, {})[key] = _encode(getattr(self, f.name))
            else:
                out[key] = _encode(getattr(self, f.name))
        return out


def _encode(value):
    """A field value as the manifest JSON stores it."""
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, Path):
        return str(value)
    if is_dataclass(value):
        return {f.name: _encode(getattr(value, f.name)) for f in fields(value)}
    return value


#: Every key a manifest may hold: those of a default manifest, the API key
#: (never written out) and the provenance an emitted manifest adds.
_KNOWN_KEYS = key_paths(
    RunManifest(name="", corpus_path=Path(), sample=SampleSpec(1, 0), session_params={}, output_dir=Path()).to_dict()
) | {"backend.api_key", "prompt_fingerprint", "package_version"}


def load_exemplars(path: str | Path, shots: int) -> list[Exemplar]:
    """First ``shots`` entries of a JSONL exemplar file; none for 0."""
    exemplars = []
    with Path(path).open("r", encoding="utf-8") as fh:
        for line in fh:
            if len(exemplars) >= shots:
                break
            if not line.strip():
                continue
            raw = json.loads(line)
            exemplars.append(
                Exemplar(
                    document=raw["document"],
                    summary=raw["summary"],
                    explanation=raw.get("explanation"),
                )
            )
    return exemplars


def estimate_calls(manifest: RunManifest) -> dict:
    """Worst-case live call counts for a run (the --yes gate shows these)."""
    per_doc = 2 * manifest.max_iterations
    return {
        "documents": manifest.sample.n,
        "max_iterations": manifest.max_iterations,
        "worst_case_calls_per_document": per_doc,
        "worst_case_total_calls": manifest.sample.n * per_doc,
    }


@dataclass
class ExperimentResult:
    output_dir: Path
    stats: dict
    failures: list[dict] = field(default_factory=list)


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
    return prompts, exemplars, factory, build_extractor(knowledge_endpoint, knowledge_fallback), cache


def claim_cache(settings: BackendSettings, cache: ResponseCache | None) -> None:
    """Take the writer lock of a cache the backend will write to, before the
    first call, so a run never pays for calls it could not cache. Replay
    only reads its cache and takes no lock."""
    if cache is not None and settings.mode != "replay":
        cache.claim()


def _scoring_references(record: DatasetRecord, manifest: RunManifest) -> list[str]:
    # Control runs score against the topic-paired reference when topics exist.
    if (
        manifest.setting is Setting.CONTROL
        and record.topics
        and manifest.topic_index < len(record.summaries)
    ):
        return [record.summaries[manifest.topic_index]]
    return list(record.summaries)


def _record_topic(record: DatasetRecord, manifest: RunManifest) -> str | None:
    if manifest.setting is not Setting.CONTROL:
        return None
    if manifest.topic_query:
        return manifest.topic_query
    if manifest.topic_index < len(record.topics):
        return record.topics[manifest.topic_index]
    return None


def _doc_metrics(
    record: DatasetRecord,
    trace: SessionTrace,
    manifest: RunManifest,
    topic: str | None,
    scorer: FaithfulnessScorer | None,
) -> dict:
    # Each text is tokenized once, through the metrics module so the calls
    # stay countable there (perfbench/tracer.py counts metrics.tokenize), and
    # each reference's n-grams are counted once for both drafts.
    references = [metrics.tokenize(ref) for ref in _scoring_references(record, manifest)]
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
    if manifest.sample.split is not Split.TEST or not existing.exists():
        return
    try:
        old = json.loads(existing.read_text(encoding="utf-8"))
    except ValueError:
        return
    old_fp = old.get("prompt_fingerprint") if isinstance(old, dict) else None
    if old_fp and old_fp != fingerprint and not acknowledge_peek:
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
    manifest = manifest.resolved()
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

    scorer = (
        FaithfulnessScorer(manifest.faithfulness_endpoint)
        if manifest.faithfulness_endpoint
        else None
    )
    traces = manifest.output_dir / "traces"
    traces.mkdir(parents=True, exist_ok=True)

    def process(record: DatasetRecord) -> tuple[Usage, dict | str]:
        """Run, score and write one document: its usage, and its scores or its error."""
        usage = Usage()
        topic = _record_topic(record, manifest)
        if manifest.setting is Setting.CONTROL and topic is None:
            return usage, "ConfigError: record has no topic to control on"
        config = manifest.session_for(topic, exemplars)
        doc = Document(id=record.id, text=record.document)
        try:
            trace = run_session(doc, config, factory(), prompts, extractor, usage=usage)
            # Written before scoring, so a scorer outage keeps the finished session.
            write_trace(trace, traces / f"{record.id}.jsonl")
            return usage, _doc_metrics(record, trace, manifest, topic, scorer)
        except SummitError as exc:
            return usage, f"{type(exc).__name__}: {exc}"

    try:
        claim_cache(manifest.backend, cache)
        for stale in traces.glob("*.jsonl"):
            stale.unlink()  # an earlier run's; the traces directory holds this run's alone
        # Written before any session, so an interrupted run can be replayed.
        emitted = {**manifest.to_dict(), "prompt_fingerprint": fingerprint, "package_version": __version__}
        _write_json(manifest.output_dir / "manifest.json", emitted)
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


def _write_json(path: Path, data: dict) -> None:
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _write_outputs(manifest, records, outcomes) -> ExperimentResult:
    """stats.json, calls.json and failures.jsonl.
    Call origins count every document's calls; token totals only those of
    completed documents."""
    outdir = manifest.output_dir
    failures = []
    counts = {origin.value: 0 for origin in ServedFrom}
    usage_total = {"prompt_tokens": 0, "completion_tokens": 0, "cache_hits": 0}
    per_metric: dict[str, dict[str, list[float]]] = {"init": {}, "final": {}}
    iteration_values: list[float] = []

    for record, (usage, scores) in zip(records, outcomes):
        for origin, n in usage.calls.items():
            counts[origin] += n
        if isinstance(scores, str):
            failures.append({"document_id": record.id, "error": scores})
            continue
        for key in usage_total:
            usage_total[key] += getattr(usage, key)
        iteration_values.append(float(scores["iterations"]))
        for label in ("init", "final"):
            for metric, value in scores[label].items():
                per_metric[label].setdefault(metric, []).append(value)

    # Everything in stats.json derives from the sample alone, never from the
    # backend mode, so a replayed run reproduces it byte-for-byte. Call and
    # token accounting (which legitimately differ between a live run and its
    # replay) go to calls.json instead.
    stats: dict = {
        "schema": STATS_SCHEMA,
        "version": STATS_VERSION,
        "run": {
            "name": manifest.name,
            "setting": manifest.setting.value,
            "sampled": len(records),
            "completed": len(records) - len(failures),
            "failures": len(failures),
        },
        "metrics": {},
    }
    if iteration_values:
        stats["iterations"] = aggregate(iteration_values, "iterations").to_dict()
    for label in ("init", "final"):
        stats["metrics"][label] = {
            metric: aggregate(values, f"{label}/{metric}").to_dict()
            for metric, values in sorted(per_metric[label].items())
        }

    _write_json(outdir / "stats.json", stats)
    calls = {"schema": CALLS_SCHEMA, "version": 1, "mode": manifest.backend.mode, "calls": counts, "usage": usage_total}
    _write_json(outdir / "calls.json", calls)
    failures_path = outdir / "failures.jsonl"
    if failures:
        # A lone surrogate is written as its \uXXXX JSON escape.
        with failures_path.open("w", encoding="utf-8", errors="backslashreplace") as fh:
            for failure in failures:
                fh.write(json.dumps(failure, ensure_ascii=False, sort_keys=True) + "\n")
    elif failures_path.exists():
        failures_path.unlink()

    return ExperimentResult(output_dir=outdir, stats=stats, failures=failures)
