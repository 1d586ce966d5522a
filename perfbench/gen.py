"""Generate one workload's inputs into a directory (run as its own process).

Writes ``corpus.jsonl``, ``script.json`` and ``inputs.json`` (the achieved
word counts). For ``replay`` workloads it also runs the scripted experiment
once through the public path, leaving ``replay_cache.jsonl`` and the
outputs in ``reference/out`` that every replay must reproduce. Running here keeps set-up artifacts out of the measured process's
memory and time.

Usage: python3 perfbench/gen.py --workload NAME --seed N --docs N --out DIR
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import SHAPE_TOLERANCE, WORKLOADS, manifest, write_inputs  # noqa: E402

from summit.corpus import CorpusSchema, load_corpus, word_stats  # noqa: E402
from summit.experiment import RunManifest, run_experiment  # noqa: E402


def generate(name: str, seed: int, docs: int, out: Path) -> dict:
    workload = WORKLOADS[name]
    out.mkdir(parents=True, exist_ok=True)
    write_inputs(workload, seed, docs, out)

    loaded = load_corpus(out / "corpus.jsonl", CorpusSchema(workload.corpus_schema), strict=True)
    stats = word_stats(loaded.records)
    shape = {
        "records": stats.count,
        "mean_document_words": stats.mean_document_words,
        "mean_reference_words": stats.mean_summary_words,
        "target_document_words": workload.doc_words,
        "target_reference_words": workload.ref_words,
    }
    for achieved, target in (
        (stats.mean_document_words, workload.doc_words),
        (stats.mean_summary_words, workload.ref_words),
    ):
        if abs(achieved - target) > SHAPE_TOLERANCE * target:
            raise SystemExit(f"{name}: generated mean of {achieved:.1f} words misses the stated {target}")

    if workload.mode == "replay":
        reference = out / "reference"
        reference.mkdir()
        spec = manifest(workload, seed, docs, "scripted", "../replay_cache.jsonl")
        (reference / "manifest.json").write_text(json.dumps(spec), encoding="utf-8")
        result = run_experiment(RunManifest.from_file(reference / "manifest.json"))
        if result.failures:
            raise SystemExit(f"{name}: the run that builds the replay cache failed: {result.failures[0]}")

    info = {"workload": name, "seed": seed, "docs": docs, "why": workload.why, "shape": shape}
    (out / "inputs.json").write_text(json.dumps(info, indent=2), encoding="utf-8")
    return info


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--docs", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    generate(args.workload, args.seed, args.docs, args.out)


if __name__ == "__main__":
    main()
