"""One measured repetition of a workload, in a fresh process.

Usage: python3 perfbench/worker.py REPETITION_DIR [--trace]

Runs ``summit.experiment.RunManifest.from_file`` + ``run_experiment`` on
``REPETITION_DIR/manifest.json`` and writes ``REPETITION_DIR/result.json``.
A fresh process per repetition makes ``setup_s`` include the import of
summit and makes ``ru_maxrss`` belong to this repetition alone. With
``--trace`` the layers are wrapped by ``tracer.Tracer`` and the spans are
written to ``REPETITION_DIR/spans.jsonl``.
"""

import time

_STARTED = time.perf_counter()  # set-up time starts before summit is imported

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent


def main() -> None:
    directory = Path(sys.argv[1])
    traced = "--trace" in sys.argv[2:]
    sys.path.insert(0, str(HERE.parent / "src"))
    import summit.experiment as experiment

    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    # The one hook of an untraced run: the time of the first session.
    first_session: list[float] = []
    run_session = experiment.run_session

    def marked_run_session(*args, **kwargs):
        if not first_session:
            first_session.append(time.perf_counter())
        return run_session(*args, **kwargs)

    experiment.run_session = marked_run_session

    manifest = experiment.RunManifest.from_file(directory / "manifest.json")
    started = time.perf_counter()
    result = experiment.run_experiment(manifest)
    ended = time.perf_counter()

    run = result.stats["run"]
    out = {
        "setup_s": first_session[0] - _STARTED,
        "sessions_s": ended - first_session[0],
        "run_experiment_s": ended - started,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "sampled": run["sampled"],
        "completed": run["completed"],
        "failures": run["failures"],
    }
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = tracer.layer_metrics(run["completed"])
        tracer.write_spans(directory / "spans.jsonl")
    (directory / "result.json").write_text(json.dumps(out, indent=2), encoding="utf-8")


if __name__ == "__main__":
    main()
