"""Traced stage launcher and the span recorder it uses.

    python bench/launcher.py SPANS_JSON RUN_ID STAGE [CLI ARGS...]

runs one `newstrend.cli` stage exactly as `python -m newstrend.cli STAGE ...`
would, after wrapping the public functions of each `src/newstrend` module
(see TARGETS) in spans. A span records name, start, end, parent and run id;
spans stay in memory and are written to SPANS_JSON when the stage returns.
`bench/run.py` turns them into per-layer self times and counts.

Each function is patched in its defining module and, where `newstrend.cli`
imported it by name, under that name too. Targets that no longer exist are
listed in the spans file rather than failing the stage; `bench/run.py`
counts each as a failed operation.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time


def _week_of(record_id: str):
    # synthetic ids look like synth-TTTT-IIII, TTTT being the week index
    parts = record_id.split("-")
    return parts[1] if len(parts) == 3 and parts[0] == "synth" else record_id


def _forward_attrs(args, kwargs, result):
    docs = args[1]
    return {"rows": len(docs), "weeks": len({_week_of(d.record_id) for d in docs})}


def _rows_attrs(args, kwargs, result):
    return {"rows": len(args[1])}


def _file_bytes_attrs(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _saved_bytes_attrs(args, kwargs, result):
    return {"bytes": sum(os.path.getsize(p) for p in result)}


def _dataset_attrs(args, kwargs, result):
    reasons: dict[str, int] = {}
    for _, why in result.skipped:
        reasons[why] = reasons.get(why, 0) + 1
    return {"eligible": len(args[0]), "scored": len(result.rows), "skipped": reasons}


# (module, attribute path, attrs function); the span name is
# "<module>.<attribute path>" without the package prefix
TARGETS = (
    ("corpus", "ingest_news", None),
    ("corpus", "tokenize", None),
    ("weeks", "attach_news", None),
    ("polarity", "tfidf_difference_ranking", None),
    ("polarity", "build_model_set", None),
    ("polarity", "PolarityModelSet.save", _saved_bytes_attrs),
    ("polarity", "PolarityModelSet.load", None),
    ("polarity", "PolarityModelSet.matrix", None),
    ("extractor", "ExtractorModel.forward", _forward_attrs),
    ("extractor", "ExtractorModel.loss_and_grads", _rows_attrs),
    ("extractor", "ReferenceEncoder.forward", None),
    ("extractor", "ReferenceEncoder.backward", None),
    ("extractor", "train_extractor", None),
    ("extractor", "save_extractor", None),
    ("extractor", "load_extractor", None),
    ("summarizer", "build_summarizer_dataset", _dataset_attrs),
    ("summarizer", "train_summarizer", None),
    ("metrics", "report", None),
    ("artifacts", "write_manifest", None),
    ("artifacts", "sha256_file", _file_bytes_attrs),
)

SYNTH_TARGETS = (
    ("synth", "generate", None),
    ("synth", "write_outputs", None),
)


class Tracer:
    """In-memory span recorder for one process.

    Spans are lists [name, start_ns, end_ns, parent_index, attrs]; calls
    within one process are sequential, so a stack gives each span its parent.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, attrs=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0, stack[-1] if stack else None, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if attrs is not None:
                span[4] = attrs(args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, targets, also_in=()) -> None:
        """Wrap each target; `also_in` are modules that imported targets by name."""
        for module_name, path, attrs in targets:
            name = f"{module_name}.{path}"
            try:
                module = importlib.import_module(f"newstrend.{module_name}")
                *owners, attr = path.split(".")
                owner = module
                for part in owners:
                    owner = getattr(owner, part)
                raw = owner.__dict__[attr]
            except (ImportError, AttributeError, KeyError):
                self.missing.append(name)
                continue
            if isinstance(raw, classmethod):
                self._patch(owner, attr, classmethod(self.wrap(name, raw.__func__, attrs)))
                continue
            wrapped = self.wrap(name, raw, attrs)
            self._patch(owner, attr, wrapped)
            if owner is module:
                for other in also_in:
                    if other.__dict__.get(attr) is raw:
                        self._patch(other, attr, wrapped)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def dump(self, path: str) -> None:
        payload = {"run": self.run_id, "missing": self.missing, "spans": self.spans}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


def main(argv: list[str]) -> int:
    spans_path, run_id, *cli_args = argv
    import newstrend.cli as cli

    tracer = Tracer(run_id)
    tracer.install(TARGETS, also_in=(cli,))
    try:
        return cli.main(cli_args)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
