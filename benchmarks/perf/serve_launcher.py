"""The traced live server: install the span wrappers, then ``repro serve``.

Usage: ``python serve_launcher.py SPAN_DUMP.json [repro serve args...]``

On a clean stop (SIGINT) the span aggregates are written to
``SPAN_DUMP.json`` and the kept raw spans next to it, for the load
generator to read.
"""

from __future__ import annotations

import json
import pathlib
import sys

import tracing

from repro.serve.cli import serve_main


def main(argv: list[str]) -> int:
    dump = pathlib.Path(argv[0])
    recorder = tracing.SpanRecorder()
    patch = tracing.install(recorder)
    try:
        code = serve_main(argv[1:])
    finally:
        patch.close()
        dump.write_text(json.dumps(recorder.snapshot()))
        recorder.write_spans(dump.with_suffix(".spans.jsonl"))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
