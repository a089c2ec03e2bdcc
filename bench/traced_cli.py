"""Run one kgfaith CLI command with the benchmark's tracer installed.

Usage: python3 bench/traced_cli.py SPANS.json REQUEST -- COMMAND ARGS...

Behaves like ``python3 -m kgfaith.cli COMMAND ARGS...`` (same exit code)
and afterwards writes the spans it recorded, tagged with REQUEST, to
SPANS.json.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import kgfaith.cli

import layers
from tracer import Tracer


def main() -> int:
    spans_path, request, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: traced_cli.py SPANS.json REQUEST -- COMMAND ARGS...")
    tracer = Tracer()
    tracer.request = request
    layers.install(tracer)
    code = kgfaith.cli.main(argv)
    Path(spans_path).write_text(json.dumps([s.to_json() for s in tracer.spans]), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
