"""Run one ``libration`` CLI command with spans at the package's boundaries.

Usage: python traced_cli.py SPANS_JSON <cli arguments...>

Times the package import, wraps the package's public functions (see
spans.install), runs ``libration.cli.main`` and writes the spans and counts
to SPANS_JSON at exit.  The exit code is the command's.
"""

import json
import sys

from spans import Tracer, install


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    with tracer.span("import.libration.cli"):
        import libration.cli
    restore = install(tracer)
    try:
        with tracer.span(f"cli.{argv[0]}"):
            code = libration.cli.main(argv)
    finally:
        restore()
        with open(spans_path, "w") as fh:
            json.dump(tracer.to_json(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
