"""Run one matchlab command with tracing on and save its spans.

    python bench/traced_cli.py SPANS.json ARGS...

Behaves like `python -m matchlab.cli ARGS...` (same stdout and exit code)
and writes the spans of the call to SPANS.json as a list of rows.
"""

import json
import sys

from tracing import Tracer

from matchlab import cli


def main() -> None:
    spans_file, args = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(args)
    except SystemExit as exc:
        code = exc.code
    finally:
        tracer.restore()
        with open(spans_file, "w", encoding="utf-8") as fh:
            json.dump([s.to_list() for s in tracer.spans], fh)
    sys.exit(code)


if __name__ == "__main__":
    main()
