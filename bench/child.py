"""Traced CLI child: `python bench/child.py SPANS_OUT ARGV...`.

Runs `inversive.cli.main(ARGV)` exactly as `python -m inversive.cli ARGV`
would, with the benchmark's span wrappers installed after the import, then
writes the spans to SPANS_OUT and exits with the CLI's code.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import inversive.cli  # noqa: E402

from tracer import Tracer  # noqa: E402


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        code = inversive.cli.main(argv)
    except SystemExit as e:
        code = e.code if isinstance(e.code, int) else 2
    finally:
        sys.stdout.flush()
        tracer.uninstall()
        tracer.write_spans(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
