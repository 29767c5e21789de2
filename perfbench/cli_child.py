"""A traced ``wiresplit`` CLI process.

Usage: python perfbench/cli_child.py SPANS_OUT <wiresplit arguments>

Times ``import wiresplit.cli``, then runs ``wiresplit.cli.main`` with the
layer entry points wrapped, and writes the spans to SPANS_OUT as JSON lines.
Exits with ``main``'s exit code.
"""

import sys
import time


def main() -> int:
    spans_out, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import wiresplit.cli
    t1 = time.perf_counter()

    from tracing import Span, Tracer, layer_entries

    tracer = Tracer()
    tracer.spans.append(Span("cli.import", t0, t1, None, None))
    tracer.install(layer_entries())
    try:
        return wiresplit.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.write(spans_out)


if __name__ == "__main__":
    sys.exit(main())
