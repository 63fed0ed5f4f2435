"""Run one CLI job with layer spans: trace_child.py OUT_DIR ARGV...

The traced twin of ``python3 -m cremfan.cli ARGV...``: times the import of
``cremfan.cli``, installs the wrappers before anything is loaded, runs the
job and writes its spans and counters to OUT_DIR.
"""

import sys
import time

t0 = time.perf_counter()
import cremfan.cli  # noqa: E402

import_s = time.perf_counter() - t0

from tracer import Tracer  # noqa: E402


def main() -> int:
    out_dir, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    tracer.times["cli.import"] += import_s
    try:
        return cremfan.cli.main(argv)
    finally:
        sys.stdout.flush()
        tracer.dump(out_dir)


if __name__ == "__main__":
    sys.exit(main())
