"""One isoprod CLI invocation under the benchmark's span tracer.

Used by traced cli-batch runs in place of ``python -m isoprod``:
``python bench/traced_child.py <isoprod arguments>``, with
BENCH_TRACE_OUT naming the JSON file that receives the child's spans,
timings and counts.  Untraced runs never start this file.
"""

import json
import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from tracer import Tracer  # noqa: E402


def main() -> int:
    tracer = Tracer()
    tracer.install()
    from isoprod import cli

    try:
        return cli.main(sys.argv[1:])
    finally:
        times, counts = tracer.take_job()
        Path(os.environ["BENCH_TRACE_OUT"]).write_text(
            json.dumps({"times": times, "counts": counts, "spans": tracer.spans}),
            encoding="utf-8",
        )


if __name__ == "__main__":
    sys.exit(main())
