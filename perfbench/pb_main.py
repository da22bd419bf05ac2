"""One workload run, in the fresh process ``run.py`` supervises.

``python3 perfbench/pb_main.py WORKLOAD SEED SECONDS TRACE WORKDIR``
writes the run's result as JSON to ``WORKDIR/result.json``.
"""

from __future__ import annotations

import json
import sys
import traceback

from pathlib import Path


def main(argv) -> int:
    workload, seed, seconds, trace, workdir = argv
    workdir = Path(workdir)
    try:
        if workload == "reduce_type1":
            import pb_reduce
            result = pb_reduce.run(int(seed), float(seconds),
                                   trace == "1", workdir)
        else:
            import pb_serve
            result = pb_serve.run(workload, int(seed), float(seconds),
                                  trace == "1", workdir)
    except Exception:
        (workdir / "error.txt").write_text(traceback.format_exc(),
                                           encoding="utf-8")
        return 1
    (workdir / "result.json").write_text(json.dumps(result),
                                         encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
