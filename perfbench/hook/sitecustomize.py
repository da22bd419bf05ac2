"""Startup hook for traced benchmark processes.

The benchmark puts this directory on ``PYTHONPATH`` of the processes
it traces, so the interpreter imports this module at start-up, before
any ``repro`` module.  Pool workers inherit the environment from the
dispatcher that spawns them, so they are traced the same way.  With
``$PERFBENCH_TRACE_DIR`` unset this does nothing.
"""

import os
import sys

if os.environ.get("PERFBENCH_TRACE_DIR"):
    sys.path.append(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    import pb_trace

    pb_trace.install_from_env()
