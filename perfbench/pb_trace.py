"""Span recording around the program's public entry points.

The benchmark never edits the program.  In a traced process the
startup hook (``hook/sitecustomize.py``) calls ``install_from_env``,
which patches each function in ``TARGETS`` right after its module is
imported, and rebinds every ``repro`` module global that still names
an original — modules import functions by name, so a caller holds its
own reference.  Each call then records one span::

    (span id, parent id, layer, start ns, end ns, info)

Parents come from a per-thread stack.  Work that ``CompilePool``
hands to an executor thread is adopted under the waiting request's
``scheduler.compile`` span, so the compile shows up as that wait's
child.  Spans stay in memory and are written to
``$PERFBENCH_TRACE_DIR/spans-<pid>.jsonl`` when the process exits,
including on SIGTERM (how a dispatcher stops its pool workers).

Clocks are ``time.monotonic_ns``, one system-wide clock on Linux, so
spans of the dispatcher and of its worker processes can be nested.
"""

from __future__ import annotations

import atexit
import functools
import importlib.abc
import itertools
import json
import os
import signal
import sys
import threading
import time

ENV_DIR = "PERFBENCH_TRACE_DIR"


def _rid(args, kwargs, result):
    """Root spans: the request id the server echoes in ``trace``."""
    if isinstance(result, dict):
        return {"rid": result.get("trace")}
    return None


def _child_trace(args, kwargs, result):
    # ReproDispatcher._call_worker(self, handle, op, params, child_trace)
    child = kwargs.get("child_trace", args[4] if len(args) > 4 else None)
    return {"child": child}


def _nodes(args, kwargs, result):
    return {"nodes": result.size} if result is not None else None


def _lanes(args, kwargs, result):
    return {"lanes": len(result)} if result is not None else None


def _kernel(args, kwargs, result):
    if result is None:
        return None
    return {"lanes": len(result), "instr": args[0].n_instructions}


def _hit(args, kwargs, result):
    return {"hit": result is not None}


def _bytes_written(args, kwargs, result):
    try:
        return {"bytes": os.stat(result).st_size}
    except (OSError, TypeError):
        return {"bytes": 0}


def _samples(args, kwargs, result):
    return {"samples": result.samples} if result is not None else None


#: (module, qualified name, layer, info extractor).  Layer names are
#: the benchmark's; ``pb_layers.LAYER_METRICS`` maps them to metrics.
TARGETS = (
    ("repro.service.server", "ReproServer.handle_line", "server", _rid),
    ("repro.service.dispatch", "ReproDispatcher.handle_line", "server",
     _rid),
    ("repro.service.dispatch", "ReproDispatcher._call_worker",
     "dispatch", _child_trace),
    ("repro.service.protocol", "parse_request", "protocol", None),
    ("repro.service.tenants", "TenantRegistry.resolve", "tenants", None),
    ("repro.service.tenants", "TenantRegistry.charge_request", "tenants",
     None),
    ("repro.service.tenants", "TenantRegistry.check_compile", "tenants",
     None),
    ("repro.service.tenants", "TenantRegistry.charge_compile", "tenants",
     None),
    ("repro.service.server", "WorkloadResolver.resolve", "resolver", None),
    ("repro.service.scheduler", "CompilePool.run_attributed",
     "scheduler.compile", None),
    ("repro.service.scheduler", "SweepCoalescer.submit",
     "scheduler.coalesce", None),
    ("repro.tid.lineage", "lineage", "lineage", None),
    ("repro.tid.wmc", "compiled", "wmc.compiled", None),
    ("repro.tid.wmc", "cnf_probability_auto", "wmc.auto", None),
    ("repro.tid.wmc", "probability_batch_auto", "wmc.auto", None),
    ("repro.booleans.circuit", "compile_cnf", "circuit.compile", _nodes),
    ("repro.booleans.circuit", "Circuit.probability", "circuit.eval",
     lambda args, kwargs, result: {"lanes": 1}),
    ("repro.booleans.circuit", "Circuit.probability_batch",
     "circuit.eval", _lanes),
    ("repro.booleans.circuit", "Circuit.sample", "circuit.worlds", None),
    ("repro.booleans.circuit", "Circuit.top_k_worlds", "circuit.worlds",
     None),
    ("repro.booleans.tape", "flatten_circuit", "tape.flatten", None),
    ("repro.booleans.tape", "Tape.evaluate", "tape.kernel", _kernel),
    ("repro.booleans.store", "CircuitStore.get", "store.read", _hit),
    ("repro.booleans.store", "CircuitStore.get_tape", "store.read", _hit),
    ("repro.booleans.store", "CircuitStore.put", "store.write",
     _bytes_written),
    ("repro.booleans.store", "CircuitStore.put_tape", "store.write",
     _bytes_written),
    ("repro.evaluation", "evaluate", "evaluation", None),
    ("repro.tid.lifted", "lifted_probability", "lifted", None),
    ("repro.booleans.adaptive", "estimate_with", "estimate", _samples),
    ("repro.reduction.blocks", "reduction_tid", "reduction.build", None),
    ("repro.algebra.matrices", "Matrix.solve", "matrices.solve", None),
)


class Recorder:
    """In-memory span store with per-thread parent stacks."""

    def __init__(self):
        self.spans: list = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_id(self) -> int:
        """The innermost open span on this thread (0: none)."""
        stack = self._stack()
        return stack[-1] if stack else 0

    def call(self, layer: str, fn, args, kwargs, info=None):
        """Run ``fn(*args, **kwargs)`` inside one span."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        result = None
        start = time.monotonic_ns()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.monotonic_ns()
            stack.pop()
            extra = info(args, kwargs, result) if info else None
            self.spans.append((sid, parent, layer, start, end, extra))

    def span(self, layer: str, fn, *args, rid=None):
        """A span the benchmark opens itself (the root of one
        reduction instance)."""
        return self.call(layer, fn, args, {},
                         lambda a, k, r: {"rid": rid})

    def adopt(self, parent: int, fn):
        """``fn`` for another thread, running under span ``parent``."""
        def adopted():
            stack = self._stack()
            saved = stack[:]
            stack[:] = [parent]
            try:
                return fn()
            finally:
                stack[:] = saved
        return adopted

    def dump(self, directory: str) -> None:
        path = os.path.join(directory, f"spans-{os.getpid()}.jsonl")
        spans = list(self.spans)
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({"pid": os.getpid(),
                                  "argv": sys.argv[:3]}) + "\n")
            for record in spans:
                out.write(json.dumps(record, separators=(",", ":")))
                out.write("\n")


def _plain_wrapper(recorder: Recorder, fn, layer, info):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return recorder.call(layer, fn, args, kwargs, info)
    return wrapper


def _compile_pool_wrapper(recorder: Recorder, fn, layer, info):
    """``run_attributed(self, key, build)``: the build runs on an
    executor thread, adopted under this wait span."""
    @functools.wraps(fn)
    def wrapper(pool, key, build):
        def run(pool, key, build):
            return fn(pool, key, recorder.adopt(recorder.current_id(), build))
        return recorder.call(layer, run, (pool, key, build), {})
    return wrapper


def _coalescer_wrapper(recorder: Recorder, fn, layer, info):
    """``submit(self, key, weight_maps, runner, wait)``: records this
    request's own lanes and, for the leader, the lanes of the batched
    pass it ran."""
    @functools.wraps(fn)
    def wrapper(coalescer, key, weight_maps, runner, wait=True):
        weight_maps = list(weight_maps)
        seen = {"own": len(weight_maps), "pass": 0}

        def counted(vectors):
            seen["pass"] = len(vectors)
            return runner(vectors)
        return recorder.call(layer, fn,
                             (coalescer, key, weight_maps, counted, wait),
                             {}, lambda a, k, r: dict(seen))
    return wrapper


_SPECIAL = {"scheduler.compile": _compile_pool_wrapper,
            "scheduler.coalesce": _coalescer_wrapper}


class _Patcher(importlib.abc.MetaPathFinder):
    """Patches each target module as soon as it has executed."""

    def __init__(self, recorder: Recorder, targets=TARGETS):
        self.recorder = recorder
        self.by_module: dict = {}
        for module, qualname, layer, info in targets:
            self.by_module.setdefault(module, []).append(
                (qualname, layer, info))
        #: id(original) -> (original, wrapper)
        self.replaced: dict = {}

    def find_spec(self, name, path, target=None):
        if not name.startswith("repro"):
            return None
        for finder in sys.meta_path:
            if finder is self or not hasattr(finder, "find_spec"):
                continue
            spec = finder.find_spec(name, path, target)
            if spec is not None:
                break
        else:
            return None
        if spec.loader is None or not hasattr(spec.loader, "exec_module"):
            return spec
        loader = spec.loader
        patcher = self

        class _Loader(importlib.abc.Loader):
            def create_module(self, spec):
                return loader.create_module(spec)

            def exec_module(self, module):
                loader.exec_module(module)
                patcher.patch(module)

            def __getattr__(self, attr):
                return getattr(loader, attr)

        spec.loader = _Loader()
        return spec

    def patch(self, module) -> None:
        targets = self.by_module.get(module.__name__)
        if not targets:
            return
        for qualname, layer, info in targets:
            owner = module
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            make = _SPECIAL.get(layer, _plain_wrapper)
            wrapper = make(self.recorder, original, layer, info)
            setattr(owner, attr, wrapper)
            self.replaced[id(original)] = (original, wrapper)
        # Rebind names this or any earlier-loaded module imported
        # before its source module was patched.
        for name, loaded in list(sys.modules.items()):
            if name.startswith("repro") and loaded is not None:
                self._rebind(loaded)

    def _rebind(self, module) -> None:
        for name, value in list(vars(module).items()):
            entry = self.replaced.get(id(value))
            if entry is not None and entry[0] is value:
                setattr(module, name, entry[1])


_installed: Recorder | None = None


def current() -> Recorder | None:
    """The recorder of this process, when tracing is on."""
    return _installed


def install_from_env() -> Recorder | None:
    """Install the wrappers when ``$PERFBENCH_TRACE_DIR`` is set."""
    global _installed
    directory = os.environ.get(ENV_DIR)
    if not directory or _installed is not None:
        return _installed
    recorder = Recorder()
    sys.meta_path.insert(0, _Patcher(recorder))
    _installed = recorder
    dumped = []

    def dump():
        if not dumped:
            dumped.append(True)
            recorder.dump(directory)

    def on_term(signum, frame):
        dump()
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        os.kill(os.getpid(), signal.SIGTERM)

    atexit.register(dump)
    signal.signal(signal.SIGTERM, on_term)
    return recorder
