"""The shared service front end: both backends (``ReproServer`` and a
one-worker ``ReproDispatcher``) must agree on every op's error
handling, validate before touching process-wide state, and shut down
cleanly while a compile is in flight."""

import importlib
import importlib.util
import json
import os
import re
import socket
import threading
import time

from fractions import Fraction
from pathlib import Path

import pytest

from repro.cli import main
from repro.service.client import ServiceClient, ServiceError
from repro.service.dispatch import ReproDispatcher
from repro.service.protocol import OPS
from repro.service.server import ReproServer
from repro.tid import wmc
from repro.tid.wmc import EvalPolicy

QUERY = "(R|S1)(S1|T)"
ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(autouse=True)
def isolated_cache():
    wmc.clear_circuit_cache()
    wmc.set_circuit_store(None)
    yield
    wmc.set_circuit_store(None)
    wmc.clear_circuit_cache()


@pytest.fixture(scope="module")
def dispatcher():
    with ReproDispatcher(port=0, workers=1, window=0.0) as disp:
        yield disp


@pytest.fixture()
def server():
    srv = ReproServer(port=0, window=0.0)
    yield srv
    srv.close()


@pytest.fixture(params=["server", "dispatcher"])
def front_end(request):
    return request.getfixturevalue(request.param)


def _call(front_end, op: str, **params) -> dict:
    line = json.dumps({"v": 1, "id": 1, "op": op, "params": params})
    return front_end.handle_line(line)


def _error_code(response: dict) -> str | None:
    return None if response["ok"] else response["error"]["code"]


# ----------------------------------------------------------------------
# One op surface
# ----------------------------------------------------------------------
#: Params that carry a request as far as per-op validation (a query
#: where the op resolves one), plus the unknown param under test.
_TARGET = {"query": QUERY, "p": 2}
_MALFORMED = {
    "compile": _TARGET, "evaluate": _TARGET, "sweep": _TARGET,
    "estimate": _TARGET, "sample": _TARGET, "top_k": _TARGET,
    "evaluate_batch": {"query": QUERY, "ps": [2]},
}


@pytest.mark.parametrize("op", OPS)
def test_unknown_param_gets_the_same_code_from_both_front_ends(
        op, server, dispatcher):
    params = {**_MALFORMED.get(op, {}), "bogus": 1}
    codes = {_error_code(_call(front_end, op, **params))
             for front_end in (server, dispatcher)}
    assert len(codes) == 1, (op, codes)
    (code,) = codes
    assert code not in (None, "internal"), (op, code)


#: One table of estimator-knob cases, run through every entry point
#: that parses them: ``EvalPolicy`` itself, both front ends'
#: ``handle_line`` and the CLI.  Each case names the op that carries
#: it, and the outcome every entry point must agree on: a rejection
#: (with the policy's message) or the estimator the knobs resolve to.
KNOB_CASES = [
    ("estimate", {"epsilon": 0}, ("reject", "must be in (0, 1)")),
    ("estimate", {"epsilon": 1}, ("reject", "must be in (0, 1)")),
    ("estimate", {"delta": "-1/2"}, ("reject", "must be in (0, 1)")),
    ("estimate", {"delta": 1}, ("reject", "must be in (0, 1)")),
    ("evaluate", {"method": "estimate", "epsilon": 2},
     ("reject", "must be in (0, 1)")),
    ("evaluate", {"budget_nodes": 2, "delta": 0},
     ("reject", "must be in (0, 1)")),
    ("evaluate", {"epsilon": -1}, ("reject", "must be in (0, 1)")),
    ("sweep", {"budget_nodes": 2, "epsilon": "3/2"},
     ("reject", "must be in (0, 1)")),
    ("estimate", {"delta": 2}, ("reject", "must be in (0, 1)")),
    ("evaluate", {"relative_error": 0}, ("reject", "must be positive")),
    ("sweep", {"budget_nodes": 2, "relative_error": -1},
     ("reject", "must be positive")),
    ("estimate", {"estimator": "bogus"}, ("reject", "unknown estimator")),
    ("estimate", {"relative_error": "1/10"}, ("accept", "adaptive")),
]

#: The CLI verb and flag that carry each op and param.
_CLI_VERBS = {"estimate": "estimate", "evaluate": "compile",
              "sweep": "sweep"}
_CLI_FLAGS = {"budget_nodes": "--budget", "estimator": "--engine",
              "relative_error": "--relative-error"}


def _policy_outcome(params: dict) -> tuple:
    knobs = {key: value if key in ("budget_nodes", "estimator")
             else Fraction(str(value))
             for key, value in params.items() if key != "method"}
    try:
        return "accept", EvalPolicy(**knobs).estimator
    except ValueError as error:
        return "reject", str(error)


def _cli_outcome(op: str, params: dict, capsys) -> tuple:
    argv = [_CLI_VERBS[op], QUERY, "--p", "2"] + [
        f"{_CLI_FLAGS.get(key, '--' + key)}={value}"
        for key, value in params.items() if key != "method"]
    try:
        assert main(argv) == 0
    except SystemExit as exit_:
        return "reject", str(exit_.code)
    engine = re.search(r"engine: +(\w+)", capsys.readouterr().out)
    return "accept", engine.group(1)


@pytest.mark.parametrize(
    "op, params, outcome", KNOB_CASES,
    ids=[f"{op}-params{i}" for i, (op, _, _) in enumerate(KNOB_CASES)])
def test_out_of_range_epsilon_delta_is_a_bad_request(front_end, op,
                                                     params, outcome,
                                                     capsys):
    """Every knob case gets the same decision from ``EvalPolicy``,
    from this front end and from the CLI: out-of-range knobs are a
    bad request (a ``repro:`` exit on the command line), and accepted
    knobs resolve to the same estimator everywhere."""
    verdict, detail = outcome
    policy_verdict, policy_detail = _policy_outcome(params)
    assert policy_verdict == verdict
    assert detail in policy_detail
    response = _call(front_end, op, query=QUERY, p=2, **params)
    cli_verdict, cli_detail = _cli_outcome(op, params, capsys)
    assert cli_verdict == verdict
    if verdict == "reject":
        assert _error_code(response) == "bad-request", response
        assert detail in response["error"]["message"]
    else:
        assert response["ok"], response
        assert response["result"]["engine"] == detail
        assert cli_detail == detail


# ----------------------------------------------------------------------
# Constructor: validate and bind before installing the store
# ----------------------------------------------------------------------
def test_rejected_arguments_leave_the_circuit_store_alone(tmp_path):
    with pytest.raises(ValueError):
        ReproServer(port=0, store=tmp_path / "store", slow_ms=-1)
    assert wmc.get_circuit_store() is None


def test_failed_bind_leaves_the_circuit_store_alone(tmp_path):
    with socket.socket() as occupied:
        occupied.bind(("127.0.0.1", 0))
        occupied.listen()
        port = occupied.getsockname()[1]
        with pytest.raises(OSError):
            ReproServer(port=port, store=tmp_path / "store")
    assert wmc.get_circuit_store() is None


# ----------------------------------------------------------------------
# perfbench's patch points
# ----------------------------------------------------------------------
def test_every_perfbench_trace_target_resolves():
    """``perfbench/pb_trace.py`` wraps each target in place; a class
    attribute must be defined in the owner's own body (it is looked up
    in ``__dict__``), so moving one into a base class would break
    traced benchmark runs."""
    spec = importlib.util.spec_from_file_location(
        "pb_trace_under_test", ROOT / "perfbench" / "pb_trace.py")
    pb_trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(pb_trace)
    assert pb_trace.TARGETS
    for module_name, qualname, _layer, _info in pb_trace.TARGETS:
        owner = importlib.import_module(module_name)
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        if isinstance(owner, type):
            assert attr in owner.__dict__, (module_name, qualname)
            assert callable(owner.__dict__[attr]), qualname
        else:
            assert callable(getattr(owner, attr)), qualname


# ----------------------------------------------------------------------
# Lifecycle: close() while a compile is in flight
# ----------------------------------------------------------------------
def _compile_in_background(address) -> tuple[threading.Thread, dict]:
    outcome: dict = {}

    def run():
        try:
            with ServiceClient(*address, timeout=30) as client:
                outcome["reply"] = client.compile(QUERY, p=3)
        except ServiceError as error:
            outcome["error"] = error

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread, outcome


def _assert_clean_close(front_end, thread, outcome) -> None:
    started = time.monotonic()
    front_end.close()
    assert time.monotonic() - started < 10
    thread.join(timeout=40)
    assert not thread.is_alive(), "client hung after close()"
    # A reply (success or structured error) or a clean disconnect —
    # never the client's own timeout.
    error = outcome.get("error")
    assert "reply" in outcome or error.code != "timeout", outcome


def test_server_close_during_inflight_compile(monkeypatch):
    in_flight = threading.Event()
    real_compiled = wmc.compiled

    def slow_compiled(*args, **kwargs):
        in_flight.set()
        time.sleep(2)
        return real_compiled(*args, **kwargs)

    monkeypatch.setattr(wmc, "compiled", slow_compiled)
    server = ReproServer(port=0)
    thread, outcome = _compile_in_background(server.start())
    assert in_flight.wait(10)
    _assert_clean_close(server, thread, outcome)


_SLOW_COMPILE_SITECUSTOMIZE = '''
import pathlib
import time

from repro.tid import wmc

_real_compiled = wmc.compiled


def _slow_compiled(*args, **kwargs):
    pathlib.Path({marker!r}).touch()
    time.sleep(60)
    return _real_compiled(*args, **kwargs)


wmc.compiled = _slow_compiled
'''


def test_dispatcher_close_during_inflight_compile(tmp_path, monkeypatch):
    # The worker processes import this sitecustomize at start-up, so
    # their compiles stall long enough for close() to land mid-flight.
    hook = tmp_path / "hook"
    hook.mkdir()
    marker = tmp_path / "compiling"
    (hook / "sitecustomize.py").write_text(
        _SLOW_COMPILE_SITECUSTOMIZE.format(marker=str(marker)))
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(
        filter(None, [str(hook), os.environ.get("PYTHONPATH")])))
    dispatcher = ReproDispatcher(port=0, workers=1, window=0.0)
    try:
        thread, outcome = _compile_in_background(dispatcher.start())
        deadline = time.monotonic() + 20
        while not marker.exists():
            assert time.monotonic() < deadline, "compile never started"
            time.sleep(0.05)
    except BaseException:
        dispatcher.close()
        raise
    _assert_clean_close(dispatcher, thread, outcome)
