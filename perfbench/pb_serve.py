"""serve_exact and serve_churn: closed-loop clients against `repro serve`.

Two connections from this one process each send their next request
only after the previous reply arrived (the shape of the real callers,
``repro query`` and scripts, which all wait).  Requests travel as raw
protocol lines, so client-library changes cannot move the figures.

End-to-end runs keep the server at its ``repro serve`` defaults, its
own request tracing included.  Their timed window is cut into
``SEGMENT_S`` segments with the reference loop of ``pb_calib`` timed
in this process between them (the server idles meanwhile); each
request's latency is reported at reference speed, scaled by the loop
timings on both sides of its segment.  A traced run starts two servers of the
same kind, one under the span hook and one without, and alternates
the load between them in ``SLICE_S`` slices: the difference between
the two is the tracing overhead, measured under the same conditions.
"""

from __future__ import annotations

import itertools
import json
import re
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time

import pb_calib
import pb_common
import pb_inputs
import pb_layers
import pb_stats

from pb_check import Checker

CONNECTIONS = 2
#: A reply slower than this counts as a timed-out request.
REQUEST_TIMEOUT_S = 30.0
BANNER_TIMEOUT_S = 60.0
#: Traced and untraced servers take turns in slices this long.
SLICE_S = 0.25
#: End-to-end runs calibrate between segments of the window this long.
SEGMENT_S = 1.0
TOKEN = "perfbench-token"
BANNER = re.compile(r"repro service listening on (\S+):(\d+)")


class LineClient:
    """One protocol connection: a request line out, a reply line in."""

    def __init__(self, address):
        self.sock = socket.create_connection(address,
                                             timeout=REQUEST_TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")

    def call(self, payload: bytes) -> dict:
        self.sock.sendall(payload)
        line = self.reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line)

    def close(self) -> None:
        for closer in (self.reader.close, self.sock.close):
            try:
                closer()
            except OSError:
                pass


def encode(request, rid: str, token: str | None) -> bytes:
    obj = {"v": 1, "op": request.op, "params": request.params,
           "trace": rid}
    if token is not None:
        obj["auth"] = token
    return (json.dumps(obj, separators=(",", ":")) + "\n").encode()


class Server:
    """A ``repro serve`` process, from spawn to reaped."""

    def __init__(self, workdir, name: str, args, token=None,
                 trace_dir=None):
        self.token = token
        self.log = workdir / f"{name}.log"
        with open(self.log, "w", encoding="utf-8") as out:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve",
                 "--port", "0", *args],
                stdout=out, stderr=subprocess.STDOUT,
                env=pb_common.child_env(trace_dir), cwd=pb_common.ROOT)
        try:
            self.address = self._await_banner()
        except BaseException:
            self.stop()
            raise

    def _await_banner(self):
        deadline = time.monotonic() + BANNER_TIMEOUT_S
        while True:
            found = BANNER.search(self.log.read_text(encoding="utf-8"))
            if found:
                return found.group(1), int(found.group(2))
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited before listening: "
                                   f"{self._tail()}")
            if time.monotonic() > deadline:
                raise RuntimeError("server did not announce its port")
            time.sleep(0.005)

    def _tail(self) -> str:
        return self.log.read_text(encoding="utf-8")[-400:]

    def peak_rss_mb(self) -> float:
        return pb_common.peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        """Ask for a clean shutdown (a traced server writes its spans
        on the way out); escalate if it does not exit."""
        if self.proc.poll() is None:
            try:
                client = LineClient(self.address)
                try:
                    client.call(encode(pb_inputs.Request(
                        "shutdown", {}, None, None), "stop", self.token))
                finally:
                    client.close()
            except (OSError, ValueError, AttributeError):
                pass
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.terminate()
                try:
                    self.proc.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait()


class Record:
    __slots__ = ("index", "rid", "request", "server", "t0", "t1",
                 "status", "result", "factor")


def drive(servers, request_for, *, rid_prefix: str, token=None,
          count: int | None = None, seconds: float | None = None,
          slice_s: float | None = None, first: int = 0):
    """Closed loop over ``CONNECTIONS`` connections.

    Sends ``request_for(first)``, ``request_for(first + 1)``, ... until
    ``count`` requests were sent or ``seconds`` have passed (requests
    in flight at the deadline complete).  With two servers and ``slice_s``, all
    connections send to server 0 in even slices and to server 1 in odd
    ones.  Returns ``(records, start_ns, end_ns)``."""
    counter = itertools.count(first)
    start = time.monotonic_ns()
    deadline = None if seconds is None else start + int(seconds * 1e9)
    per_thread: list[list] = [[] for _ in range(CONNECTIONS)]
    errors: list = []

    def loop(out):
        clients: list = [None] * len(servers)
        try:
            while True:
                index = next(counter)
                now = time.monotonic_ns()
                if count is not None and index >= first + count:
                    return
                if deadline is not None and now >= deadline:
                    return
                target = 0
                if slice_s is not None:
                    target = int((now - start) / 1e9 / slice_s) % 2
                request = request_for(index)
                record = Record()
                record.index, record.request = index, request
                record.rid = f"{rid_prefix}{index}"
                record.server = target
                record.result = None
                record.factor = 1.0
                payload = encode(request, record.rid, token)
                client = clients[target]
                record.t0 = time.monotonic_ns()
                try:
                    if client is None:
                        client = clients[target] = LineClient(
                            servers[target].address)
                    reply = client.call(payload)
                    if reply.get("ok"):
                        record.status = "ok"
                        record.result = reply.get("result")
                    else:
                        record.status = reply.get("error", {}).get(
                            "code", "malformed")
                except socket.timeout:
                    record.status = "timeout"
                except (OSError, ValueError):
                    record.status = "connection"
                record.t1 = time.monotonic_ns()
                if record.status in ("timeout", "connection") \
                        and clients[target] is not None:
                    clients[target].close()
                    clients[target] = None
                out.append(record)
        except Exception as error:  # reported, never swallowed
            errors.append(error)
        finally:
            for client in clients:
                if client is not None:
                    client.close()

    threads = [threading.Thread(target=loop, args=(out,))
               for out in per_thread]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    records = sorted((r for out in per_thread for r in out),
                     key=lambda r: r.index)
    end = max((r.t1 for r in records), default=start)
    return records, start, end


# ----------------------------------------------------------------------
# Library reference values and the reply checks
# ----------------------------------------------------------------------
class Reference:
    """The library's own answers, computed in this process after the
    servers are gone (outside every timed window), memoized per key."""

    def __init__(self):
        from repro.cli import parse_query
        from repro.evaluation import endpoint_weight_grid, evaluate
        from repro.reduction.blocks import path_block
        from repro.booleans.store import cnf_fingerprint
        from repro.service.protocol import decode_world
        from repro.tid import wmc
        from repro.tid.lineage import lineage

        self._parse, self._block, self._lineage = (parse_query,
                                                   path_block, lineage)
        self._evaluate, self._grid = evaluate, endpoint_weight_grid
        self._fingerprint, self._compiled = cnf_fingerprint, wmc.compiled
        self.decode_world = decode_world
        self._memo: dict = {}

    def _get(self, kind, key, make):
        memo_key = (kind, key)
        if memo_key not in self._memo:
            self._memo[memo_key] = make()
        return self._memo[memo_key]

    def workload(self, key):
        def make():
            query = self._parse(key[0])
            tid = self._block(query, key[1])
            return query, tid, self._lineage(query, tid)
        return self._get("workload", key, make)

    def circuit(self, key):
        return self._compiled(self.workload(key)[2])

    def value(self, key):
        def make():
            query, tid, _ = self.workload(key)
            result = self._evaluate(query, tid)
            if result.method not in ("lifted", "wmc"):
                raise RuntimeError(f"library answered {key} with "
                                   f"{result.method}, not exactly")
            return result.value
        return self._get("value", key, make)

    def sweep(self, key, grid: int):
        def make():
            _, tid, formula = self.workload(key)
            return self.circuit(key).probability_batch(
                self._grid(formula, tid, grid))
        return self._get(("sweep", grid), key, make)

    def fingerprint(self, key) -> str:
        return self._get("fingerprint", key, lambda: self._fingerprint(
            self.workload(key)[2]))

    def sample(self, key, k: int, seed: int):
        tid = self.workload(key)[1]
        return self.circuit(key).sample(tid.probability, k, rng=seed)

    def top_k(self, key, k: int):
        tid = self.workload(key)[1]
        return self._get(("top_k", k), key, lambda: self.circuit(
            key).top_k_worlds(tid.probability, k))


def check_reply(checker: Checker, ref: Reference, request, result):
    kind, key, params = request.check, request.key, request.params
    context = f"{request.op} {params}"
    if kind == "evaluate":
        checker.exact(result["value"], ref.value(key), context)
    elif kind == "evaluate_batch":
        text, ps = key
        items = result["results"]
        checker.expect(len(items) == len(ps), f"{context}: count")
        for p, item in zip(ps, items):
            checker.exact(item["value"], ref.value((text, p)), context)
    elif kind in ("sweep_exact", "sweep_float"):
        expected = ref.sweep(key, params["grid"])
        values = result["values"]
        checker.expect(len(values) == len(expected), f"{context}: count")
        for got, want in zip(values, expected):
            if kind == "sweep_exact":
                checker.exact(got, want, context)
            else:
                checker.close(got, want, context)
    elif kind == "compile":
        checker.expect(result["fingerprint"] == ref.fingerprint(key),
                       f"{context}: fingerprint")
    elif kind == "estimate":
        estimate = result["estimate"]
        checker.contains(estimate["low"], estimate["high"],
                         ref.value(key), context)
    elif kind == "sample":
        formula = ref.workload(key)[2]
        worlds = [ref.decode_world(w) for w in result["worlds"]]
        for world in worlds:
            checker.satisfies(formula, world, context)
        checker.expect(worlds == ref.sample(key, params["k"],
                                            params["seed"]),
                       f"{context}: worlds differ from the library's")
    elif kind == "top_k":
        formula = ref.workload(key)[2]
        expected = ref.top_k(key, params["k"])
        got = [(item["probability"], ref.decode_world(item["world"]))
               for item in result["worlds"]]
        checker.expect(len(got) == len(expected), f"{context}: count")
        for (prob, world), (want_prob, want_world) in zip(got, expected):
            checker.exact(prob, want_prob, context)
            checker.expect(world == want_world,
                           f"{context}: world differs from the library's")
            checker.satisfies(formula, world, context)
    else:
        raise ValueError(f"no check for {kind!r}")


# ----------------------------------------------------------------------
# The workloads
# ----------------------------------------------------------------------
class _Plan:
    """What distinguishes serve_exact from serve_churn."""

    def __init__(self, workload: str, seed: int, workdir):
        self.workdir = workdir
        if workload == "serve_exact":
            schedule = pb_inputs.exact_schedule(seed)
            self.pass_len = len(schedule)
            self.request_for = lambda i: schedule[i % len(schedule)]
            self.warmup = pb_inputs.exact_warmup(seed)
            self.token = None
            self.store = False
        else:
            inputs = pb_inputs.ChurnInputs(seed)
            self.pass_len = pb_inputs.CHURN_PASS
            self.request_for = inputs.request
            self.warmup = inputs.warmup()
            self.token = TOKEN
            self.store = True
        self._stores = itertools.count()

    def server_args(self) -> list[str]:
        if not self.store:
            return []
        store = self.workdir / f"store-{next(self._stores)}"
        return ["--workers", "2", "--store", str(store),
                "--auth-tokens", f"bench={TOKEN}",
                "--quota", "rate=1000000000,window=60,"
                           "nodes=1000000000000"]

    def start(self, name: str, trace_dir=None):
        """Spawn and warm one server; returns it, its set-up seconds
        and the warm-up records."""
        started = time.monotonic()
        server = Server(self.workdir, name, self.server_args(),
                        self.token, trace_dir)
        try:
            records, _, _ = drive([server], self.warmup.__getitem__,
                                  rid_prefix=f"{name}-", token=self.token,
                                  count=len(self.warmup))
        except BaseException:
            server.stop()
            raise
        setup_s = time.monotonic() - started
        failed = [f"{r.request.op} {r.request.params}: {r.status}"
                  for r in records if r.status != "ok"]
        if failed:
            server.stop()
            raise RuntimeError(f"warm-up requests failed: {failed[:3]}")
        return server, setup_s, records

    def clean_stores(self) -> None:
        for path in self.workdir.glob("store-*"):
            shutil.rmtree(path, ignore_errors=True)


def timed_window(servers, plan, seconds: float):
    """The end-to-end window: ``seconds`` of closed loop in
    ``SEGMENT_S`` segments, the reference loop timed before, between
    and after them.  Each record gets its segment's speed factor.
    Returns ``(records, reference_busy_s, calibration)``."""
    calibration = [pb_calib.sample()]
    segments = max(1, round(seconds / SEGMENT_S))
    records, busy_s, first = [], 0.0, 0
    for _ in range(segments):
        part, start, end = drive(servers, plan.request_for,
                                 rid_prefix="r", token=plan.token,
                                 seconds=seconds / segments, first=first)
        calibration.append(pb_calib.sample())
        factor = pb_calib.scale(calibration[-2] + calibration[-1])
        for record in part:
            record.factor = factor
        busy_s += (end - start) / 1e9 * factor
        records += part
        if part:
            first = part[-1].index + 1
    return records, busy_s, calibration


def run(workload: str, seed: int, seconds: float, trace: bool,
        workdir) -> dict:
    plan = _Plan(workload, seed, workdir)
    checked = []
    servers = []
    try:
        if trace:
            trace_dir = workdir / "spans"
            trace_dir.mkdir()
            traced, _, warm = plan.start("traced", str(trace_dir))
            servers.append(traced)
            checked += warm
            plain, _, warm = plan.start("plain")
            servers.append(plain)
            checked += warm
            window, _, _ = drive(
                servers, plan.request_for, rid_prefix="r",
                token=plan.token, seconds=seconds, slice_s=SLICE_S)
        else:
            setups, raw_setups = [], []
            for n in range(pb_common.SETUP_REPEATS):
                before = pb_calib.sample()
                server, setup_s, warm = plan.start(f"server-{n}")
                raw_setups.append(setup_s)
                setups.append(setup_s * pb_calib.scale(
                    before + pb_calib.sample()))
                checked += warm
                if n + 1 < pb_common.SETUP_REPEATS:
                    server.stop()
                else:
                    servers.append(server)
            window, busy_s, calibration = timed_window(servers, plan,
                                                       seconds)
            rss_mb = servers[0].peak_rss_mb()
    finally:
        for server in servers:
            server.stop()
        plan.clean_stores()

    ok = [r for r in window if r.status == "ok"]
    checker = Checker()
    # The quota is permissive and nothing is killed, so a healthy run
    # answers every request: an error reply, refusal or timeout in the
    # window fails the run, and cannot make it look faster instead.
    for record in window:
        checker.expect(record.status == "ok",
                       f"{record.request.op} {record.request.params}: "
                       f"{record.status}")
    ref = Reference()
    for record in checked + ok:
        try:
            check_reply(checker, ref, record.request, record.result)
        except (KeyError, TypeError, ValueError, IndexError) as error:
            checker.expect(False, f"{record.request.op} "
                                  f"{record.request.params}: malformed "
                                  f"reply ({error!r})")
    outcomes = [r.status for r in window]
    result = {"attempted": len(window),
              "failed": sum(1 for o in outcomes if o != "ok"),
              "correct": checker.ok, "failures": checker.failures,
              "checked": checker.checked}

    def latencies(records, op=None):
        """Latencies in ms; at reference speed in end-to-end runs."""
        return pb_common.ms((r.t1 - r.t0) * r.factor for r in records
                            if op is None or r.request.op == op)

    if not trace:
        all_ms = latencies(ok)
        result["tail_samples"] = pb_stats.samples_beyond(
            all_ms, pb_stats.quantile(all_ms, 0.99))
        result["raw"] = {
            "setup_s": statistics.median(raw_setups),
            "latency_p50_ms": pb_stats.quantile(
                pb_common.ms(r.t1 - r.t0 for r in ok), 0.5),
            "calibration_ms": statistics.median(
                ns for point in calibration for ns in point) / 1e6}
        # One pass over the seeded request list at the window's rate:
        # ``wall_s`` restates ``throughput_rps`` per pass.
        result["metrics"] = pb_common.e2e_metrics(
            setups=setups,
            pass_walls=[busy_s * plan.pass_len / len(ok)],
            op_latencies=all_ms,
            sweep_latencies=latencies(ok, "sweep"),
            evaluate_latencies=latencies(ok, "evaluate"),
            completed=len(ok), busy_s=busy_s, rss_mb=rss_mb)
        return result

    traced_ok = [r for r in ok if r.server == 0]
    spans = pb_layers.load_spans(workdir / "spans")
    metrics = pb_layers.layer_metrics(
        spans, {r.rid: r.t1 - r.t0 for r in traced_ok}, len(traced_ok))
    metrics["trace.overhead_frac"] = (
        statistics.median(latencies(traced_ok))
        / statistics.median(latencies([r for r in ok if r.server == 1]))
        - 1)
    metrics["failed_frac"] = pb_stats.failed_frac(outcomes)
    result["metrics"] = metrics
    return result
