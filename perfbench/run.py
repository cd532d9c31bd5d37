#!/usr/bin/env python3
"""End-to-end benchmark of ``repro serve`` over loopback.

    python3 perfbench/run.py --workload warm-mix --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (the directory holding ``src/``).
The harness starts real ``python -m repro serve --workers 2`` processes,
drives them from this one client process as a closed loop (each
connection waits for its reply before it sends again), checks every
answer against an expectation computed in-process before the timed
phase, and prints one JSON object as its last line of output:

* ``--trace 0``: the end-to-end metrics — set-up time (median over
  several boots), client latency p50/p90, throughput, server CPU per
  request and peak RSS (both from ``/proc/<server pid>``);
* ``--trace 1``: the per-layer metrics, from a server started through
  ``perfbench/launcher.py``, which records spans around each layer's
  entry points (see ``perfbench/layers.py``).

The server's environment is built here, not inherited: bytecode is
compiled once into a private ``PYTHONPYCACHEPREFIX`` under ``.perfbench/``
before any timed boot, ``REPRO_*`` and ``PYTHONDONTWRITEBYTECODE`` never
reach it, and its flags are pinned.  The lines before the result carry
a fingerprint of the environment and a first-half/second-half split of
the timed phase.

Exit codes: 0 when every checked answer was correct, 1 when some were
not (the result line says ``"correct": false``), 2 when the run could
not complete (no result line) — e.g. no ``src/repro`` in the working
directory, or the server died.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import selectors
import socket
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
PYCACHE = os.path.join(WORK, "pycache")
HERE = os.path.dirname(os.path.abspath(__file__))

#: Measured boots per plain run; ``setup_s`` is their median.
BOOTS = 7
#: Request ids of timed phases start here (the launcher records only these).
TIMED_ID_BASE = 1_000_000_000
SERVER_FLAGS = ["serve", "--json", "--port", "0", "--workers", "2"]
DEADLINE_PROBES = 3
IO_TIMEOUT_S = 120.0
#: Length of one plain or traced chunk of a traced run (whole passes).
CHUNK_S = 0.5

END_TO_END_UNITS = {
    "setup_s": "s",
    "p50_ms": "ms",
    "p90_ms": "ms",
    "throughput_rps": "1/s",
    "cpu_ms_per_req": "ms",
    "rss_mb": "MB",
}


class BenchError(Exception):
    """The run cannot complete; no result is printed."""


# The server (whose Python threads share one interpreter lock) runs on one
# CPU and this client on another, so neither steals the other's core and
# lock hand-offs never cross CPUs.  With fewer than two CPUs nothing is
# pinned.
_CPUS = sorted(os.sched_getaffinity(0))
SERVER_CPU = _CPUS[0] if len(_CPUS) >= 2 else None
CLIENT_CPU = _CPUS[1] if len(_CPUS) >= 2 else None


def _pin(cpu: Optional[int]):
    """A callable pinning the calling process to *cpu* (or a no-op)."""
    if cpu is None:
        return None
    return lambda: os.sched_setaffinity(0, {cpu})


# ----------------------------------------------------------------------
# Environment
# ----------------------------------------------------------------------

def server_env() -> Dict[str, str]:
    """The server's whole environment (nothing else is inherited)."""
    return {
        "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
        "PYTHONPATH": SRC,
        "PYTHONPYCACHEPREFIX": PYCACHE,
        "PYTHONHASHSEED": "0",
        "PYTHONNOUSERSITE": "1",
        "LC_ALL": "C.UTF-8",
    }


def compile_bytecode() -> None:
    """Compile ``src/repro`` into the private pycache (a no-op when fresh)."""
    os.makedirs(PYCACHE, exist_ok=True)
    done = subprocess.run(
        [sys.executable, "-m", "compileall", "-q", os.path.join(SRC, "repro")],
        env=server_env(), cwd=ROOT, stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, timeout=300,
    )
    if done.returncode != 0:
        raise BenchError(f"compileall failed: {done.stderr.decode()[-400:]}")


def _src_hash() -> str:
    digest = hashlib.sha256()
    base = os.path.join(SRC, "repro")
    for folder, dirs, files in os.walk(base):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, base).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def _git_commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "not-a-git-checkout"
    done = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True, timeout=30)
    return done.stdout.strip() or "unknown"


def _loadavg() -> List[float]:
    with open("/proc/loadavg") as handle:
        return [float(x) for x in handle.read().split()[:3]]


def _proc_environ(pid: int) -> Dict[str, str]:
    with open(f"/proc/{pid}/environ", "rb") as handle:
        items = handle.read().split(b"\0")
    return dict(item.decode(errors="replace").split("=", 1)
                for item in items if b"=" in item)


def fingerprint(server_pid: Optional[int]) -> Dict[str, Any]:
    """What the numbers were taken on; ``server_env`` is read back from
    ``/proc/<pid>/environ`` of a live server."""
    seen = _proc_environ(server_pid) if server_pid else {}
    return {
        "python": sys.version.split()[0],
        "nproc": len(_CPUS),
        "git_commit": _git_commit(),
        "src_sha256": _src_hash(),
        "bytecode": "precompiled into PYTHONPYCACHEPREFIX=.perfbench/pycache",
        "server_env_keys": sorted(seen),
        "server_dontwritebytecode": "PYTHONDONTWRITEBYTECODE" in seen,
        "server_repro_vars": sorted(k for k in seen if k.startswith("REPRO_")),
        "scrubbed_from_parent": sorted(
            k for k in os.environ
            if k.startswith("REPRO_") or k == "PYTHONDONTWRITEBYTECODE"),
        "server_flags": SERVER_FLAGS[1:],
        "cpu_pinning": {"server": SERVER_CPU, "client": CLIENT_CPU},
    }


# ----------------------------------------------------------------------
# Server process and connections
# ----------------------------------------------------------------------

class Server:
    """One ``repro serve`` child process (plain or through the launcher)."""

    def __init__(self, spans_path: Optional[str] = None) -> None:
        self.started = time.perf_counter()
        if spans_path is None:
            argv = [sys.executable, "-m", "repro"] + SERVER_FLAGS
        else:
            argv = [sys.executable, os.path.join(HERE, "launcher.py"),
                    spans_path, str(TIMED_ID_BASE)] + SERVER_FLAGS
        self.stderr = open(os.path.join(WORK, "server.stderr"), "ab")
        self.proc = subprocess.Popen(
            argv, env=server_env(), cwd=ROOT, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=self.stderr,
            preexec_fn=_pin(SERVER_CPU),
        )
        self.pid = self.proc.pid
        ready, _, _ = select.select([self.proc.stdout], [], [], IO_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else b""
        try:
            self.port = int(json.loads(line)["port"])
        except (ValueError, KeyError, TypeError):
            self.kill()
            raise BenchError(f"server did not become ready: {line[:200]!r}")

    def connect(self) -> "Conn":
        sock = socket.create_connection(("127.0.0.1", self.port),
                                        timeout=IO_TIMEOUT_S)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return Conn(sock)

    def cpu_ms(self) -> float:
        """User+system CPU of the whole server process so far."""
        try:
            with open(f"/proc/{self.pid}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            raise BenchError("server process is gone") from None
        ticks = int(fields[11]) + int(fields[12])
        return ticks * 1000.0 / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for the server")

    def stop(self) -> None:
        """Ask for a clean shutdown and wait until the process has ended."""
        try:
            with self.connect() as conn:
                conn.send({"id": 0, "op": "shutdown"})
                conn.recv()
            self.proc.wait(timeout=IO_TIMEOUT_S)
        except (OSError, BenchError, subprocess.TimeoutExpired):
            self.kill()
        finally:
            self.close_files()
        if self.proc.returncode != 0:
            raise BenchError(f"server exited with {self.proc.returncode}")

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.close_files()

    def close_files(self) -> None:
        self.proc.stdout.close()
        self.stderr.close()


class Conn:
    """A line-delimited JSON connection."""

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.buffer = b""

    def __enter__(self) -> "Conn":
        return self

    def __exit__(self, *exc) -> None:
        self.sock.close()

    def send(self, request: Dict[str, Any]) -> None:
        self.sock.sendall(json.dumps(request).encode() + b"\n")

    def lines(self) -> List[bytes]:
        """The complete lines after one read (raises when the peer is gone)."""
        self.buffer += self._chunk()
        *complete, self.buffer = self.buffer.split(b"\n")
        return complete

    def recv(self) -> Dict[str, Any]:
        while b"\n" not in self.buffer:
            self.buffer += self._chunk()
        line, self.buffer = self.buffer.split(b"\n", 1)
        return json.loads(line)

    def _chunk(self) -> bytes:
        try:
            chunk = self.sock.recv(1 << 20)
        except OSError as error:
            raise BenchError(f"connection lost: {error}") from None
        if not chunk:
            raise BenchError("server closed the connection")
        return chunk


# ----------------------------------------------------------------------
# Driving a workload
# ----------------------------------------------------------------------

class Tally:
    """Attempted and failed operations, with the first few reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []

    def check(self, workload, template, fields, response) -> None:
        reason = workload.check(template, response, fields.get("_prefix"))
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(reason)


def _send(conn: Conn, rid: int, fields: Dict[str, Any]) -> None:
    request = {k: v for k, v in fields.items() if k != "_prefix"}
    request["id"] = rid
    conn.send(request)


def boot(workload, tally: Tally, spans_path: Optional[str] = None
         ) -> Tuple[Server, float]:
    """Start a server and send the workload's set-up requests in order.

    Returns the server and the seconds from spawning it to the last
    set-up answer (each answer is checked)."""
    server = Server(spans_path)
    try:
        with server.connect() as conn:
            for rid, template in enumerate(workload.setup, start=1):
                fields = workload.request(0, template)
                _send(conn, rid, fields)
                tally.check(workload, template, fields, conn.recv())
    except BaseException:
        server.kill()
        raise
    return server, time.perf_counter() - server.started


class Phase:
    """Client-side record of one closed-loop phase."""

    def __init__(self) -> None:
        self.latencies: List[float] = []   # ms, in completion order
        self.by_id: Dict[int, Tuple[float, int]] = {}  # rid -> (ms, bytes)
        self.tenant_ops: Dict[str, Dict[str, int]] = {}
        self.by_class: Dict[str, List[float]] = {}  # request class -> ms
        self.wall_s = 0.0
        self.cpu_ms = 0.0
        # (s since start, requests completed, server CPU ms) at the end of
        # connection 0's first pass past the middle of a timed phase
        self.mid: Optional[Tuple[float, int, float]] = None


def drive(server: Server, workload, tally: Tally, rid_base: int,
          passes: Optional[int] = None, seconds: Optional[float] = None
          ) -> Phase:
    """Closed loop over whole passes: a fixed number, or until *seconds*
    have gone by (each connection finishes the pass it is in)."""
    phase = Phase()
    conns = [server.connect() for _ in workload.passes]
    selector = selectors.DefaultSelector()
    state = []
    next_id = rid_base
    start = time.perf_counter()
    cpu_start = server.cpu_ms()
    try:
        def send_next(index: int) -> None:
            nonlocal next_id
            st = state[index]
            templates = workload.passes[index]
            template = templates[(workload.offset + st["j"]) % len(templates)]
            fields = workload.request(index, template)
            ops = phase.tenant_ops.setdefault(fields["tenant"], {})
            ops[template.op] = ops.get(template.op, 0) + 1
            next_id += 1
            st["inflight"] = (next_id, template, fields, time.perf_counter())
            _send(conns[index], next_id, fields)

        for index, conn in enumerate(conns):
            state.append({"j": 0, "pass": 0, "inflight": None})
            selector.register(conn.sock, selectors.EVENT_READ, index)
            send_next(index)
        active = len(conns)
        while active:
            events = selector.select(timeout=IO_TIMEOUT_S)
            if not events:
                raise BenchError("no response within the I/O timeout")
            for key, _ in events:
                index = key.data
                for line in conns[index].lines():
                    done = time.perf_counter()
                    st = state[index]
                    rid, template, fields, sent = st["inflight"]
                    response = json.loads(line)
                    if response.get("id") != rid:
                        raise BenchError(f"response id {response.get('id')} != {rid}")
                    latency = (done - sent) * 1000.0
                    phase.latencies.append(latency)
                    phase.by_id[rid] = (latency, len(line) + 1)
                    phase.by_class.setdefault(template.klass, []).append(latency)
                    tally.check(workload, template, fields, response)
                    st["j"] += 1
                    if st["j"] == len(workload.passes[index]):
                        st["j"] = 0
                        st["pass"] += 1
                        if index == 0 and seconds is not None and \
                                phase.mid is None and done - start >= seconds / 2:
                            phase.mid = (done - start, len(phase.latencies),
                                         server.cpu_ms() - cpu_start)
                        finished = (st["pass"] >= passes if passes is not None
                                    else done - start >= seconds)
                        if finished:
                            st["inflight"] = None
                            selector.unregister(conns[index].sock)
                            active -= 1
                            continue
                    send_next(index)
        phase.wall_s = time.perf_counter() - start
        phase.cpu_ms = server.cpu_ms() - cpu_start
    finally:
        selector.close()
        for conn in conns:
            conn.sock.close()
    return phase


def _quantile(values: List[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def halves(phase: Phase) -> Dict[str, Any]:
    """The timed phase split at its middle, to show it is stationary."""
    if phase.mid is None:
        return {}
    t_mid, n_mid, cpu_mid = phase.mid
    first, second = phase.latencies[:n_mid], phase.latencies[n_mid:]
    if len(first) < 2 or len(second) < 2:
        return {}
    return {
        "first": {"requests": len(first),
                  "p50_ms": round(_quantile(first, 50), 4),
                  "throughput_rps": round(len(first) / t_mid, 2),
                  "cpu_ms_per_req": round(cpu_mid / len(first), 4)},
        "second": {"requests": len(second),
                   "p50_ms": round(_quantile(second, 50), 4),
                   "throughput_rps": round(
                       len(second) / (phase.wall_s - t_mid), 2),
                   "cpu_ms_per_req": round(
                       (phase.cpu_ms - cpu_mid) / len(second), 4)},
    }


def prime(server: Server, workload, tally: Tally) -> None:
    """Untimed passes that warm the server before the timed phase."""
    drive(server, workload, tally, rid_base=TIMED_ID_BASE // 2,
          passes=workload.priming_passes)


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------

def plain_run(workload, tally: Tally, seconds: float, info: Dict[str, Any]
              ) -> Dict[str, float]:
    setups = []
    for number in range(BOOTS):
        server, setup_s = boot(workload, tally)
        setups.append(setup_s)
        if number < BOOTS - 1:
            server.stop()
    try:
        info["fingerprint"] = fingerprint(server.pid)
        prime(server, workload, tally)
        phase = drive(server, workload, tally, rid_base=TIMED_ID_BASE,
                      seconds=seconds)
        rss_mb = server.peak_rss_mb()
        if len(phase.latencies) < 100:
            raise BenchError(f"only {len(phase.latencies)} timed requests; "
                             f"p90 needs 100")
    except BaseException:
        server.kill()
        raise
    server.stop()
    info["setup_boots_s"] = [round(s, 4) for s in setups]
    info["halves"] = halves(phase)
    info["timed_requests"] = len(phase.latencies)
    info["classes"] = {
        klass: {"share": round(len(values) / len(phase.latencies), 3),
                "p50_ms": round(statistics.median(values), 3)}
        for klass, values in sorted(phase.by_class.items())}
    return {
        "setup_s": statistics.median(setups),
        "p50_ms": _quantile(phase.latencies, 50),
        "p90_ms": _quantile(phase.latencies, 90),
        "throughput_rps": len(phase.latencies) / phase.wall_s,
        "cpu_ms_per_req": phase.cpu_ms / len(phase.latencies),
        "rss_mb": rss_mb,
    }


def _stats(server: Server) -> Dict[str, Any]:
    with server.connect() as conn:
        conn.send({"id": 0, "op": "stats"})
        return conn.recv()["registry"]["tenants"]


def _probe_overshoots(server: Server) -> List[float]:
    """Deadline probes: requests that must stop at ``wall_ms``; how late
    their answers arrive.  Not counted as operations."""
    from workloads import PROBE_WALL_MS, probe_request

    request = probe_request()
    overshoots = []
    with server.connect() as conn:
        for number in range(DEADLINE_PROBES):
            sent = time.perf_counter()
            conn.send(dict(request, id=number + 1))
            response = conn.recv()
            elapsed = (time.perf_counter() - sent) * 1000.0
            if response.get("stopped_reason") != "deadline":
                raise BenchError(f"deadline probe not stopped by its deadline: "
                                 f"{response.get('stopped_reason')!r}")
            overshoots.append(elapsed - PROBE_WALL_MS)
    return overshoots


def _alternate(plain: Server, traced: Server, workload, tally: Tally,
               seconds: float) -> Tuple[Phase, Phase]:
    """Timed chunks of whole passes, alternating between a plain and a
    traced server, so both see the same machine conditions; each side's
    chunks are merged into one phase."""
    sides = (Phase(), Phase())
    next_id = TIMED_ID_BASE
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        for server, merged in zip((plain, traced), sides):
            chunk = drive(server, workload, tally, rid_base=next_id,
                          seconds=CHUNK_S)
            next_id += len(chunk.latencies) + 1
            merged.latencies += chunk.latencies
            merged.by_id.update(chunk.by_id)
            for tenant, ops in chunk.tenant_ops.items():
                counts = merged.tenant_ops.setdefault(tenant, {})
                for op, count in ops.items():
                    counts[op] = counts.get(op, 0) + count
            merged.wall_s += chunk.wall_s
            merged.cpu_ms += chunk.cpu_ms
    return sides


def traced_run(workload, tally: Tally, seconds: float, info: Dict[str, Any]
               ) -> Dict[str, float]:
    import layers

    spans_path = os.path.join(WORK, "spans.json")
    if os.path.exists(spans_path):
        os.remove(spans_path)
    plain, _ = boot(workload, tally)
    try:
        traced, _ = boot(workload, tally, spans_path=spans_path)
    except BaseException:
        plain.kill()
        raise
    try:
        info["fingerprint"] = fingerprint(plain.pid)
        prime(plain, workload, tally)
        prime(traced, workload, tally)
        before = _stats(traced)
        untraced, phase = _alternate(plain, traced, workload, tally, seconds)
        after = _stats(traced)
        overshoots = _probe_overshoots(plain)
    except BaseException:
        plain.kill()
        traced.kill()
        raise
    plain.stop()
    traced.stop()
    with open(spans_path) as handle:
        trace = json.load(handle)
    info["timed_requests"] = len(phase.latencies)
    info["deadline_probe_overshoot_ms"] = [round(x, 2) for x in overshoots]
    return layers.per_layer(
        trace, phase, before, after, overshoots,
        plain_cpu_per_req=untraced.cpu_ms / len(untraced.latencies),
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--plant-wrong-expectation", metavar="OP", default=None,
        help="self-test only: corrupt the expectation of the first OP "
             "request, which must make the run fail")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no src/repro under {ROOT}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    os.makedirs(WORK, exist_ok=True)
    if CLIENT_CPU is not None:
        _pin(CLIENT_CPU)()
    load_start = _loadavg()
    try:
        import workloads

        if args.workload not in workloads.WORKLOADS:
            raise BenchError(f"unknown workload {args.workload!r}; "
                             f"choose from {', '.join(workloads.WORKLOADS)}")
        workload = workloads.build(args.workload, args.seed)
        if args.plant_wrong_expectation:
            workloads.plant_wrong_expectation(workload,
                                              args.plant_wrong_expectation)
        compile_bytecode()
        tally = Tally()
        warmup, _ = boot(workload, Tally())  # writes any missing bytecode
        warmup.stop()
        info: Dict[str, Any] = {"workload": args.workload, "seed": args.seed}
        if args.trace:
            values = traced_run(workload, tally, args.seconds, info)
            import layers
            units = layers.PER_LAYER_UNITS
        else:
            values = plain_run(workload, tally, args.seconds, info)
            units = END_TO_END_UNITS
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    info["fingerprint"]["loadavg_start"] = load_start
    info["fingerprint"]["loadavg_end"] = _loadavg()
    if tally.reasons:
        info["failures"] = tally.reasons
    print("# " + json.dumps(info, sort_keys=True))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
