#!/usr/bin/env python3
"""Fast self-test of the benchmark harness.

    python3 perfbench/selftest.py

Run from the root of a source checkout.  It runs every workload briefly,
plain and traced, and asserts that

* the result line has exactly ``correct``, ``attempted``, ``failed`` and
  ``metrics``, and the metrics are exactly the ``end_to_end`` (plain) or
  ``per_layer`` (traced) metrics of ``BENCHMARK.json``, each with its unit;
* the current program passes every check;
* a deliberately wrong expectation is counted as failed and fails the run;
* a server killed mid-run makes the command exit non-zero with no result;
* in a directory holding only ``BENCHMARK.json`` and ``perfbench/`` the
  command exits non-zero with no result.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.getcwd()
RUN = [sys.executable, os.path.join("perfbench", "run.py")]
#: Seconds per self-test run: long enough for 100 timed requests.
SECONDS = {"warm-mix": 1, "cold-compile": 1, "view-churn": 1,
           "model-search": 14}


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _result(stdout: str):
    """The parsed result line, or ``None`` when there is none."""
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    return result if isinstance(result, dict) and "metrics" in result else None


def _run(workload: str, trace: int, *extra: str, cwd: str = ROOT):
    argv = RUN + ["--workload", workload, "--seed", "7",
                  "--seconds", str(SECONDS[workload]), "--trace", str(trace),
                  *extra]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def check_metrics(workload: str, trace: int, spec) -> None:
    done = _run(workload, trace)
    result = _result(done.stdout)
    label = f"{workload} trace={trace}"
    assert done.returncode == 0, f"{label}: exit {done.returncode}\n{done.stderr[-2000:]}"
    assert result is not None, f"{label}: no result line"
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"], result
    assert result["correct"] is True and result["failed"] == 0, \
        f"{label}: checks failed: {done.stdout.splitlines()[-2][:2000]}"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    wanted = spec["per_layer" if trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in wanted}
    got = {name: value["unit"] for name, value in result["metrics"].items()}
    assert got == units, f"{label}: metrics {sorted(got)} != {sorted(units)}"
    for name, value in result["metrics"].items():
        number = value["value"]
        assert isinstance(number, (int, float)) and math.isfinite(number), \
            f"{label}: {name} = {number!r}"
        if not trace:
            assert number > 0, f"{label}: end-to-end {name} is {number}"
    print(f"ok   {label}: {result['attempted']} checked operations")


def check_planted_wrong_expectation() -> None:
    done = _run("warm-mix", 0, "--plant-wrong-expectation", "chase")
    result = _result(done.stdout)
    assert done.returncode != 0, "a wrong expectation did not fail the run"
    assert result is not None and result["correct"] is False \
        and result["failed"] > 0, f"wrong expectation not counted: {result}"
    print(f"ok   planted wrong expectation: {result['failed']} failed, exit "
          f"{done.returncode}")


def _servers(pid: int):
    """Child processes of *pid* that run ``repro serve``."""
    try:
        with open(f"/proc/{pid}/task/{pid}/children") as handle:
            children = [int(child) for child in handle.read().split()]
    except OSError:
        return []
    servers = []
    for child in children:
        try:
            with open(f"/proc/{child}/cmdline", "rb") as handle:
                if b"serve" in handle.read().split(b"\0"):
                    servers.append(child)
        except OSError:
            pass
    return servers


def check_server_death() -> None:
    """Kill the kept server of a long plain run once it has lived 3 s."""
    argv = RUN + ["--workload", "warm-mix", "--seed", "7", "--seconds", "30",
                  "--trace", "0"]
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        first_seen = {}
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline and proc.poll() is None:
            now = time.monotonic()
            for child in _servers(proc.pid):
                first_seen.setdefault(child, now)
                if now - first_seen[child] >= 3.0:
                    os.kill(child, signal.SIGKILL)
                    deadline = 0
                    break
            time.sleep(0.1)
        stdout, _ = proc.communicate(timeout=180)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert proc.returncode != 0, "run survived its server's death with exit 0"
    assert _result(stdout) is None, "a result was printed after the server died"
    print(f"ok   server killed mid-run: exit {proc.returncode}, no result line")


def check_bare_directory() -> None:
    bare = os.path.join(ROOT, ".perfbench", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(os.path.join(ROOT, "perfbench"),
                    os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        done = _run("warm-mix", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0 and _result(done.stdout) is None, \
        "the bare benchmark directory did not fail cleanly"
    print(f"ok   bare directory: exit {done.returncode}, no result line")


def main() -> int:
    spec = _spec()
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            check_metrics(workload, trace, spec)
    check_planted_wrong_expectation()
    check_server_death()
    check_bare_directory()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
