"""periodlab benchmark: closed-loop workloads, end-to-end and per-module metrics.

    python3 perfbench/run.py --workload periods --seed 1 --seconds 18 --trace 0

Run from the repository root; periodlab is imported from ``src``. This
process sends each call to at most one worker process and waits for the
reply before sending the next (a closed loop with one client).
The in-process workloads (periods, loops, averaging) talk to a
``worker.py`` process; the cli workload starts one cold
``python -m periodlab.cli`` process per call. A call that passes its
deadline has its process killed (and the worker restarted); it counts
as a timeout. The run is pinned to one CPU, and a fixed calibration task
timed after every call measures the host's drifting speed; the timing
metrics are scaled to a reference speed.

Inputs are drawn by ``--seed`` from the frozen pools in ``refs/``, one
cycle of calls per run, repeated whole until ``--seconds`` have passed.
Every answer is checked against its frozen reference.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json. With
``--trace 1`` the run spends half its time untraced and half traced and
reports the per-module metrics, including the tracing overhead. The last
line of standard output is the JSON result; the lines before it print
each metric by name and unit. Details, and the spans of a traced run, go
to ``.perfbench/`` in the repository root.
"""

from __future__ import annotations

import argparse
import gzip
import json
import math
import os
import pickle
import random
import select
import statistics
import struct
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402  (only for the calibration task)

import refs  # noqa: E402
from tracer import summarize  # noqa: E402

STATE = os.path.join(ROOT, ".perfbench")
SETUPS = 11  # fresh starts per run, spread over its cycles; setup_s is their median
WARMUP_DEADLINE = 60.0
# One worker on a 2-CPU machine: keep its BLAS single-threaded.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


# The host's CPU speed drifts by itself, by up to a factor of two within
# seconds. A fixed calibration task, run just before and just after each
# timed step, measures that speed; the timing metrics are scaled to the
# speed at which the task takes CAL_REF_S (about its median on the 2-CPU
# machine the benchmark was defined on).
CAL_REF_S = 0.004
CAL_NEAR = 2


class BenchError(Exception):
    """The benchmark itself cannot produce a valid result."""


def child_env():
    env = dict(os.environ, **BLAS_ENV)
    paths = [os.path.join(ROOT, "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


# --- checks --------------------------------------------------------------------

def max_entry(m):
    return max(abs(v) for row in m for v in row)


def matrix_close(got, ref, rtol):
    """Entrywise |got - ref| <= rtol * max(1, max |ref|)."""
    scale = rtol * max(1.0, max_entry(ref))
    return all(abs(g - r) <= scale for grow, rrow in zip(got, ref) for g, r in zip(grow, rrow))


def rel_close(got, ref, rtol):
    return abs(got - ref) <= rtol * max(1.0, abs(ref))


def integer_basis_change(transported, quadrature, tol):
    """Whether transported = M @ quadrature for an integer M with det +-1."""
    (a, b), (c, d) = quadrature
    det = a * d - b * c
    inv = ((d / det, -b / det), (-c / det, a / det))
    m = [[sum(transported[i][k] * inv[k][j] for k in range(2)) for j in range(2)]
         for i in range(2)]
    rounded = [[round(v.real) for v in row] for row in m]
    deviation = max(abs(m[i][j] - rounded[i][j]) for i in range(2) for j in range(2))
    unimodular = abs(rounded[0][0] * rounded[1][1] - rounded[0][1] * rounded[1][0]) == 1
    return deviation <= tol and unimodular


def json_close(got, ref, rtol):
    """Recursive comparison of CLI JSON: exact for ints, bools, strings."""
    def numbers(x):
        if isinstance(x, bool):
            return []
        if isinstance(x, (int, float)):
            return [abs(x)]
        if isinstance(x, list):
            return [v for item in x for v in numbers(item)]
        return []

    tol = rtol * max([1.0] + numbers(ref))

    def close(g, r):
        if isinstance(r, bool) or isinstance(r, (str, type(None))):
            return g == r
        if isinstance(r, int) and not isinstance(g, float):
            return g == r
        if isinstance(r, (int, float)):
            return isinstance(g, (int, float)) and not isinstance(g, bool) and abs(g - r) <= tol
        if isinstance(r, list):
            return isinstance(g, list) and len(g) == len(r) and all(map(close, g, r))
        return False

    return close(got, ref)


# Fields of each subcommand's JSON output compared against the reference.
CLI_FIELDS = {
    "periods": ["matrix", "det", "tau"],
    "monodromy": ["matrix", "trace"],
    "poincare": ["value", "converged", "diagnostics.shells", "diagnostics.eisenstein_ratio"],
    "eisenstein": ["value", "value_q"],
    "j": ["value_normalized", "value_1728"],
    "j-qexp": ["low", "coefficients"],
    "domain-dims": ["dim_D", "dim_compact_dual", "dim_horizontal", "dim_F0_lie",
                    "hermitian_case", "lie_dims"],
    "hodge-check": ["first_relation", "second_relation", "passed"],
    "ks-count": ["m"],
}


def dig(obj, dotted):
    for key in dotted.split("."):
        if not isinstance(obj, dict) or key not in obj:
            return None
        obj = obj[key]
    return obj


# --- workloads -------------------------------------------------------------------

@dataclass
class Call:
    """One request. ``check(value, ctx)`` returns None or why it is wrong."""

    label: str
    op: str
    args: list
    deadline: float
    check: Callable
    key: str | None = None  # store the answer in the cycle context under this key


@dataclass
class Workload:
    name: str
    calls: list
    # The highest whole percentile with at least 10 calls beyond it in a
    # run of run_seconds at the commit that defined the benchmark. Fixed,
    # so that a faster program (more calls per run) is compared at the
    # same percentile.
    tail_percentile: int
    runs_cli: bool = False


def stratified(rng, entries, n, cost=lambda e: e["reference_s"]):
    """One entry from each of n groups of ``entries`` ranked by reference cost.

    Every seed then draws the same spread of cheap and dear inputs, so the
    runs of different seeds measure the same amount of work.
    """
    ranked = sorted(entries, key=cost)
    size = len(ranked) / n
    return [rng.choice(ranked[round(i * size):round((i + 1) * size)]) for i in range(n)]


def with_costliest(rng, entries, n, top, cost=lambda e: e["reference_s"]):
    """The ``top`` costliest of ``entries`` and n - top stratified draws from the rest.

    The costliest inputs set a workload's tail percentile. Drawn by seed,
    a few of them would move the tail from seed to seed; kept in every
    cycle, they make every seed's tail compare the same inputs.
    """
    ranked = sorted(entries, key=cost)
    rest = len(ranked) - top
    return ranked[rest:] + stratified(rng, ranked[:rest], n - top, cost)


def check_matrix(ref, rtol):
    def check(value, ctx):
        return None if matrix_close(value, ref, rtol) else "period matrix differs from reference"
    return check


def periods_workload(data, seed):
    """period_matrix over |t| <= 3, 3 < |t| <= 30 and the near-discriminant band.

    Every cycle has the same shape: the two pinned ROADMAP points, half of
    the small, large and band points (band points here answered within the
    deadline at the reference commit) and 2 band points that did not (the
    known stalls). The 2 costliest large and 3 costliest band points, which
    set the p90 tail, are in every cycle; the rest are one of each group
    ranked by reference cost.
    """
    rng = random.Random(seed)
    strata = {}
    for entry in data["entries"]:
        strata.setdefault(entry["stratum"], []).append(entry)
    picks = list(strata["pinned"])
    for stratum, top in (("small", 0), ("large", 2), ("band", 3)):
        picks += with_costliest(rng, strata[stratum], len(strata[stratum]) // 2, top)
    picks += rng.sample(strata["band_slow"], 2)
    rng.shuffle(picks)
    calls = [Call(e["stratum"], "period_matrix", [e["t2"], e["t3"]], e["deadline_s"],
                  check_matrix(e["matrix"], data["rtol"])) for e in picks]
    return Workload("periods", calls, 90)


def loops_workload(data, seed):
    """Monodromy around 0, 1 and 2 discriminant points, and open-path transport.

    For each number of enclosed points (0, 1, 2) and each of the turns
    +1, -1, +2, -2 the pool has 3 loops; a cycle takes 2 of each, and 8
    open paths stratified by reference cost.
    """
    rng = random.Random(seed)
    cells, paths = {}, []
    for e in data["entries"]:
        if e["kind"] == "monodromy":
            cells.setdefault((e["stratum"], e["args"][3]), []).append(e)
        else:
            paths.append(e)
    picks = [e for key in sorted(cells) for e in rng.sample(cells[key], 2)]
    picks += stratified(rng, paths, 8)
    rng.shuffle(picks)
    rtol, basis_tol = data["rtol"], data["basis_tol"]

    def monodromy_check(ref):
        def check(value, ctx):
            return None if value["matrix"] == ref["matrix"] else "monodromy differs from reference"
        return check

    def transport_check(ref):
        def check(value, ctx):
            if not matrix_close(value["transported"], ref["transported"], rtol):
                return "transported periods differ from reference"
            if not matrix_close(value["quadrature"], ref["quadrature"], rtol):
                return "end-point periods differ from reference"
            if not integer_basis_change(value["transported"], value["quadrature"], basis_tol):
                return "transport and quadrature differ by more than an integer basis change"
            return None
        return check

    calls = []
    for e in picks:
        check = (monodromy_check if e["kind"] == "monodromy" else transport_check)(e["value"])
        calls.append(Call(f"{e['kind']}-{e['stratum']}", e["kind"], e["args"],
                          e["deadline_s"], check))
    return Workload("loops", calls, 90)


def averaging_workload(data, seed):
    """Per seeded point: periods, Poincare sum, E4, Weierstrass round trip,
    j and q-series against the lattice sum, Hodge polarization; then the
    fixed table of upper-half-plane Poincare series and domain dimensions."""
    rng = random.Random(seed)
    rtol = data["rtol"]
    ratio_ref = data["ratio"]
    calls = []
    # the 2 costliest points, whose Poincare sums set the p94 tail, and one
    # from each half of the others ranked by reference cost
    points = with_costliest(rng, data["points"], 4, 2,
                            cost=lambda p: sum(p["reference_s"].values()))
    for i, p in enumerate(points):
        ref, deadline = p["values"], p["deadline_s"]
        m = ref["period_matrix"]
        omega1, omega2, tau = m[0][0], m[1][0], p["tau"]
        t2, t3 = p["t2"], p["t3"]

        def poincare_check(value, ctx, ref=ref["period_poincare"]):
            if value["shells"] != ref["shells"] or not rel_close(value["value"], ref["value"], rtol):
                return "period Poincare sum differs from reference"
            return None

        def e4_check(value, ctx, i=i, ref=ref):
            if not rel_close(value, ref["eisenstein_lattice"], rtol):
                return "E4 lattice sum differs from reference"
            series = ctx.get(f"poincare{i}", ref["period_poincare"])["value"]
            if abs(series / value - ratio_ref) > data["ratio_tol"] * abs(ratio_ref):
                return "Poincare/Eisenstein ratio is not the common constant"
            return None

        def roundtrip_check(value, ctx, t2=t2, t3=t3):
            scale = data["roundtrip_tol"] * max(1.0, abs(t2), abs(t3))
            if abs(value[0] - t2) > scale or abs(value[1] - t3) > scale:
                return "Weierstrass round trip misses (t2, t3)"
            return None

        def jq_check(value, ctx, t2=t2, t3=t3, ref=ref["j_and_q"]):
            if abs(value["j"] - t2 ** 3 / (t2 ** 3 - 27 * t3 ** 2)) > data["cross_tol"]:
                return "j differs from t2^3 / Delta"
            if abs(value["q4"] - value["lattice4"]) > data["cross_tol"]:
                return "q-series and lattice E4 disagree"
            if any(not rel_close(value[k], ref[k], rtol) for k in ref):
                return "j / E4 values differ from reference"
            return None

        def hodge_check(value, ctx):
            return None if value == [[True, True], [True, False]] else "polarization dichotomy fails"

        calls += [
            Call("period_matrix", "period_matrix", [t2, t3], deadline,
                 check_matrix(m, rtol)),
            Call("period_poincare", "period_poincare", [m, data["poincare_height"]], deadline,
                 poincare_check, key=f"poincare{i}"),
            Call("eisenstein_lattice", "eisenstein_lattice", [4, omega1, omega2], deadline,
                 e4_check),
            Call("weierstrass_g", "weierstrass_g", [omega1, omega2], deadline, roundtrip_check),
            Call("j_and_q", "j_and_q", [tau], deadline, jq_check),
            Call("hodge", "hodge", [tau], deadline, hodge_check),
        ]

    def table_check(ref):
        def check(value, ctx):
            if isinstance(ref, dict) and "value" in ref:
                same = (rel_close(value["value"], ref["value"], rtol)
                        and value["shells"] == ref["shells"])
            else:
                same = value == ref
            return None if same else "table entry differs from reference"
        return check

    table = [Call(row["op"], row["op"], row["args"], row["deadline_s"], table_check(row["value"]))
             for row in data["table"]]
    rng.shuffle(table)
    return Workload("averaging", calls + table, 94)


def cli_workload(data, seed):
    """Cold CLI processes: one entry from each slot (cheap, compute, rejected)."""
    rng = random.Random(seed)
    rtol = data["rtol"]
    calls = []
    for slot in sorted(data["slots"]):
        row = rng.choice(data["slots"][slot])

        def check(value, ctx, row=row):
            code, out = value
            if code != row["exit"]:
                return f"exit code {code}, expected {row['exit']}"
            if code != 0:
                return None if out.get("error") == row["output"]["error"] else "wrong error class"
            for name in CLI_FIELDS[row["argv"][0]]:
                if not json_close(dig(out, name), dig(row["output"], name), rtol):
                    return f"{name} differs from reference"
            return None

        calls.append(Call(slot, "cli", row["argv"], row["deadline_s"], check))
    rng.shuffle(calls)
    return Workload("cli", calls, 60, runs_cli=True)


WORKLOADS = {"periods": periods_workload, "loops": loops_workload,
             "averaging": averaging_workload, "cli": cli_workload}


# --- processes -----------------------------------------------------------------

class WorkerLost(Exception):
    pass


class Worker:
    """A worker.py process and its length-prefixed pickle channel."""

    def __init__(self, traced):
        argv = [sys.executable, os.path.join(HERE, "worker.py")] + (["--trace"] if traced else [])
        self.proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     env=child_env(), cwd=ROOT)
        self.fd = self.proc.stdout.fileno()

    def request(self, op, args, record, deadline):
        """The reply, or None when the deadline passes first."""
        body = pickle.dumps((op, list(args), record))
        try:
            self.proc.stdin.write(struct.pack(">I", len(body)) + body)
            self.proc.stdin.flush()
        except BrokenPipeError:
            raise WorkerLost("worker exited")
        end = time.perf_counter() + deadline
        head = self._read(4, end)
        if head is None:
            return None
        body = self._read(struct.unpack(">I", head)[0], end)
        return None if body is None else pickle.loads(body)

    def _read(self, n, end):
        chunks, got = [], 0
        while got < n:
            left = end - time.perf_counter()
            if left <= 0 or not select.select([self.fd], [], [], left)[0]:
                return None
            chunk = os.read(self.fd, n - got)
            if not chunk:
                raise WorkerLost("worker exited")
            chunks.append(chunk)
            got += len(chunk)
        return b"".join(chunks)

    def kill(self):
        self.proc.kill()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()

    def close(self):
        body = pickle.dumps(None)
        try:
            self.proc.stdin.write(struct.pack(">I", len(body)) + body)
            self.proc.stdin.close()
            self.proc.wait(timeout=10)
            self.proc.stdout.close()
        except (BrokenPipeError, subprocess.TimeoutExpired):
            self.kill()


@dataclass
class Record:
    label: str
    latency: float
    outcome: str          # ok, timeout, wrong, warning, untyped, error
    reason: str = ""
    summary: dict = field(default_factory=dict)   # span name -> (calls, self s)
    counters: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)
    exit: int | None = None
    import_s: float | None = None
    rss_kb: int = 0
    span: float = 0.0     # seconds of the call and any worker restart after it
    sample: int = 0       # index of the host-speed sample taken just after the call
    speed: float = 1.0    # reference over measured host speed around the call


def classify(call, reply, ctx):
    """Outcome of a worker reply: ok, wrong, warning, untyped or error."""
    if reply["warnings"]:
        return "warning", reply["warnings"][0]
    if reply["status"] == "untyped":
        return "untyped", reply["error"]
    if reply["status"] == "typed":
        return "error", reply["error"]
    reason = call.check(reply["value"], ctx)
    if reason:
        return "wrong", reason
    if call.key:
        ctx[call.key] = reply["value"]
    return "ok", ""


class WorkerRunner:
    """Runs calls on one worker at a time, restarting it after a timeout."""

    # Answered untraced by each new worker; it also builds the cached
    # anchor period matrix, the one lazy set-up periodlab has.
    WARMUP = ("period_matrix", [4.0 + 0.5j, 1.0])

    def __init__(self, workload, traced):
        self.workload = workload
        self.traced = traced
        self.worker = None

    def start(self):
        """Start a fresh worker; seconds from spawn to its warm-up answer."""
        t0 = time.perf_counter()
        self.worker = Worker(self.traced)
        op, args = self.WARMUP
        try:
            reply = self.worker.request(op, args, False, WARMUP_DEADLINE)
        except WorkerLost as exc:
            raise BenchError(f"worker warm-up failed: {exc}")
        if reply is None or reply["status"] != "ok" or reply["warnings"]:
            raise BenchError(f"worker warm-up failed: {reply}")
        return time.perf_counter() - t0

    def environment(self):
        return self.worker.request("environment", [], False, WARMUP_DEADLINE)["value"]

    def run(self, call, ctx):
        t0 = time.perf_counter()
        try:
            reply = self.worker.request(call.op, call.args, True, call.deadline)
        except WorkerLost as exc:
            self.worker.kill()
            self.start()
            return Record(call.label, time.perf_counter() - t0, "untyped", str(exc))
        latency = time.perf_counter() - t0
        if reply is None:
            self.worker.kill()
            self.start()
            return Record(call.label, latency, "timeout", f"over {call.deadline} s")
        outcome, reason = classify(call, reply, ctx)
        record = Record(call.label, latency, outcome, reason, rss_kb=reply["rss_kb"])
        if self.traced:
            record.spans = reply["spans"]
            record.summary, record.counters = summarize(reply["spans"], reply["counters"])
        return record

    def close(self):
        if self.worker is not None:
            self.worker.close()
            self.worker = None


class CliRunner:
    """Runs each call as a cold periodlab CLI process."""

    def __init__(self, workload, traced):
        self.workload = workload
        self.traced = traced
        self.tmp = os.path.join(STATE, "tmp")
        os.makedirs(self.tmp, exist_ok=True)

    def _argv(self, args):
        out = []
        for a in args:
            if isinstance(a, dict):  # a hodge-check point, written as a file
                point = os.path.join(self.tmp, "point.json")
                with open(point, "w", encoding="utf-8") as fh:
                    json.dump({"tau": [a["tau"].real, a["tau"].imag]}, fh)
                a = point
            out.append(a)
        return out

    def _spawn(self, argv, spans_file=None):
        if spans_file:
            cmd = [sys.executable, os.path.join(HERE, "tracedcli.py"), spans_file, *argv]
        else:
            cmd = [sys.executable, "-m", "periodlab.cli", *argv]
        return subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=child_env(), cwd=ROOT)

    @staticmethod
    def _communicate(proc, deadline):
        """(stdout, stderr, own peak RSS in kB) of ``proc``, or None after the deadline.

        The child is reaped with wait4, so the peak is that process's alone.
        """
        end = time.perf_counter() + deadline
        out_fd, err_fd = proc.stdout.fileno(), proc.stderr.fileno()
        chunks = {out_fd: [], err_fd: []}
        open_fds = {out_fd, err_fd}
        while open_fds:
            left = end - time.perf_counter()
            ready = select.select(list(open_fds), [], [], left)[0] if left > 0 else []
            if not ready:
                proc.kill()
                proc.wait()
                break
            for fd in ready:
                chunk = os.read(fd, 65536)
                if chunk:
                    chunks[fd].append(chunk)
                else:
                    open_fds.discard(fd)
        proc.stdout.close()
        proc.stderr.close()
        if open_fds:
            return None
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out, err = (b"".join(chunks[fd]).decode() for fd in (out_fd, err_fd))
        return out, err, usage.ru_maxrss

    def start(self):
        t0 = time.perf_counter()
        proc = self._spawn(["ks-count", "--n", "2", "--d", "4"])
        done = self._communicate(proc, WARMUP_DEADLINE)
        if done is None or proc.returncode != 0 or json.loads(done[0]).get("m") != 19:
            raise BenchError("cold CLI warm-up failed")
        return time.perf_counter() - t0

    def environment(self):
        worker = Worker(traced=False)
        try:
            return worker.request("environment", [], False, WARMUP_DEADLINE)["value"]
        finally:
            worker.close()

    def run(self, call, ctx):
        argv = self._argv(call.args)
        spans_file = os.path.join(self.tmp, "spans.pickle") if self.traced else None
        if spans_file and os.path.exists(spans_file):
            os.remove(spans_file)
        t0 = time.perf_counter()
        proc = self._spawn(argv, spans_file)
        done = self._communicate(proc, call.deadline)
        latency = time.perf_counter() - t0
        if done is None:
            return Record(call.label, latency, "timeout", f"over {call.deadline} s")
        out, err, rss_kb = done
        code = proc.returncode
        text = out if code == 0 else err.strip().splitlines()[-1] if err.strip() else ""
        try:
            parsed = json.loads(text)
        except json.JSONDecodeError:
            return Record(call.label, latency, "untyped", f"exit {code}: {err[-200:]}", exit=code)
        if "RuntimeWarning" in err:
            return Record(call.label, latency, "warning", err[-200:], exit=code)
        reason = call.check((code, parsed), ctx)
        record = Record(call.label, latency, "wrong" if reason else "ok", reason or "",
                        exit=code, rss_kb=rss_kb)
        if self.traced:
            with open(spans_file, "rb") as fh:
                traced = pickle.load(fh)
            record.spans = traced["spans"]
            record.summary, record.counters = summarize(traced["spans"], traced["counters"])
            record.import_s = traced["import_s"]
        return record

    def close(self):
        pass


# --- host speed ----------------------------------------------------------------

def calibration_task():
    """Fixed work of the kind periodlab does: interpreted arithmetic and
    numpy calls on small arrays. It never changes, so its time tracks the
    host's speed alone."""
    s = 0.0
    for i in range(12000):
        s += (i * 1.0001) % 7.3
    a = np.arange(16.0).reshape(4, 4)
    eye = np.eye(4)
    for _ in range(400):
        a = (a @ a) * 1e-3 + eye
    return s + float(a[0, 0])


class Speed:
    """The host's speed, sampled by the calibration task around each timed step."""

    def __init__(self):
        calibration_task()  # first-use costs of numpy stay out of the samples
        self.samples = []
        self.sample()

    def sample(self):
        t0 = time.perf_counter()
        calibration_task()
        self.samples.append(time.perf_counter() - t0)
        return self.samples[-1]

    def timed(self, step):
        """(step(), its seconds, index of the sample taken just after it)."""
        t0 = time.perf_counter()
        out = step()
        seconds = time.perf_counter() - t0
        self.sample()
        return out, seconds, len(self.samples) - 1

    def factor(self, after):
        """Reference over measured speed around the step before sample ``after``.

        The speed drifts within seconds, so only the nearest samples, CAL_NEAR
        on each side of the step, are used; their median resists the odd
        sample that was itself interrupted.
        """
        near = self.samples[max(0, after - CAL_NEAR):after + CAL_NEAR]
        return CAL_REF_S / statistics.median(near)


# --- measuring -----------------------------------------------------------------

def run_phase(runner, workload, budget, speed, between=None, min_cycles=1):
    """Whole cycles until they have taken ``budget`` seconds (and at least ``min_cycles``).

    Each call is timed by ``speed``, and its record keeps the host-speed
    factor around it. The calibration samples, and ``between(seconds so far)``,
    which runs after each cycle but the last, are outside the measured
    time. Returns the cycles.
    """
    cycles, wall = [], 0.0
    while True:
        ctx = {}
        records = []
        speed.sample()
        for call in workload.calls:
            record, record.span, record.sample = speed.timed(lambda: runner.run(call, ctx))
            records.append(record)
        cycles.append({"records": records})
        wall += sum(r.span for r in records)
        if wall >= budget and len(cycles) >= min_cycles:
            for r in (r for c in cycles for r in c["records"]):
                r.speed = speed.factor(r.sample)
            return cycles
        if between is not None:
            between(wall)


FAILURES = ("wrong", "warning", "untyped", "error")


def scaled_latency(r):
    """A call's latency at the reference speed. A timeout counts at its
    deadline, a wall-clock limit that the host's speed does not change."""
    return r.latency if r.outcome == "timeout" else r.latency * r.speed


def scaled_span(r):
    """The call and any worker restart after it, at the reference speed."""
    return scaled_latency(r) + (r.span - r.latency) * r.speed


def end_to_end(cycles, tail_percentile):
    """(metrics at the reference speed, details including the metrics as measured)."""
    records = [r for c in cycles for r in c["records"]]
    n = len(records)
    tail_index = max(0, math.ceil(tail_percentile / 100 * n) - 1)  # nearest rank
    answered = sum(1 for r in records if r.outcome == "ok")

    def timings(latency, span):
        latencies = sorted(latency(r) for r in records)
        return {
            "call_ms_p50": 1000.0 * statistics.median(latencies),
            "call_ms_tail": 1000.0 * latencies[tail_index],
            "ops_per_s": answered / sum(span(r) for r in records),
        }

    metrics = timings(scaled_latency, scaled_span)
    metrics["answered_frac"] = answered / n
    metrics["peak_rss_mb"] = max(r.rss_kb for r in records) / 1024
    wall = sum(r.span for r in records)
    return metrics, {
        "calls": n,
        "tail_percentile": tail_percentile,
        "tail_beyond": n - 1 - tail_index,
        "answered": answered,
        "failed": sum(1 for r in records if r.outcome in FAILURES),
        "timeouts": sum(1 for r in records if r.outcome == "timeout"),
        "cycles": len(cycles),
        "cycle_walls_s": [sum(r.span for r in c["records"]) for c in cycles],
        "latencies_ms": [[1000.0 * r.latency for r in c["records"]] for c in cycles],
        "speed_factors": [[r.speed for r in c["records"]] for c in cycles],
        "wall_s": wall,
        "as_measured": timings(lambda r: r.latency, lambda r: r.span),
        "failures": sorted({f"{r.label}: {r.outcome} {r.reason}" for r in records
                            if r.outcome != "ok"}),
    }


# per-module metric -> (span name, "self" seconds or "calls")
SPAN_METRICS = {
    "numerics.quad_s": ("numerics.quad", "self"),
    "numerics.quad_calls": ("numerics.quad", "calls"),
    "numerics.gauss_rule_s": ("numerics.gauss_rule", "self"),
    "numerics.gauss_rules": ("numerics.gauss_rule", "calls"),
    "numerics.ode_s": ("numerics.ode", "self"),
    "numerics.ode_calls": ("numerics.ode", "calls"),
    "numerics.path_s": ("numerics.path", "self"),
    "elliptic.period_s": ("elliptic.period", "self"),
    "elliptic.period_calls": ("elliptic.period", "calls"),
    "elliptic.roots_s": ("elliptic.roots", "self"),
    "elliptic.default_path_s": ("elliptic.default_path", "self"),
    "gaussmanin.transport_s": ("gaussmanin.transport", "self"),
    "gaussmanin.transport_calls": ("gaussmanin.transport", "calls"),
    "gaussmanin.rhs_evals": ("gaussmanin.rhs", "calls"),
    "gaussmanin.rhs_s": ("gaussmanin.rhs", "self"),
    "gaussmanin.monodromy_s": ("gaussmanin.monodromy", "self"),
    "gaussmanin.loop_s": ("gaussmanin.loop", "self"),
    "qseries.eisenstein_s": ("qseries.eisenstein", "self"),
    "qseries.eisenstein_calls": ("qseries.eisenstein", "calls"),
    "modular.lattice_s": ("modular.lattice", "self"),
    "modular.lattice_calls": ("modular.lattice", "calls"),
    "modular.q_s": ("modular.q", "self"),
    "modular.j_s": ("modular.j", "self"),
    "modular.weierstrass_s": ("modular.weierstrass", "self"),
    "poincare.period_series_s": ("poincare.period_series", "self"),
    "poincare.uhp_series_s": ("poincare.uhp_series", "self"),
    "hodge.decomposition_s": ("hodge.decomposition", "self"),
    "hodge.polarization_s": ("hodge.polarization", "self"),
    "domain.dims_s": ("domain.dims", "self"),
    "domain.dims_calls": ("domain.dims", "calls"),
    "cli.main_s": ("cli.main", "self"),
}
# per-module metric -> counter name recorded by the tracer
COUNTER_METRICS = {
    "numerics.quad_nodes": "quad_nodes",
    "numerics.quad_failed": "numerics.quad!failed",
    "numerics.ode_segments": "ode_segments",
    "elliptic.path_waypoints": "path_waypoints",
    "qseries.terms": "terms",
    "poincare.functional_evals": "functional_evals",
    "poincare.shells": "shells",
}
# work counts that must repeat exactly across traced runs on one seed
WORK_COUNTS = ("numerics.quad_nodes", "gaussmanin.rhs_evals", "numerics.gauss_rules",
               "poincare.functional_evals", "poincare.shells", "elliptic.path_waypoints")


def cycle_layers(cycle):
    """Per-module metrics of one traced cycle."""
    spans, counters = {}, {}
    for r in cycle["records"]:
        for name, (calls, self_s) in r.summary.items():
            c, s = spans.get(name, (0, 0.0))
            spans[name] = (c + calls, s + self_s)
        for name, value in r.counters.items():
            counters[name] = counters.get(name, 0) + value
    out = {}
    for metric, (span, kind) in SPAN_METRICS.items():
        calls, self_s = spans.get(span, (0, 0.0))
        out[metric] = self_s if kind == "self" else calls
    for metric, counter in COUNTER_METRICS.items():
        out[metric] = counters.get(counter, 0)
    for code in (0, 2, 3):
        out[f"cli.exit{code}"] = sum(1 for r in cycle["records"] if r.exit == code)
    out["trace.spans"] = sum(len(r.spans) for r in cycle["records"])
    return out


def check_work_counts(per_cycle):
    """Raise unless every traced cycle (each in a fresh process) did the same work."""
    first = per_cycle[0]
    for i, cycle in enumerate(per_cycle[1:], 2):
        diff = {k: (first[k], cycle[k]) for k in WORK_COUNTS if cycle[k] != first[k]}
        if diff:
            raise BenchError(f"work counts of traced cycle {i} differ from cycle 1: {diff}")


def write_spans(workload, seed, cycles):
    """All spans of the traced phase, one JSON line each: call, name, start, end, parent."""
    path = os.path.join(STATE, "trace", f"{workload}-seed{seed}.spans.jsonl.gz")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
        call = 0
        for cycle in cycles:
            for r in cycle["records"]:
                for name, start, end, parent in r.spans:
                    fh.write(f'[{call}, "{name}", {start!r}, {end!r}, {parent}]\n')
                call += 1
    return path


def bare_python_s():
    """Median start-up time of a bare interpreter, the floor under setup_s."""
    times = []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=child_env(), check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def measure(workload, args):
    runner_cls = CliRunner if workload.runs_cli else WorkerRunner
    runner = runner_cls(workload, traced=False)
    speed = Speed()
    setups = [speed.timed(runner.start)]
    environment = runner.environment()
    budget = args.seconds / 2 if args.trace else args.seconds

    def setup_once():
        probe = runner_cls(workload, traced=False)
        try:
            setups.append(speed.timed(probe.start))
        finally:
            probe.close()

    def probe_setups(elapsed):
        # keep the fresh starts in step with the cycles, so that setup_s
        # samples the whole run like the call metrics do
        while len(setups) < min(SETUPS, 1 + int(SETUPS * elapsed / budget)):
            setup_once()

    try:
        cycles = run_phase(runner, workload, budget, speed, between=probe_setups)
    finally:
        runner.close()
    while len(setups) < SETUPS:
        setup_once()
    metrics, info = end_to_end(cycles, workload.tail_percentile)
    # each start's own span (spawn to first answer), at the reference speed
    metrics["setup_s"] = statistics.median(s * speed.factor(i) for _, s, i in setups)
    info["as_measured"]["setup_s"] = statistics.median(s for _, s, _ in setups)
    info["setups_s"] = [s for _, s, _ in setups]
    info["calibration_s"] = speed.samples
    result = {"metrics": metrics, "info": info, "environment": environment}
    if not args.trace:
        return result

    # Each traced cycle runs in a fresh process, so the work counts of all
    # cycles must agree exactly.
    traced = runner_cls(workload, traced=True)

    def restart(elapsed):
        traced.close()
        traced.start()

    traced.start()
    try:
        traced_cycles = run_phase(traced, workload, args.seconds / 2, Speed(),
                                  between=restart, min_cycles=2)
    finally:
        traced.close()
    traced_metrics, traced_info = end_to_end(traced_cycles, workload.tail_percentile)
    per_cycle = [cycle_layers(c) for c in traced_cycles]
    check_work_counts(per_cycle)
    # times: mean over cycles; counts: equal in every cycle
    layers = {name: statistics.fmean(c[name] for c in per_cycle) if name.endswith("_s")
              else per_cycle[0][name] for name in per_cycle[0]}
    imports = [r.import_s for c in traced_cycles for r in c["records"] if r.import_s is not None]
    layers["cli.python_s"] = bare_python_s()
    layers["cli.import_s"] = statistics.median(imports) if imports else environment["import_s"]
    layers["run.fail_frac"] = (info["failed"] + info["timeouts"]) / info["calls"]
    layers["run.timeouts"] = info["timeouts"] / info["cycles"]
    # overheads compare the two halves at the reference speed
    layers["trace.overhead_p50_ms"] = traced_metrics["call_ms_p50"] - metrics["call_ms_p50"]
    untraced_cycle = statistics.fmean(sum(map(scaled_span, c["records"])) for c in cycles)
    traced_cycle = statistics.fmean(sum(map(scaled_span, c["records"])) for c in traced_cycles)
    layers["trace.overhead_frac"] = traced_cycle / untraced_cycle - 1.0
    result["layers"] = layers
    result["traced"] = {"metrics": traced_metrics, "info": traced_info,
                        "spans_file": write_spans(workload.name, args.seed, traced_cycles)}
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "periodlab", "__init__.py")):
        print(f"perfbench: no periodlab sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    workload = WORKLOADS[args.workload](refs.load(args.workload), args.seed)
    # This process, its workers and the calibration task share one CPU: the
    # closed loop keeps only one of them busy at a time, and the host-speed
    # samples then come from the CPU that did the work.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    try:
        result = measure(workload, args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    info = result["info"]
    result["environment"]["nproc"] = os.cpu_count()
    result["environment"]["cpus_usable"] = len(os.sched_getaffinity(0))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = result["layers"] if args.trace else result["metrics"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    env = result["environment"]
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"  environment: nproc={env['nproc']} python={env.get('python')} "
          f"numpy={env.get('numpy')} scipy={env.get('scipy')} blas={env.get('blas')} "
          f"blas_threads={env.get('blas_threads', BLAS_ENV)}")
    print(f"  {info['calls']} calls in {info['cycles']} cycles of {len(workload.calls)}, "
          f"{info['wall_s']:.2f} s; tail = p{info['tail_percentile']} "
          f"({info['tail_beyond']} calls beyond it); "
          f"failed {info['failed']}, timeouts {info['timeouts']}")
    for line in info["failures"]:
        print(f"  not answered: {line}")
    raw, samples = info["as_measured"], info["calibration_s"]
    print(f"  host speed: calibration task median {1000 * statistics.median(samples):.3f} ms "
          f"over {len(samples)} samples, reference {1000 * CAL_REF_S:g} ms; timings are "
          f"scaled to the reference speed (as measured: p50 {raw['call_ms_p50']:.4g} ms, "
          f"tail {raw['call_ms_tail']:.4g} ms, {raw['ops_per_s']:.4g} ops/s, "
          f"setup {raw['setup_s']:.4g} s)")
    attempted, failed = info["calls"], info["failed"]
    if args.trace:
        traced_info = result["traced"]["info"]
        print(f"  traced: {traced_info['calls']} calls in {traced_info['cycles']} cycles "
              f"(each in a fresh process); failed {traced_info['failed']}, "
              f"timeouts {traced_info['timeouts']}")
        for line in traced_info["failures"]:
            print(f"  not answered (traced): {line}")
        attempted += traced_info["calls"]
        failed += traced_info["failed"]
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:14.6g} {m['unit']}")

    os.makedirs(os.path.join(STATE, "results"), exist_ok=True)
    with open(os.path.join(STATE, "results",
                           f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True, default=str)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
