"""Compute the frozen reference output for every benchmark input.

    PYTHONPATH=src python3 perfbench/freeze.py [periods|loops|averaging|cli ...]

Each workload has a fixed input pool, drawn here from a fixed generator
seed. Every pool entry is run once, in process and with no deadline,
through the same op the benchmark worker runs (cli entries through a
cold ``python -m periodlab.cli``). The output, the outcome and the time
it took are written to ``perfbench/refs/<workload>.json``. run.py then
draws each run's inputs from these pools by its ``--seed`` and checks
every answer against the frozen output.

The references in the repository were computed at the commit that added
the benchmark. Near-discriminant ``periods`` entries can take close to a
minute each here, because that is the behaviour being frozen.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import refs  # noqa: E402
import worker  # noqa: E402  (imports periodlab)
from periodlab import elliptic, numerics  # noqa: E402
from periodlab.errors import ClearanceViolation  # noqa: E402

# Deadlines per call, seconds. Each is a property of the inputs: far above
# every answered call at the reference, far below the known stalls.
DEADLINE = {"periods": 1.0, "loops": 5.0, "averaging": 5.0, "cli": 20.0}

# Points from ROADMAP item 2: a 55 s quadrature stall, and a NonConvergent
# with a RuntimeWarning. Pinned into every periods cycle as given.
PINNED = [(0.4930 - 2.4352j, 0.3519 + 0.6665j), (1.1773 - 1.2437j, 0.1485 - 0.4049j)]


def rel_disc(t2, t3):
    return abs(elliptic.discriminant((t2, t3))) / (1 + abs(t2) ** 3 + abs(t3) ** 2)


def cplx(rng, r):
    return complex(rng.uniform(-r, r), rng.uniform(-r, r))


def timed(op, *args):
    t0 = time.perf_counter()
    reply = worker.call(op, args)
    reply["seconds"] = time.perf_counter() - t0
    return reply


def max_abs_diff(a, b):
    return max(abs(x - y) for ra, rb in zip(a, b) for x, y in zip(ra, rb))


# --- periods -----------------------------------------------------------------

def periods_pool(rng):
    pool = [("pinned", t2, t3) for t2, t3 in PINNED]
    while sum(1 for e in pool if e[0] == "small") < 32:
        t2, t3 = cplx(rng, 3), cplx(rng, 3)
        if rel_disc(t2, t3) >= 1e-1:
            pool.append(("small", t2, t3))
    while sum(1 for e in pool if e[0] == "large") < 32:
        t2, t3 = cplx(rng, 30), cplx(rng, 30)
        if 3 < max(abs(t2), abs(t3)) <= 30 and rel_disc(t2, t3) >= 1e-1:
            pool.append(("large", t2, t3))
    while sum(1 for e in pool if e[0] == "band") < 48:
        # t3 next to a discriminant root, at a log-uniform relative |Delta|
        t2 = cplx(rng, 3)
        root = np.sqrt(t2 ** 3 / 27) * rng.choice([-1, 1])
        if abs(root) < 1e-3:
            continue
        target = 10 ** rng.uniform(-4, -1) * (1 + abs(t2) ** 3 + abs(root) ** 2)
        t3 = complex(root + np.exp(2j * np.pi * rng.uniform()) * target / (54 * abs(root)))
        if 1e-4 <= rel_disc(t2, t3) <= 1e-1:
            pool.append(("band", t2, t3))
    return pool


def freeze_periods():
    rng = np.random.default_rng(20240601)
    entries = []
    for stratum, t2, t3 in periods_pool(rng):
        direct = timed("period_matrix", t2, t3)
        route = timed("transport_reference", t2, t3)
        entry = {
            "stratum": stratum, "t2": t2, "t3": t3,
            "deadline_s": DEADLINE["periods"],
            "reference_s": direct["seconds"],
            "parent_outcome": direct["status"] if not direct["warnings"] else "warning",
            "parent_error": direct["error"],
        }
        if direct["status"] == "ok":
            entry["matrix"] = direct["value"]
            entry["route"] = "period_matrix"
            if route["status"] == "ok":
                entry["transport_deviation"] = max_abs_diff(direct["value"], route["value"])
        else:
            entry["matrix"] = route["value"]
            entry["route"] = "transport_reference"
        if stratum == "band":
            entry["stratum"] = "band_slow" if direct["seconds"] > entry["deadline_s"] else "band"
        entries.append(entry)
        print(f"periods {entry['stratum']:9s} {direct['seconds']:8.3f}s "
              f"{entry['parent_outcome']} {entry.get('transport_deviation', '-')}", flush=True)
    refs.save("periods", {"rtol": 1e-8, "entries": entries})


# --- loops -------------------------------------------------------------------

def circle(rng, enclosed):
    """A t3-plane circle at fixed t2 enclosing 0, 1 or 2 discriminant roots."""
    while True:
        t2 = 4.0 * (1 + 0.25 * cplx(rng, 1))
        r = complex(np.sqrt(t2 ** 3 / 27))
        roots = (r, -r)
        d = abs(2 * r)
        if enclosed == 1:
            center = roots[rng.integers(2)] + 0.15 * d * cplx(rng, 1)
            radius = d * rng.uniform(0.3, 0.6)
        elif enclosed == 2:
            center = 0.1 * d * cplx(rng, 1)
            radius = d * rng.uniform(0.75, 1.0)
        else:
            center = 1j * d * rng.uniform(0.6, 1.0) * rng.choice([-1, 1]) + 0.2 * d * cplx(rng, 1)
            radius = d * rng.uniform(0.2, 0.4)
        dist = [abs(center - x) for x in roots]
        inside = sum(1 for x in dist if x < radius)
        if inside == enclosed and min(abs(x - radius) for x in dist) >= 0.15 * d:
            return t2, complex(center), float(radius)


def open_path(rng):
    """Straight path of length <= 2 between points with |Delta| >= 1."""
    while True:
        a = (cplx(rng, 3), cplx(rng, 3))
        b = (a[0] + cplx(rng, 1), a[1] + cplx(rng, 1))
        if min(abs(elliptic.discriminant(a)), abs(elliptic.discriminant(b))) < 1.0:
            continue
        try:
            numerics.ParamPath([a, b], discriminant=elliptic.discriminant)
        except ClearanceViolation:
            continue
        return [list(a), list(b)]


def freeze_loops():
    rng = np.random.default_rng(20240602)
    entries = []
    for i in range(36):
        enclosed = i % 3
        turns = (1, -1, 2, -2)[(i // 3) % 4]
        t2, center, radius = circle(rng, enclosed)
        reply = timed("monodromy", t2, center, radius, turns)
        if reply["status"] != "ok" or reply["warnings"]:
            raise SystemExit(f"monodromy failed at the reference: {reply}")
        entries.append({"kind": "monodromy", "stratum": f"enclose{enclosed}",
                        "args": [t2, center, radius, turns],
                        "deadline_s": DEADLINE["loops"],
                        "reference_s": reply["seconds"], "value": reply["value"]})
        print(f"loops monodromy enclose{enclosed} turns {turns:+d} "
              f"{reply['value']['matrix']} {reply['seconds']:.3f}s", flush=True)
    for _ in range(24):
        waypoints = open_path(rng)
        reply = timed("transport", waypoints)
        if reply["status"] != "ok" or reply["warnings"]:
            raise SystemExit(f"transport failed at the reference: {reply}")
        entries.append({"kind": "transport", "stratum": "path", "args": [waypoints],
                        "deadline_s": DEADLINE["loops"],
                        "reference_s": reply["seconds"], "value": reply["value"]})
        print(f"loops transport {reply['seconds']:.3f}s", flush=True)
    refs.save("loops", {"rtol": 1e-8, "basis_tol": 1e-6, "entries": entries})


# --- averaging ---------------------------------------------------------------

POINCARE_HEIGHT = 200
UHP_TABLE = [(0.3 + 1.1j, 100), (-0.2 + 0.9j, 150)]
DOMAIN_TABLE = ([(1, [g, g]) for g in (1, 2, 3, 4)]
                + [(2, [1, k, 1]) for k in (1, 3, 5, 8, 11, 14, 17, 19)]
                + [(3, [1, 1, 1, 1])])


def freeze_averaging():
    rng = np.random.default_rng(20240603)
    points = []
    while len(points) < 24:
        t2, t3 = cplx(rng, 3), cplx(rng, 3)
        if abs(elliptic.discriminant((t2, t3))) < 1.0:
            continue
        steps = {}
        pm = timed("period_matrix", t2, t3)
        m = pm["value"]
        omega1, omega2 = m[0][0], m[1][0]
        tau = omega1 / omega2
        steps["period_matrix"] = pm
        steps["period_poincare"] = timed("period_poincare", m, POINCARE_HEIGHT)
        steps["eisenstein_lattice"] = timed("eisenstein_lattice", 4, omega1, omega2)
        steps["weierstrass_g"] = timed("weierstrass_g", omega1, omega2)
        steps["j_and_q"] = timed("j_and_q", tau)
        steps["hodge"] = timed("hodge", tau)
        bad = {k: v for k, v in steps.items() if v["status"] != "ok" or v["warnings"]}
        if bad:
            raise SystemExit(f"averaging step failed at the reference: {bad}")
        points.append({
            "t2": t2, "t3": t3, "tau": tau,
            "deadline_s": DEADLINE["averaging"],
            "values": {k: v["value"] for k, v in steps.items()},
            "reference_s": {k: v["seconds"] for k, v in steps.items()},
        })
        print(f"averaging point {len(points)} "
              f"{sum(v['seconds'] for v in steps.values()):.3f}s", flush=True)
    ratios = [p["values"]["period_poincare"]["value"] / p["values"]["eisenstein_lattice"]
              for p in points]
    ratio = complex(np.median([r.real for r in ratios]), np.median([r.imag for r in ratios]))
    spread = max(abs(r - ratio) for r in ratios) / abs(ratio)
    print(f"averaging ratio {ratio} spread {spread:.2e}", flush=True)
    table = []
    for tau, height in UHP_TABLE:
        reply = timed("uhp", tau, height)
        table.append({"op": "uhp", "args": [tau, height], "value": reply["value"],
                      "deadline_s": DEADLINE["averaging"], "reference_s": reply["seconds"]})
    for weight, h in DOMAIN_TABLE:
        reply = timed("domain_dims", weight, h)
        table.append({"op": "domain_dims", "args": [weight, h], "value": reply["value"],
                      "deadline_s": DEADLINE["averaging"], "reference_s": reply["seconds"]})
    for row in table:
        print(f"averaging {row['op']} {row['args']} {row['reference_s']:.3f}s", flush=True)
    refs.save("averaging", {
        "poincare_height": POINCARE_HEIGHT, "ratio": ratio, "ratio_spread": spread,
        "rtol": 1e-8, "ratio_tol": 1e-4, "roundtrip_tol": 1e-6, "cross_tol": 1e-8,
        "points": points, "table": table,
    })


# --- cli ---------------------------------------------------------------------

def cli_pool(rng):
    """Slots of the cli mix; each cycle runs one entry from every slot."""
    def z(v):  # used as --flag=VALUE: a value may start with "-"
        v = complex(v)
        return f"{v.real:.6f}{v.imag:+.6f}i"

    taus = [complex(rng.uniform(-0.5, 0.5), rng.uniform(0.8, 2.0)) for _ in range(8)]
    points = []
    while len(points) < 8:
        t2, t3 = cplx(rng, 3), cplx(rng, 3)
        if abs(elliptic.discriminant((t2, t3))) >= 1.0:
            points.append((t2, t3))
    circles = [circle(rng, 1) for _ in range(6)]
    return {
        "ks-count": [["ks-count", "--n", str(n), "--d", str(d)]
                     for n, d in ((1, 3), (2, 4), (2, 5), (3, 3), (1, 4), (2, 3))],
        "j": [["j", f"--tau={z(t)}"] for t in taus],
        "j-qexp": [["j-qexp", "--terms", str(n)] for n in range(4, 13)],
        "domain-dims": [["domain-dims", "--weight", str(w), "--hodge-numbers", h]
                        for w, h in ((1, "1,1"), (1, "2,2"), (1, "3,3"), (2, "1,1,1"),
                                     (2, "1,3,1"), (2, "1,6,1"), (3, "1,1,1,1"))],
        "hodge-check": [["hodge-check", "--point-file", {"tau": t}]
                        for t in taus[:4] + [t.conjugate() for t in taus[4:]]],
        "periods": [["periods", f"--t2={z(a)}", f"--t3={z(b)}"] for a, b in points],
        "monodromy": [["monodromy", f"--t2={z(t2)}", f"--center={z(c)}", "--radius", f"{r:.6f}"]
                      for t2, c, r in circles],
        "poincare": [["poincare", "--functional", "x11^-4", f"--t2={z(a)}", f"--t3={z(b)}",
                      "--height", "100"] for a, b in points[:6]],
        "eisenstein": [["eisenstein", "--k", str(k), f"--tau={z(t)}"]
                       for k in (4, 6) for t in taus[:4]],
        "rejected": [
            ["j", "--tau", "0.5"],
            ["domain-dims", "--weight", "2", "--hodge-numbers", "2,1,2"],
            ["eisenstein", "--k", "3", "--tau", "i"],
            ["khodaya", "--t0", "0", "--t1", "1", "--t2", "4", "--t3", "0"],
            ["ks-count", "--n", "0", "--d", "3"],
            ["periods", "--t2", "3", "--t3", "1"],
            ["periods", "--t2", "0", "--t3", "0"],
        ],
    }


def run_cli(argv, workdir):
    """Run one cold CLI process; return (exit code, parsed JSON, seconds)."""
    args = []
    for a in argv:
        if isinstance(a, dict):
            point = os.path.join(workdir, "point.json")
            with open(point, "w", encoding="utf-8") as fh:
                json.dump({"tau": [a["tau"].real, a["tau"].imag]}, fh)
            a = point
        args.append(a)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "periodlab.cli", *args], env=env,
                          capture_output=True, text=True, cwd=ROOT)
    seconds = time.perf_counter() - t0
    text = proc.stdout if proc.returncode == 0 else proc.stderr
    return proc.returncode, json.loads(text), seconds


def freeze_cli():
    rng = np.random.default_rng(20240604)
    workdir = os.path.join(ROOT, ".perfbench", "tmp")
    os.makedirs(workdir, exist_ok=True)
    slots = {}
    for slot, argvs in cli_pool(rng).items():
        for argv in argvs:
            code, out, seconds = run_cli(argv, workdir)
            if (code == 0) == (slot == "rejected"):
                raise SystemExit(f"unexpected exit {code} for {argv}: {out}")
            # rejected inputs get one slot per exit code, so each cycle has both
            key = f"rejected-exit{code}" if slot == "rejected" else slot
            slots.setdefault(key, []).append(
                {"argv": argv, "exit": code, "output": out,
                 "deadline_s": DEADLINE["cli"], "reference_s": seconds})
            print(f"cli {slot:12s} exit {code} {seconds:.3f}s {argv}", flush=True)
    refs.save("cli", {"rtol": 1e-8, "slots": slots})


FREEZERS = {"periods": freeze_periods, "loops": freeze_loops,
            "averaging": freeze_averaging, "cli": freeze_cli}

if __name__ == "__main__":
    for name in sys.argv[1:] or list(FREEZERS):
        FREEZERS[name]()
