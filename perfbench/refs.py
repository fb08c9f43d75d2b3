"""Frozen reference files: one JSON file per workload under perfbench/refs.

Complex numbers are stored as ``{"c": [re, im]}`` so they survive the
round trip through JSON unchanged.
"""

from __future__ import annotations

import json
import os

REFS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs")


def _encode(obj):
    if isinstance(obj, complex):
        return {"c": [obj.real, obj.imag]}
    if isinstance(obj, dict):
        return {k: _encode(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_encode(v) for v in obj]
    return obj


def _decode(obj):
    if isinstance(obj, dict) and set(obj) == {"c"}:
        return complex(*obj["c"])
    return obj


def path(workload):
    return os.path.join(REFS_DIR, f"{workload}.json")


def save(workload, data):
    os.makedirs(REFS_DIR, exist_ok=True)
    with open(path(workload), "w", encoding="utf-8") as fh:
        json.dump(_encode(data), fh, indent=1, sort_keys=True)
        fh.write("\n")


def load(workload):
    with open(path(workload), encoding="utf-8") as fh:
        return json.load(fh, object_hook=_decode)
