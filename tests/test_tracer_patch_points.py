"""The benchmark's tracer must find every name it patches in offloadsim.

``perfbench/tracing.py`` wraps offloadsim functions and methods by name
for the benchmark's traced run, and a name that no longer exists makes
that run fail. Entering and leaving the tracer, without simulating
anything, checks every patch point from tier-1.
"""

from __future__ import annotations

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_patches_and_restores_every_point(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    try:
        tracer.__enter__()  # a missing name raises KeyError here
        patches = list(tracer._patches)
        assert patches
        for owner, attr, original in patches:
            assert vars(owner)[attr] is not original, f"{owner}.{attr} not wrapped"
    finally:
        tracer.__exit__(None, None, None)
    for owner, attr, original in patches:
        assert vars(owner)[attr] is original, f"{owner}.{attr} not restored"
