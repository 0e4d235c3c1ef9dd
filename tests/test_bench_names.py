"""Every library name the traced benchmark patches or calls still resolves.

bench/ wraps library functions by module and name, and its workloads call
library helpers while they set up.  A library change that drops one of
those names would otherwise fail only in the traced benchmark runs.  Drop
this test once the benchmark patches only the names that exist and calls no
helper only it needs (ROADMAP B1).
"""
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


class RecordingTracer:
    """Records each (owner, attribute) a bench installer asks to patch; patches nothing."""

    def __init__(self):
        self.names = []

    def patch(self, owner, attr, name, record=True):
        self.names.append((owner, attr))


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import worker
    import workloads

    return worker, workloads


def _unresolved(names):
    return [f"{owner.__name__}.{attr}" for owner, attr in names
            if not callable(getattr(owner, attr, None))]


def test_traced_cli_patches_resolve(bench):
    worker, _ = bench
    tracer = RecordingTracer()
    worker.install_cli(tracer)
    assert tracer.names and not _unresolved(tracer.names)


@pytest.mark.parametrize("name", ["sweep_warm", "group_sums"])
def test_workload_patches_and_calls_resolve(bench, name):
    _, workloads = bench
    workload = workloads.WORKLOADS[name](1)
    tracer = RecordingTracer()
    workload.install(tracer)
    assert tracer.names and not _unresolved(tracer.names)
    # set-up, replays and counts call library helpers by name, outside any op
    workload.setup()
    workload.replays()
    workload.counts()
