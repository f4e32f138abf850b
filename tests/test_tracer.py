"""The benchmark's span tracer still finds every package function it wraps.

``perfbench/tracing.py`` looks its targets up by name when it is
installed, so a renamed or deleted function breaks only the traced
benchmark run.  This installs it in process and takes it out again.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_tracer_installs_on_every_target_and_restores_them():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    originals = [getattr(module, attr) for module, attr, _ in tracing.TARGETS]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for (module, attr, _), original in zip(tracing.TARGETS, originals):
            assert getattr(module, attr) is not original, attr
    finally:
        tracer.uninstall()
    for (module, attr, _), original in zip(tracing.TARGETS, originals):
        assert getattr(module, attr) is original, attr
