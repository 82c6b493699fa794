"""Every function the benchmark's tracer hooks exists, so a refactor cannot
silently blank its per-layer metrics (perfbench/tracer.py reports a missing
hook as an absent metric, not as a failure)."""

import importlib
import importlib.util
import os

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "tracer.py")


def test_every_tracer_hook_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.HOOKS
    missing = [f"{module}.{attr}" for module, attr, *_ in tracer.HOOKS
               if not callable(getattr(importlib.import_module(
                   f"{tracer.PACKAGE}.{module}"), attr, None))]
    assert missing == []
