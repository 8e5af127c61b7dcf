"""The benchmark's tracer (``perfbench/tracing.py``) patches program
functions by module and attribute name, so each name it lists must exist:
a missing one breaks traced benchmark runs, which no other test runs."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest


def _load_tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()
PATCHED = [*tracing.TARGETS, *tracing.FITTER_FACTORIES]


@pytest.mark.parametrize("module, attr", PATCHED)
def test_target_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


def test_install_records_spans_and_uninstall_restores():
    from breakline.bands import PredictionBand

    originals = {(m, a): getattr(importlib.import_module(m), a) for m, a in PATCHED}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        patched = [key for key in PATCHED if getattr(importlib.import_module(key[0]), key[1]) is not originals[key]]
        band = PredictionBand(
            grid_x=np.array([0.0, 1.0]), center=np.zeros(2), lower=np.zeros(2), upper=np.ones(2), gamma=0.8
        )
        importlib.import_module("breakline.cli").compute_area(band)
    finally:
        tracer.uninstall()
    assert patched == PATCHED
    assert [span[0] for span in tracer.spans] == ["area.band_area"]
    assert {(m, a): getattr(importlib.import_module(m), a) for m, a in PATCHED} == originals
