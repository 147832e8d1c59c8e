"""Columnar-vs-per-event equivalence suite.

This is the suite the columnar kernels' determinism claims hang on:

* vectorised skim/slim reproduce the scalar cut and column semantics
  exactly,
* ``smear_array`` consumes the same RNG draws as a scalar smear loop
  and returns bit-identical energies.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.columnar import EventBatch, apply_skim, apply_slim, cut_mask
from repro.datamodel import (
    AndCut,
    CountCut,
    HtCut,
    MassWindowCut,
    MetCut,
    NotCut,
    OrCut,
    SkimSpec,
    SlimSpec,
    TriggerCut,
)
from repro.datamodel.skimslim import _DERIVED_COLUMNS
from repro.detector.response import CaloResponse

ALL_CUTS = [
    CountCut("muons", 2, min_pt=10.0),
    CountCut("electrons", 1, min_pt=5.0, max_abs_eta=1.5),
    CountCut("leptons", 2, min_pt=5.0),
    CountCut("jets", 2, min_pt=20.0),
    MetCut(25.0),
    HtCut(60.0),
    MassWindowCut("leptons", 60.0, 120.0),
    MassWindowCut("muons", 60.0, 120.0, opposite_charge=True),
    MassWindowCut("jets", 50.0, 500.0),
    TriggerCut(("HLT_SingleMu20", "HLT_DiEl12")),
    AndCut((CountCut("muons", 2, min_pt=10.0), MetCut(10.0))),
    OrCut((MetCut(60.0), HtCut(100.0))),
    NotCut(MetCut(30.0)),
]


class TestVectorisedSelection:
    @pytest.mark.parametrize(
        "cut", ALL_CUTS, ids=[c.kind() for c in ALL_CUTS[:-3]]
        + ["and", "or", "not"])
    def test_cut_mask_matches_scalar_passes(self, cut, mixed_aods):
        batch = EventBatch.from_events(mixed_aods)
        mask = cut_mask(cut, batch)
        want = [cut.passes(event) for event in mixed_aods]
        assert mask.dtype == bool
        assert mask.tolist() == want

    def test_apply_skim_matches_scalar(self, mixed_aods):
        spec = SkimSpec("dimuon", CountCut("muons", 2, min_pt=10.0))
        kept_batch = apply_skim(spec, EventBatch.from_events(mixed_aods))
        want = spec.apply(mixed_aods)
        assert ([e.to_dict() for e in kept_batch.to_events()]
                == [e.to_dict() for e in want])

    def test_apply_slim_matches_scalar(self, mixed_aods):
        spec = SlimSpec("all", tuple(sorted(_DERIVED_COLUMNS)))
        batch_rows = apply_slim(spec, EventBatch.from_events(mixed_aods))
        scalar_rows = spec.apply(mixed_aods)
        assert ([r.to_dict() for r in batch_rows]
                == [r.to_dict() for r in scalar_rows])
        # Column values are plain JSON scalars, not numpy types.
        for row in batch_rows:
            for value in row.columns.values():
                assert type(value) in (int, float, bool, str)


class TestSmearArray:
    def test_bit_identical_draw_for_draw(self):
        response = CaloResponse(stochastic_term=0.5, constant_term=0.05)
        energies = np.linspace(0.5, 250.0, 64)

        scalar_rng = np.random.default_rng(4242)
        scalar = [response.smear(float(e), scalar_rng)
                  for e in energies]
        array_rng = np.random.default_rng(4242)
        batch = response.smear_array(energies, array_rng)
        assert batch.tolist() == scalar

    def test_non_positive_energies_draw_nothing(self):
        response = CaloResponse(stochastic_term=0.5, constant_term=0.05)
        rng_a = np.random.default_rng(7)
        rng_b = np.random.default_rng(7)
        smeared = response.smear_array(
            np.array([0.0, -3.0, 10.0]), rng_a)
        assert smeared[0] == 0.0 and smeared[1] == 0.0
        # Only the positive entry consumed a draw.
        assert smeared[2] == response.smear(10.0, rng_b)
