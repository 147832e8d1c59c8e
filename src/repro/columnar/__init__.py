"""Columnar structure-of-arrays kernels for batch work on many events.

``repro.columnar`` holds the numpy kernels that beat their per-event
counterparts when a whole sample is at hand: four-vector arrays
(:class:`FourVectorArray`), jagged per-event object containers
(:class:`EventBatch`), vectorised skim/slim evaluation
(:func:`cut_mask`, :func:`apply_skim`, :func:`apply_slim`), and
phase-streamed batch simulation/digitisation kernels
(:mod:`repro.columnar.kernels`). It is a library for analysis-side
batch processing, not a second physics chain: RAW becomes RECO only
through :meth:`repro.reconstruction.Reconstructor.reconstruct`, and
no workflow, RECAST back end or CLI command switches to these kernels.

Every kernel declares how close it stays to the scalar code it mirrors
with :func:`equivalence_tier` from :mod:`repro.columnar.tiers`:
bit-identical (``exact``), identical up to one ulp on
transcendental-function outputs (``ulp``), or, for re-phased random
draws, drawn from the same distributions (``statistical``). The
equivalence test suites and the ``repro lint --par`` analyzer both
check each declaration.
"""

from repro.columnar.batch import EventBatch, JaggedCollection
from repro.columnar.fourvec import (
    FourVectorArray,
    delta_phi_array,
    delta_r_array,
    invariant_mass_array,
    transverse_mass_array,
    wrap_phi_array,
)
from repro.columnar.kernels import (
    batch_stream,
    digitize_batch,
    simulate_batch,
)
from repro.columnar.select import (
    apply_skim,
    apply_slim,
    cut_mask,
    derived_columns,
    skim_mask,
)
from repro.columnar.tiers import (
    EQUIVALENCE_TIERS,
    declared_tier,
    declared_tiers,
    equivalence_tier,
)

__all__ = [
    "EQUIVALENCE_TIERS",
    "EventBatch",
    "FourVectorArray",
    "JaggedCollection",
    "apply_skim",
    "apply_slim",
    "batch_stream",
    "cut_mask",
    "declared_tier",
    "declared_tiers",
    "delta_phi_array",
    "delta_r_array",
    "derived_columns",
    "digitize_batch",
    "equivalence_tier",
    "invariant_mass_array",
    "simulate_batch",
    "skim_mask",
    "transverse_mass_array",
    "wrap_phi_array",
]
