"""The numpy draw-form equivalences the physics chain relies on.

The chain calls the cheapest ``numpy.random.Generator`` form that
consumes the stream exactly as the slower form would: ``random()`` for
``uniform()``, ``a + (b - a) * random()`` for ``uniform(a, b)``,
``0.0 + s * standard_normal()`` for ``normal(0.0, s)``, an
``integers(0, 2)`` index for ``choice([-1, 1])``, and one vector draw
where a phase draws nothing in between. Each equivalence is pinned
here, bit for bit (signed zeros included) and with the generator state
compared afterwards, over many seeds and with other draws interleaved.
A numpy release that breaks one of them fails here with a named cause
rather than only as a changed digest in ``tests/test_chain_golden.py``.
"""

from __future__ import annotations

import math
import struct

import numpy as np
import pytest

SEEDS = range(40)
DRAWS = 60

#: Every ``uniform(a, b)`` range the chain rewrote.
UNIFORM_RANGES = [
    (-math.pi, math.pi), (-1.0, 1.0), (12.0, 45.0), (2.0, 4.5),
    (-1.5, 1.5), (-4.0, 4.0), (-2500.0, 2500.0),
]

#: Normal widths, including zero (where only the formula's ``0.0 +``
#: keeps the sign of zero) and widths of the chain's own size.
NORMAL_SIGMAS = [0.0, 1e-300, 5e-5, 0.05, 0.12, 1.5, 35.0, 1e6]


def bits(value) -> bytes:
    """The exact IEEE-754 bytes of a float, so -0.0 differs from 0.0."""
    return struct.pack("<d", float(value))


def interleave(rng: np.random.Generator, step: int) -> None:
    """Other draws between the pinned ones, cycling through the kinds
    that move the stream differently: a 32-bit bounded integer (which
    buffers half a 64-bit word), a rejection-sampled exponential, a
    Poisson count, a double, and nothing at all."""
    kind = step % 5
    if kind == 0:
        rng.integers(0, 7)
    elif kind == 1:
        rng.exponential(0.3)
    elif kind == 2:
        rng.poisson(2.0)
    elif kind == 3:
        rng.random()


def paired(seed: int, slow, fast) -> None:
    """Draw ``DRAWS`` values with ``slow`` from one generator and with
    ``fast`` from an identical one, interleaved with the same other
    draws; assert bitwise-equal values, types and final states."""
    rng_slow = np.random.default_rng(seed)
    rng_fast = np.random.default_rng(seed)
    for step in range(DRAWS):
        interleave(rng_slow, step)
        interleave(rng_fast, step)
        expected = slow(rng_slow)
        actual = fast(rng_fast)
        assert bits(actual) == bits(expected), (seed, step)
        assert type(actual) is type(expected), (seed, step)
    assert rng_fast.bit_generator.state == rng_slow.bit_generator.state


@pytest.mark.parametrize("seed", SEEDS)
def test_uniform_unit_is_random(seed):
    paired(seed, lambda rng: rng.uniform(), lambda rng: rng.random())


@pytest.mark.parametrize("low,high", UNIFORM_RANGES)
def test_uniform_range_is_affine_random(low, high):
    width = high - low
    for seed in SEEDS:
        paired(seed, lambda rng: rng.uniform(low, high),
               lambda rng: low + width * rng.random())


def test_tau_is_the_width_of_the_phi_range():
    # The chain writes uniform(-pi, pi) as -pi + tau * random().
    assert math.tau == math.pi - -math.pi


@pytest.mark.parametrize("sigma", NORMAL_SIGMAS)
def test_normal_is_affine_standard_normal(sigma):
    for seed in SEEDS:
        paired(seed, lambda rng: rng.normal(0.0, sigma),
               lambda rng: 0.0 + sigma * rng.standard_normal())


@pytest.mark.parametrize("seed", SEEDS)
def test_choice_of_two_sides_is_an_integer_index(seed):
    paired(seed, lambda rng: int(rng.choice([-1, 1])),
           lambda rng: (-1, 1)[int(rng.integers(0, 2))])


@pytest.mark.parametrize("lead", [0, 1, 2, 3])
@pytest.mark.parametrize("count", [0, 1, 2, 5, 64, 301])
def test_vector_integers_equal_scalar_draws(lead, count):
    # ``lead`` odd leaves half a 64-bit word buffered before the batch.
    for seed in SEEDS:
        rng_scalar = np.random.default_rng(seed)
        rng_vector = np.random.default_rng(seed)
        for rng in (rng_scalar, rng_vector):
            for _ in range(lead):
                rng.integers(0, 2)
        scalar = [int(rng_scalar.integers(0, 2)) for _ in range(count)]
        vector = rng_vector.integers(0, 2, size=count).tolist()
        assert vector == scalar
        # The stream continues identically, doubles and integers alike.
        assert rng_vector.random() == rng_scalar.random()
        assert rng_vector.integers(0, 2) == rng_scalar.integers(0, 2)
        assert (rng_vector.bit_generator.state
                == rng_scalar.bit_generator.state)


@pytest.mark.parametrize("sigma", [0.0, 0.05, 2.0])
@pytest.mark.parametrize("count", [0, 1, 3, 50, 257])
def test_vector_normal_equals_scalar_draws(sigma, count):
    for seed in SEEDS:
        rng_scalar = np.random.default_rng(seed)
        rng_vector = np.random.default_rng(seed)
        rng_scalar.integers(0, 2)
        rng_vector.integers(0, 2)
        scalar = [rng_scalar.normal(0.0, sigma) for _ in range(count)]
        vector = rng_vector.normal(0.0, sigma, size=count).tolist()
        assert [bits(v) for v in vector] == [bits(v) for v in scalar]
        assert (rng_vector.bit_generator.state
                == rng_scalar.bit_generator.state)
