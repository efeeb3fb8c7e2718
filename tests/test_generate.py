"""Seeded input families: determinism and the caps they advertise."""

import math

import numpy as np

from lorentz_gm.generate import (
    random_gm_headed,
    random_gm_step,
    random_gms_seq,
    random_sector_values,
    random_seq,
    random_step,
)
from lorentz_gm.gm import gm_constant_step, gms_constant
from lorentz_gm.model import Sector, StepFunction, sector_contains


def test_streams_are_deterministic():
    assert random_gms_seq(np.random.default_rng(7)).values == random_gms_seq(np.random.default_rng(7)).values
    assert random_step(np.random.default_rng(3)).breakpoints == random_step(np.random.default_rng(3)).breakpoints
    assert random_seq(np.random.default_rng(5)).values == random_seq(np.random.default_rng(5)).values


def test_gms_family_respects_cap():
    gen = np.random.default_rng(11)
    for _ in range(10):
        c = random_gms_seq(gen, n_max=128, b_cap=8.0)
        assert gms_constant(c).constant <= 8.0


def test_gms_family_respects_sector():
    gen = np.random.default_rng(13)
    sec = Sector(0.2, math.pi / 3.0)
    for _ in range(5):
        c = random_gms_seq(gen, alpha=0.2, phi=math.pi / 3.0)
        assert all(sector_contains(v, sec) for v in c.values if v != 0)


def test_step_families_respect_caps():
    gen = np.random.default_rng(17)
    for _ in range(10):
        f = random_gm_step(gen, b_cap=8.0)
        assert gm_constant_step(f, "GM").constant <= 8.0
    for _ in range(10):
        h = random_gm_headed(gen, b_cap=12.0)
        assert h.head is not None
        assert gm_constant_step(h, "GM").constant <= 12.0


def test_plain_step_family_shape():
    f = random_step(np.random.default_rng(23))
    assert isinstance(f, StepFunction)
    assert f.breakpoints[-1] > 0


def test_sector_values():
    gen = np.random.default_rng(29)
    sec = Sector(0.5, 0.4)
    vals = random_sector_values(gen, 50, 0.5, 0.4)
    assert len(vals) == 50
    assert all(sector_contains(v, sec) for v in vals)
