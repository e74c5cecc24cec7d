"""Shared test fixtures and helpers."""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

from varsel import Dataset, center_columns, load_csv
from varsel.dataset import deflate_in_place
from varsel.selectors import _FsfpGain, _select, _UfsGain

# =========================================================================
# Random data helpers
# =========================================================================


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def random_dataset(m: int, v: int, seed: int = 0, centered: bool = True) -> Dataset:
    """Random standard-normal dataset, centered by default."""
    data = Dataset(make_rng(seed).normal(size=(m, v)))
    return center_columns(data) if centered else data


def underflowing_dataset() -> Dataset:
    """Centered 20 x 4 data with entries near 1e-200: not all zero, but
    their squares, and so ``||X||^2``, underflow to 0."""
    data = center_columns(Dataset(make_rng(5).normal(size=(20, 4)) * 1e-200))
    assert data.values.any() and np.linalg.norm(data.values) == 0.0
    return data


def lazy_select(name: str, data: Dataset, k: int):
    """FSFP-FSCA's or UFS's gain (``name``) driven through the lazy engine,
    which reproduces the plain selection because both gains are submodular."""
    gain = {"fsfp-fsca": _FsfpGain, "ufs": _UfsGain}[name]
    return _select(name, data, k, None, lambda: gain(data), lazy=True)


def deflated(data: Dataset, pivots) -> np.ndarray:
    """Residual of ``data`` after deflating a copy by each 1-based pivot in
    turn with :func:`varsel.dataset.deflate_in_place`."""
    residual = data.values.copy()
    for pivot in pivots:
        deflate_in_place(residual, int(pivot) - 1)
    return residual


def hadamard_columns(order: int) -> np.ndarray:
    """A +-1 Hadamard matrix of the given power-of-two order.

    Columns after the first are exactly mean-zero and exactly mutually
    orthogonal in float arithmetic, which makes exact-tie constructions
    possible.
    """
    h = np.ones((1, 1))
    while h.shape[0] < order:
        h = np.block([[h, h], [h, -h]])
    if h.shape[0] != order:
        raise ValueError(f"order must be a power of two, got {order}")
    return h


def orthogonal_dataset(order: int, scales=None) -> Dataset:
    """Dataset of exactly centered, exactly orthogonal columns.

    Uses the non-constant columns of a Hadamard matrix, optionally scaled
    per column.  Each column has squared norm ``order * scale**2`` exactly.
    """
    cols = hadamard_columns(order)[:, 1:].astype(float)
    if scales is not None:
        cols = cols * np.asarray(scales, dtype=float)
    return Dataset(cols, centered=True)


def orthonormal_dataset(v: int) -> Dataset:
    """Dataset of exactly orthonormal, exactly centered columns.

    Entries are +-0.25 over 16 rows, so every product and partial sum in a
    Gram computation is an exact dyadic rational even under fused
    multiply-add: inner products are exactly 0 or 1 and tie-break tests
    see exact ties.
    """
    if not 1 <= v <= 15:
        raise ValueError("v must be in 1..15")
    cols = hadamard_columns(16)[:, 1 : v + 1] * 0.25
    return Dataset(cols, centered=True)


# =========================================================================
# Optional local data files (user-supplied; tests skip when absent)
# =========================================================================


def data_dir() -> Path:
    override = os.environ.get("VARSEL_DATA_DIR")
    if override:
        return Path(override)
    return Path(__file__).resolve().parents[1] / "data"


def optional_csv(name: str, has_header: bool) -> Dataset:
    """Load a user-supplied CSV or skip the test with a warning."""
    path = data_dir() / name
    if not path.exists():
        pytest.skip(f"optional dataset {name} not found under {data_dir()} - skipping")
    return load_csv(path, has_header=has_header)


@pytest.fixture
def sales_data() -> Dataset:
    return optional_csv("sales.csv", has_header=False)


@pytest.fixture
def gases_data() -> Dataset:
    return optional_csv("gases.csv", has_header=False)


@pytest.fixture
def music_data() -> Dataset:
    return optional_csv("music.csv", has_header=False)


@pytest.fixture
def arrhythmia_data() -> Dataset:
    return optional_csv("arrhythmia.csv", has_header=False)
