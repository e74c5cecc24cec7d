"""Seeded synthetic benchmark datasets.

Two generator families:

* ``gen_sim1``: four independent standard normal source variables, five
  noisy copies of each (noise sd 0.1), and two cross-block sums with
  heavier noise (sd 0.4); 26 columns in total.
* ``gen_sim2``: an independent block of iid standard normal columns
  followed by a dependent block formed as a random linear mix of the
  independent block plus additive noise.

Reproducibility: normals are produced by an explicit Box-Muller transform
over PCG64 uniforms rather than ``Generator.normal``, pinning the stream
to documented arithmetic so a fixed seed yields identical matrices across
NumPy versions.  Throughout this module a noise scale is a standard
deviation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dataset import Dataset

__all__ = ["SimSpec", "gen_sim1", "gen_sim2", "dataset_from_spec"]


# =========================================================================
# Random number generation
# =========================================================================


def _uniform_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(int(seed))))


def standard_normals(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Standard normal draws via Box-Muller over the generator's uniforms.

    Consumes uniforms in pairs; the two output half-blocks come from the
    cosine and sine branches respectively, then the flat sequence is
    reshaped to ``shape`` in C order.
    """
    count = int(np.prod(shape)) if shape else 1
    pairs = (count + 1) // 2
    # In place, in 1.5x the output's memory.  IEEE products commute, so this
    # is ``concatenate([radius * cos(theta), radius * sin(theta)])`` bit for
    # bit.
    flat = np.empty((2, pairs))
    radius = rng.random(pairs)
    theta = rng.random(out=flat[1])
    np.negative(radius, out=radius)
    np.log1p(radius, out=radius)
    radius *= -2.0
    np.sqrt(radius, out=radius)
    theta *= 2.0 * math.pi
    np.cos(theta, out=flat[0])
    np.sin(theta, out=flat[1])
    flat *= radius
    return flat.reshape(-1)[:count].reshape(shape)


# =========================================================================
# Generators
# =========================================================================

_SIM1_LABELS = (
    ("w",) + tuple(f"w{i}" for i in range(1, 6))
    + ("x",) + tuple(f"x{i}" for i in range(1, 6))
    + ("y",) + tuple(f"y{i}" for i in range(1, 6))
    + ("z",) + tuple(f"z{i}" for i in range(1, 6))
    + ("h1", "h2")
)


def gen_sim1(m: int = 1000, seed: int = 0) -> Dataset:
    """Four-source dataset with noisy copies and two mixed columns.

    Sources ``w, x, y, z`` are iid standard normal.  Each source gets five
    noisy copies (``source + N(0, 0.1)``); the last two columns are
    ``w + x`` and ``y + z`` with N(0, 0.4) noise.  Column order is
    ``w, w1..w5, x, x1..x5, y, y1..y5, z, z1..z5, h1, h2`` (26 columns).

    The result is raw (not centered); apply ``center_columns`` before
    selection.
    """
    if m < 2:
        raise ValueError(f"m must be at least 2, got {m}")
    rng = _uniform_rng(seed)
    sources = standard_normals(rng, (m, 4))
    noise = standard_normals(rng, (m, 22))
    noise[:, :20] *= 0.1
    noise[:, 20:] *= 0.4
    w, x, y, z = sources.T
    columns: list[np.ndarray] = []
    for block, source in enumerate((w, x, y, z)):
        columns.append(source)
        for i in range(5):
            columns.append(source + noise[:, 5 * block + i])
    columns.append(w + x + noise[:, 20])
    columns.append(y + z + noise[:, 21])
    return Dataset(np.column_stack(columns), labels=_SIM1_LABELS)


def gen_sim2(
    m: int = 1000,
    u: int = 25,
    v: int = 50,
    seed: int = 0,
    noise_sd: float = 0.1,
) -> Dataset:
    """Independent block plus noisy random linear mixtures of it.

    The first ``u`` columns are iid standard normal; the remaining
    ``v - u`` columns are the independent block times a standard normal
    mixing matrix, perturbed elementwise by ``N(0, noise_sd)``.  Labels
    are ``I1..Iu`` and ``D1..D(v-u)``.

    The result is raw (not centered); apply ``center_columns`` before
    selection.
    """
    if m < 2:
        raise ValueError(f"m must be at least 2, got {m}")
    if not 1 <= u < v:
        raise ValueError(f"need 1 <= u < v, got u={u}, v={v}")
    if noise_sd < 0:
        raise ValueError(f"noise_sd must be nonnegative, got {noise_sd}")
    rng = _uniform_rng(seed)
    # One block for the result, filled in place: ``noise_sd * noise +
    # independent @ mixing`` is the same sum bit for bit in either order.
    values = np.empty((m, v))
    independent = standard_normals(rng, (m, u))
    values[:, :u] = independent
    mixing = standard_normals(rng, (u, v - u))
    dependent = values[:, u:]
    np.multiply(standard_normals(rng, (m, v - u)), noise_sd, out=dependent)
    dependent += independent @ mixing
    labels = tuple(f"I{i}" for i in range(1, u + 1)) + tuple(
        f"D{i}" for i in range(1, v - u + 1)
    )
    return Dataset(values, labels=labels)


# =========================================================================
# Declarative specification
# =========================================================================


@dataclass(frozen=True)
class SimSpec:
    """Declarative description of a synthetic dataset.

    ``family`` is "sim1" or "sim2"; ``params`` holds the family's keyword
    arguments other than ``m`` and ``seed`` (for sim2: ``u``, ``v`` and
    optionally ``noise_sd``).
    """

    family: str
    m: int = 1000
    seed: int = 0
    params: dict = field(default_factory=dict)

    _ALLOWED_PARAMS = {"sim1": frozenset(), "sim2": frozenset({"u", "v", "noise_sd"})}

    def __post_init__(self):
        if self.family not in self._ALLOWED_PARAMS:
            raise ValueError(f"unknown family {self.family!r}")
        unknown = set(self.params) - self._ALLOWED_PARAMS[self.family]
        if unknown:
            raise ValueError(f"unknown {self.family} parameters: {sorted(unknown)}")


def dataset_from_spec(spec: SimSpec) -> Dataset:
    """Materialize the dataset a :class:`SimSpec` describes."""
    generate = gen_sim1 if spec.family == "sim1" else gen_sim2
    return generate(spec.m, seed=spec.seed, **spec.params)
