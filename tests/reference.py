"""Reference values computed from the definitions.

Each function restates a quantity that varsel computes, straight from its
definition and with none of the package's shortcuts (no precision matrix,
no factor reuse, no deflation, no triangular factor).  Most work in mpmath
at ``DIGITS`` significant digits: float inputs are converted exactly and
each result is rounded to float64 once, at the end, so a test can measure
the package's round-off against it.  :func:`fsca_scores`,
:func:`fsca_select` and :func:`pfs_select` work in float64, by QR
projections (and an SVD for PFS), :func:`fosmod_select` by least-squares
residuals, and :func:`itfs_select` by dense solves
and inverses of covariance blocks, so they are cheap enough to run on
every shape the tests use.
:func:`load_csv_rows` is the CSV grammar and its errors, one row and one
cell at a time.

A column is a candidate while its residual against the selection keeps
more than ``DEPENDENT_TOL`` of its own norm, the package's one rank test.
"""

from __future__ import annotations

import csv
import math

import mpmath
import numpy as np

from varsel.dataset import DEPENDENT_TOL, Dataset, selection_tuple
from varsel.errors import EmptyFile, ParseError, RaggedRows, RankDeficient

DIGITS = 60


def _projection(data: Dataset, selected):
    """``X`` and ``Xhat = X_S (X_S^T X_S)^{-1} X_S^T X`` as mpmath matrices
    (call inside ``workdps``); :class:`RankDeficient` when ``X_S^T X_S`` is
    singular at ``DIGITS`` digits."""
    sel = selection_tuple(selected, data.v)
    if not sel:
        raise ValueError("cannot project onto an empty selection")
    rows = data.values.tolist()
    x = mpmath.matrix(rows)
    x_s = mpmath.matrix([[row[i - 1] for i in sel] for row in rows])
    try:
        inverse = mpmath.inverse(x_s.T * x_s)
    except ZeroDivisionError as exc:
        raise RankDeficient(sel) from exc
    return x, x_s * (inverse * (x_s.T * x))


def project_onto(data: Dataset, selected) -> np.ndarray:
    """The least-squares reconstruction ``X_S (X_S^T X_S)^{-1} X_S^T X`` of
    every column from the 1-based ``selected`` columns, by the normal
    equations at ``DIGITS`` digits."""
    with mpmath.workdps(DIGITS):
        xhat = _projection(data, selected)[1]
        return np.array(xhat.tolist(), dtype=float)


def subset_ve(data: Dataset, selected) -> float:
    """Percentage of ``||X||_F^2`` that the projection onto the 1-based
    ``selected`` columns captures, ``100 <Xhat, X> / <X, X>``."""
    with mpmath.workdps(DIGITS):
        x, xhat = _projection(data, selected)
        captured = mpmath.fsum(a * b for a, b in zip(xhat, x))
        return float(100 * captured / mpmath.fsum(a * a for a in x))


def _regularized_block(cov: np.ndarray, sigma: float, index) -> mpmath.matrix:
    """``A_II`` of ``A = cov + sigma^2 I`` as an mpmath matrix (call inside
    ``workdps``)."""
    noise = mpmath.mpf(float(sigma)) ** 2
    return mpmath.matrix(
        [[mpmath.mpf(float(cov[i, j])) + (noise if i == j else 0) for j in index] for i in index]
    )


def itfs_denominators(cov: np.ndarray, sigma: float, selected) -> np.ndarray:
    """ITFS denominators ``var(x_i | U \\ x_i) = 1 / ((A_UU)^{-1})_ii`` for
    every unselected column ``i``, in increasing order of ``i``.

    ``A = cov + sigma^2 I`` is the regularized covariance and ``U`` the
    complement of the 0-based ``selected``; ``A_UU`` is inverted by LU
    factorization.
    """
    chosen = {int(i) for i in selected}
    unsel = [i for i in range(cov.shape[0]) if i not in chosen]
    with mpmath.workdps(DIGITS):
        inverse = mpmath.inverse(_regularized_block(cov, sigma, unsel))
        return np.array([float(1 / inverse[t, t]) for t in range(len(unsel))])


def mutual_information(cov: np.ndarray, sigma: float, selected) -> float:
    """Gaussian mutual information (nats) between the 0-based ``selected``
    variables and the rest, ``(log det A_SS + log det A_UU - log det A) / 2``
    with ``A = cov + sigma^2 I``, each determinant by LU factorization."""
    chosen = sorted({int(i) for i in selected})
    v = cov.shape[0]
    rest = [i for i in range(v) if i not in chosen]
    with mpmath.workdps(DIGITS):
        logdets = [
            mpmath.log(mpmath.det(_regularized_block(cov, sigma, index)))
            for index in (chosen, rest, range(v))
        ]
        return float((logdets[0] + logdets[1] - logdets[2]) / 2)


def itfs_select(data: Dataset, k: int, sigma: float | None = None):
    """ITFS's 1-based order and a ``(steps, v)`` array of every column's
    score before each pick.

    With ``A = X^T X / m + sigma^2 I`` (``sigma`` by default 1% of the
    root-mean-square column scale), each step scores every unselected column
    ``i`` by ``var(x_i | S) / var(x_i | U \\ x_i)``.  The numerator
    ``A_ii - A_iS A_SS^{-1} A_Si`` comes from ``np.linalg.solve`` on ``A_SS``
    and the denominator ``1 / ((A_UU)^{-1})_ii`` from one ``np.linalg.inv``
    of ``A_UU``, with ``U`` every unselected column.  Selected and zero
    columns score ``-inf``; the step picks the first best, and the order
    ends early when no candidate is left.
    """
    x = data.values
    cov = x.T @ x / data.m
    if sigma is None:
        sigma = 0.01 * math.sqrt(float(np.mean(np.diag(cov))))
    a = cov + sigma**2 * np.eye(data.v)
    zero = ~np.any(x != 0.0, axis=0)
    order, steps = [], []
    for _ in range(k):
        unsel = [i for i in range(data.v) if i not in order]
        numerators = np.diag(a)[unsel]
        if order:
            cross = a[np.ix_(order, unsel)]
            solved = np.linalg.solve(a[np.ix_(order, order)], cross)
            numerators = numerators - np.sum(cross * solved, axis=0)
        denominators = 1.0 / np.diag(np.linalg.inv(a[np.ix_(unsel, unsel)]))
        scores = np.full(data.v, -np.inf)
        scores[unsel] = numerators / denominators
        scores[zero] = -np.inf
        if np.all(scores == -np.inf):
            break
        order.append(int(np.argmax(scores)))
        steps.append(scores)
    return tuple(i + 1 for i in order), np.array(steps).reshape(len(steps), data.v)


def _residual(x: np.ndarray, order) -> np.ndarray:
    """``(I - P_S) x`` for the 0-based ``order``, with ``P_S`` the projection
    onto those columns by a QR factorization of ``x_S``."""
    if not order:
        return x.copy()
    q = np.linalg.qr(x[:, order])[0]
    return x - q @ (q.T @ x)


def _live(x: np.ndarray, residual: np.ndarray, order) -> np.ndarray:
    """Unselected columns whose residual keeps more than ``DEPENDENT_TOL``
    of their own norm."""
    live = np.linalg.norm(residual, axis=0) > DEPENDENT_TOL * np.linalg.norm(x, axis=0)
    live[list(order)] = False
    return live


def fsca_scores(data: Dataset, selected) -> np.ndarray:
    """FSCA's score of every column ``j`` after the 1-based ``selected``
    picks: the VE, in percent, of the projection of ``X`` onto
    ``[X_S, x_j]``, by a QR factorization of those columns; ``-inf`` where
    ``j`` is no candidate."""
    x = data.values
    order = [i - 1 for i in selected]
    energy = float(np.sum(x * x))
    scores = np.full(data.v, -np.inf)
    for j in np.flatnonzero(_live(x, _residual(x, order), order)):
        q = np.linalg.qr(x[:, order + [j]])[0]
        scores[j] = 100.0 * float(np.sum((q.T @ x) ** 2)) / energy
    return scores


def fsca_select(data: Dataset, k: int) -> tuple[tuple[int, ...], np.ndarray]:
    """FSCA's 1-based order and its VE curve, in percent.

    Each step scores every candidate by :func:`fsca_scores` and picks the
    first best; the order ends early when no candidate is left.
    """
    order, curve = [], []
    for _ in range(k):
        scores = fsca_scores(data, order)
        if np.isneginf(scores).all():
            break
        order.append(int(np.argmax(scores)) + 1)
        curve.append(float(scores[order[-1] - 1]))
    return tuple(order), np.array(curve)


def fosmod_select(data: Dataset, k: int) -> tuple[tuple[int, ...], np.ndarray]:
    """FOS-MOD's 1-based order and the score of each pick.

    Each step forms the residual ``R = X - X_S B`` with ``B`` the
    ``np.linalg.lstsq`` solution of ``X_S B = X``, the selected columns
    first scaled to unit norm (the span, and so ``R``, is unchanged, but a
    tiny column is not cut off as rank deficient).  Every candidate ``j``
    scores ``(1/v) sum_i (x_i^T r_j)^2 / (||x_i||^2 ||r_j||^2)`` over the
    nonzero columns ``x_i``; the step picks the first best, and the order
    ends early when no candidate is left.
    """
    x = data.values
    sqnorms = np.sum(x * x, axis=0)
    weights = np.divide(1.0, sqnorms, out=np.zeros(data.v), where=sqnorms > 0.0)
    order, trace = [], []
    for _ in range(k):
        residual = x.copy()
        if order:
            basis = x[:, order] / np.linalg.norm(x[:, order], axis=0)
            residual -= basis @ np.linalg.lstsq(basis, x, rcond=None)[0]
        live = _live(x, residual, order)
        if not live.any():
            break
        cross = x.T @ residual[:, live]
        scores = np.full(data.v, -np.inf)
        scores[live] = (cross * cross).T @ weights / (data.v * np.sum(residual[:, live] ** 2, axis=0))
        order.append(int(np.argmax(scores)))
        trace.append(float(scores[order[-1]]))
    return tuple(i + 1 for i in order), np.array(trace)


def pfs_select(data: Dataset, k: int) -> tuple[tuple[int, ...], np.ndarray]:
    """PFS's 1-based order and the score of each pick.

    Each step forms the residual ``R = (I - P_S) X``, with ``P_S`` the
    projection onto the selected columns by a QR factorization of ``X_S``,
    and its first principal component ``p = s_1 u_1`` from the SVD of
    ``R``.  It picks the first best absolute correlation
    ``|r_j^T p| / (||r_j|| ||p||)`` among the candidates; the order ends
    early when no candidate is left.
    """
    x = data.values
    order, trace = [], []
    for _ in range(k):
        residual = _residual(x, order)
        norms = np.linalg.norm(residual, axis=0)
        live = _live(x, residual, order)
        if not live.any():
            break
        u, s, _ = np.linalg.svd(residual, full_matrices=False)
        p = u[:, 0] * s[0]
        with np.errstate(divide="ignore", invalid="ignore"):
            scores = np.abs(p @ residual) / (norms * np.linalg.norm(p))
        order.append(int(np.argmax(np.where(live, scores, -np.inf))))
        trace.append(float(scores[order[-1]]))
    return tuple(i + 1 for i in order), np.array(trace)


def pfs_scores_exact(data: Dataset, order) -> list[np.ndarray]:
    """The PFS scores of every column (see :func:`pfs_select`) at ``DIGITS``
    digits before each pick of the 1-based ``order`` (the first entry
    scores the empty selection), from the residual Gram
    ``R^T R = X^T X - X^T X_S (X_S^T X_S)^{-1} X_S^T X``.

    With ``w`` its top unit eigenvector, ``p = R w`` and ``R^T p = l1 w``,
    so column ``j`` scores ``sqrt(l1) |w_j| / sqrt((R^T R)_jj)`` (NaN for a
    column with no residual).  ``w`` is found by inverse iteration shifted
    to the float64 top eigenvalue, and ``l1`` is certified as the largest
    eigenvalue by a Cholesky factorization of ``l1 (1 + 10^-30) I - R^T R``.
    """
    picks = [int(i) - 1 for i in order]
    steps = []
    with mpmath.workdps(DIGITS):
        x = mpmath.matrix(data.values.tolist())
        full = x.T * x
        for step in range(len(picks)):
            chosen = picks[:step]
            gram = full.copy()
            if chosen:
                cross = mpmath.matrix([[full[i, j] for j in range(data.v)] for i in chosen])
                block = mpmath.matrix([[full[i, j] for j in chosen] for i in chosen])
                gram -= cross.T * (mpmath.inverse(block) * cross)
            top, w = _top_eigenpair(gram)
            steps.append(
                np.array(
                    [
                        float(mpmath.sqrt(top) * abs(w[j]) / mpmath.sqrt(gram[j, j]))
                        if gram[j, j] > 0
                        else np.nan
                        for j in range(data.v)
                    ]
                )
            )
    return steps


def _top_eigenpair(gram):
    """Largest eigenvalue and its unit eigenvector of the symmetric mpmath
    matrix ``gram`` (call inside ``workdps``)."""
    n = gram.rows
    shift = mpmath.mpf(float(np.linalg.eigvalsh(np.array(gram.tolist(), dtype=float))[-1]))
    solve = mpmath.inverse(gram - shift * mpmath.eye(n))
    w = mpmath.matrix([1] * n)
    for _ in range(20):
        w_next = solve * w
        w_next /= mpmath.norm(w_next)
        if (w_next.T * w)[0] < 0:
            w_next = -w_next
        converged = mpmath.norm(w_next - w) < mpmath.mpf(10) ** (5 - DIGITS)
        w = w_next
        if converged:
            break
    else:
        raise ArithmeticError("inverse iteration did not converge")
    top = (w.T * gram * w)[0]
    mpmath.cholesky(top * (1 + mpmath.mpf(10) ** -30) * mpmath.eye(n) - gram)
    return top, w


def load_csv_rows(path, has_header: bool = False) -> Dataset:
    """``varsel.load_csv`` with every line through ``csv.reader`` and every
    cell through ``float``: the grammar, values and errors the loader keeps."""
    rows: list[list[float]] = []
    labels = None
    expected = None
    header_pending = has_header
    with open(path, "r", encoding="utf-8-sig", newline="") as handle:
        reader = csv.reader(handle)
        try:
            for lineno, row in enumerate(reader, start=1):
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                if row[0].lstrip().startswith("#"):
                    continue
                if header_pending:
                    labels = tuple(cell.strip() for cell in row)
                    expected = len(row)
                    header_pending = False
                    continue
                if expected is None:
                    expected = len(row)
                elif len(row) != expected:
                    raise RaggedRows(lineno)
                parsed = []
                for col, cell in enumerate(row, start=1):
                    try:
                        value = float(cell)
                    except ValueError:
                        raise ParseError(lineno, col, cell.strip()) from None
                    if not math.isfinite(value):
                        raise ParseError(lineno, col, cell.strip())
                    parsed.append(value)
                rows.append(parsed)
        except csv.Error as exc:
            raise ParseError(reader.line_num, message=str(exc)) from None
    if not rows:
        raise EmptyFile(path)
    return Dataset(np.array(rows, dtype=float), labels=labels)
