"""Seeded input books for the benchmark, independent of ``exposure_glm.simulate``.

Every book follows the paper's two-group design: 40 % of contracts are
mid-term with exposure uniform on [30/365, 335/365], the rest have full
exposure; the mid-term group's mean loss cost is 2.45/0.63 times the
full-exposure group's; half of the losses are exact zeros and the rest
are gamma(1.5) severities rescaled so each group hits its mean exactly.
The library's own simulator is deliberately not used, so a change to it
cannot change the benchmark's inputs.  Each builder draws book ``index``
of a seed; a run gives every operation its own book.
"""

import hashlib
from dataclasses import dataclass

import numpy as np

EXPOSURE_LO = 30.0 / 365.0
EXPOSURE_HI = 335.0 / 365.0
MIDTERM_SHARE = 0.4
REFERENCE_RATIO = 2.45 / 0.63
ZERO_MASS = 0.5
GAMMA_SHAPE = 1.5
BINARY_PROBS = (0.5, 0.3, 0.2, 0.6, 0.4, 0.25)
CLAIM_FREQUENCY = 0.1


@dataclass
class Book:
    """Columns of one generated book; ``counts`` only for the claim-count companion."""

    exposures: np.ndarray
    losses: np.ndarray
    covariates: np.ndarray
    covariate_names: tuple
    mean_full: float
    counts: np.ndarray | None = None

    @property
    def n(self):
        return self.exposures.size

    def properties(self):
        """Input facts later performance claims cite."""
        mid = self.exposures < 1.0
        return {
            "n": self.n,
            "midterm_share": float(mid.mean()),
            "loss_scale": self.mean_full,
            "mean_loss_full": float(self.losses[~mid].mean()),
            "mean_loss_midterm": float(self.losses[mid].mean()),
            "zero_share": float((self.losses == 0.0).mean()),
            "levels": {
                name: int(np.unique(self.covariates[:, j]).size)
                for j, name in enumerate(self.covariate_names)
            },
        }


def _two_group_losses(rng, n, mean_full):
    mid = np.zeros(n, dtype=bool)
    mid[rng.permutation(n)[: round(MIDTERM_SHARE * n)]] = True
    exposures = np.ones(n)
    exposures[mid] = rng.uniform(EXPOSURE_LO, EXPOSURE_HI, int(mid.sum()))
    losses = np.zeros(n)
    for group, mean in ((mid, mean_full * REFERENCE_RATIO), (~mid, mean_full)):
        idx = np.flatnonzero(group)
        positive = idx[rng.permutation(idx.size)[: idx.size - round(ZERO_MASS * idx.size)]]
        draws = rng.gamma(GAMMA_SHAPE, 1.0, positive.size)
        losses[positive] = draws * (mean * idx.size / draws.sum())
    return exposures, losses


def _binary(rng, n, count):
    return np.column_stack([(rng.random(n) < p).astype(float) for p in BINARY_PROBS[:count]])


def compare_book(seed, n=200_000, index=0):
    """3 binary covariates, full-exposure mean loss 100 (the paper's default)."""
    rng = np.random.default_rng([seed, 1, index])
    exposures, losses = _two_group_losses(rng, n, 100.0)
    covariates = _binary(rng, n, 3)
    return Book(exposures, losses, covariates, ("x1", "x2", "x3"), 100.0)


def balance_book(seed, n=50_000, index=0):
    """2 binary covariates plus a sum insured in thousands at 2 decimals."""
    rng = np.random.default_rng([seed, 2, index])
    exposures, losses = _two_group_losses(rng, n, 100.0)
    sum_insured = np.round(rng.lognormal(np.log(150.0), 0.25, n), 2)
    covariates = np.column_stack([_binary(rng, n, 2), sum_insured])
    return Book(exposures, losses, covariates, ("x1", "x2", "sum_insured"), 100.0)


def profile_book(seed, n=100_000, index=0):
    """6 binary and 2 standardised continuous covariates, mean loss 1000, plus claim counts."""
    rng = np.random.default_rng([seed, 3, index])
    exposures, losses = _two_group_losses(rng, n, 1000.0)
    continuous = rng.standard_normal((n, 2))
    continuous = (continuous - continuous.mean(axis=0)) / continuous.std(axis=0)
    covariates = np.column_stack([_binary(rng, n, 6), continuous])
    counts = rng.poisson(CLAIM_FREQUENCY * exposures).astype(float)
    names = tuple(f"x{j}" for j in range(1, 9))
    return Book(exposures, losses, covariates, names, 1000.0, counts)


def write_csv(book, path):
    """Write the loss-cost CSV schema with ``repr`` floats; return (bytes, sha256)."""
    header = ",".join(("contract_id", "exposure", "loss_cost", *book.covariate_names))
    lines = [header]
    for i, (t, y, row) in enumerate(zip(book.exposures.tolist(), book.losses.tolist(),
                                        book.covariates.tolist())):
        lines.append(",".join((f"c{i + 1}", repr(t), repr(y), *map(repr, row))))
    data = ("\n".join(lines) + "\n").encode()
    with open(path, "wb") as fh:
        fh.write(data)
    return len(data), hashlib.sha256(data).hexdigest()


def array_digest(book):
    """Size and sha256 of the book's columns as little-endian float64 bytes.

    Column order: exposure, loss, count, covariates.
    """
    columns = [book.exposures, book.losses, book.counts, book.covariates]
    data = np.column_stack(columns).astype("<f8").tobytes()
    return len(data), hashlib.sha256(data).hexdigest()
