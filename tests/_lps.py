"""Shared random LPs: the general-LP families that the solver tests and
`tools/robustness_digest.py` solve, and HiGHS as their reference; the
SuperLU settings that move the solver's pivot path, and its log line."""

from __future__ import annotations

import dataclasses
import functools
import logging

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog
from scipy.sparse.linalg import splu

from stclear import simplex_solver
from stclear.clearing_lp import LinearProgram

# keyword arguments of `splu`, each a column ordering that moves the pivot
# path without changing the LP; the first is the solver's own factor
SETTINGS = {
    "COLAMD": {},
    "NATURAL": {"permc_spec": "NATURAL"},
    "MMD_ATA": {"permc_spec": "MMD_ATA"},
    "MMD_AT_PLUS_A": {"permc_spec": "MMD_AT_PLUS_A"},
    "COLAMD-relax1": {"relax": 1},
}


def factor_by(monkeypatch, setting: str) -> None:
    """Factor every basis by `splu` under `setting`, so that the solver needs
    no option for it."""
    monkeypatch.setattr(simplex_solver, "splu", functools.partial(splu, **SETTINGS[setting]))


def solve_fields(lp, caplog, start=None, max_iterations=None):
    """Solve `lp`; return the result and the fields of its `solve:` log line."""
    with caplog.at_level(logging.DEBUG, logger="stclear.simplex"):
        caplog.clear()
        res = simplex_solver.solve(lp, start, max_iterations=max_iterations)
    [line] = [r.getMessage() for r in caplog.records if r.getMessage().startswith("solve:")]
    return res, dict(item.split("=", 1) for item in line.split()[1:])


def make_lp(c, A, b, lower, upper, sense="max"):
    A = np.atleast_2d(np.asarray(A, dtype=float))
    if A.size == 0:
        A = A.reshape(0, len(c))
    return LinearProgram(
        sense=sense,
        c=np.asarray(c, dtype=float),
        A=sp.csr_matrix(A),
        b=np.asarray(b, dtype=float),
        lower=np.asarray(lower, dtype=float),
        upper=np.asarray(upper, dtype=float),
    )


def medium_random_lp(seed):
    """Bigger random LP (up to 60 cols, 25 rows) with occasional free columns
    and infinite uppers; sized past what the enumeration oracle can touch."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 61))
    m = int(rng.integers(1, 26))
    A = np.where(rng.random((m, n)) < 0.25, np.round(rng.uniform(-2.0, 2.0, (m, n)), 2), 0.0)
    lower = np.where(rng.random(n) < 0.1, -np.inf, 0.0)
    upper = np.round(rng.uniform(0.5, 8.0, n), 2)
    upper[rng.random(n) < 0.1] = np.inf
    b = np.zeros(m) if rng.random() < 0.4 else np.round(rng.uniform(-3.0, 3.0, m), 2)
    c = np.round(rng.uniform(-4.0, 4.0, n), 2)
    return make_lp(c, A, b, lower, upper, sense="min")


def scaled_lp(seed):
    """medium_random_lp with column j rescaled by 10**U(-3, 9): A and c grow
    by the factor and the upper bound shrinks by it."""
    rng = np.random.default_rng(seed)
    lp = medium_random_lp(50_000 + seed)
    scale = 10.0 ** rng.uniform(-3.0, 9.0, lp.n_cols)
    A = sp.csr_matrix(lp.A.multiply(scale))
    return dataclasses.replace(lp, c=lp.c * scale, A=A, upper=lp.upper / scale)


def highs(lp):
    """`linprog(method="highs")` on `lp`, its `fun` in the LP's own sense."""
    bounds = [
        (None if np.isneginf(lo) else lo, None if np.isposinf(hi) else hi)
        for lo, hi in zip(lp.lower, lp.upper)
    ]
    c = -lp.c if lp.sense == "max" else lp.c
    ref = linprog(c, A_eq=lp.A.toarray(), b_eq=lp.b, bounds=bounds, method="highs")
    if lp.sense == "max" and ref.status == 0:
        ref.fun = -ref.fun
    return ref
