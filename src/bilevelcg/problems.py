"""Experiment instance constructors: the analytic two-variable problem,
over-parameterized regression, fair logistic classification, bilevel
dictionary learning, and generic CSV ingestion."""

from __future__ import annotations

import csv
from collections import Counter
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import solvers
from .core import (
    BallProduct,
    BilevelInstance,
    L1Ball,
    Polytope,
    ProductRegion,
    QuadraticForm,
    ReferenceData,
    SmoothOracle,
    SolverConfig,
    InvSqrt,
    lambda_max_gram,
)


class DataError(ValueError):
    """Raised for malformed or degenerate input data."""


# The train, validation and test shares of every split; the noise level of
# the synthetic regression validation and test targets; the FW gap at which
# the dictionary's pretraining and its polish phase stop.
SPLIT_FRACTIONS = (0.6, 0.2, 0.2)
REGRESSION_NOISE_SIGMA = 0.1
PRETRAIN_GAP = 1e-6


# ---------------------------------------------------------------------------
# Shared numerics
# ---------------------------------------------------------------------------

def _sigmoid(t: np.ndarray) -> np.ndarray:
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    return out


# ---------------------------------------------------------------------------
# Datasets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DatasetSplit:
    """Feature matrix with targets, partitioned into train/validation/test."""

    features: np.ndarray
    targets: np.ndarray
    train_idx: np.ndarray
    val_idx: np.ndarray
    test_idx: np.ndarray
    sensitive: Optional[np.ndarray] = None

    def __post_init__(self):
        n = self.features.shape[0]
        if self.targets.shape[0] != n:
            raise DataError("targets length must match feature rows")
        parts = np.concatenate([self.train_idx, self.val_idx, self.test_idx])
        if sorted(parts.tolist()) != list(range(n)):
            raise DataError("split indices must partition the dataset")

    def _take(self, idx):
        return self.features[idx], self.targets[idx]

    @property
    def train(self):
        return self._take(self.train_idx)

    @property
    def validation(self):
        return self._take(self.val_idx)

    @property
    def test(self):
        return self._take(self.test_idx)


def _split_indices(n: int, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    n_tr = int(round(SPLIT_FRACTIONS[0] * n))
    n_val = int(round(SPLIT_FRACTIONS[1] * n))
    return perm[:n_tr], perm[n_tr : n_tr + n_val], perm[n_tr + n_val :]


def load_csv(
    path,
    target_column: str,
    sensitive_column: Optional[str] = None,
    seed: int = 0,
) -> DatasetSplit:
    """Parse a rectangular numeric CSV with a header row, standardize the
    features into [0, 1], and split by a seeded shuffle."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError("empty dataset: file has no header row")
        header = [h.strip() for h in header]
        duplicates = sorted(name for name, count in Counter(header).items() if count > 1)
        if duplicates:
            raise DataError(f"duplicate column names {duplicates}")
        if target_column not in header:
            raise DataError(f"missing column {target_column!r}")
        if sensitive_column is not None and sensitive_column not in header:
            raise DataError(f"missing column {sensitive_column!r}")
        if sensitive_column == target_column:
            raise DataError(f"column {target_column!r} is both the target and the sensitive attribute")
        rows = []
        for lineno, raw in enumerate(reader, start=2):
            if len(raw) != len(header):
                raise DataError(
                    f"row {lineno}: expected {len(header)} columns, found {len(raw)}"
                )
            vals = []
            for col, cell in zip(header, raw):
                try:
                    value = float(cell)
                except ValueError:
                    raise DataError(f"row {lineno}, column {col!r}: non-numeric value {cell!r}")
                if not np.isfinite(value):
                    raise DataError(f"row {lineno}, column {col!r}: non-finite value {cell!r}")
                vals.append(value)
            rows.append(vals)
    if not rows:
        raise DataError("empty dataset: no data rows")
    table = np.array(rows)
    t_pos = header.index(target_column)
    targets = table[:, t_pos]
    keep = [i for i in range(len(header)) if i != t_pos]
    features = table[:, keep]
    sensitive = None
    if sensitive_column is not None:
        s_pos = keep.index(header.index(sensitive_column))
        sensitive = features[:, s_pos].copy()
    lo = features.min(axis=0)
    span = features.max(axis=0) - lo
    span[span == 0.0] = 1.0
    features = (features - lo) / span
    tr, va, te = _split_indices(table.shape[0], seed)
    return DatasetSplit(features, targets, tr, va, te, sensitive=sensitive)


# ---------------------------------------------------------------------------
# Analytic two-variable problem
# ---------------------------------------------------------------------------

def toy_problem() -> BilevelInstance:
    """Two-variable instance with a linear lower level whose optimal set is
    the segment from (0.5, 0.5) to (1, 0); the bilevel optimum is (0.6, 0.4)."""
    upper = SmoothOracle(2, quadratic=QuadraticForm(np.array([[1.0, 0.0]]), np.zeros(1), np.array([-0.5, 0.1])))
    lower = SmoothOracle(2, quadratic=QuadraticForm(np.zeros((0, 2)), np.zeros(0), np.array([-1.0, -1.0])))
    region = Polytope(A=np.array([[1.0, 1.0], [4.0, 6.0]]), b=np.array([1.0, 5.0]))
    reference = ReferenceData(
        g_star=-1.0,
        f_star=-0.08,
        lower_solution_set=np.array([[0.5, 0.5], [1.0, 0.0]]),
    )
    return BilevelInstance(upper, lower, region, reference, name="toy")


# ---------------------------------------------------------------------------
# Over-parameterized regression
# ---------------------------------------------------------------------------

def _least_squares_oracle(A: np.ndarray, b: np.ndarray) -> SmoothOracle:
    if not np.any(A):
        raise DataError("degenerate all-zero design matrix")
    # Factored by A itself: no d x d Gram is formed or held.
    return SmoothOracle(A.shape[1], quadratic=QuadraticForm(A, b))


def synthetic_regression_data(
    n: int = 60, d: int = 100, seed: int = 0, l1_radius: float = 1.0
) -> tuple[DatasetSplit, np.ndarray]:
    """Over-parameterized regression data with a planted sparse coefficient
    vector inside the l1 ball, so that the training loss attains exactly
    zero (the train targets carry no noise)."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, d))
    beta = np.zeros(d)
    support = rng.choice(d, size=min(10, d), replace=False)
    w = rng.uniform(0.5, 1.0, size=support.size) * rng.choice([-1.0, 1.0], size=support.size)
    beta[support] = 0.9 * l1_radius * w / np.abs(w).sum()
    b = A @ beta
    tr, va, te = _split_indices(n, seed)
    if d <= tr.size:
        raise DataError("synthetic regression must be over-parameterized (d > train rows)")
    noise = REGRESSION_NOISE_SIGMA * rng.standard_normal(n)
    b = b.copy()
    b[va] += noise[va]
    b[te] += noise[te]
    return DatasetSplit(A, b, tr, va, te), beta


def regression_problem(
    data: Optional[DatasetSplit] = None,
    l1_radius: float = 1.0,
    n: int = 60,
    d: int = 100,
    seed: int = 0,
) -> tuple[BilevelInstance, DatasetSplit]:
    """Training least squares below, validation least squares above, over
    an l1 ball.  With synthetic data the lower-level optimum is exactly 0
    by construction."""
    g_star = None
    if data is None:
        data, _ = synthetic_regression_data(n=n, d=d, seed=seed, l1_radius=l1_radius)
        g_star = 0.0
    A_tr, b_tr = data.train
    A_val, b_val = data.validation
    for split, rows in (("training", A_tr), ("validation", A_val)):
        if not rows.shape[0]:
            raise DataError(f"empty {split} split: {data.features.shape[0]} rows are too few to split")
    lower = _least_squares_oracle(A_tr, b_tr)
    upper = _least_squares_oracle(A_val, b_val)
    region = L1Ball(radius=l1_radius, dimension=A_tr.shape[1])
    instance = BilevelInstance(
        upper, lower, region, ReferenceData(g_star=g_star), name="regression"
    )
    return instance, data


# ---------------------------------------------------------------------------
# Fair classification
# ---------------------------------------------------------------------------

MAX_ABS_SIGMOID_SECOND_DERIV = 1.0 / (6.0 * np.sqrt(3.0))


def synthetic_fair_data(n: int = 200, d: int = 5, seed: int = 0) -> DatasetSplit:
    """Binary classification data whose first feature is correlated with a
    binary sensitive attribute, so unconstrained training is unfair."""
    rng = np.random.default_rng(seed)
    v = rng.integers(0, 2, size=n).astype(float)
    X = rng.uniform(0.0, 1.0, size=(n, d))
    X[:, 0] = 0.65 * v + 0.35 * X[:, 0]
    beta_true = rng.uniform(-2.0, 2.0, size=d)
    beta_true[0] = 3.0  # load the sensitive-correlated feature
    probs = _sigmoid(X @ beta_true - float(np.median(X @ beta_true)))
    y = (rng.uniform(size=n) < probs).astype(float)
    tr, va, te = _split_indices(n, seed)
    return DatasetSplit(X, y, tr, va, te, sensitive=v)


def fair_classification_problem(
    data: Optional[DatasetSplit] = None,
    l1_radius: float = 100.0,
    n: int = 200,
    d: int = 5,
    seed: int = 0,
) -> tuple[BilevelInstance, DatasetSplit]:
    """Sparse logistic training loss below; squared covariance between the
    sensitive attribute and the model output above (non-convex)."""
    if data is None:
        data = synthetic_fair_data(n=n, d=d, seed=seed)
    if data.sensitive is None:
        raise DataError("a sensitive attribute column must be designated")
    X, y = data.train
    v = data.sensitive[data.train_idx]
    if np.all(v == v[0]):
        raise DataError("sensitive attribute is constant on the training set")
    n_tr, dim = X.shape
    vc = v - v.mean()

    def g_eval(beta):
        t = X @ beta
        val = float(np.mean(np.logaddexp(0.0, t) - y * t))
        grad = X.T @ (_sigmoid(t) - y) / n_tr
        return val, grad

    def f_eval(beta):
        t = X @ beta
        sig = _sigmoid(t)
        c = float(np.mean(vc * sig))
        grad_c = X.T @ (vc * sig * (1.0 - sig)) / n_tr
        return c * c, 2.0 * c * grad_c

    L_g = lambda_max_gram(X) / (4.0 * n_tr)
    row_norms = np.linalg.norm(X, axis=1)
    b1 = float(np.mean(np.abs(vc) * row_norms)) / 4.0
    b2 = MAX_ABS_SIGMOID_SECOND_DERIV * float(np.mean(np.abs(vc) * row_norms**2))
    c_max = float(np.mean(np.abs(vc)))
    L_f = 2.0 * b1 * b1 + 2.0 * c_max * b2  # conservative Hessian-norm bound

    lower = SmoothOracle(dim, g_eval, lipschitz_grad=L_g)
    upper = SmoothOracle(dim, f_eval, lipschitz_grad=L_f)
    region = L1Ball(radius=l1_radius, dimension=dim)
    instance = BilevelInstance(upper, lower, region, name="fair")
    return instance, data


# ---------------------------------------------------------------------------
# Dictionary learning
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DictLearnSpec:
    signal_dim: int = 25
    true_dict_size: int = 50
    old_dict_size: int = 40
    new_dict_size: int = 20
    shared: int = 10
    n_old: int = 250
    n_new: int = 200
    sparsity: int = 5
    coeff_lo: float = 0.2
    coeff_hi: float = 1.0
    noise_sigma: float = 0.01
    l1_radius: float = 3.0
    seed: int = 0

    def __post_init__(self):
        sizes = ("signal_dim", "true_dict_size", "old_dict_size", "new_dict_size", "n_old", "n_new", "sparsity")
        for name in sizes:
            if getattr(self, name) < 1:
                raise DataError(f"{name} must be at least 1, got {getattr(self, name)!r}")
        if self.shared < 0:
            raise DataError(f"shared must be nonnegative, got {self.shared!r}")
        if self.shared > min(self.old_dict_size, self.new_dict_size):
            raise DataError("shared columns cannot exceed either sub-dictionary size")
        if self.sparsity > min(self.old_dict_size, self.new_dict_size):
            raise DataError("sparsity cannot exceed the dictionary size")
        if self.old_dict_size + self.new_dict_size - self.shared != self.true_dict_size:
            raise DataError("sub-dictionary sizes must tile the true dictionary")


def _sparse_codes(rng, dict_size, count, spec):
    X = np.zeros((dict_size, count))
    for i in range(count):
        pos = rng.choice(dict_size, size=spec.sparsity, replace=False)
        mag = rng.uniform(spec.coeff_lo, spec.coeff_hi, size=spec.sparsity)
        X[pos, i] = mag * rng.choice([-1.0, 1.0], size=spec.sparsity)
    return X


def dict_pack(D: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Flatten (dictionary, coefficients) into one vector, both blocks
    column-major: dictionary first, then coefficients."""
    return np.concatenate([D.reshape(-1, order="F"), X.reshape(-1, order="F")])


def dict_unpack(z: np.ndarray, m: int, p: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    return z[: m * p].reshape(m, p, order="F"), z[m * p :].reshape(p, n, order="F")


def _dict_region(m: int, p: int, n: int, delta: float) -> ProductRegion:
    """Unit-ball dictionary columns times coefficient columns in l1 balls
    of radius ``delta``, in the layout of :func:`dict_pack`."""
    return ProductRegion((BallProduct(num_cols=p, col_dim=m, radii=1.0), L1Ball(delta, p * n, num_cols=n)))


def _reconstruction_oracle(A: np.ndarray, m: int, p: int) -> SmoothOracle:
    """f(D, X) = ||A - D X||_F^2 / (2 n) over packed (D, X) variables."""
    n = A.shape[1]

    def evaluate(z):
        D, X = dict_unpack(z, m, p, n)
        R = D @ X - A
        grad = np.empty(m * p + p * n)  # dict_pack's layout, each block written in place
        np.divide(R @ X.T, n, out=grad[: m * p].reshape(m, p, order="F"))
        np.divide(D.T @ R, n, out=grad[m * p :].reshape(p, n, order="F"))
        return 0.5 * float(np.sum(R * R)) / n, grad

    return SmoothOracle(m * p + p * n, evaluate)


def _fixed_codes_oracle(A: np.ndarray, X: np.ndarray, dimension: int) -> SmoothOracle:
    """g(D) = ||A - D X||_F^2 / (2 n) in the dictionary D alone, with the
    codes X held fixed.  D, column-major, is the first m * p entries of a
    vector of length ``dimension``; the gradient is zero on the rest."""
    (m, n), p = A.shape, X.shape[0]

    def evaluate(z):
        R = z[: m * p].reshape(m, p, order="F") @ X - A
        grad = np.zeros(dimension)
        np.divide(R @ X.T, n, out=grad[: m * p].reshape(m, p, order="F"))
        return 0.5 * float(np.sum(R * R)) / n, grad

    return SmoothOracle(dimension, evaluate, lipschitz_grad=lambda_max_gram(X.T) / n)


@dataclass(frozen=True)
class DictionaryBundle:
    """Everything produced by the dictionary-learning constructor."""

    bilevel: BilevelInstance
    initial_point: np.ndarray
    pretrain_oracle: SmoothOracle
    dictionary_truth: np.ndarray
    d_hat: np.ndarray
    x_hat: np.ndarray
    old_data: np.ndarray
    new_data: np.ndarray
    spec: DictLearnSpec


def dictionary_problem(
    spec: DictLearnSpec = DictLearnSpec(),
    pretrain_iters: int = 3000,
    pretrain_polish_iters: int = 2000,
) -> DictionaryBundle:
    """Generate the synthetic continual dictionary-learning instance.

    A ground-truth dictionary is sampled with unit-norm Gaussian columns;
    the old dataset uses its first ``old_dict_size`` columns and the new
    dataset uses the last ``new_dict_size`` (overlapping on ``shared``).
    Pretraining on the old data yields frozen coefficients; the bilevel
    lower level is the old-data reconstruction error in the dictionary
    block alone, so cutting planes have a zero coefficient block.
    """
    rng = np.random.default_rng(spec.seed)
    m, q = spec.signal_dim, spec.true_dict_size
    p, p_new = spec.old_dict_size, spec.new_dict_size

    D_true = rng.standard_normal((m, q))
    D_true /= np.linalg.norm(D_true, axis=0)
    D_old = D_true[:, :p]
    D_new = D_true[:, q - p_new :]

    X_old = _sparse_codes(rng, p, spec.n_old, spec)
    X_new = _sparse_codes(rng, p_new, spec.n_new, spec)
    A_old = D_old @ X_old + spec.noise_sigma * rng.standard_normal((m, spec.n_old))
    A_new = D_new @ X_new + spec.noise_sigma * rng.standard_normal((m, spec.n_new))

    # Pretraining (joint dictionary + codes on the old data), then a polish
    # phase on the dictionary alone with exact line search.
    pre_oracle = _reconstruction_oracle(A_old, m, p)
    pre_region = _dict_region(m, p, spec.n_old, spec.l1_radius)
    z0 = dict_pack(
        rng.standard_normal((m, p)) / np.sqrt(m),
        _normalize_l1_columns(rng.standard_normal((p, spec.n_old)), spec.l1_radius),
    )
    cfg = SolverConfig(eps_f=PRETRAIN_GAP, eps_g=1.0, max_iters=pretrain_iters, schedule=InvSqrt(1.0))
    joint = solvers.standard_cg(pre_oracle, pre_region, cfg, start=z0)
    D_hat, X_hat = dict_unpack(joint.final_point, m, p, spec.n_old)

    d_region = BallProduct(num_cols=p, col_dim=m, radii=1.0)
    d_oracle = _fixed_codes_oracle(A_old, X_hat, m * p)
    polish_cfg = SolverConfig(eps_f=PRETRAIN_GAP, eps_g=1.0, max_iters=pretrain_polish_iters)
    polished = solvers.standard_cg(
        d_oracle, d_region, polish_cfg, line_search="exact", start=D_hat.reshape(-1, order="F")
    )
    D_hat = polished.final_point.reshape(m, p, order="F")

    # Bilevel instance over the expanded dictionary and new-data codes; the
    # lower level holds the pretrained codes, padded with zero rows.
    X_hat_pad = np.vstack([X_hat, np.zeros((q - p, spec.n_old))])
    region = _dict_region(m, q, spec.n_new, spec.l1_radius)
    upper = _reconstruction_oracle(A_new, m, q)
    lower = _fixed_codes_oracle(A_old, X_hat_pad, m * q + q * spec.n_new)
    bilevel = BilevelInstance(upper, lower, region, name="dictionary")

    D0 = np.hstack([D_hat, np.zeros((m, q - p))])
    X0 = _normalize_l1_columns(rng.standard_normal((q, spec.n_new)), spec.l1_radius)
    z_init = dict_pack(D0, X0)

    return DictionaryBundle(
        bilevel=bilevel,
        initial_point=z_init,
        pretrain_oracle=pre_oracle,
        dictionary_truth=D_true,
        d_hat=D_hat,
        x_hat=X_hat,
        old_data=A_old,
        new_data=A_new,
        spec=spec,
    )


def _normalize_l1_columns(X: np.ndarray, delta: float) -> np.ndarray:
    sums = np.abs(X).sum(axis=0)
    sums[sums == 0.0] = 1.0
    return X * (delta / sums)
