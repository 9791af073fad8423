"""VAR(p) models and the linear algebra behind the lag-window statistics.

A model is parametrized by theta = (vec A_1', ..., vec A_p1')' with
column-major vec.  Null models of order p0 < p1 carry trailing zero blocks.
The operator matrices M, Q and T = M'Q' translate the d^2 p1 central
sequence into the span of the lagged cross-covariances up to the lag
horizon, which they alone decide; they are built from the Green matrices of
the autoregressive operator A(L) and from one fundamental system of the
recursion of its right inverse D(L), the one whose initial window is the
identity.  T does not depend on that choice (the paper's P undoes any other
system's Casorati matrix), so P is the identity.  The matrices are built
for a stack of models at once (a single model is the stack of one): the
D(L) recursion runs in companion form, one batched (d x d p0)(d p0 x d p0)
product per lag for the whole stack, each model with its own lag horizon,
and the Kronecker expansions kron(B, I_d) behind M and Q are each one
broadcast over all blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._errors import InputError, NumericalError

__all__ = [
    "VarModel",
    "OperatorMatrices",
    "vec",
    "unvec",
    "simulate_var",
    "residuals",
    "fit_constrained_ls",
    "build_operator_matrices",
]


def vec(m: np.ndarray) -> np.ndarray:
    """Column-major vectorization (stacks columns)."""
    return np.asarray(m, dtype=float).reshape(-1, order="F")


def unvec(v: np.ndarray, d: int) -> np.ndarray:
    """Inverse of :func:`vec` for a d x d matrix."""
    v = np.asarray(v, dtype=float)
    if v.size != d * d:
        raise InputError(f"cannot unvec length {v.size} into {d}x{d}")
    return v.reshape(d, d, order="F")


@dataclass(frozen=True)
class VarModel:
    """A VAR model in null form.

    Parameters
    ----------
    d : int
        Dimension of the observed series.
    p0 : int
        Null order: the number of leading coefficient blocks that may be
        nonzero.
    p1 : int
        Alternative order, p1 >= p0.  Blocks p0+1..p1 of theta must be zero.
    theta : (p1 * d**2,) array
        Stacked (vec A_1, ..., vec A_p1), column-major; stored as a
        read-only copy, so the spectral radius is computed once per model.
    """

    d: int
    p0: int
    p1: int
    theta: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.d < 1:
            raise InputError(f"need d >= 1, got {self.d}")
        if not 0 <= self.p0 <= self.p1:
            raise InputError(f"need 0 <= p0 <= p1, got p0={self.p0}, p1={self.p1}")
        theta = np.array(self.theta, dtype=float).reshape(-1)
        theta.setflags(write=False)
        if theta.size != self.p1 * self.d ** 2:
            raise InputError(
                f"theta has {theta.size} entries, expected p1*d^2 = {self.p1 * self.d ** 2}"
            )
        if not np.all(np.isfinite(theta)):
            raise InputError("theta contains non-finite entries")
        tail = theta[self.p0 * self.d ** 2:]
        if tail.size and np.any(tail != 0.0):
            raise InputError("null form requires zero blocks beyond p0")
        object.__setattr__(self, "theta", theta)

    @classmethod
    def from_matrices(cls, matrices, p1: int | None = None) -> "VarModel":
        """Build a model from a sequence of d x d coefficient matrices.

        The sequence length sets p0; trailing zero blocks pad the parameter
        out to p1 when a larger alternative order is requested.
        """
        mats = [np.asarray(a, dtype=float) for a in matrices]
        if not mats:
            raise InputError("need at least one coefficient matrix")
        d = mats[0].shape[0]
        for a in mats:
            if a.shape != (d, d):
                raise InputError(f"coefficient blocks must all be {d}x{d}")
        p0 = len(mats)
        if p1 is None:
            p1 = p0
        theta = np.concatenate(
            [vec(a) for a in mats] + [np.zeros((p1 - p0) * d * d)]
        )
        return cls(d=d, p0=p0, p1=p1, theta=theta)

    def coefficient(self, i: int) -> np.ndarray:
        """The d x d matrix A_i, 1-based."""
        if not 1 <= i <= self.p1:
            raise InputError(f"lag {i} outside 1..{self.p1}")
        d2 = self.d ** 2
        return unvec(self.theta[(i - 1) * d2: i * d2], self.d)

    @property
    def a_list(self) -> list[np.ndarray]:
        """Coefficient matrices A_1..A_p0 (the possibly nonzero blocks)."""
        return [self.coefficient(i) for i in range(1, self.p0 + 1)]

    def spectral_radius(self) -> float:
        """Spectral radius of the companion matrix of A_1..A_p0."""
        return self._radius

    @cached_property
    def _radius(self) -> float:
        if self.p0 == 0:
            return 0.0
        d, p = self.d, self.p0
        comp = np.zeros((d * p, d * p))
        for i, a in enumerate(self.a_list):
            comp[:d, i * d:(i + 1) * d] = a
        if p > 1:
            comp[d:, :-d] = np.eye(d * (p - 1))
        return float(np.max(np.abs(np.linalg.eigvals(comp))))

    def is_stationary(self) -> bool:
        return self.spectral_radius() < 1.0 - 1e-10


def _require_stationary(model: VarModel) -> None:
    if not model.is_stationary():
        raise NumericalError(
            f"model is not stationary (companion spectral radius "
            f"{model.spectral_radius():.6f})"
        )


def simulate_var(
    model: VarModel,
    n: int,
    innovations: np.ndarray,
    burn_in: int = 200,
) -> np.ndarray:
    """Generate n observations of X_t = sum_i A_i X_{t-i} + eps_t.

    The recursion starts from zero initial values and runs for burn_in + n
    steps; the first burn_in rows are discarded, so ``innovations`` must
    supply burn_in + n rows.  Pass ``burn_in=0`` to keep the transient
    (useful for exact inverse-filtering checks).
    """
    if n < 1 or burn_in < 0:
        raise InputError(f"need n >= 1 and burn_in >= 0, got {n}, {burn_in}")
    eps = np.asarray(innovations, dtype=float)
    total = n + burn_in
    if eps.ndim != 2 or eps.shape != (total, model.d):
        raise InputError(
            f"innovations must be ({total}, {model.d}), got {eps.shape}"
        )
    _require_stationary(model)
    a_t = [a.T for a in model.a_list]
    x = eps.copy()
    for t in range(total):
        for i, at in enumerate(a_t, start=1):
            if t - i >= 0:
                x[t] += x[t - i] @ at
    return x[burn_in:]


def _pow2_normalized(x: np.ndarray) -> np.ndarray:
    """x brought to max |x| in [1/2, 1) by an exact power of two.  Zero
    stays zero.

    A power-of-two scaling changes no significand, so a scale-invariant
    statistic computed after it is the same, bit for bit, while its sums and
    fourth moments stay far from overflow and underflow.
    """
    return np.ldexp(x, -np.frexp(np.abs(x).max())[1])


def _pow2_scaled(x: np.ndarray) -> np.ndarray:
    """x brought to max |x| in [1/2, 1) by :func:`_pow2_normalized` if max
    |x| lies outside [1/2, 2^500]; otherwise x itself.

    The optimal coupling and the least-squares fit apply it first, which
    makes them independent of the scale of their input and keeps their sums
    from overflowing.
    """
    top = np.abs(x).max()
    if 0.5 <= top <= 2.0**500:
        return x
    return _pow2_normalized(x)


def residuals(x: np.ndarray, model: VarModel) -> np.ndarray:
    """Residuals Z_t = X_t - sum_{i=1}^{p0} A_i X_{t-i}, zero initial values.

    Output has the same n rows as the input; the first p0 rows use only the
    available lags.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != model.d:
        raise InputError(f"series must be (n, {model.d}), got {x.shape}")
    z = x.copy()
    for i, a in enumerate(model.a_list, start=1):
        if i < x.shape[0]:
            z[i:] -= x[:-i] @ a.T
    return z


def fit_constrained_ls(
    x: np.ndarray,
    p0: int,
    p1: int | None = None,
) -> VarModel:
    """Constrained least-squares fit of a VAR(p0) inside a VAR(p1) frame.

    The series is demeaned and X_t regressed on (X_{t-1}, ..., X_{t-p0})
    without intercept; the estimate is returned in null form with trailing
    zero blocks up to p1.  For p0 = 0 there is nothing to fit and the zero
    model is returned.

    The root-n-consistent estimate is rounded to a lattice of pitch
    n^{-1/2}/100, fine enough to be numerically inert while making the
    estimator take finitely many values on bounded sets.  The series is
    first brought to a standard scale by an exact power of two (see
    :func:`_pow2_scaled`), so the fit is the same at every scale and the
    demeaning cannot overflow.

    Raises
    ------
    NumericalError
        If the regressor matrix is rank deficient or the solver fails.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise InputError(f"series must be 2-d, got shape {x.shape}")
    n, d = x.shape
    if p0 < 0:
        raise InputError(f"need p0 >= 0, got {p0}")
    if p1 is None:
        p1 = p0
    if p1 < max(p0, 1):
        raise InputError(f"need p1 >= max(p0, 1), got p0={p0}, p1={p1}")
    if n <= d * p0 + 10:
        raise InputError(f"need n > d*p0 + 10 = {d * p0 + 10}, got n={n}")
    if not np.all(np.isfinite(x)):
        raise InputError("series contains non-finite entries")
    if p0 == 0:
        return VarModel(d=d, p0=0, p1=p1, theta=np.zeros(p1 * d * d))

    x = _pow2_scaled(x)
    xc = x - x.mean(axis=0)
    # Design row t is (X_{t-1}', ..., X_{t-p0}') for t = p0..n-1.
    design = np.hstack([xc[p0 - i: n - i] for i in range(1, p0 + 1)])
    target = xc[p0:]
    try:
        b, _, rank, _ = np.linalg.lstsq(design, target, rcond=None)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"least-squares fit failed: {exc}") from exc
    if rank < d * p0:
        raise NumericalError(
            f"regressor matrix is rank deficient ({rank} < {d * p0})"
        )
    theta = np.concatenate(
        [vec(b[(i - 1) * d: i * d].T) for i in range(1, p0 + 1)]
        + [np.zeros((p1 - p0) * d * d)]
    )
    pitch = n ** -0.5 / 100.0
    theta = np.round(theta / pitch) * pitch
    return VarModel(d=d, p0=p0, p1=p1, theta=theta)


def _greens(model: VarModel, horizon: int) -> np.ndarray:
    """Green matrices G_0..G_horizon of the operator A(L), as a
    (horizon + 1, d, d) array.

    G_0 = I and G_u = sum_{i=1}^{p0} A_i G_{u-i} for u >= 1 (G_u = 0 for
    u < 0), so that A(L) applied to the sequence returns zero at all lags
    u >= 1.  Stationarity, which the caller checks, makes the sequence
    geometrically decaying.
    """
    d = model.d
    a_list = model.a_list
    g = np.zeros((horizon + 1, d, d))
    g[0] = np.eye(d)
    for u in range(1, horizon + 1):
        for i, a in enumerate(a_list, start=1):
            if u - i >= 0:
                g[u] += a @ g[u - i]
    return g


@dataclass(frozen=True)
class OperatorMatrices:
    """The matrices mapping lagged cross-covariances to the central sequence.

    Attributes
    ----------
    M : (d^2 p1, d^2 p1) array
        Block lower-triangular Kronecker expansion of the Green matrices,
        block (r, c) = kron(G_{r-c}', I_d) for r >= c; full rank.
    P : (d^2 p1, d^2 p1) array
        The identity: Q's fundamental system starts from the identity
        window, so its Casorati matrix is I.  It is kept only because
        ``bench/spans.py`` reads its size, and goes together with M once
        that file stops reading them.
    Q : (d^2 L, d^2 p1) array, L = ``effective_lags``
        Identity block of size d^2 (p1 - p0) on top, the Kronecker-expanded
        fundamental solutions below.
    T : (d^2 p1, d^2 L) array
        M' Q'.
    effective_lags : int
        The lag horizon L: the largest lag i with a nonzero block row Q_i.
        Q and T stop there, since every later block row is zero.
    """

    M: np.ndarray = field(repr=False)
    P: np.ndarray = field(repr=False)
    Q: np.ndarray = field(repr=False)
    T: np.ndarray = field(repr=False)
    effective_lags: int = 0


def _d_coefficients(greens: np.ndarray, p0: int) -> list[np.ndarray]:
    """Coefficients D_1..D_p0 of the right inverse D(L) of A(L)'.

    Solved by forward substitution in the triangular system
    D_r' = -G_r - sum_{c=1}^{r-1} G_{r-c} D_c'.
    """
    d_t: list[np.ndarray] = []
    for r in range(1, p0 + 1):
        acc = -greens[r].copy()
        for c in range(1, r):
            acc -= greens[r - c] @ d_t[c - 1]
        d_t.append(acc)
    return [m.T for m in d_t]


def _kron_eye(blocks: np.ndarray, d: int) -> np.ndarray:
    """kron(B, I_d) for every trailing 2-d block B of ``blocks``, in one broadcast."""
    *lead, r, c = blocks.shape
    wide = blocks[..., :, None, :, None] * np.eye(d)[:, None, :]
    return wide.reshape(*lead, r * d, c * d)


def _lower_block_toeplitz(blocks: np.ndarray) -> np.ndarray:
    """The k x k block matrix with block (r, c) = blocks[r - c] for r >= c,
    else 0, for every trailing (k, b1, b2) stack of ``blocks``."""
    *lead, k, b1, b2 = blocks.shape
    lag = np.subtract.outer(np.arange(k), np.arange(k))
    lag[lag < 0] = k  # index of an appended zero block
    padded = np.concatenate([blocks, np.zeros((*lead, 1, b1, b2))], axis=-3)
    return padded[..., lag, :, :].swapaxes(-3, -2).reshape(*lead, k * b1, k * b2)


# The companion recursion tests its 1e-12 stopping bound once per chunk of
# this many rows: rows computed past a model's stop are dropped.
_ROW_CHUNK = 16


def _small_runs(small: np.ndarray, p0: int) -> np.ndarray:
    """For an (S, w) boolean array, the (S, w - p0 + 1) array that is true
    where a run of p0 true entries starts (no columns when w < p0)."""
    w = max(small.shape[1] - p0 + 1, 0)
    runs = small[:, :w].copy()
    for i in range(1, p0):
        runs &= small[:, i:i + w]
    return runs


def _fundamental_rows(
    models: list[VarModel],
    n: int,
    d_coeffs: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Rows [psi_t^{(1)} ... psi_t^{(p0)}] of the fundamental systems of a
    stack of models that share (d, p0, p1).

    Rows are indexed t = p1 - p0 + 1, ... and returned as an (S, rows, d,
    d p0) array, with ``d_coeffs`` the (S, p0, d, d) coefficients D_1..D_p0
    of each model.  The initial window of p0 rows is the identity basis
    (Casorati matrix = I).  Later rows follow psi_t = -sum_i D_i psi_{t-i}
    in companion form: the p0 preceding rows, stacked, are one (d p0 x d p0)
    matrix, and each new row is the single product [-D_p0 ... -D_1] times
    it, one batched product per lag for the whole stack.  A model's
    extension stops once p0 consecutive rows fall below 1e-12 in max norm
    (all later rows are then negligible) or at t = n - 1, and its trailing
    rows below that bound are dropped: model s keeps rows[s, :length[s]],
    its lag horizon is (p1 - p0) + length[s], and the second return value
    holds those horizons.
    """
    d, p0, p1 = models[0].d, models[0].p0, models[0].p1
    dp, stack = d * p0, len(models)
    rows = np.empty((stack, n - 1 - (p1 - p0), d, dp))
    rows[:, :p0] = np.eye(dp).reshape(p0, d, dp)
    step = -d_coeffs[:, ::-1].transpose(0, 2, 1, 3).reshape(stack, d, dp)
    flat = rows.reshape(stack, -1, dp)  # row k is flat[:, k d:(k + 1) d]
    small = np.zeros((stack, rows.shape[1]), dtype=bool)
    k = p0
    while k < rows.shape[1]:
        # Extend by a chunk of rows, then test the bound on the whole chunk.
        end = min(k + _ROW_CHUNK, rows.shape[1])
        for j in range(k, end):
            np.matmul(step, flat[:, (j - p0) * d:j * d], out=flat[:, j * d:(j + 1) * d])
        small[:, k:end] = abs(rows[:, k:end]).max(axis=(2, 3)) < 1e-12
        k = end
        if _small_runs(small[:, p0:k], p0).any(axis=1).all():
            break
    # A model keeps the rows before its first run of p0 rows below the bound.
    # Past the last row computed, rows count as below it: a model with no
    # run then keeps every row through its last one not below the bound.
    tail = np.ones((stack, p0), dtype=bool)
    length = p0 + _small_runs(np.hstack([small[:, p0:k], tail]), p0).argmax(axis=1)
    return rows, (p1 - p0) + length


def _operator_stack(models: list[VarModel], n: int) -> list[OperatorMatrices]:
    """:class:`OperatorMatrices` of every model of a stack that shares (d, p0,
    p1), with one companion recursion for the whole stack.

    The callers check p1 and n; each model must be stationary.  See
    :func:`build_operator_matrices`.
    """
    if not models:
        return []
    d, p0, p1 = models[0].d, models[0].p0, models[0].p1
    for model in models:
        _require_stationary(model)
    d2 = d * d
    greens = np.stack([_greens(model, p1) for model in models])
    ms = _lower_block_toeplitz(_kron_eye(greens[:, :p1].transpose(0, 1, 3, 2), d))

    head = d2 * (p1 - p0)
    if p0 > 0:
        d_coeffs = np.stack([np.stack(_d_coefficients(g, p0)) for g in greens])
        rows, horizons = _fundamental_rows(models, n, d_coeffs)
    else:
        horizons = np.full(len(models), p1)
    out = []
    for s, effective in enumerate(horizons.tolist()):
        p_mat = np.eye(d2 * p1)
        # Q is block diagonal, the identity head over the fundamental rows
        # (none at p0 = 0), with one block row per lag up to the horizon.
        q = np.zeros((d2 * effective, d2 * p1))
        q[:head, :head] = np.eye(head)
        if p0 > 0:
            # Block row t = p1 - p0 + 1 + k of Q is kron(rows[s, k], I_d).
            q[head:, head:] = _kron_eye(rows[s, : effective - (p1 - p0)], d).reshape(-1, d2 * p0)
        t_mat = ms[s].T @ q.T
        out.append(OperatorMatrices(M=ms[s], P=p_mat, Q=q, T=t_mat, effective_lags=effective))
    return out


def build_operator_matrices(model: VarModel, n: int) -> OperatorMatrices:
    """Assemble M, Q and T = M'Q' for a stationary null model.

    M is the Kronecker-expanded block triangular matrix of the Green
    matrices of A(L).  Q stacks an identity block of size d^2 (p1 - p0)
    over the Kronecker-expanded fundamental solutions of the D(L)
    recursion, up to the lag horizon ``effective_lags``.  The fundamental
    system is the one whose initial window is the identity, so its
    Casorati matrix is I and P = I; T would be the same under any other
    system.

    Parameters
    ----------
    model : VarModel
        Stationary null model (blocks beyond p0 zero).
    n : int
        Sample size; must exceed p1 + 1.
    """
    if model.p1 < 1:
        raise InputError("need p1 >= 1 to build operator matrices")
    if n <= model.p1 + 1:
        raise InputError(f"need n > p1 + 1 = {model.p1 + 1}, got n={n}")
    return _operator_stack([model], n)[0]
