"""Slow, independent cross-checks for the fast decision engines.

Two oracles live here.  ``brute_force_sep`` re-decides a separable
conversion instance by minimizing the mixing residual over the simplex — an
active-set minimizer, certified by the Frank–Wolfe duality gap of this
convex problem — without touching the polytope machinery it is meant to
audit.  ``numeric_symmetry_search`` hunts for product operators fixing a
seed state by alternating least squares from random starts, recovering the
symmetry group numerically.  Each ALS axis update is ``t @ pinv(m)`` for a
3x9 partial ``m``, computed from the eigendecomposition of the 3x3 Gram
``m mᴴ`` with eigenvalues at or below ``9 eps`` times the largest dropped,
so collapsed (rank-deficient) starts get the minimum-norm update and never
a division by zero.  Every second sweep each start is extrapolated along
its last step, a line search in the manner of Bro (1998) and
Rajih–Comon–Harshman (SIAM J. Matrix Anal. Appl. 30, 2008), and moves there
only where that lowers its residual.  Starts are retired one by one: at
every check a start that has converged, or whose residual has stopped
moving, leaves the batch with its factors, and the sweep ends when no start
is left.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pauli import BASIS, INDEX_ORDER, kron3
from .seeds import SeedParams, build_seed
from .sep import SepInstance

#: A candidate distribution with residual at or below this certifies
#: feasibility outright: the noise floor, as the oracle audits the instance
#: as given, coordinates below the support cut included.
WITNESS_TOL = 1e-12

#: A certified lower bound on the residual above this proves
#: infeasibility; anything between the two thresholds is inconclusive.
REJECT_TOL = 1e-7

#: An ALS start whose relative residual is at or below this has converged
#: to a fixer of the seed.
ALS_CONVERGED_TOL = 1e-8

#: An ALS start whose residual moved by at most this fraction since the
#: previous check has stalled and is retired unconverged.
ALS_STALL_TOL = 1e-12

#: Product-operator distance above which two converged ALS starts are
#: distinct fixers.
ALS_CLUSTER_TOL = 1e-6

#: Product-operator distance at or below which a fixer matches a symmetry
#: triple.
ALS_MATCH_TOL = 1e-6

#: How often, in iterations, the ALS sweep checks which starts to retire.
_ALS_CHECK_EVERY = 25

#: Gram eigenvalues at or below this multiple of the largest are dropped
#: by the ALS update.  Rounding in the 9-term inner products of ``m mᴴ``
#: leaves a rank-deficient ``m`` with eigenvalues of a few ``eps`` times
#: the largest, under 3 eps on 200 000 random rank-1 and rank-2 draws.
_GRAM_RCOND = 9 * np.finfo(float).eps

Pair = tuple[int, int]


@dataclass(frozen=True)
class OracleBudget:
    """Effort for the ALS search of ``numeric_symmetry_search``; the
    defaults are its effort when it is given no budget."""

    starts: int = 240
    iters: int = 1500
    rng_seed: int = 0

    def __post_init__(self) -> None:
        for field in ("starts", "iters"):
            if getattr(self, field) < 1:
                raise ValueError(f"OracleBudget.{field} must be at least 1")


@dataclass(frozen=True)
class OracleVerdict:
    """Outcome of a brute-force feasibility decision.

    ``best_residual`` is the residual at the active-set minimizer's point;
    no simplex point's residual is below ``lower_bound``, the duality-gap
    certificate of that point.  ``feasible`` is ``None`` when
    neither settles the instance against the two thresholds.
    """

    feasible: bool | None
    best_residual: float
    lower_bound: float
    witness: np.ndarray | None


@dataclass(frozen=True)
class SymmetrySearchReport:
    """What an alternating-least-squares sweep recovered."""

    found: tuple[Pair, ...]
    extras: int
    starts: int
    converged: int
    max_match_error: float


# ---------------------------------------------------------------------------
# Brute-force separable feasibility
# ---------------------------------------------------------------------------

def _mixing_system(instance: SepInstance) -> tuple[np.ndarray, np.ndarray]:
    """Real least-squares data (A, b) for ``A p = b`` over the simplex.

    Column k of ``A`` is ``kron3`` of the three conjugations ``S_kᴴ H_j S_k``
    of the target Grams, all nine formed by one stacked ``kron3``.
    """
    s = BASIS[:, None]
    conj = s.conj().swapaxes(-1, -2) @ np.array(instance.target_gram.mats) @ s
    d = kron3(conj[:, 0], conj[:, 1], conj[:, 2]).reshape(len(INDEX_ORDER), -1).T
    target = kron3(*instance.source_gram.mats).ravel()
    a = np.vstack([d.real, d.imag])
    b = np.concatenate([target.real, target.imag])
    return a, b


def _face_solve(
    q: np.ndarray, c: np.ndarray, face: np.ndarray
) -> tuple[np.ndarray, np.ndarray, bool]:
    """Stationary point of ``p^T q p - 2 c^T p`` on the affine hull of a face.

    Solves the face's KKT system ``[2 q_FF, 1; 1ᵀ, 0] [x; λ] = [2 c_F; 1]``
    by ``lstsq`` with singular values at or below ``eps (k + 1)`` times the
    largest dropped, so a singular face gets the minimum-norm solution.
    Returns ``x``, the stationarity rows ``z`` of the residual and whether
    the system is singular.  The residual of a least-squares solve lies in
    the dropped singular subspace, so on a singular face ``z`` is a null
    direction of ``q_FF`` with zero sum, along which the objective falls
    linearly by ``|z|²`` per unit step when the system is inconsistent.
    """
    k = len(face)
    kkt = np.zeros((k + 1, k + 1))
    kkt[:k, :k] = 2.0 * q[np.ix_(face, face)]
    kkt[:k, k] = 1.0
    kkt[k, :k] = 1.0
    rhs = np.append(2.0 * c[face], 1.0)
    sol, _, rank, _ = np.linalg.lstsq(kkt, rhs, rcond=np.finfo(float).eps * (k + 1))
    return sol[:k], (rhs - kkt @ sol)[:k], rank <= k


def _first_block(p: np.ndarray, d: np.ndarray) -> tuple[int, float]:
    """Index and length of the step along ``d`` at which a coordinate of
    ``p`` first reaches zero (length infinity if none decreases)."""
    ratios = np.full(len(p), np.inf)
    ratios[d < 0] = p[d < 0] / -d[d < 0]
    i = int(np.argmin(ratios))
    return i, float(ratios[i])


def _active_set_minimum(q: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, float]:
    """Minimum of ``p^T q p - 2 c^T p`` over the simplex, for a PSD ``q``.

    A primal active-set method (Nocedal and Wright, *Numerical
    Optimization*, §16.5; Lawson and Hanson, *Solving Least Squares
    Problems*, ch. 23).  It starts at the centre of the simplex, ``p =
    1/n``, with every coordinate on the face, so its first step solves the
    full face; when that solution is non-negative it is the minimizer and
    the run stops at the next gradient test.  On a face it solves for the
    face minimizer (:func:`_face_solve`).  A feasible one becomes the new
    point.  An infeasible one is approached up to the first coordinate
    that reaches zero, and that coordinate leaves the face.  A singular
    face whose objective falls without bound along its null direction is
    left the same way, along that direction.  From a face minimizer it
    adds the coordinate of most negative gradient.  It stops instead when
    the Frank–Wolfe gap ``gᵀp - min g`` is within rounding of zero (the
    KKT conditions hold), or when that coordinate is already on the face,
    as only rounding leaves a face minimizer's gradient uneven there.
    Every step lowers the objective, so no face holds the point at its
    minimizer twice, and at most ``n + 1`` steps lead from the start, or
    from one such face, to the next: ``(n + 1) 2ⁿ`` steps bound an exact
    run.  A run that reaches the bound is cycling on rounding and returns
    its current point, which the certificate still bounds.
    """
    n = len(c)
    eps = np.finfo(float).eps
    # a gradient entry is a sum of n products, so rounding moves the gap,
    # a difference of two, by up to about 2 n eps times this scale; twice
    # that is taken as zero
    tol = 4 * n * eps * (np.abs(q).max() + np.abs(c).max())
    p = np.full(n, 1.0 / n)
    on_face = np.ones(n, dtype=bool)
    at_minimizer = False
    for _ in range((n + 1) * 2**n):
        g = 2.0 * (q @ p - c)
        if at_minimizer:
            j = int(np.argmin(g))
            if on_face[j] or g @ p - g[j] <= tol:
                break
            on_face[j] = True
        face = np.flatnonzero(on_face)
        x, z, singular = _face_solve(q, c, face)
        t = _first_block(p[face], z)[1] if singular else np.inf
        ray = t < np.inf and t * (g[face] @ z) < -tol
        if not ray and x.min() >= 0.0:
            p = np.zeros(n)
            p[face] = x / x.sum()
            at_minimizer = True
            continue
        d = z if ray else x - p[face]
        i, t = _first_block(p[face], d)
        p[face] += t * d
        p[face[i]] = 0.0
        on_face[face[i]] = False
        p = np.clip(p, 0.0, None)
        p /= p.sum()
        at_minimizer = False
    return p, float(p @ q @ p - 2.0 * c @ p)


def _certificate(a: np.ndarray, b: np.ndarray, p: np.ndarray) -> tuple[float, float, float]:
    """``(residual, gap, lower)`` at a simplex point ``p``.

    With ``r = A p - b`` and ``g = Aᵀ r``, convexity of ``f(x) = ||A x - b||²``
    gives ``f(x) >= ||r||² - 2 gap`` for every simplex point ``x``, where
    ``gap = gᵀp - min_i g_i`` is the Frank–Wolfe duality gap (zero exactly
    when ``p`` meets the KKT conditions; Boyd and Vandenberghe, *Convex
    Optimization*, §5.5).  ``lower`` is the square root of that bound.  The
    residual is ``||r||`` itself: the quadratic form cancels near a solution.
    The gap is never negative, as ``gᵀp`` averages ``g`` over ``p``, so a
    negative value is rounding and is taken as 0; otherwise ``lower``
    could exceed the residual it bounds.
    """
    r = a @ p - b
    g = a.T @ r
    residual = float(np.linalg.norm(r))
    gap = max(float(g @ p - g.min()), 0.0)
    return residual, gap, float(np.sqrt(max(residual**2 - 2.0 * gap, 0.0)))


def brute_force_sep(
    instance: SepInstance, budget: OracleBudget | None = None
) -> OracleVerdict:
    """Decide separable convertibility by certified residual minimization.

    Feasible iff some simplex point mixes the conjugated target Grams to
    the source Grams exactly.  The residual at the active-set minimizer's
    point decides feasible (at most :data:`WITNESS_TOL`); its
    :func:`_certificate` bound, valid at any simplex point and so even for
    a wrong minimizer, decides infeasible (above :data:`REJECT_TOL`);
    otherwise the oracle abstains.  ``budget`` is ignored, as the
    minimizer takes none; it stays because ``perfbench/workloads.py``
    still passes one positionally and the benchmark is changed on its own.
    """
    a, b = _mixing_system(instance)
    p, _ = _active_set_minimum(a.T @ a, a.T @ b)
    residual, _, lower = _certificate(a, b, p)
    if residual <= WITNESS_TOL:
        return OracleVerdict(True, residual, lower, p)
    if lower > REJECT_TOL:
        return OracleVerdict(False, residual, lower, None)
    return OracleVerdict(None, residual, lower, p)


# ---------------------------------------------------------------------------
# Numeric symmetry search
# ---------------------------------------------------------------------------

def _gram_solve(t: np.ndarray, m: np.ndarray) -> np.ndarray:
    """``t @ pinv(m)`` for a stack ``m`` of 3x9 matrices, through their Gram.

    With ``m mᴴ = V diag(λ) Vᴴ`` the minimum-norm solution of ``x m = t``
    is ``(t mᴴ V) diag(1/λ) Vᴴ``.  Eigenvalues at or below
    :data:`_GRAM_RCOND` times the largest are replaced by infinity, so
    they get weight 0: a rank-deficient ``m`` gets the minimum-norm update
    and an all-zero ``m`` gets zeros, and nothing is divided by zero.
    """
    mh = m.conj().swapaxes(1, 2)
    lam, v = np.linalg.eigh(m @ mh)
    lam = np.where(lam > _GRAM_RCOND * lam[:, -1:], lam, np.inf)
    return (t @ mh @ v / lam[:, None, :]) @ v.conj().swapaxes(1, 2)


def _kron_t(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``kron(x, y)ᵀ`` for each pair of a stack of 3x3 matrices."""
    xt = x.swapaxes(1, 2)
    yt = y.swapaxes(1, 2)
    return (xt[:, :, None, :, None] * yt[:, None, :, None, :]).reshape(-1, 9, 9)


def _als_sweep(
    tensor: np.ndarray, batch: int, iters: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Batched alternating least squares for product fixers of a tensor.

    Each axis update solves ``x @ unfold(partial) = unfold(tensor)``
    exactly in the least-squares sense.  The partial of axis 0 is
    ``t0 @ kron(b, c)ᵀ``, of axis 1 ``t1 @ kron(a, c)ᵀ`` and of axis 2
    ``t2 @ kron(a, b)ᵀ``, where ``t0``, ``t1``, ``t2`` unfold the tensor
    along that axis first and the other two in order.  The solve goes
    through the 3x3 Gram of the partial (:func:`_gram_solve`), so it is
    rank-safe: starts that collapse to rank-deficient factors get the
    minimum-norm update.  After every second sweep ``it`` each factor is
    also extrapolated from its value ``p`` before the sweep through its
    value ``x`` after it, to ``p + it^(1/3) (x - p)`` (Bro's step), and a
    start moves there only where its residual is strictly below the
    sweep's.  Every update is an exact least-squares minimization and an
    extrapolation is kept only when it is lower, so no start's residual
    increases.

    Every ``_ALS_CHECK_EVERY`` iterations each live start is retired on
    its own, its factors written out and dropped from the batch, when its
    relative residual is at or below :data:`ALS_CONVERGED_TOL` or moved by
    at most :data:`ALS_STALL_TOL` relative since the previous check; the
    sweep ends when no start is live.  The stacked products and ``eigh``
    act on each start alone, so retiring one leaves the others'
    trajectories unchanged.  Stalled starts sit at a spurious stationary
    point whose relative residual depends on the seed: 0.2967 for
    ``random_seed_params(default_rng(31))``, 0.2277 and 0.2365 for
    ``default_rng(2024)``.  The extrapolation carries starts that converge
    slowly and in a straight line along that line.  Some seeds still run
    the whole budget on a few starts that creep down a spurious valley,
    neither converged nor stalled at any check: two of
    ``default_rng(2024)``'s 240, near relative residual 0.406, by about
    2e-8 relative per check.
    Returns the three factor stacks and each start's relative residual.
    """
    shape = (batch, 3, 3)
    a, b, c = (
        (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)
        for _ in range(3)
    )
    t0 = tensor.reshape(3, 9)
    t1 = tensor.transpose(1, 0, 2).reshape(3, 9)
    t2 = tensor.transpose(2, 0, 1).reshape(3, 9)
    scale = np.linalg.norm(tensor)

    out_a, out_b, out_c = np.empty_like(a), np.empty_like(b), np.empty_like(c)
    live = np.arange(batch)
    prev = np.full(batch, np.inf)
    # c @ m is the product applied to the tensor, unfolded like t2
    residual = lambda c, m: np.linalg.norm((c @ m - t2).reshape(len(c), -1), axis=1)
    for it in range(1, iters + 1):
        p = a, b, c
        a = _gram_solve(t0, t0 @ _kron_t(b, c))
        b = _gram_solve(t1, t1 @ _kron_t(a, c))
        m = t2 @ _kron_t(a, b)
        c = _gram_solve(t2, m)
        res = None
        if it % 2 == 0:
            # Bro's step it ** (1/3) lengthens as the path straightens;
            # trying it every second sweep halves the cost of its partial
            s = it ** (1 / 3)
            ea, eb, ec = (q + s * (x - q) for q, x in zip(p, (a, b, c)))
            me = t2 @ _kron_t(ea, eb)
            res, res_e = residual(c, m), residual(ec, me)
            take = res_e < res
            keep = take[:, None, None]
            a, b, c, m = (np.where(keep, e, x) for e, x in ((ea, a), (eb, b), (ec, c), (me, m)))
            res = np.where(take, res_e, res)
        if it % _ALS_CHECK_EVERY == 0:
            if res is None:
                res = residual(c, m)
            done = (res <= ALS_CONVERGED_TOL * scale) | (
                np.abs(prev - res) <= ALS_STALL_TOL * res
            )
            if done.any():
                out_a[live[done]], out_b[live[done]], out_c[live[done]] = (
                    a[done], b[done], c[done]
                )
                keep = ~done
                live, a, b, c, res = live[keep], a[keep], b[keep], c[keep], res[keep]
                if not live.size:
                    break
            prev = res
    out_a[live], out_b[live], out_c[live] = a, b, c

    out = np.einsum("nai,nbj,nck,ijk->nabc", out_a, out_b, out_c, tensor)
    res = np.linalg.norm((out - tensor).reshape(batch, -1), axis=1)
    return out_a, out_b, out_c, res / scale


def numeric_symmetry_search(
    params: SeedParams, budget: OracleBudget | None = None
) -> SymmetrySearchReport:
    """Recover the seed's product symmetries from random starts.

    Converged alternating-least-squares runs are clustered projectively
    by their full product operator and matched against the symmetry
    triples; anything that converges but matches none of them counts as
    an extra (generic seeds should produce zero).
    """
    if budget is None:
        budget = OracleBudget()
    rng = np.random.default_rng(budget.rng_seed)
    tensor = build_seed(params).reshape(3, 3, 3)

    a, b, c, res = _als_sweep(tensor, budget.starts, budget.iters, rng)
    good = res <= ALS_CONVERGED_TOL
    converged = int(np.count_nonzero(good))

    # |<A⊗B⊗C, A'⊗B'⊗C'>| is the product of the parties' |<A, A'>|, so the
    # product operators are compared through their normalized 3x3 factors.
    f = np.stack((a[good], b[good], c[good]), axis=1).reshape(converged, 3, 9)
    f /= np.linalg.norm(f, axis=2, keepdims=True)
    distance = lambda overlap: np.sqrt(np.maximum(2.0 - 2.0 * overlap, 0.0))

    mutual = distance(np.abs(f.conj().swapaxes(0, 1) @ f.transpose(1, 2, 0)).prod(axis=0))
    reps: list[int] = []
    for n in range(converged):
        if (mutual[n, reps] > ALS_CLUSTER_TOL).all():
            reps.append(n)

    # S_k ⊗ S_k ⊗ S_k has Frobenius norm sqrt(3) per party
    overlaps = np.abs(f[reps] @ BASIS.reshape(9, 9).conj().T).prod(axis=1) / np.sqrt(27.0)
    err = distance(overlaps.max(axis=1))
    matched = err <= ALS_MATCH_TOL
    found = tuple(INDEX_ORDER[i] for i in sorted(set(overlaps.argmax(axis=1)[matched].tolist())))
    return SymmetrySearchReport(
        found=found,
        extras=int(np.count_nonzero(~matched)),
        starts=budget.starts,
        converged=converged,
        max_match_error=float(err[matched].max(initial=0.0)),
    )
