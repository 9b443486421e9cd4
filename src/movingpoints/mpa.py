"""The moving points classifier.

A binary decision boundary in n dimensions is represented by n movable
points; the hyperplane through them is the boundary. Training never touches
the hyperplane coefficients directly: it displaces the points, one small
step per misclassified example, and rereads the plane from their new
positions.

Each class carries a pseudo sign in {-1, +1}, fixed at initialization from
the side of the boundary its mean falls on. For an example x with label y,

    lambda = signed_displacement(boundary, x) * pseudo_sign(y)

so lambda < 0 flags a misclassification and |lambda| measures its depth.
A misclassified example q pulls the nearest moving point c a step of length
|eta * lambda| in the direction of (g - c), where g is a random member of
the opposite class's near-cluster (points within a percentile radius of the
class mean, sampled to damp outlier influence). A proximity guard removes
any movement component that would push two moving points within alpha of
each other closer together.

For n = 2 and n = 3, initialization and training run on Python floats with
every sum written in a fixed order and the plane read in closed form, so
such a model takes no bits from the BLAS kernel that numpy picks for the
CPU. For n >= 4 training works on arrays and carries the plane by rank-one
updates (see fit and _Boundary).
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .datasets import Dataset
from .geometry import (
    EPS_DEGENERATE,
    DegeneratePointsError,
    DimensionMismatchError,
    Hyperplane,
    _dot,
    _line_coeffs,
    _norm,
    _plane3_coeffs,
    as_rows,
    coordinate_scale,
    hyperplane_from_points,
    region_sign,
    sides,
)
from .rng import SplitMix64

MODEL_VERSION = 1
MAX_RESAMPLES = 8  # extra draws of g when it lands on the mover
_GUARD_TOL = 1e-12
_MAX_GUARD_PASSES = 64


class IdenticalMeansError(ValueError):
    """Class means coincide; no perpendicular direction exists."""


class MeanOnBoundaryError(ValueError):
    """A class mean sits on the initial boundary."""


class SameSideMeansError(ValueError):
    """Both class means fall on the same side of the boundary."""


class ZeroDisplacementError(ValueError):
    """The sampled target coincides with the moving point."""


@dataclass
class MpaConfig:
    """Training knobs.

    alpha=None resolves at initialization to 0.1 times the smallest
    distance between the freshly placed moving points.
    """

    eta: float = 5e-5
    epochs: int = 150
    alpha: float | None = None
    near_cluster_percentile: float = 50.0
    init_spread: float = 0.5
    seed: int = 0
    early_stop: bool = True

    def __post_init__(self):
        for name in ("eta", "epochs", "alpha", "near_cluster_percentile", "init_spread", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not (
                    isinstance(value, numbers.Real) or name == "alpha" and value is None):
                raise ValueError(f"{name} must be a number, got {value!r}")
        if not isinstance(self.early_stop, (bool, np.bool_)):
            raise ValueError(f"early_stop must be a boolean, got {self.early_stop!r}")
        if not (self.eta > 0 and math.isfinite(self.eta)):
            raise ValueError(f"eta must be positive and finite, got {self.eta}")
        if not (self.epochs >= 1 and self.epochs % 1 == 0):  # inf % 1 is nan
            raise ValueError(f"epochs must be a positive integer, got {self.epochs}")
        self.epochs = int(self.epochs)
        if self.alpha is not None and not self.alpha >= 0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")
        if not 0 < self.near_cluster_percentile <= 100:
            raise ValueError(
                f"near_cluster_percentile must be in (0, 100], got {self.near_cluster_percentile}"
            )
        if not (self.init_spread > 0 and math.isfinite(self.init_spread)):
            raise ValueError(f"init_spread must be positive and finite, got {self.init_spread}")
        if not (self.seed >= 0 and self.seed % 1 == 0):
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")
        self.seed = int(self.seed)


class MpaModel:
    """n moving points, their pseudo-sign map, and the cached boundary."""

    def __init__(self, moving_points, pseudo_sign, alpha: float,
                 config: MpaConfig, feature_names=None):
        pts = np.asarray(moving_points, dtype=float)
        n = pts.shape[0]
        if pts.shape != (n, n) or n < 2:
            raise DimensionMismatchError(
                f"need n >= 2 moving points of dimension n, got shape {pts.shape}"
            )
        if set(pseudo_sign) != {0, 1} or set(pseudo_sign.values()) != {-1, 1}:
            raise ValueError(f"pseudo_sign must map {{0,1}} onto {{-1,+1}}, got {pseudo_sign}")
        if isinstance(alpha, bool) or not (isinstance(alpha, numbers.Real) and alpha >= 0):
            raise ValueError(f"alpha must be a number >= 0, got {alpha!r}")
        if feature_names is not None and not (
                isinstance(feature_names, list) and len(feature_names) == n
                and all(isinstance(name, str) for name in feature_names)):
            raise ValueError(f"feature_names must be null or a list of {n} strings, "
                             f"got {feature_names!r}")
        self.moving_points = pts
        self.pseudo_sign = {0: int(pseudo_sign[0]), 1: int(pseudo_sign[1])}
        self.alpha = float(alpha)
        self.config = config
        self.feature_names = list(feature_names) if feature_names is not None else None
        self.hyperplane = hyperplane_from_points(pts)

    @property
    def dim(self) -> int:
        return self.moving_points.shape[0]

    def refresh(self) -> None:
        """Recompute the cached hyperplane from the current points."""
        self.hyperplane = hyperplane_from_points(self.moving_points)


def _complement_basis(direction: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of one direction.

    Gram-Schmidt over the standard basis, skipping vectors that are nearly
    inside the span built so far; two projection passes keep the result
    orthonormal to machine precision. Python floats throughout, every dot
    product and norm a fixed-order sum (see _dot).
    """
    d = direction.tolist()
    n = len(d)
    nd = math.sqrt(_dot(d, d))
    basis = [[x / nd for x in d]]
    out = []
    for i in range(n):
        if len(out) == n - 1:
            break
        v = [0.0] * n
        v[i] = 1.0
        for _ in range(2):
            for b in basis:
                vb = _dot(v, b)
                v = [x - vb * y for x, y in zip(v, b)]
        nv = math.sqrt(_dot(v, v))
        if nv > 1e-9:
            v = [x / nv for x in v]
            basis.append(v)
            out.append(v)
    if len(out) != n - 1:
        raise DegeneratePointsError("could not complete the complement basis")
    return np.array(out)


def initialize(class0_points, class1_points, cfg: MpaConfig) -> MpaModel:
    """Place the moving points across the segment joining the class means.

    The first moving point is the midpoint M of the means; the others are
    M + s*b_i along an orthonormal complement basis of (mean1 - mean0),
    s = init_spread * ||mean1 - mean0||. The resulting boundary passes
    through M perpendicular to the mean difference, and each class mean
    lands on its own side, fixing the pseudo signs.
    """
    X0, X1 = (np.ascontiguousarray(c, dtype=float) for c in (class0_points, class1_points))
    if len(X0) == 0 or len(X1) == 0:
        raise ValueError("both classes must be non-empty")
    X0 = as_rows(X0)
    n = X0.shape[1]
    X1 = as_rows(X1, n)
    if n < 2:
        raise DimensionMismatchError(f"need dimension >= 2, got {n}")

    mu0 = X0.mean(axis=0)
    mu1 = X1.mean(axis=0)
    d = mu1 - mu0
    dl = d.tolist()
    gap = math.sqrt(_dot(dl, dl))
    if gap <= EPS_DEGENERATE * coordinate_scale(mu0, mu1):
        raise IdenticalMeansError("class means coincide")

    mid = 0.5 * (mu0 + mu1)
    s = cfg.init_spread * gap
    pts = np.empty((n, n))
    pts[0] = mid
    pts[1:] = mid + s * _complement_basis(d)

    diffs = pts[:, None, :] - pts[None, :, :]
    dists = np.linalg.norm(diffs, axis=2).tolist()
    pairs = [d for i, row in enumerate(dists) for d in row[i + 1:]]
    # np.min's answer: NaN if any distance is NaN.
    min_dist = math.nan if any(map(math.isnan, pairs)) else min(pairs)
    alpha = cfg.alpha if cfg.alpha is not None else 0.1 * min_dist

    # The model builds the plane; the pseudo signs are then read off it.
    model = MpaModel(pts, {0: -1, 1: 1}, alpha, cfg)
    model.pseudo_sign = assign_pseudo(model.hyperplane, mu0, mu1)
    return model


def assign_pseudo(h: Hyperplane, mu0, mu1) -> dict:
    """Read each class's pseudo sign off its mean's side of the boundary
    (region_sign)."""
    s0, s1 = (region_sign(h, mu) for mu in (mu0, mu1))
    if s0 == 0 or s1 == 0:
        raise MeanOnBoundaryError("a class mean lies on the boundary")
    if s0 == s1:
        raise SameSideMeansError("class means fall on the same side of the boundary")
    return {0: s0, 1: s1}


def movement_vector(model: MpaModel, q, g, lam: float):
    """Step for the moving point nearest to the misclassified example q.

    With mover c, u = c - q and w = g - q give v = w - u = g - c; the step
    is t = (v/||v||) * |eta * lambda|, i.e. length |eta*lambda| straight
    toward the sampled opposite-class point g, with eta the model's own.
    Returns (mover_index, t). For n = 2 and 3 this is the Python-float step
    of fit's loop.
    """
    q = as_rows([q], model.dim)[0]
    g = as_rows([g], model.dim)[0]
    step = abs(model.config.eta * lam)
    if model.dim <= 3:
        nearest, step_to = ((_nearest_line, _step_line) if model.dim == 2
                            else (_nearest_plane3, _step_plane3))
        pts = model.moving_points.tolist()
        mover = nearest(pts, *q.tolist())
        c = pts[mover]
        gl = g.tolist()
        scale = max(1.0, *map(abs, c), *map(abs, gl))  # coordinate_scale(c, g)
        return mover, np.array(step_to(*c, *gl, scale, step))
    mover = _nearest(model.moving_points, q)
    c = model.moving_points[mover]
    return mover, _displacement(c, g, coordinate_scale(c, g), step)


def _row_norms(D: np.ndarray) -> np.ndarray:
    """np.linalg.norm(D, axis=1) with its bits: sqrt of the row sums of D*D."""
    return np.sqrt(np.add.reduce(D * D, axis=1))


def _nearest(P: np.ndarray, q: np.ndarray) -> int:
    """Row of P nearest to q; argmin takes the lowest index on ties."""
    return int(_row_norms(P - q).argmin())


def _displacement(c: np.ndarray, g: np.ndarray, scale: float, step: float) -> np.ndarray:
    """Vector of length step from c toward g.

    scale is coordinate_scale(c, g); ZeroDisplacementError when g sits on c
    relative to it.
    """
    v = g - c
    nv = _norm(v)
    if nv <= EPS_DEGENERATE * scale:
        raise ZeroDisplacementError("sampled target coincides with the mover")
    return (v / nv) * step


def overfit_guard(model: MpaModel, mover_index: int, t):
    """Strip movement components that close in on a nearby moving point.

    For every other moving point F with ||E - F|| <= alpha, the model's
    own, the approach direction is r = (F - E)/||F - E||; a component
    t.r > 0 would shrink the gap and is projected out. Projections repeat
    until no near neighbor keeps a component above 1e-12 (projecting for
    one neighbor can re-open another), with a hard pass cap falling back
    to a zero move. Movements pointing away from every near neighbor pass through
    untouched: the input object itself is returned. For n = 2 and 3 this
    is the Python-float guard of fit's loop.
    """
    alpha = model.alpha
    P = model.moving_points
    n = P.shape[0]
    if n > 3:
        return _guard(P, mover_index, t, alpha)
    step = tuple(np.asarray(t, dtype=float).tolist())
    if n == 2:
        out = _guard_line(*P[mover_index].tolist(), *P[1 - mover_index].tolist(), step, alpha)
    else:
        out = _guard_plane3(P.tolist(), mover_index, step, alpha)
    return t if out is step else np.array(out)


def _guard(P: np.ndarray, mover: int, t, alpha: float):
    """overfit_guard on raw points: P's rows, the mover's index, its step t."""
    diffs = P - P[mover]
    gaps = _row_norms(diffs)
    near = [i for i, gap in enumerate(gaps.tolist()) if gap <= alpha and i != mover]
    if not near:
        return t
    rhats = diffs[near] / gaps[near, None]

    t = np.asarray(t, dtype=float)
    out = t
    for _ in range(_MAX_GUARD_PASSES):
        dots = rhats @ out
        if not np.any(dots > _GUARD_TOL):
            return out
        if out is t:
            out = t.copy()
        for i in np.nonzero(dots > _GUARD_TOL)[0]:
            d = float(rhats[i] @ out)
            if d > _GUARD_TOL:
                out = out - rhats[i] * d
    return np.zeros_like(t)


# n = 2 on Python floats: the steps of movement_vector and overfit_guard
# that fit's loop takes, every sum in a fixed order.

def _nearest_line(pts: list, q0: float, q1: float) -> int:
    """_nearest for the two points pts = [[x, y], [x, y]] and q = (q0, q1)."""
    (a0, a1), (b0, b1) = pts
    a0 -= q0
    a1 -= q1
    b0 -= q0
    b1 -= q1
    return 0 if math.sqrt(a0 * a0 + a1 * a1) <= math.sqrt(b0 * b0 + b1 * b1) else 1


def _step_line(c0: float, c1: float, g0: float, g1: float, scale: float,
               step: float) -> tuple[float, float]:
    """_displacement: the step of length step from (c0, c1) toward (g0, g1)."""
    v0 = g0 - c0
    v1 = g1 - c1
    nv = math.sqrt(v0 * v0 + v1 * v1)
    if nv <= EPS_DEGENERATE * scale:
        raise ZeroDisplacementError("sampled target coincides with the mover")
    return v0 / nv * step, v1 / nv * step


def _guard_line(e0: float, e1: float, f0: float, f1: float, t: tuple,
                alpha: float) -> tuple:
    """_guard with the mover at (e0, e1), the other point at (f0, f1) and the
    step t = (t0, t1); t itself comes back when nothing is projected out."""
    r0 = f0 - e0
    r1 = f1 - e1
    gap = math.sqrt(r0 * r0 + r1 * r1)
    if not 0.0 < gap <= alpha:  # a zero gap gives no direction, as in _guard
        return t
    r0 /= gap
    r1 /= gap
    out = t
    for _ in range(_MAX_GUARD_PASSES):
        t0, t1 = out
        d = r0 * t0 + r1 * t1
        if not d > _GUARD_TOL:
            return out
        out = (t0 - r0 * d, t1 - r1 * d)
    return 0.0, 0.0


# n = 3 on Python floats, the same steps with three coordinates.

def _nearest_plane3(pts: list, q0: float, q1: float, q2: float) -> int:
    """_nearest for the three points pts = [[x, y, z], ...] and q = (q0, q1, q2)."""
    dists = []
    for p0, p1, p2 in pts:
        d0 = p0 - q0
        d1 = p1 - q1
        d2 = p2 - q2
        dists.append(math.sqrt(d0 * d0 + d1 * d1 + d2 * d2))
    return dists.index(min(dists))  # the lowest index on ties, as argmin


def _step_plane3(c0: float, c1: float, c2: float, g0: float, g1: float, g2: float,
                 scale: float, step: float) -> tuple[float, float, float]:
    """_displacement: the step of length step from (c0, c1, c2) toward (g0, g1, g2)."""
    v0 = g0 - c0
    v1 = g1 - c1
    v2 = g2 - c2
    nv = math.sqrt(v0 * v0 + v1 * v1 + v2 * v2)
    if nv <= EPS_DEGENERATE * scale:
        raise ZeroDisplacementError("sampled target coincides with the mover")
    return v0 / nv * step, v1 / nv * step, v2 / nv * step


def _guard_plane3(pts: list, mover: int, t: tuple, alpha: float) -> tuple:
    """_guard for the three points pts = [[x, y, z], ...], the mover's index and
    the step t = (t0, t1, t2); t itself comes back when nothing is projected out."""
    e0, e1, e2 = pts[mover]
    rhats = []
    for i, (f0, f1, f2) in enumerate(pts):
        r0 = f0 - e0
        r1 = f1 - e1
        r2 = f2 - e2
        gap = math.sqrt(r0 * r0 + r1 * r1 + r2 * r2)
        if i != mover and 0.0 < gap <= alpha:  # a zero gap gives no direction
            rhats.append((r0 / gap, r1 / gap, r2 / gap))
    if not rhats:
        return t
    out = t
    for _ in range(_MAX_GUARD_PASSES):
        t0, t1, t2 = out
        # As _guard: the neighbours closed in on at the start of the pass,
        # each projected out in turn if it still is.
        closing = [r for r in rhats if r[0] * t0 + r[1] * t1 + r[2] * t2 > _GUARD_TOL]
        if not closing:
            return out
        for r0, r1, r2 in closing:
            t0, t1, t2 = out
            d = r0 * t0 + r1 * t1 + r2 * t2
            if d > _GUARD_TOL:
                out = (t0 - r0 * d, t1 - r1 * d, t2 - r2 * d)
    return 0.0, 0.0, 0.0


@dataclass
class NearCluster:
    """A class's mean and the indices of its inlying training points."""

    mean: np.ndarray
    members: np.ndarray

    def __post_init__(self):
        if self.members.size == 0:
            raise ValueError("near cluster must be non-empty")


def near_clusters(data: Dataset, percentile: float) -> dict:
    """Per class: members within the percentile radius of the class mean.

    The radius is the given percentile of that class's distances to its own
    mean, so the cut never empties (the nearest point always qualifies);
    the single-nearest fallback stays as a belt for degenerate percentile
    arithmetic.
    """
    out = {}
    for label in (0, 1):
        idx = np.nonzero(data.labels == label)[0]
        pts = data.features[idx]
        mean = pts.mean(axis=0)
        dist = np.linalg.norm(pts - mean, axis=1)
        radius = _percentile(sorted(dist.tolist()), percentile)
        keep = idx[dist <= radius]
        if keep.size == 0:
            keep = idx[[int(np.argmin(dist))]]
        out[label] = NearCluster(mean=mean, members=keep)
    return out


def _percentile(values: list, percentile: float) -> float:
    """The percentile of the sorted Python floats `values` by np.percentile's
    default "linear" formula, with its bits.

    The virtual index is (n-1)*q for q = percentile/100. Between the
    neighbours a <= b it interpolates with t = index - floor(index): as
    b - (b-a)*(1-t) if t >= 0.5, else a + (b-a)*t. An index at the last
    value reads a = b = the last value with t = index + 1, as numpy does.
    ValueError, numpy's, unless 0 <= percentile <= 100.
    """
    if not 0 <= percentile <= 100:
        raise ValueError("Percentiles must be in the range [0, 100]")
    last = len(values) - 1
    index = last * (percentile / 100)
    if index >= last:
        a = b = values[last]
        t = index + 1
    else:
        lo = math.floor(index)
        a, b = values[lo], values[lo + 1]
        t = index - lo
    return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t


# Why a misclassified example moved no point; the keys of TrainingLog.skips.
RESAMPLE_EXHAUSTED = "resample_exhausted"  # every draw of g landed on the mover
GUARD_ZEROED = "guard_zeroed"  # the guarded step came out zero
DEGENERATE_REVERT = "degenerate_revert"  # the step made the points degenerate; undone
SKIP_REASONS = (RESAMPLE_EXHAUSTED, GUARD_ZEROED, DEGENERATE_REVERT)


@dataclass
class TrainingLog:
    """Per-epoch misclassification counts and the run's move and skip counts.

    moves counts accepted point displacements; skips counts the
    misclassified examples that moved no point, by reason, so
    moves + sum(skips.values()) == sum(misclassified).
    """

    misclassified: list[int] = field(default_factory=list)
    epochs_run: int = 0
    stopped_early: bool = False
    moves: int = 0
    skips: dict[str, int] = field(default_factory=lambda: dict.fromkeys(SKIP_REASONS, 0))


def fit(model: MpaModel, data: Dataset) -> TrainingLog:
    """Run the training loop, mutating the model's moving points.

    The settings are the model's own: eta, epochs, seed, the near-cluster
    percentile and early_stop from model.config, alpha from model.alpha.
    Every epoch visits the examples in a seeded shuffled order. For each
    example with lambda < 0 the nearest moving point takes a guarded step
    toward a uniformly drawn member of the opposite class's near-cluster
    (redrawn up to 8 times if the draw lands on the mover; the example is
    skipped if all draws fail, and also if its step would make the moving
    points affinely degenerate, which is undone). With early_stop set,
    training halts after the first epoch with zero misclassifications
    whose plane also predicts every training row right: an example on the
    plane has lambda = 0, which is no misclassification, but predict_many
    gives it to the class with pseudo sign +1.

    Inputs are validated once, here; the loop then works on raw values.
    For n = 2 (_line_epochs) and n = 3 (_plane3_epochs) they are Python
    floats: the points, the plane's w, b and ||w||, with every sum written
    in a fixed order (x0*w0 + x1*w1 + x2*w2 + b,
    sqrt(d0*d0 + d1*d1 + d2*d2)), so no value depends on a BLAS kernel;
    the steps are those of the public movement_vector and overfit_guard,
    the plane that of hyperplane_from_points (_line_coeffs,
    _plane3_coeffs), read from the candidate points before a move is
    kept, and lambda is evaluated one example at a time. For n >= 4 (_plane_epochs) they are
    arrays: the points (model.moving_points, updated in place) and the
    plane, carried from move to move by a rank-one update (see _Boundary),
    so its coefficients can differ from hyperplane_from_points' in the
    last bits; every accept-or-revert decision near a degeneracy threshold
    still comes from a fresh build. Between moves the plane is frozen, so
    lambdas for a whole stretch of examples are evaluated in one
    matrix-vector product and the loop jumps directly to the next
    misclassified example; BLAS rounds that product, so a lambda can
    differ from signed_displacement times the pseudo sign in the last bit.
    Either way model.hyperplane is set from a fresh
    hyperplane_from_points(points) on every exit, so it always matches
    the points, bit for bit, as a reloaded model does.
    """
    cfg = model.config
    X = as_rows(data.features, model.dim)
    data.require_binary()

    clusters = near_clusters(data, cfg.near_cluster_percentile)
    rng = SplitMix64(cfg.seed)
    y = data.labels
    # Per example, the members of the opposite class's near cluster.
    opposite = [clusters[1].members.tolist(), clusters[0].members.tolist()]
    draws = [opposite[label] for label in y.tolist()]
    pseudo = np.where(y == 1, model.pseudo_sign[1], model.pseudo_sign[0]).astype(float)

    P = model.moving_points
    log = TrainingLog()
    epochs = {2: _line_epochs, 3: _plane3_epochs}.get(model.dim, _plane_epochs)
    try:
        # Each epoch leaves its points in P before it yields its count.
        for miss in epochs(P, X, pseudo, draws, rng, cfg, model.alpha, log):
            log.misclassified.append(miss)
            log.epochs_run += 1
            if cfg.early_stop and miss == 0:
                model.hyperplane = hyperplane_from_points(P)
                if np.array_equal(predict_many(model, X), y):
                    log.stopped_early = True
                    break
    finally:
        model.hyperplane = hyperplane_from_points(P)

    return log


def _line_epochs(P: np.ndarray, X: np.ndarray, pseudo: np.ndarray, draws: list,
                 rng: SplitMix64, cfg: MpaConfig, alpha: float, log: TrainingLog):
    """fit's epochs for n = 2 on Python floats; yields each epoch's misclassified count.

    draws[j] lists the rows that example j may draw. The points live in a
    list while an epoch runs and are written back into P before each yield
    and on every exit; moves and skips are counted into log.
    """
    rows = X.tolist()
    row_scale = [max(abs(x0), abs(x1)) for x0, x1 in rows]  # max|X[r]|
    signs = pseudo.tolist()
    eta = cfg.eta
    pts = P.tolist()
    w0, w1, b, norm_w = _line_coeffs(*pts[0], *pts[1])
    try:
        for _epoch in range(cfg.epochs):
            miss = 0
            for j in rng.permutation(len(rows)):
                x0, x1 = rows[j]
                lam = (x0 * w0 + x1 * w1 + b) / norm_w * signs[j]
                if not lam < 0.0:
                    continue
                miss += 1
                mover = _nearest_line(pts, x0, x1)
                c0, c1 = pts[mover]
                f0, f1 = pts[1 - mover]
                c_scale = max(1.0, abs(c0), abs(c1))
                step = abs(eta * lam)
                members = draws[j]
                for _attempt in range(1 + MAX_RESAMPLES):
                    target = members[rng.randint(len(members))]
                    try:
                        t = _step_line(c0, c1, *rows[target],
                                       max(c_scale, row_scale[target]), step)
                        break
                    except ZeroDisplacementError:
                        pass
                else:
                    log.skips[RESAMPLE_EXHAUSTED] += 1
                    continue
                t0, t1 = _guard_line(c0, c1, f0, f1, t, alpha)
                if not (t0 or t1):
                    log.skips[GUARD_ZEROED] += 1
                    continue
                e0 = c0 + t0
                e1 = c1 + t1
                try:
                    if mover == 0:
                        w0, w1, b, norm_w = _line_coeffs(e0, e1, f0, f1)
                    else:
                        w0, w1, b, norm_w = _line_coeffs(f0, f1, e0, e1)
                except DegeneratePointsError:
                    log.skips[DEGENERATE_REVERT] += 1
                    continue
                pts[mover] = [e0, e1]
                log.moves += 1
            P[:] = pts
            yield miss
    finally:
        P[:] = pts


def _plane3_epochs(P: np.ndarray, X: np.ndarray, pseudo: np.ndarray, draws: list,
                   rng: SplitMix64, cfg: MpaConfig, alpha: float, log: TrainingLog):
    """fit's epochs for n = 3 on Python floats, as _line_epochs runs n = 2.

    The plane is re-read from the candidate points by _plane3_coeffs before
    a move is kept; the points are written back into P before each yield
    and on every exit.
    """
    rows = X.tolist()
    row_scale = [max(abs(x0), abs(x1), abs(x2)) for x0, x1, x2 in rows]  # max|X[r]|
    signs = pseudo.tolist()
    eta = cfg.eta
    pts = P.tolist()
    w0, w1, w2, b, norm_w = _plane3_coeffs(*pts)
    try:
        for _epoch in range(cfg.epochs):
            miss = 0
            for j in rng.permutation(len(rows)):
                x0, x1, x2 = rows[j]
                lam = (x0 * w0 + x1 * w1 + x2 * w2 + b) / norm_w * signs[j]
                if not lam < 0.0:
                    continue
                miss += 1
                mover = _nearest_plane3(pts, x0, x1, x2)
                c0, c1, c2 = pts[mover]
                c_scale = max(1.0, abs(c0), abs(c1), abs(c2))
                step = abs(eta * lam)
                members = draws[j]
                for _attempt in range(1 + MAX_RESAMPLES):
                    target = members[rng.randint(len(members))]
                    try:
                        t = _step_plane3(c0, c1, c2, *rows[target],
                                         max(c_scale, row_scale[target]), step)
                        break
                    except ZeroDisplacementError:
                        pass
                else:
                    log.skips[RESAMPLE_EXHAUSTED] += 1
                    continue
                t0, t1, t2 = _guard_plane3(pts, mover, t, alpha)
                if not (t0 or t1 or t2):
                    log.skips[GUARD_ZEROED] += 1
                    continue
                moved = pts[:]
                moved[mover] = [c0 + t0, c1 + t1, c2 + t2]
                try:
                    w0, w1, w2, b, norm_w = _plane3_coeffs(*moved)
                except DegeneratePointsError:
                    log.skips[DEGENERATE_REVERT] += 1
                    continue
                pts = moved
                log.moves += 1
            P[:] = pts
            yield miss
    finally:
        P[:] = pts


def _plane_epochs(P: np.ndarray, X: np.ndarray, pseudo: np.ndarray, draws: list,
                  rng: SplitMix64, cfg: MpaConfig, alpha: float, log: TrainingLog):
    """fit's epochs for n >= 4 on arrays; yields each epoch's misclassified count.

    P's rows move in place; the plane is carried by _Boundary.
    """
    m = X.shape[0]
    row_scale = np.abs(X).max(axis=1).tolist()  # coordinate_scale(c, g) = max(that of c, this)
    boundary = _Boundary(P)
    w, b, norm_w = boundary.plane
    for _epoch in range(cfg.epochs):
        order = rng.permutation(m)
        # Rows in visiting order: Xo[i:] holds the values and shape of
        # X[order[i:]], so the product below has the same bits.
        idx = np.array(order)
        Xo = X[idx]
        po = pseudo[idx]
        miss = 0
        i = 0
        while i < m:
            lam = (Xo[i:] @ w + b) / norm_w * po[i:]
            wrong = lam < 0.0
            k = int(wrong.argmax())  # the first misclassified example, if any
            if not wrong[k]:
                break
            miss += 1
            out = _move(boundary, Xo[i + k], float(lam[k]), draws[order[i + k]],
                        X, row_scale, rng, cfg.eta, alpha)
            if isinstance(out, str):
                log.skips[out] += 1
            else:
                w, b, norm_w = out
                log.moves += 1
            i += k + 1
        yield miss


def _move(boundary: _Boundary, q: np.ndarray, lam: float, members: list[int],
          X: np.ndarray, row_scale: list[float], rng: SplitMix64,
          eta: float, alpha: float):
    """One guarded move of the point of boundary.P nearest q toward a drawn member.

    members are row indices into X, row_scale[r] is max|X[r]|. The points
    are updated in place. Returns the new boundary (w, b, ||w||), or the
    skip reason, with the points and the boundary unchanged, when no point
    moved.
    """
    P = boundary.P
    mover = _nearest(P, q)
    c = P[mover]
    c_scale = max(1.0, *map(abs, c.tolist()))  # coordinate_scale(c)
    step = abs(eta * lam)
    for _attempt in range(1 + MAX_RESAMPLES):
        target = members[rng.randint(len(members))]
        try:
            t = _displacement(c, X[target], max(c_scale, row_scale[target]), step)
            break
        except ZeroDisplacementError:
            pass
    else:
        return RESAMPLE_EXHAUSTED
    t = _guard(P, mover, t, alpha)
    if not np.count_nonzero(t):
        return GUARD_ZEROED
    old = c.copy()
    c += t  # c is P's row, so this moves the point
    try:
        return boundary.moved(mover, old)
    except DegeneratePointsError:
        P[mover] = old
        return DEGENERATE_REVERT
    except BaseException:
        P[mover] = old
        raise


# When _Boundary trades its rank-one update for a fresh build; see there.
_REBUILD_EVERY = 64
_MIN_DENOMINATOR = 1e-3
_NEAR_DEGENERATE = 1e3
_MAX_RESIDUAL = 1e-12


class _Boundary:
    """The plane through the n >= 4 rows of P while fit moves them, as (w, b, ||w||).

    It keeps the inverse Minv of the bordered (n+1)x(n+1) matrix M
    whose row 0 is the unit coefficient vector of the last fresh plane and
    whose rows 1..n are [p_i, 1]. The plane's coefficients c = (w, b) are
    the cofactors of M's first row, det(M) * Minv[:, 0], whatever that row
    holds. Moving point i by d adds [d, 0] to row i+1 of M, so with
    u = d @ Minv[:n] and col = Minv[:, i+1], Sherman-Morrison gives, in
    O(n^2) instead of the O(n^3) fresh build,

        denom = 1 + u[i+1]                    (det(M') = det(M) * denom)
        Minv' = Minv - outer(col, u / denom)
        c'    = denom * c - (d . w) * col     (= det(M') * Minv'[:, 0])

    The update is kept only when c' passes hyperplane_from_points' checks
    (a finite bias and a finite ||w||, ||w|| > EPS_DEGENERATE *
    coordinate_scale(P)^(n-1), and _normal_norm's ||w|| > EPS_DEGENERATE * max(|b|, 1)) with
    _NEAR_DEGENERATE to spare, and when the plane still passes through
    the points: max_j |p_j . w + b| <= _MAX_RESIDUAL * (max|P| ||w|| + |b|),
    which bounds the rounding that updates pile up. Otherwise, and every
    _REBUILD_EVERY updates, and when |denom| < _MIN_DENOMINATOR, a fresh
    build through hyperplane_from_points decides: it raises what that
    raises, and the state is replaced only when no check fails.
    """

    def __init__(self, P: np.ndarray):
        self.P = P
        self.plane = self._fresh()  # moved returns the later ones

    def _fresh(self) -> tuple[np.ndarray, float, float]:
        P = self.P
        n = P.shape[0]
        h = hyperplane_from_points(P)
        coeffs = np.append(h.weights, h.bias)
        M = np.empty((n + 1, n + 1))
        M[0] = coeffs / _norm(coeffs)
        M[1:, :n] = P
        M[1:, n] = 1.0
        self.Minv = np.linalg.inv(M)
        self.coeffs = coeffs
        self.updates = 0
        return h.weights, h.bias, _norm(h.weights)

    def moved(self, i: int, old: np.ndarray) -> tuple[np.ndarray, float, float]:
        """(w, b, ||w||) after row i of P moved from old to its current value."""
        if self.updates < _REBUILD_EVERY:
            P = self.P
            n = P.shape[0]
            update = _rank_one(self.Minv, self.coeffs, i + 1, P[i] - old)
            if update is not None:
                Minv, coeffs = update
                w = coeffs[:n]
                b = float(coeffs[n])
                norm_w = _norm(w)
                # coordinate_scale(P)
                scale = max(1.0, float(np.maximum.reduce(np.abs(P), axis=None)))
                try:
                    terms = scale ** (n - 1)
                except OverflowError:  # past the float range: a fresh build decides
                    terms = math.inf
                limit = _NEAR_DEGENERATE * EPS_DEGENERATE * max(terms, abs(b))
                if (limit < norm_w < math.inf and math.isfinite(b)  # False on nan
                        and max(map(abs, (P.dot(w) + b).tolist()))
                        <= _MAX_RESIDUAL * (scale * norm_w + abs(b))):
                    self.Minv = Minv
                    self.coeffs = coeffs
                    self.updates += 1
                    return w, b, norm_w
        return self._fresh()


def _rank_one(Minv: np.ndarray, coeffs: np.ndarray, row: int, d: np.ndarray):
    """(Minv', coeffs') after row `row` of the bordered matrix gains [d, 0].

    The Sherman-Morrison step of _Boundary; None when the denominator is
    below _MIN_DENOMINATOR in magnitude, or not a number.
    """
    n = d.size
    col = Minv[:, row]
    u = d.dot(Minv[:n])
    denom = 1.0 + float(u[row])
    if not abs(denom) >= _MIN_DENOMINATOR:
        return None
    return Minv - col[:, None] * (u / denom), denom * coeffs - float(d.dot(coeffs[:n])) * col


def predict(model: MpaModel, x) -> int:
    """predict_many for the single point x."""
    return int(predict_many(model, [x])[0])


def predict_many(model: MpaModel, X) -> np.ndarray:
    """Per row of X, the class whose pseudo sign matches its side of the boundary.

    A point sitting on the boundary goes to the class with pseudo sign +1.
    sides checks X: DimensionMismatchError unless it is (m, n) for the
    model's n, ValueError on a non-finite value.
    """
    side = sides(model.hyperplane, X)
    return (np.where(side == 0, 1, side) == model.pseudo_sign[1]).astype(int)


def train(data: Dataset, cfg: MpaConfig | None = None):
    """initialize + fit in one call; returns (model, log)."""
    cfg = cfg or MpaConfig()
    data.require_binary()
    model = initialize(data.class_points(0), data.class_points(1), cfg)
    if data.feature_names is not None:
        model.feature_names = list(data.feature_names)
    log = fit(model, data)
    return model, log


def training_accuracy(model: MpaModel, data: Dataset) -> float:
    preds = predict_many(model, data.features)
    return float(np.mean(preds == data.labels))


def model_document(model: MpaModel) -> str:
    """Serialize to a JSON text that round-trips every float bit-exactly."""
    doc = {
        "format": "moving-points-model",
        "version": MODEL_VERSION,
        "dim": model.dim,
        "moving_points": [list(map(float, row)) for row in model.moving_points],
        "pseudo_sign": {str(k): v for k, v in sorted(model.pseudo_sign.items())},
        "alpha": model.alpha,
        "config": asdict(model.config),
        "feature_names": model.feature_names,
    }
    return json.dumps(doc, indent=2) + "\n"


def parse_model_document(text: str) -> MpaModel:
    """Rebuild a model; ValueError on a wrong format, version, dim, config key,
    missing moving_points, a document nested too deeply, or a field of the
    wrong JSON type."""
    try:
        doc = json.loads(text)
    except RecursionError:
        raise ValueError("model document is nested too deeply") from None
    if not isinstance(doc, dict):
        raise ValueError(f"model document must be a JSON object, got {type(doc).__name__}")
    if doc.get("format") != "moving-points-model":
        raise ValueError("not a moving-points model document")
    if doc.get("version") != MODEL_VERSION:
        raise ValueError(f"unsupported model version {doc.get('version')!r}, "
                         f"expected {MODEL_VERSION}")
    for name in ("config", "pseudo_sign"):
        if not isinstance(doc.get(name), dict):
            raise ValueError(f"{name} must be an object, got {doc.get(name)!r}")
    unknown = sorted(set(doc["config"]) - {f.name for f in fields(MpaConfig)})
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    if "moving_points" not in doc:
        raise ValueError("model document has no moving_points field")
    try:
        pts = np.array(doc["moving_points"], dtype=float)
        pseudo_sign = {int(k): int(v) for k, v in doc["pseudo_sign"].items()}
    except (TypeError, OverflowError) as exc:  # an object, a list or an infinity
        raise ValueError(f"moving_points and pseudo_sign must hold finite numbers: "
                         f"{exc}") from None
    dim = doc.get("dim")
    if pts.shape != (dim, dim):
        raise ValueError(f"dim {dim!r} does not match moving points of shape {pts.shape}")
    cfg = MpaConfig(**doc["config"])
    return MpaModel(pts, pseudo_sign, doc.get("alpha"), cfg,
                    feature_names=doc.get("feature_names"))


def save_model(model: MpaModel, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(model_document(model))


def load_model(path) -> MpaModel:
    with open(path, encoding="utf-8") as fh:
        return parse_model_document(fh.read())
