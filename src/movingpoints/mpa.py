"""The moving points classifier.

A binary decision boundary in n dimensions is represented by n movable
points; the hyperplane through them is the boundary. Training never touches
the hyperplane coefficients directly: it displaces the points, one small
step per misclassified example, and rereads the plane from their new
positions.

Each class carries a pseudo sign in {-1, +1}, fixed at initialization from
the side of the boundary its mean falls on. For an example x with label y,

    lambda = signed_displacement(boundary, x) * pseudo_sign(y)

An example is misclassified when its side of the boundary, +1 where
w.x + b >= 0, is not its class's pseudo sign, the rule of predict_many;
its lambda is then <= 0, and |lambda| measures the depth of the error.
A misclassified example q pulls the nearest moving point c a step of length
|eta * lambda| in the direction of (g - c), where g is a random member of
the opposite class's near-cluster (points within a percentile radius of the
class mean, sampled to damp outlier influence). A proximity guard removes
any movement component that would push two moving points within alpha of
each other closer together.

Training is one loop for every n, generated per n from one source
(_fixed_order) on Python floats, with every lambda and step summed in a
fixed order, and one fixed-order guard (_guard). After every move it
re-reads the plane through the points with the builder that
hyperplane_from_points uses for that n, so a model takes no bits from
the BLAS kernel that numpy picks for the CPU (see fit).

A model is Python floats: its points are n lists of n floats and its
plane a tuple of weights and a bias, so loading one and predicting with
it import no numpy. Training does: the class means, the near clusters and
the default alpha are computed on the data's arrays.
"""

from __future__ import annotations

import json
import math
import numbers
import sys
from dataclasses import asdict, dataclass, field, fields

from .datasets import Dataset
from .geometry import (
    DegeneratePointsError,
    DimensionMismatchError,
    Hyperplane,
    NonFinitePlaneError,
    _dot,
    _generated,
    _margins,
    _plane_builder,
    as_rows,
    float_rows,
    hyperplane_from_points,
    region_sign,
)
from .rng import SplitMix64

MODEL_VERSION = 1
MAX_RESAMPLES = 8  # extra draws of g when it lands on the mover
_MAX_GUARD_PASSES = 64
# fit's gap floor (see _EPOCHS_SOURCE): its relative margin, the least and
# the largest computed gap it keeps, and its rounding terms.
_GAP_MARGIN = 1e-9
_GAP_UP = 1.0 + _GAP_MARGIN
_GAP_DOWN = 1.0 - _GAP_MARGIN
_MIN_GAP = 1e-140
_MAX_GAP = 1e150
_ROUNDING = 2.0 ** -52  # twice the unit roundoff 2^-53
_UNDERFLOW = 2.0 ** -536  # covers the rounding of squares below the normal range
_SUM_UP = 1.0 + 2.0 ** -50
_SHORT, _SHORT_UP = 2.0 ** -400, 2.0 ** 600  # step_to scales a v below _SHORT by _SHORT_UP


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
        numpy = sys.modules.get("numpy")  # no numpy bool exists while numpy is unloaded
        if not isinstance(self.early_stop, bool if numpy is None else (bool, numpy.bool_)):
            raise ValueError(f"early_stop must be a boolean, got {self.early_stop!r}")
        if not (self.eta > 0 and math.isfinite(self.eta)):
            raise ValueError(f"eta must be positive and finite, got {self.eta}")
        if not (self.epochs >= 1 and self.epochs % 1 == 0):  # inf % 1 is nan
            raise ValueError(f"epochs must be a positive integer, got {self.epochs}")
        self.epochs = int(self.epochs)
        if self.alpha is not None and not 0 <= self.alpha < math.inf:
            raise ValueError(f"alpha must be finite and >= 0, got {self.alpha}")
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
    """n moving points, their pseudo-sign map, and the cached boundary.

    moving_points are n lists of n Python floats, checked by
    geometry.float_rows; hyperplane is the plane through them.
    """

    def __init__(self, moving_points, pseudo_sign, alpha: float,
                 config: MpaConfig, feature_names=None):
        pts = float_rows(moving_points)
        n = len(pts)
        if n < 2 or len(pts[0]) != n:
            raise DimensionMismatchError(
                f"need n >= 2 moving points of dimension n, "
                f"got shape ({n}, {len(pts[0]) if pts else 0})"
            )
        if set(pseudo_sign) != {0, 1} or set(pseudo_sign.values()) != {-1, 1}:
            raise ValueError(f"pseudo_sign must map {{0,1}} onto {{-1,+1}}, got {pseudo_sign}")
        if isinstance(alpha, bool) or not (isinstance(alpha, numbers.Real)
                                           and 0 <= alpha < math.inf):
            raise ValueError(f"alpha must be finite and >= 0, got {alpha!r}")
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
        return len(self.moving_points)


def _complement_basis(direction: list) -> list:
    """Orthonormal basis of the orthogonal complement of one direction.

    Gram-Schmidt over the standard basis, skipping vectors that are nearly
    inside the span built so far; two projection passes keep the result
    orthonormal to machine precision. Python floats throughout, every dot
    product and norm a fixed-order sum (see _dot).
    """
    d = direction
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
    return out


def initialize(class0_points, class1_points, cfg: MpaConfig) -> MpaModel:
    """Place the moving points across the segment joining the class means.

    The first moving point is the midpoint M of the means; the others are
    M + s*b_i along an orthonormal complement basis of (mean1 - mean0),
    s = init_spread * ||mean1 - mean0||. The resulting boundary passes
    through M perpendicular to the mean difference, and each class mean
    lands on its own side, fixing the pseudo signs.
    """
    if len(class0_points) == 0 or len(class1_points) == 0:
        raise ValueError("both classes must be non-empty")
    X0 = as_rows(class0_points)
    n = X0.shape[1]
    X1 = as_rows(class1_points, n)
    if n < 2:
        raise DimensionMismatchError(f"need dimension >= 2, got {n}")

    mu0 = X0.mean(axis=0).tolist()
    mu1 = X1.mean(axis=0).tolist()
    d = [b - a for a, b in zip(mu0, mu1)]
    gap = math.sqrt(_dot(d, d))
    if not gap:
        raise IdenticalMeansError("class means coincide")

    mid = [0.5 * (a + b) for a, b in zip(mu0, mu1)]
    s = cfg.init_spread * gap
    pts = [mid] + [[m + s * v for m, v in zip(mid, b)] for b in _complement_basis(d)]

    alpha = cfg.alpha if cfg.alpha is not None else 0.1 * _least_gap(pts)

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
    Returns (mover_index, t), t a list of floats; ZeroDisplacementError
    when g == c, the one case with no direction. For every n this is the
    Python-float step of fit's loop, the generated nearest and step_to
    (_fixed_order). q and g pass geometry.float_rows.
    """
    (q,), (g,) = (float_rows([v], model.dim) for v in (q, g))
    nearest, step_to, _ = _fixed_order(model.dim)
    pts = model.moving_points
    mover = nearest(pts, *q)
    return mover, list(step_to(*pts[mover], *g, abs(model.config.eta * lam)))


def overfit_guard(model: MpaModel, mover_index: int, t):
    """Strip movement components that close in on a nearby moving point.

    For every other moving point F with ||E - F|| <= alpha, the model's
    own, the approach direction is r = (F - E)/||F - E||; a component
    t.r > 0 would shrink the gap and is projected out. Projections repeat
    until no near neighbor keeps a component above 2^-46 ||t|| (projecting for
    one neighbor can re-open another), with a hard pass cap falling back
    to a zero move. Movements pointing away from every near neighbor pass
    through untouched: the input object itself is returned; a projected
    step is a list of floats. This is the guard of fit's loop for every n
    (_guard). t passes geometry.float_rows: DimensionMismatchError unless
    it has the model's dimension, ValueError on a non-finite component.
    """
    step, = float_rows([t], model.dim)
    out = _guard(model.moving_points, mover_index, step, model.alpha)
    return t if out is step else out


def _guard(pts: list, mover: int, t, alpha: float):
    """overfit_guard on Python floats, every sum in a fixed order (see _dot):
    the points' rows pts, the mover's index and its step t. t itself comes
    back when nothing is projected out; a zero gap gives no direction."""
    e = pts[mover]
    rhats = []
    for f in pts:
        if f is e:  # the mover: its gap, 0, would be passed over anyway
            continue
        g = 0.0
        for fk, ek in zip(f, e):
            d = fk - ek
            g += d * d  # 0.0 + x is x: the bits of _dot(f - e, f - e)
        gap = math.sqrt(g)
        if 0.0 < gap <= alpha:
            rhats.append([(fk - ek) / gap for fk, ek in zip(f, e)])
    if not rhats:
        return t
    tol = 2.0 ** -46 * math.sqrt(_dot(t, t))
    out = t
    for _ in range(_MAX_GUARD_PASSES):
        # Each neighbour closed in on at the pass's start, projected out in turn.
        closing = [r for r in rhats if _dot(r, out) > tol]
        if not closing:
            return out
        for r in closing:
            d = _dot(r, out)
            if d > tol:
                out = [ok - rk * d for ok, rk in zip(out, r)]
    return [0.0] * len(t)


def near_clusters(data: Dataset, percentile: float) -> dict:
    """Per class label: the indices of the class's members within the
    percentile radius of the class mean.

    The radius is the given percentile of that class's distances to its own
    mean, so the cut never empties (the nearest point always qualifies);
    the single-nearest fallback stays as a belt for degenerate percentile
    arithmetic.
    """
    import numpy as np

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
        out[label] = keep
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
ZERO_STEP = "zero_step"  # |eta * lambda| is 0.0: the row is on the plane, or it underflows
OVERFLOW_REVERT = "overflow_revert"  # the moved point or its plane is not finite; undone
SKIP_REASONS = (RESAMPLE_EXHAUSTED, GUARD_ZEROED, DEGENERATE_REVERT, ZERO_STEP, OVERFLOW_REVERT)


@dataclass
class TrainingLog:
    """Per-epoch misclassification counts and the run's move and skip counts.

    An example counts as misclassified when predict_many, under the plane
    of that moment, gets it wrong. moves counts accepted point
    displacements; skips counts the misclassified examples that moved no
    point, by reason, so moves + sum(skips.values()) == sum(misclassified).
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
    Every epoch visits the examples in a seeded shuffled order. An example
    is misclassified when predict_many would get it wrong: its side, +1
    where w.x + b >= 0, is not its class's pseudo sign. Its nearest moving
    point then takes a guarded step of length |eta * lambda| toward a
    uniformly drawn member of the opposite class's near-cluster (redrawn up
    to 8 times if the draw equals the mover). It moves no point if the
    step is 0.0 (a row on the plane), if all draws fail, or if the step
    would make the points affinely degenerate or leave the moved point or
    its plane outside the float range, which is undone. So fit raises
    nothing on finite data, whatever the eta. With early_stop set, training
    halts after the first epoch with no misclassified example.

    Inputs are validated once, here. The loop, one for every n and generated
    per n (_fixed_order), then works on raw Python floats: the points, the
    rows and the plane's w, b and ||w||, with w.x + b (x0*w0 + ... + b) and
    the step's norms summed in a fixed order. The steps are those of the
    public movement_vector and overfit_guard. After each move the plane is
    re-read through the candidate points by hyperplane_from_points' own
    builder, which fit passes in as build = _plane_builder(n), so no value
    depends on a BLAS kernel and no tolerance on a unit. The guard is
    skipped only when no point lies within alpha of the mover by _guard's
    own distance, so no projection is skipped. The same rule serves every n:
    a pre-check computes those distances only when a per-point gap floor,
    kept through the moves, cannot prove them all above alpha. The loop
    moves the rows of model.moving_points in place, and model.hyperplane is
    then set from hyperplane_from_points(points), as a reloaded model's is.
    """
    cfg = model.config
    X = as_rows(data.features, model.dim)
    data.require_binary()

    clusters = near_clusters(data, cfg.near_cluster_percentile)
    rng = SplitMix64(cfg.seed)
    labels = data.labels.tolist()
    # Per example, the members of the opposite class's near cluster.
    opposite = [clusters[1].tolist(), clusters[0].tolist()]
    draws = [opposite[label] for label in labels]
    below = [model.pseudo_sign[label] < 0 for label in labels]

    log = TrainingLog()
    try:
        for miss in _fixed_order(model.dim)[2](model.moving_points, X, below, draws, rng, cfg,
                                               model.alpha, log, _plane_builder(model.dim)):
            log.misclassified.append(miss)
            log.epochs_run += 1
            if cfg.early_stop and miss == 0:
                log.stopped_early = True
                break
    finally:
        model.hyperplane = hyperplane_from_points(model.moving_points)

    return log


# fit's step and loop, written out for one n on Python floats: the
# coordinates of a row, a point and the plane are locals (x0.., c0..,
# w0..), and every dot product and norm is spelled term by term in _dot's
# order, so no BLAS call, sum() (compensated from Python 3.12) or fused
# multiply-add can change a bit. The code runs in mpa's globals, so _guard
# is looked up when it is called; the plane builder comes in per call.
# - nearest(pts, x0, ...): the row of pts nearest to x, the lowest index
#   on ties, as argmin. Its lines are spliced into epochs as well, which
#   finds each mover with them and so pays no call;
# - step_to(c0, ..., g0, ..., step): the step of length step from c toward
#   g along v = g - c, exact to a rounding of itself. When ||v|| < _SHORT,
#   it is taken again from v scaled by _SHORT_UP, exactly, where no nonzero
#   square underflows; so ||v|| reads 0.0, which alone raises
#   ZeroDisplacementError, only when g == c, and underflow adds at most
#   n 2^-1075 to a ||v||^2 >= 2^-800. epochs calls it through its step_to
#   parameter, so a caller may pass its own;
# - epochs(pts, X, below, draws, rng, cfg, alpha, log, build): yields each
#   epoch's misclassified count; draws[j] lists the rows example j may draw,
#   and build(*rows) is geometry._plane_builder(n). The points are the
#   list pts of lists of floats, the model's own; a moved point replaces
#   its row only once its plane is built. A row's side is -1 where
#   raw = x0*w0 + ... + b < 0 and +1 otherwise, geometry.sides' sum and
#   predict_many's rule; below[j] says that row j's class has pseudo sign
#   -1, so a row whose side differs from it is a miss.
#   Its step |eta * (raw / ||w||)| has the bits of |eta * lambda|, as the
#   pseudo sign only flips a sign. A step of 0.0, from a row on the plane or
#   a quotient that underflows, moves no point and is skipped before any
#   draw. A candidate that build refuses is undone: as degenerate on
#   DegeneratePointsError, as an overflow on NonFinitePlaneError (the point
#   or its plane is not finite), so fit raises nothing on finite data.
#
# The gap floor. _guard projects out only an approach to a point within
# alpha of the mover by its own fixed-order gap, and the loop calls it only
# when the pre-check, which computes that same gap from the mover to every
# other point (passing over the mover by identity, as _guard does), finds
# such a point. So no projection is skipped. The pre-check itself runs only
# when a floor cannot prove that no point is that close. moved is an upper
# bound on the total distance that the kept moves have carried the points;
# when the pre-check finds no point within alpha, it sets keys[mover] =
# (least + moved) * _GAP_DOWN from the least gap it computed. Moving one
# point shrinks no gap by more than the distance it moves, so while
# keys[mover] - moved > alpha * _GAP_UP, every gap to the mover is still
# above alpha. keys start at -inf, so every point's first move runs the
# pre-check; that is the one guard rule for every n.
#
# The floor stays below every gap that _guard computes, despite rounding
# (u = 2^-53; Higham, Accuracy and Stability of Numerical Algorithms,
# ch. 3). A gap, or a step's length, computed as the root of a sum of n
# rounded squares of rounded differences has a relative error of at most
# (n+3)u, unless a square overflows or underflows. When one overflows the
# gap reads inf and the true gap is past 1.3e154; least starts at _MAX_GAP =
# 1e150, so it never exceeds a true gap on that account. Squares that
# underflow add at most 2^-1075 each, so a gap errs by at most about
# sqrt(n) 2^-537 < 1e-158 more. A key is set only from least >= _MIN_GAP =
# 1e-140: its margin _GAP_MARGIN * least >= 1e-149 covers those errors with
# nine orders to spare. A kept move carries the mover from c to e = c + t,
# rounded. step_to's t is at most step (1 + (n+5)u) long, plus 2^-1074 per
# coordinate that rounds in the subnormal range; after _guard, step is
# recomputed as the guarded t's own length, which errs as a gap does, by
# (n+3)u of itself and at most sqrt(n) 2^-537 more. Rounding c + t moves
# each coordinate by at most u |e_k|, or 2^-1075 in the subnormal range: at
# most u sqrt(n) e_scale + sqrt(n) 2^-1075 in all, with e_scale = max|e_k|.
# So the move is shorter than step * _GAP_UP + e_scale * e_round + e_tiny,
# with e_round = 2u sqrt(n) and e_tiny = sqrt(n) _UNDERFLOW: the absolute
# terms add to at most sqrt(n) (2^-537 + 2^-1074 + 2^-1075), below e_tiny =
# sqrt(n) 2^-536 with room for the rounding of both products. The three sums
# into moved round down by at most u of their value each, and _SUM_UP =
# 1 + 8u, with its own rounding, more than restores that, so moved never
# grows by less than the move's length. keys[mover] rounds (least + moved)
# and its product by at most u each, which _GAP_DOWN's margin on moved
# covers; keys[mover] - moved and alpha * _GAP_UP round by at most u, and
# the product by at most 2^-1075 in the subnormal range. With (n+7)u <
# _GAP_MARGIN / 2, which holds for n up to four million, far past any n
# whose n x n points fit in memory, a passing test leaves every true gap to
# the mover above alpha (1 + _GAP_MARGIN / 2) + least * _GAP_MARGIN / 2, and
# so every gap that _guard computes above alpha. Should moved overflow,
# keys[mover] - moved reads -inf or nan, and the test, written as not > far,
# runs the pre-check.
_STEP_SOURCE = """\
def nearest(pts, {x}):
{nearest}
    return mover


def step_to({c}, {g}, step):
{v}
    nv = math.sqrt({vv})
    if nv < _SHORT:
{v_up}
        nv = math.sqrt({vv})
        if not nv:
            raise ZeroDisplacementError("sampled target coincides with the mover")
    return {unit}
"""
_EPOCHS_SOURCE = """

def epochs(pts, X, below, draws, rng, cfg, alpha, log, build, step_to=step_to):
    rows = X.tolist()
    eta = cfg.eta
    {plane} = build(*pts)
    keys = [-math.inf] * len(pts)
    moved = 0.0
    far = alpha * _GAP_UP
    e_round = math.sqrt(len(pts)) * _ROUNDING
    e_tiny = math.sqrt(len(pts)) * _UNDERFLOW
    for _epoch in range(cfg.epochs):
        miss = 0
        for j in rng.permutation(len(rows)):
            {x} = rows[j]
            raw = {margin} + b
            if (raw < 0.0) == below[j]:
                continue
            miss += 1
            step = abs(eta * (raw / norm_w))
            if not step:
                log.skips[ZERO_STEP] += 1
                continue
{nearest}
            {c} = row = pts[mover]
            members = draws[j]
            for _attempt in range(1 + MAX_RESAMPLES):
                target = members[rng.randint(len(members))]
                {g} = rows[target]
                try:
                    t = step_to({c}, {g}, step)
                    break
                except ZeroDisplacementError:
                    pass
            else:
                log.skips[RESAMPLE_EXHAUSTED] += 1
                continue
            if not keys[mover] - moved > far:
                least = _MAX_GAP
                for f in pts:
                    if f is row:
                        continue
                    {f} = f
                    gap = math.sqrt({gap})
                    if 0.0 < gap <= alpha:
                        t = _guard(pts, mover, t, alpha)
                        step = math.sqrt(_dot(t, t))
                        break
                    if gap < least:
                        least = gap
                else:
                    if least >= _MIN_GAP:
                        keys[mover] = (least + moved) * _GAP_DOWN
            {t} = t
            if not ({t_or}):
                log.skips[GUARD_ZEROED] += 1
                continue
            {e} = {e_sums}
            e = [{e}]
            e_scale = max({abs_e})
            try:
{planes}
            except DegeneratePointsError:
                log.skips[DEGENERATE_REVERT] += 1
                continue
            except NonFinitePlaneError:
                log.skips[OVERFLOW_REVERT] += 1
                continue
            pts[mover] = e
            moved = (moved + step * _GAP_UP + e_scale * e_round + e_tiny) * _SUM_UP
            log.moves += 1
        yield miss
"""


def _fixed_order_source(n: int) -> str:
    """_STEP_SOURCE and then _EPOCHS_SOURCE filled in for n; every slot
    spells out the same lines term by term for each coordinate."""
    ks = range(n)

    def each(term: str, sep: str = ", ") -> str:
        return sep.join(term.format(k) for k in ks)

    nearest = ["mover = 0"]
    for i in ks:
        nearest.append(f"{each('p{0}')} = pts[{i}]")
        nearest += [f"d{k} = p{k} - x{k}" for k in ks]
        root = f"math.sqrt({each('d{0} * d{0}', ' + ')})"
        nearest += ([f"least = {root}"] if i == 0 else
                    [f"dist = {root}", "if dist < least:", f"    mover = {i}", "    least = dist"])

    def indent(lines: list[str], depth: int) -> str:
        return "\n".join(" " * depth + line for line in lines)

    fields = dict(x=each("x{0}"), c=each("c{0}"), g=each("g{0}"))
    source = _STEP_SOURCE.format(**fields, nearest=indent(nearest, 4),
                                 v=each("    v{0} = g{0} - c{0}", "\n"),
                                 v_up=each("        v{0} *= _SHORT_UP", "\n"),
                                 vv=each("v{0} * v{0}", " + "), unit=each("v{0} / nv * step"))
    plane = f"{each('w{0}')}, b, norm_w"
    planes = []
    for i in ks:
        head = "if mover == 0" if i == 0 else "else" if i == n - 1 else f"elif mover == {i}"
        args = ", ".join("e" if k == i else f"pts[{k}]" for k in ks)
        planes += [f"                {head}:",
                   f"                    {plane} = build({args})"]
    return source + _EPOCHS_SOURCE.format(
        **fields, nearest=indent(nearest, 12), plane=plane, t=each("t{0}"),
        margin=each("x{0} * w{0}", " + "), f=each("f{0}"),
        gap=each("(f{0} - c{0}) * (f{0} - c{0})", " + "), t_or=each("t{0}", " or "),
        e=each("e{0}"), e_sums=each("c{0} + t{0}"), abs_e=each("abs(e{0})"),
        planes="\n".join(planes))


@_generated("nearest", "step_to", "epochs")
def _fixed_order(n: int):
    """(nearest, step_to, epochs) of _fixed_order_source(n)."""
    return _fixed_order_source(n)


def _least_gap(points) -> float:
    """The least distance between two of the points, NaN if any distance is
    NaN (np.min's rule); each distance has np.linalg.norm's bits, the sqrt
    of a row sum of squares, whose order numpy picks from n = 8 on.
    initialize's default alpha is 0.1 times it."""
    import numpy as np

    P = np.array(points, dtype=float)
    n = P.shape[0]
    D = (P[:, None, :] - P[None, :, :]).reshape(n * n, -1)
    gaps = np.sqrt(np.add.reduce(D * D, axis=1))
    gaps[::n + 1] = math.inf  # each row's distance to itself
    return float(gaps.min())


def predict(model: MpaModel, x) -> int:
    """predict_many for the single point x."""
    return predict_many(model, [x])[0]


def predict_many(model: MpaModel, X) -> list[int]:
    """Per row of X, the class (0 or 1) whose pseudo sign matches its side
    of the boundary.

    The side is -1 where raw = w.x + b < 0 and +1 otherwise (sides' sign,
    its 0 on the boundary taken as +1), raw being geometry's fixed-order
    sum: fit counts a misclassified example by this comparison. X passes
    geometry.float_rows: DimensionMismatchError unless it is (m, n) for
    the model's n, ValueError on a non-finite value.
    """
    h = model.hyperplane
    below = model.pseudo_sign[1] < 0  # class 1 lies where raw < 0
    return [1 if (raw < 0.0) == below else 0
            for raw in _margins(h.dim)(float_rows(X, h.dim), *h.weights, h.bias)]


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
    return sum(p == y for p, y in zip(preds, data.labels.tolist())) / len(preds)


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
    pseudo_sign = doc["pseudo_sign"]
    if not all(type(v) is int and v in (-1, 1) for v in pseudo_sign.values()):
        raise ValueError(f"pseudo_sign values must be the integers -1 and 1, got {pseudo_sign}")
    try:
        pts = float_rows(doc["moving_points"])
    except (TypeError, OverflowError) as exc:  # an object or an integer past 1e308
        raise ValueError(f"moving_points must hold finite numbers: {exc}") from None
    dim = doc.get("dim")
    shape = (len(pts), len(pts[0])) if pts else (0,)
    if shape != (dim, dim):
        raise ValueError(f"dim {dim!r} does not match moving points of shape {shape}")
    cfg = MpaConfig(**doc["config"])
    return MpaModel(pts, {int(k): v for k, v in pseudo_sign.items()}, doc.get("alpha"), cfg,
                    feature_names=doc.get("feature_names"))


def save_model(model: MpaModel, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(model_document(model))


def load_model(path) -> MpaModel:
    with open(path, encoding="utf-8") as fh:
        return parse_model_document(fh.read())
