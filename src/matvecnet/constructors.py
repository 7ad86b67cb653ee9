"""Constructions of approximating and exact networks for products.

The starting point is the classical sawtooth approximation of squaring on
[0,1]: with the hat function g(x) = 2rho(x) - 4rho(x - 1/2) + 2rho(x - 1)
and its s-fold composition g_s, the piecewise-linear interpolant of x^2 on
the dyadic grid of level m is

    f_m(x) = x - sum_{s=1}^{m} g_s(x) / 4^s,

and sup_{[0,1]} |f_m(x) - x^2| = 2^(-2(m+1)), attained at the grid
midpoints. :func:`square_net_of_order` realizes f_m with width-4 layers: one
channel triple tracks (rho(g_{s-1}), rho(g_{s-1} - 1/2), rho(g_{s-1} - 1))
and a fourth carries the running partial sum, which is nonnegative on [0,1]
and therefore passes through the rectifier unchanged.

Squaring upgrades to multiplication through the polarization identity

    w x = 2 D^2 ( (|w+x| / 2D)^2 - (|w| / 2D)^2 - (|x| / 2D)^2 ),

valid on [-D, D]^2 where every |.| / 2D lands in [0, 1]. Absolute values
cost one layer via |t| = rho(t) + rho(-t), the 1/(2D) scaling folds into the
square networks' first layers, and the 2D^2 output scaling folds into the
last layer, so only the rectified layers contribute depth. Dot products sum
n such pair networks, matrix-vector products stack m dot products over a
shared packed input, and the complex version combines four real blocks into
real and imaginary parts.

Two accuracy knobs drive the sawtooth order m of the embedded square
networks. The value bound needs 3 * 2D^2 * 2^(-2(m+1)) <= eps, i.e.
2^(-2(m+1)) <= eps / (6 D^2). The slopes of f_m satisfy
|f_m'(t) - 2t| <= 2^(-m) away from kinks, which propagates through the
polarization to a gradient deviation of at most 2D * 2^(-m) per partial
derivative, so the order is raised until 2D * 2^(-m) <= eps as well. That
makes every product network here accurate to eps in value and in (almost
everywhere) gradient on its domain, at the price of a few extra layers over
what the value bound alone would need.

Exactness guarantees worth knowing about:

* every product network returns exactly 0.0 when either factor is zero,
  because the three embedded square networks then receive pairwise equal or
  zero inputs and their contributions cancel termwise in the final
  accumulation (see :func:`scalar_product_net` for the mechanism);
* :func:`affine_representation` computes Wx exactly (up to the usual dot
  product rounding), with closed-form connectivity counts;
* f_m interpolates x^2 at dyadic points, so e.g. square_net(eps)(1/2) is
  0.25 on the nose.

Each construction kind is one row of :data:`KINDS`: its builder, the
parameters the builder takes (a suffix of (m, n, D, eps)), and the two
constants of the one size-budget formula in :func:`predicted_budget`. The
command line reads its build choices, argument checks and verification
shapes from this table, so adding a kind means adding its builder and its
row. The exact affine kinds have rows with neither builder nor budget:
:func:`affine_representation` takes a matrix, not these parameters.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from math import inf, isfinite, log2, prod
from sys import float_info
from types import MappingProxyType
from typing import Any, Callable, Mapping, NamedTuple

import numpy as np

from .calculus import (
    compose_selection,
    concatenate,
    identity_fnn,
    match_depth,
    parallelize_shared,
    superpose,
)
from .datasets import _TERMS, _layout, pack_matvec
from .network import Fnn, Layer

__all__ = [
    "KINDS",
    "KindEntry",
    "ConstructionRecord",
    "BoundBudget",
    "sawtooth_order",
    "square_net_of_order",
    "square_net",
    "scalar_product_net",
    "dot_product_net",
    "matvec_net",
    "complex_matvec_net",
    "affine_representation",
    "predicted_budget",
]


@dataclass(frozen=True)
class ConstructionRecord:
    """Provenance attached to a constructed network.

    ``kind`` names the construction family, the numeric fields are the
    parameters it was built from (unused ones stay None), ``sawtooth_order``
    is the order of the embedded squaring networks, and ``input_packing``
    spells out the coordinate layout the network expects.
    """

    kind: str
    input_packing: str
    m: int | None = None
    n: int | None = None
    D: float | None = None
    eps: float | None = None
    sawtooth_order: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown construction kind {self.kind!r}")

    def as_meta(self) -> dict[str, Any]:
        """JSON-safe dict for the interchange file's meta block, in field order."""
        return asdict(self)

    def budget(self, C: float = 2.0) -> BoundBudget:
        """The :func:`predicted_budget` of this record's kind and parameters."""
        return predicted_budget(self.kind, m=self.m, n=self.n, D=self.D, eps=self.eps, C=C)

    @classmethod
    def from_meta(cls, meta: Mapping[str, Any]) -> "ConstructionRecord":
        """The record stored in a meta block.

        ``m``, ``n`` and ``sawtooth_order`` must be integers and ``D`` and
        ``eps`` numbers; booleans and strings are neither (TypeError), and
        absent or null fields stay None. The integers must be counts below
        2^63, as a layer's shape is, and the numbers finite doubles
        (ValueError), so every record that loads can be budgeted and saved.
        """

        def checked(name: str, types: tuple[type, ...]):
            value = meta.get(name)
            if value is None:
                return None
            if isinstance(value, bool) or not isinstance(value, types):
                raise TypeError(f"{name!r} must be {' or '.join(t.__name__ for t in types)}, "
                                f"got {value!r}")
            if float in types and not abs(value) <= float_info.max:  # nan, inf, 10^400
                raise ValueError(f"{name!r} must be a finite double")
            if float not in types and not 0 <= value < 2 ** 63:
                raise ValueError(f"{name!r} must be a count below 2^63")
            return value

        D = checked("D", (int, float))
        eps = checked("eps", (int, float))
        return cls(
            kind=str(meta["kind"]),
            input_packing=str(meta.get("input_packing", "")),
            m=checked("m", (int,)),
            n=checked("n", (int,)),
            D=None if D is None else float(D),
            eps=None if eps is None else float(eps),
            sawtooth_order=checked("sawtooth_order", (int,)),
        )


@dataclass(frozen=True)
class BoundBudget:
    """Size budget predicted by the closed-form bounds for a construction.

    ``depth_bound`` is the real number depth_constant * log2(...); callers
    compare against its ceiling. It may come out nonpositive (accuracy looser
    than the domain allows, eps >= D^2), in which case no network can comply
    and the check reports that honestly. Width and weight bounds are exact
    positive numbers a compliant network must not exceed.
    """

    target_eps: float
    depth_bound: float
    width_bound: float
    weight_bound: float
    depth_constant: float = 2.0

    def __post_init__(self) -> None:
        if not self.target_eps > 0:
            raise ValueError("target_eps must be positive")
        if not self.depth_constant > 0:
            raise ValueError("depth_constant must be positive")
        if not np.isfinite(self.depth_bound):
            raise ValueError(f"depth_bound must be finite, got {self.depth_bound}")
        for label, value in (("width_bound", self.width_bound), ("weight_bound", self.weight_bound)):
            if not value > 0:
                raise ValueError(f"{label} must be positive, got {value}")


# 4.0 ** 512 overflows a double, so no higher order has its weights 4^-s.
MAX_ORDER = 511


def _buildable(order: int, given: str) -> int:
    """``order``, or a ValueError naming the parameters ``given`` that call for more."""
    if order > MAX_ORDER:
        raise ValueError(f"{given} calls for sawtooth order {order}, but the weights 4^-s "
                         f"of an order above {MAX_ORDER} overflow a double")
    return order


def sawtooth_order(delta: float) -> int:
    """Smallest order m with 2^(-2(m+1)) <= delta.

    This is the interpolation level at which f_m approximates x^2 on [0,1]
    to within delta. Powers of two are exact in binary floating point, so
    the loop below is free of rounding subtleties.
    """
    if not delta > 0:
        raise ValueError(f"accuracy must be positive, got {delta}")
    order = 0
    while 2.0 ** (-2 * (order + 1)) > delta:
        order += 1
    return order


def square_net_of_order(order: int) -> Fnn:
    """Width-4 network computing the interpolant f_order of x^2 on [0,1].

    Order 0 is the identity (f_0(x) = x). For order >= 1 the depth is
    order + 1: one splitting layer, order - 1 sawtooth transitions, and an
    affine readout. Weight magnitudes never exceed 4.
    """
    if not 0 <= order <= MAX_ORDER:
        raise ValueError(f"order must lie in [0, {MAX_ORDER}], got {order}")
    if order == 0:
        net = identity_fnn(1, 1)
    else:
        hat = np.array([2.0, -4.0, 2.0, 0.0])
        thresholds = np.array([0.0, -0.5, -1.0])
        layers = [Layer(np.ones((4, 1)), np.array([0.0, -0.5, -1.0, 0.0]))]
        for s in range(1, order):
            w = np.vstack([
                np.vstack([hat, hat, hat]),
                np.array([-2.0 / 4.0 ** s, 4.0 / 4.0 ** s, -2.0 / 4.0 ** s, 1.0]),
            ])
            layers.append(Layer(w, np.append(thresholds, 0.0)))
        readout = np.array([[-2.0 / 4.0 ** order, 4.0 / 4.0 ** order,
                             -2.0 / 4.0 ** order, 1.0]])
        layers.append(Layer(readout, np.zeros(1)))
        net = Fnn(tuple(layers))
    record = ConstructionRecord(
        kind="square",
        input_packing="x (scalar in [0,1])",
        sawtooth_order=order,
    )
    return net.with_record(record)


def square_net(eps: float) -> Fnn:
    """Approximate squaring on [0,1] with sup error at most eps.

    Picks the smallest sawtooth order meeting the bound; the resulting
    error is exactly 2^(-2(order+1)), attained midway between neighbouring
    dyadic grid points. The network output at 0 is exactly 0.
    """
    if not 0.0 < eps < 0.5:
        raise ValueError(f"eps must lie in (0, 1/2), got {eps}")
    net = square_net_of_order(_buildable(sawtooth_order(eps), f"eps={eps}"))
    return net.with_record(replace(net.record, eps=float(eps)))


_ABS_PAIRS = np.array([
    [1.0, 1.0],
    [-1.0, -1.0],
    [1.0, 0.0],
    [-1.0, 0.0],
    [0.0, 1.0],
    [0.0, -1.0],
])


def _product_order(D: float, eps: float) -> int:
    """Sawtooth order for a scalar product accurate to eps in value and slope.

    The value requirement is 2^(-2(m+1)) <= eps / (6 D^2); the slope
    requirement, coming from |f_m'(t) - 2t| <= 2^(-m) pushed through the
    polarization identity, is 2D * 2^(-m) <= eps. The returned m is the
    smallest satisfying both.
    """
    order = sawtooth_order(eps / (6.0 * D * D))
    while 2.0 * D * 2.0 ** (-order) > eps:
        order += 1
    return order


def _scalar_accuracy(D: float, eps: float, *divisors: float) -> float:
    """The accuracy left to each scalar product when a builder splits eps, checked.

    The share is eps divided by each divisor in turn, as the builders pass
    it down. D must be positive and finite with 6 D^2 > 0, the share must lie
    in (0, 1/2), the share over 6 D^2, from which :func:`_product_order`
    starts, must not underflow to 0, and the order must be buildable; the
    message names the eps the caller gave as well as the share.
    """
    if not (D > 0 and isfinite(D) and 6.0 * D * D > 0):
        raise ValueError(f"D must be positive and finite with 6 D^2 > 0 in doubles, got {D}")
    share = eps
    for divisor in divisors:
        share = share / divisor
    parts = prod(divisors)
    split = "eps" + "".join(f"/{d:g}" for d in divisors if d != 1)
    if not 0.0 < share < 0.5:
        if parts == 1:
            raise ValueError(f"eps must lie in (0, 1/2), got {eps}")
        raise ValueError(
            f"{split} must lie in (0, 1/2), since eps is split among {parts:g} "
            f"scalar products; got eps={eps}, so {split} = {share}"
        )
    given = f"eps={eps}" if parts == 1 else (
        f"eps={eps}, split among {parts:g} scalar products as {split} = {share}"
    )
    if not share / (6.0 * D * D) > 0:
        raise ValueError(f"D={D} is too large for {given}: {split} / (6 D^2) underflows to 0")
    _buildable(_product_order(D, share), f"D={D} with {given}")
    return share


def scalar_product_net(D: float, eps: float) -> Fnn:
    """Network approximating (w, x) -> w*x on [-D, D]^2 to within eps.

    Structure, front to back: a 6-neuron layer computing rho(+-(w+x)),
    rho(+-w), rho(+-x); three parallel squaring networks reading the channel
    pair sums scaled by 1/(2D); a 3-neuron layer holding the three square
    outputs (nonnegative, so rectification is the identity on them); and a
    readout row 2D^2 * (1, -1, -1).

    Keeping the three square outputs as separate neurons makes the
    vanishing guarantee exact rather than approximate: at w = 0 the first
    and third squaring networks receive bitwise identical inputs and the
    second receives zero, so the readout computes q - 0 - q = 0.0 in
    floating point, and symmetrically at x = 0. Folding the readout into
    the previous layer would interleave the three partial sums and lose
    this cancellation.

    Width is at most 12 and weight magnitudes at most max(4, 2 D^2, 1/(2D)).
    For D >= 1/8 the last term is dominated, matching the claimed bound
    max(4, 2 D^2).
    """
    _scalar_accuracy(D, eps)
    order = _product_order(D, eps)
    square = square_net_of_order(order)
    gamma = 1.0 / (2.0 * D)
    branches = []
    for pair in range(3):
        row = np.zeros((1, 6))
        row[0, 2 * pair] = gamma
        row[0, 2 * pair + 1] = gamma
        branches.append(concatenate(square, Fnn((Layer(row, np.zeros(1)),))))
    combined = parallelize_shared(branches)
    absolute = Fnn((
        Layer(_ABS_PAIRS, np.zeros(6)),
        Layer(np.eye(6), np.zeros(6)),
    ))
    core = concatenate(combined, absolute)
    scale = 2.0 * D * D
    readout = Fnn((
        Layer(np.eye(3), np.zeros(3)),
        Layer(np.array([[scale, -scale, -scale]]), np.zeros(1)),
    ))
    net = concatenate(readout, core)
    record = ConstructionRecord(
        kind="scalar_product",
        input_packing="(w, x)",
        D=float(D),
        eps=float(eps),
        sawtooth_order=order,
    )
    return net.with_record(record)


def dot_product_net(n: int, D: float, eps: float) -> Fnn:
    """Network approximating (w, x) -> <w, x> on [-D, D]^(2n) to within eps.

    Input packing is (w_1 ... w_n, x_1 ... x_n). The network is the sum of n
    scalar product networks of accuracy eps / n, each rewired to read its
    coordinate pair (w_i, x_i); errors add up to at most eps. Zeroing either
    w or x zeroes the output exactly, term by term.
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    scalar = scalar_product_net(D, _scalar_accuracy(D, eps, n))
    _, width, (w, x) = _layout(1, n)  # (w, x) is the matvec layout of one row
    terms = [_reading(scalar, width, w[:, i:i + 1], x[i:i + 1]) for i in range(n)]
    net = superpose(terms, [1.0] * n, shared_input=True)
    record = ConstructionRecord(
        kind="dot_product",
        input_packing="(w_1, x_1)" if n == 1 else f"(w_1..w_{n}, x_1..x_{n})",
        n=n,
        D=float(D),
        eps=float(eps),
        sawtooth_order=scalar.record.sawtooth_order,
    )
    return net.with_record(record)


def _reading(net: Fnn, width: int, W: np.ndarray, x: np.ndarray) -> Fnn:
    """``net``, a product over a packed (W, x), reading each entry at its given coordinate.

    ``W`` and ``x`` hold coordinates of a ``width``-wide input, as
    :func:`.datasets._layout` gives them; the selector is the identity's rows
    at the coordinates of :func:`.datasets.pack_matvec` (W, x).
    """
    # Only the picked rows: an identity of the full width makes a build cubic in n.
    picks = pack_matvec(W, x).astype(np.intp)
    return compose_selection(net, np.equal.outer(picks, np.arange(width)).astype(np.float64))


def matvec_net(m: int, n: int, D: float, eps: float) -> Fnn:
    """Network approximating (W, x) -> Wx with entries in [-D, D].

    Input packing is [vec(W) column-major, x]; output has m coordinates,
    each accurate to eps in sup norm. Built as m dot product networks of
    accuracy eps over a shared packed input. Width stays at or below 12mn
    and weights below max(4, 2D^2) for D >= 1/8. W = 0 or x = 0 gives the
    exact zero vector.
    """
    if m < 1 or n < 1:
        raise ValueError(f"m and n must be at least 1, got m={m}, n={n}")
    dot = dot_product_net(n, D, eps)
    packing, width, (W, x) = _layout(m, n)
    # Row i is the dot product network reading (W[i, :], x).
    net = parallelize_shared([_reading(dot, width, W[i:i + 1], x) for i in range(m)])
    record = ConstructionRecord(
        kind="matvec",
        input_packing=packing,
        m=m,
        n=n,
        D=float(D),
        eps=float(eps),
        sawtooth_order=dot.record.sawtooth_order,
    )
    return net.with_record(record)


def complex_matvec_net(m: int, n: int, D: float, eps: float) -> Fnn:
    """Network approximating complex Wx, given as real and imaginary parts.

    Input packing is [vec(W1), vec(W2), x1, x2] (column-major matrix blocks,
    width 2n(m+1)); the output stacks p1 = W1 x1 - W2 x2 over
    p2 = W1 x2 + W2 x1, each coordinate accurate to eps when all entries lie
    in [-D, D]. Four real matrix-vector blocks of accuracy eps / 4 are
    paired off by superposition into the two parts, so each part's error is
    at most eps / 2. Width stays at or below 48mn.
    """
    if m < 1 or n < 1:
        raise ValueError(f"m and n must be at least 1, got m={m}, n={n}")
    _scalar_accuracy(D, eps, 4.0, n)
    core = matvec_net(m, n, D, eps / 4.0)
    packing, width, at = _layout(m, n, complex=True)
    # Each output block, Re then Im, superposes its terms sign * W_p x_q.
    net = parallelize_shared([superpose([_reading(core, width, at[p], at[q]) for _, p, q in terms],
                                        [sign for sign, _, _ in terms], shared_input=True)
                              for terms in _TERMS[True]])
    record = ConstructionRecord(
        kind="complex_matvec",
        input_packing=packing,
        m=m,
        n=n,
        D=float(D),
        eps=float(eps),
        sawtooth_order=core.record.sawtooth_order,
    )
    return net.with_record(record)


def affine_representation(W, variant: int, K: int | None = None) -> Fnn:
    """Exact network realizations of x -> Wx with known connectivity.

    Variant 1 is the depth-2 form: the identity network of depth 2 on R^m
    after the one-layer map W, i.e. split into (rho(Wx), rho(-Wx)) and
    recombine, using 2 nnz(W) + 2m nonzero weights. Variants 2 and 3 take a
    prescribed depth K >= 3 and add the depth with an identity network
    (:func:`.calculus.identity_fnn`) on one side of variant 1. Variant 2 puts
    the depth-(K-1) identity on R^n before it: its split (rho(x), rho(-x))
    travels through K - 3 identity layers, and the merged interface layer
    [[W, -W], [-W, W]] second to last costs 4 nnz(W), for 2m + 2(K-2)n +
    4 nnz(W) in all. Variant 3 pads variant 1 to depth K with
    :func:`.calculus.match_depth`, an identity tail on R^m after it: the split
    image travels through K - 2 layers of 2m channels, the first of them the
    merged [[I, -I], [-I, I]], for 2Km + 2 nnz(W). Either way the computed
    function is exactly Wx because at every stage one channel of each (+, -)
    pair is zero.
    """
    W = np.asarray(W, dtype=np.float64)
    if W.ndim != 2:
        raise ValueError("W must be a matrix")
    m, n = W.shape
    if variant not in (1, 2, 3):
        raise ValueError(f"variant must be 1, 2 or 3, got {variant}")
    if variant == 1:
        if K is not None and K != 2:
            raise ValueError("variant 1 has depth 2; do not pass K")
    elif K is None or K < 3:
        raise ValueError(f"variants 2 and 3 need a depth K >= 3, got {K}")
    if not m or not n:
        raise ValueError("W must have at least one row and one column")
    net = concatenate(identity_fnn(m, 2), Fnn((Layer(W, np.zeros(m)),)))
    if variant == 2:
        net = concatenate(net, identity_fnn(n, K - 1))
    elif variant == 3:
        net = match_depth(net, K)
    record = ConstructionRecord(
        kind=f"affine_v{variant}",
        input_packing=f"x ({n})",
        m=m,
        n=n,
    )
    return net.with_record(record)


class KindEntry(NamedTuple):
    """One row of :data:`KINDS`: how a kind is built and what it promises.

    ``builder`` takes the parameters named in ``params`` positionally, a
    suffix of ``(m, n, D, eps)``. ``depth_factor`` and ``width_factor`` are
    the constants f and w of :func:`predicted_budget`. A kind without a
    builder has no budget either.
    """

    builder: Callable[..., Fnn] | None
    params: tuple[str, ...]
    depth_factor: float | None = None
    width_factor: float | None = None


KINDS: Mapping[str, KindEntry] = MappingProxyType({
    "square": KindEntry(square_net, ("eps",), 1.0, 4.0),
    "scalar_product": KindEntry(scalar_product_net, ("D", "eps"), 1.0, 12.0),
    "dot_product": KindEntry(dot_product_net, ("n", "D", "eps"), 1.0, 12.0),
    "matvec": KindEntry(matvec_net, ("m", "n", "D", "eps"), 1.0, 12.0),
    "complex_matvec": KindEntry(complex_matvec_net, ("m", "n", "D", "eps"), 4.0, 48.0),
    "affine_v1": KindEntry(None, ()),
    "affine_v2": KindEntry(None, ()),
    "affine_v3": KindEntry(None, ()),
})


def predicted_budget(
    kind: str,
    m: int | None = None,
    n: int | None = None,
    D: float | None = None,
    eps: float | None = None,
    C: float = 2.0,
) -> BoundBudget:
    """Closed-form size budget a constructed network is expected to meet.

    One formula serves every kind with a budget, f and w taken from its
    :data:`KINDS` row and each parameter the kind does not take counted as 1:
    depth C * log2(f n D^2 / eps) (compare actual depth against the ceiling),
    width w m n, and weight max(4, 2 D^2). So squaring gets C * log2(1/eps),
    width 4 and weight 4; the products get widths 12, 12n, 12mn and 48mn, and
    the complex kind's depth carries f = 4. The parameters the kind takes are
    checked in the order eps, D, n, m, and then f n D^2 / eps must be a
    positive finite double, or the message names the D and eps that are not.
    """
    entry = KINDS.get(kind)
    if entry is None or entry.width_factor is None:
        raise ValueError(f"no budget formula for kind {kind!r}")
    given = {"m": m, "n": n, "D": D, "eps": eps}
    for name in reversed(entry.params):
        value = given[name]
        if name in ("m", "n"):
            if value is None or value < 1:
                raise ValueError(f"{name} must be given and at least 1")
        elif value is None or not value > 0:
            raise ValueError(f"{name} must be given and positive")
    m, n, D = (given[name] if name in entry.params else 1 for name in ("m", "n", "D"))
    ratio = entry.depth_factor * n * D * D / eps
    if not 0 < ratio < inf:
        named = " and ".join(f"{name}={given[name]}" for name in ("D", "eps") if name in entry.params)
        raise ValueError(f"{named}: f n D^2 / eps = {ratio} is not a positive finite double, "
                         f"so the depth bound C * log2(f n D^2 / eps) is not finite")
    return BoundBudget(
        target_eps=eps,
        depth_bound=C * log2(ratio),
        width_bound=entry.width_factor * m * n,
        weight_bound=max(4.0, 2.0 * D * D),
        depth_constant=C,
    )
