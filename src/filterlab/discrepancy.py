"""Exact moments of the sampling discrepancy of a stochastically seeded filter.

A filter started from a sampled variance X ~ Gamma(alpha, p_tilde0/alpha)
(and mean x_tilde0) instead of the exact prior (p0, x0) produces analysis
quantities that differ from the exact filter by ratio variables in X:

    dp_i = phat_i - p_i = (aX + b)/(cX + d)    (variance discrepancy)
    dx_i = xhat_i - x_i                        (mean discrepancy)

so all their moments come from the gamma-ratio engine.  Coefficients are
assembled from the trajectory's ratio ledger; nothing here evaluates M_i or
S_i directly, which keeps every spec well scaled for long or unstable
model sequences.

The per-step closed forms read tables built a trajectory at a time, and
nothing else: the first call for a trajectory and its inputs evaluates one
array spec over every step and keeps the moments and the spec in the
trajectory's tables dict (ModelTrajectory.tables), under the
PerturbedInputs for the dp and dx moments and under ("gain", p0, alpha,
r, n) for E[K_i^n].  A table lives as long as its trajectory and holds no
reference back to it, so a dropped trajectory frees its tables at once.
PerturbedInputs computes the hash of its six fields once, at construction,
since every read hashes it to probe the dict (equality stays field by
field).  A per-step entry costs a step check, one dict probe and one index
into a column: it returns the cell whenever the cell is a number (E[K_i^4]
whenever it lies in [0, inf)), and only a refused cell goes through _at.
There is no per-step spec: each element of a
table's array spec evaluates as the float spec of its coefficients would,
bit for bit (see gamma_ratio).  A step that is not an integer or lies
outside [0, n_steps] raises IndexError before any table is built or
looked up (ModelTrajectory.check_step, shared with the Monte Carlo kernels
and skf).  A NaN cell is refused by the first of these that applies:
coefficients that are not all finite; a coefficient rule the step breaks,
which raises InputError naming "model" where M_i^2/S_i underflowed to 0
(dp_i and K_i are then constant), or naming an input by the size rule
below where dp_i's coefficient a = M_i^2 r^2/S_i^2 alone underflowed to 0
(an r of 1e-300), else DomainError naming the step and the rule; an alpha
below the moment's order, which raises the moment's error; any other NaN
(a prior of 1e200 squares to inf).  The first and the last come from an
input whose size took the form out of double range, and like the a that
underflowed they raise InputError naming the input of the most extreme
size: "phat0" (p_tilde0), "p0" or "obs_variance" (r/S_i), and for dx also
"x0", "x_tilde0" or "x0_truth" (B_i/S_i, which the observations of the
truth set).

The Monte Carlo kernels (mc_discrepancy_moments, po_mean_identity_check and
skf.skf_error_moments) return one SampleMoments record per sample, and one
driver, _stream, reduces every sample v the same way: into the shifted
power sums s_k = sum of d^k, k = 1..4, d = v - c (Chan, Golub & LeVeque
1983).  The shift c is the median of the first _W replicates: as a
replicate it keeps the central sum c_2 >= s_2/(n+1), and near the mean it
keeps the running sums small.  The mean, E[v^2], the variance and their
standard errors follow in closed form (_moments; Pebay 2008), so dp^2 is
never a sample of its own.  A sample whose deviations sum to 0 and square
to 0 is constant: its zero standard error is exact, not an underflow.
Each kernel refuses a replicate count that is not an integer >= 2
(check_replicates) before it draws.

_stream runs the replicates through block buffers of _BLOCK replicates, a
multiple of _W, each after a row of _W running column sums.  For each block
a kernel's fill writes sample j into row 2j (odd rows are scratch), and the
driver subtracts the shifts, taken from the first block, and folds:
reducing [sums; block] along axis 0 adds each replicate to its column
(index mod _W) in replicate order, and math.fsum adds the columns exactly.
So the order of every addition is fixed by the replicate index alone, not
by numpy's pairwise summation, the block size, a whole or blocked feed, or
the thread count, and a seeded run writes the same bytes on any build whose
float operations round alike.

mc_discrepancy_moments allocates no replicate-sized array, only the
driver's four block buffers, which fit one core's L2 cache: x (the draw X,
as gen.gamma draws it, then dx), xu (X + u), dp and a scratch row.  The
fold turns dx and dp into their deviations d and then d^3, and xu and the
scratch into d^2 and d^4.  Each replicate of dp and dx goes through the
float operations of the array expressions in the comments, in their order
(only a product's operands are swapped, which is exact).
po_mean_identity_check keeps its stream layout, all n X draws and then all
n R draws, so it holds those two replicate-sized arrays and forms the rest
block by block in three passes of the driver: R - r and P, then the means
of rK and K^2 (R - r), which the first pass wrote over X and R (folding
their deviations alone, into the same columns), then the product of their
centred values.  skf_error_moments keeps whole arrays,
since normal_polar's draws depend on the count asked for, and feeds
sample_moments, the driver fed slices of one whole sample.
"""

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .expint import DomainError
from .gamma_ratio import (
    GammaRatioSpec,
    ratio_fourth_moment,
    ratio_mean,
    ratio_second_moment,
)
from .propagators import InputError, _check_finite
from .rng import RngSpec, check_count

__all__ = [
    "PerturbedInputs",
    "expected_dp",
    "second_moment_dp",
    "expected_dx",
    "second_moment_dx",
    "SampleMoments",
    "sample_moments",
    "check_replicates",
    "mc_discrepancy_moments",
    "po_gain_mean",
    "po_gain_fourth",
    "po_variance_penalty",
    "po_mean_identity_check",
]


@dataclass(frozen=True)
class PerturbedInputs:
    """Exact prior (p0, x0), sampled-prior law (p_tilde0, x_tilde0, alpha),
    and the observation variance r the filter assumes."""

    p0: float
    x0: float
    p_tilde0: float
    x_tilde0: float
    alpha: float
    r: float

    def __post_init__(self):
        if not (self.p0 > 0.0 and self.p_tilde0 > 0.0 and self.r > 0.0):
            raise ValueError("variances must be positive")
        if not (self.alpha > 1.0):
            raise ValueError("need alpha > 1")
        object.__setattr__(self, "_hash", hash((self.p0, self.x0, self.p_tilde0,
                                                 self.x_tilde0, self.alpha, self.r)))

    def __hash__(self):
        return self._hash


def _coefs(inp, inv_s, q, m_s, b_s):
    # (a, b) of dp_i and of dx_i and their shared (c, d), scaled by 1/S_i^2,
    # at every step, from the ledger's 1/S_i, M_i^2/S_i, M_i/S_i and B_i/S_i
    u = inp.r * inv_s
    c = inp.p0 + u
    a_dp = q * u * inp.r  # M^2 r^2 / S^2
    a_dx = inp.r * m_s * (b_s - inp.x0)
    b_dx = inp.r * m_s * (c * inp.x_tilde0 - b_s * inp.p0 - u * inp.x0)
    return (a_dp, -a_dp * inp.p0), (a_dx, b_dx), c, u * c


def _moment_table(traj, inp):
    # E[dp_i], E[dx_i], E[dp_i^2], E[dx_i^2] at every step of traj as lists
    # of floats, then their spec and the sizes of its inputs (see _at).  dp
    # and dx share z, so one spec with a row for each evaluates every order,
    # in one scaled-expint pass: the second moments ask for all three
    # orders, and the means then read two of them.  A prior near the double
    # limit (p_tilde0 = 1e308) overflows the forms: those steps read inf or
    # NaN, which _at refuses, and no numpy warning is printed.  The table is
    # kept in traj.tables under inp, and returned; a prior mean that is not
    # finite is refused first
    _check_finite(("x0", inp.x0), ("x_tilde0", inp.x_tilde0))
    ledger = [traj.array(s) for s in ("inv_S", "M2_over_S", "M_over_S", "B_over_S")]
    with np.errstate(all="ignore"):
        dp, dx, c, d = _coefs(inp, *ledger)
        spec = GammaRatioSpec(np.stack([dp[0], dx[0]]), np.stack([dp[1], dx[1]]), c, d,
                              inp.alpha, inp.p_tilde0)
        second = (ratio_second_moment(spec) if inp.alpha > 2.0
                  else np.full(spec.a.shape, np.nan))
        mean = ratio_mean(spec)
        # B_i/S_i == x_tilde0: dx_i is the constant k = a/c at any alpha
        const = ledger[3] == inp.x_tilde0
        k = dx[0][const] / c[const]
        mean[1, const] = k
        second[1, const] = k * k  # not k ** 2: pow may round x^2 one ulp off x * x

    inv_s, b_s = traj.inv_S, traj.B_over_S  # not traj, which holds the table

    def dp_sizes(i):
        # the inputs behind step i's spec: p_tilde0 its p, p0 and r/S_i its c
        return ("phat0", inp.p_tilde0), ("p0", inp.p0), ("obs_variance", inp.r * inv_s[i])

    def dx_sizes(i):
        # and x0, x_tilde0 and B_i/S_i (from the observations, so from the
        # truth x0_truth) in dx's a and b
        return (*dp_sizes(i), ("x0", inp.x0), ("x_tilde0", inp.x_tilde0), ("x0_truth", b_s[i]))

    return traj.tables.setdefault(inp, (*mean.tolist(), *second.tolist(), spec, dp_sizes,
                                        dx_sizes))


# the moment of each order, bound here: the span tracer replaces the names
# the tables call, and a refusal must not depend on what they hold
_MOMENTS = {1: ratio_mean, 2: ratio_second_moment, 4: ratio_fourth_moment}


def _at(traj, i, column, spec, row, name, n, sizes=None):
    # refuses column[i], E[Y^n], at a step i of traj that check_step passed,
    # when it is NaN, at element row + (i,) of spec; a number there, which
    # only _refuse_gain_fourth passes, is returned as it is.
    # Given sizes(i), the (input, value) pairs behind step i's spec,
    # coefficients that are not all finite raise the sized InputError below
    # before any rule is read.  Then a rule step i breaks raises an InputError
    # naming "model" where M_i^2/S_i underflowed to 0 and a with it (dp_i and
    # K_i are then constant); given sizes, the sized InputError where a alone
    # underflowed to 0 with d > 0 (dp_i's a = M_i^2 r^2/S_i^2 at a tiny r),
    # which makes Y constant; else a DomainError.  Then the moment raises its
    # own error for an alpha below its order.  A NaN left raises, given sizes,
    # the sized InputError, and is returned as it is without them.  The sized
    # InputError names the input of the most extreme size (largest binary
    # exponent, the first on a tie), which took the form out of double range
    v = column[i]
    if v == v:
        return v
    index = row + (i,)
    with np.errstate(all="ignore"):  # as the table was built
        coefs = [float(x[index]) for x in np.broadcast_arrays(spec.a, spec.b, spec.c, spec.d)]
        if sizes is None or all(map(math.isfinite, coefs)):
            why = spec.refusal(index)
            if why and coefs[0] == traj.M2_over_S[i] == 0.0:
                raise InputError("model", "step %d: %s: %s, as M_i^2/S_i underflows to 0"
                                 % (i, name, why))
            if why and coefs[0] == 0.0 < coefs[3] and sizes is not None:
                raise _sized(sizes, i, "%s: %s, as its coefficient a underflows to 0"
                             % (name, why))
            if why:
                raise DomainError("step %d: %s: %s" % (i, name, why))
            v = float(_MOMENTS[n](spec)[index])
    if v != v and sizes is not None:
        raise _sized(sizes, i, "the closed form of E[%s%s] is NaN, which no moment is"
                     % (name, "^%d" % n if n > 1 else ""))
    return v


def _sized(sizes, i, what):
    # the InputError naming the input behind step i's spec of the most
    # extreme size (see _at), which took the form out of double range
    param, size = max(sizes(i), key=lambda pv: abs(math.frexp(pv[1])[1]))
    return InputError(param, "step %d: %s: an input of size %g takes it out of double range"
                      % (i, what, size))


# Each per-step entry checks the step before it looks up or builds a table,
# returns its table cell when it is a number, and calls _at only to refuse
# a NaN
def expected_dp(traj, inp, i):
    """E[dp_i], exact for alpha > 1."""
    i = traj.check_step(i)
    t = traj.tables.get(inp) or _moment_table(traj, inp)
    v = t[0][i]
    return v if v == v else _at(traj, i, t[0], t[4], (0,), "dp", 1, t[5])


def second_moment_dp(traj, inp, i):
    """E[dp_i^2], exact for alpha > 2."""
    i = traj.check_step(i)
    t = traj.tables.get(inp) or _moment_table(traj, inp)
    v = t[2][i]
    return v if v == v else _at(traj, i, t[2], t[4], (0,), "dp", 2, t[5])


def expected_dx(traj, inp, i):
    """E[dx_i], exact for alpha > 1."""
    i = traj.check_step(i)
    t = traj.tables.get(inp) or _moment_table(traj, inp)
    v = t[1][i]
    return v if v == v else _at(traj, i, t[1], t[4], (1,), "dx", 1, t[6])


def second_moment_dx(traj, inp, i):
    """E[dx_i^2], exact for alpha > 2."""
    i = traj.check_step(i)
    t = traj.tables.get(inp) or _moment_table(traj, inp)
    v = t[3][i]
    return v if v == v else _at(traj, i, t[3], t[4], (1,), "dx", 2, t[6])


_W = 256  # running column sums per power sum
_BLOCK = 1 << 15  # replicates per block, a multiple of _W; 4 buffers fill half an L2


# mean2 is E[v^2], var the ddof-1 variance, and constant says that every
# replicate is the same double
SampleMoments = namedtuple("SampleMoments", "mean mean_se mean2 mean2_se var var_se constant")


def _buffers(slots):
    # slots sample buffers of _BLOCK replicates, each after a row of running
    # column sums, and the column sums of d, d^2 (acc[0]) and d^3, d^4 (acc[1])
    return np.empty((slots, _BLOCK // _W + 1, _W)), np.zeros((2, slots, _W))


def _samples(buf, m):
    # the first m replicates of every slot of buf, as a (slots, m) view
    return buf.reshape(len(buf), -1)[:, _W:_W + m]


def _add_columns(buf, m, acc):
    # acc[s, j] += the replicates of slot s in column j, in replicate order
    rows, tail = divmod(m, _W)
    buf[:, 0] = acc
    np.add.reduce(buf[:, :rows + 1], axis=1, out=acc)
    if tail:
        acc[:, :tail] += buf[:, rows + 1, :tail]


def _fold(buf, m, acc):
    # the deviations d in slots 0, 2, .. of buf into acc[0] (d, d^2) and
    # acc[1] (d^3, d^4), slot by slot; slots 1, 3, .. are scratch
    v = _samples(buf, m)
    d, p = v[0::2], v[1::2]
    np.multiply(d, d, out=p)
    _add_columns(buf, m, acc[0])
    d *= p
    p *= p
    _add_columns(buf, m, acc[1])


def _total(cols):
    # the exact sum; math.fsum raises on inf + -inf or past double range
    try:
        return math.fsum(cols)
    except (ValueError, OverflowError):
        return sum(cols)


def _shift(v):
    # for each row of v, the median replicate of its first _W: a replicate
    # near the mean keeps every running column sum near 0, where additions
    # round least
    k = (min(len(v[0]), _W) - 1) // 2
    return np.partition(v[:, :_W], k, axis=1)[:, k:k + 1]


def _moments(acc, j, shift, n):
    # SampleMoments of the sample in slot 2j of the folds into acc
    s1, s2, s3, s4 = [_total(c.tolist()) for a in acc for c in a[2 * j:2 * j + 2]]
    t = s1 / n
    c2 = max(s2 - t * s1, 0.0)  # the central sums; s2 may underflow where s1 does not
    c3 = s3 - 3.0 * t * s2 + 2.0 * t * t * s1
    c4 = s4 - 4.0 * t * s3 + 6.0 * t * t * s2 - 3.0 * t * t * t * s1
    mean, var = shift + t, c2 / (n - 1)
    # the sum of (v^2 - mean2)^2, mean2 = mean^2 + c2/n
    q = 4.0 * mean * mean * c2 + 4.0 * mean * c3 + c4 - c2 * c2 / n
    return SampleMoments(mean, math.sqrt(var) / math.sqrt(n), mean * mean + c2 / n,
                         math.sqrt(max(q, 0.0) / (n - 1)) / math.sqrt(n), var,
                         math.sqrt(max(c4 / n - var * var, 0.0) / n), s1 == s2 == 0.0)


def _stream(n, slots, fill, means_only=False):
    # SampleMoments of slots samples of n replicates, block by block:
    # fill(lo, v) writes replicates lo, lo + 1, .. of sample j into v[2j]
    # (v holds 2 * slots rows of the block's length; odd rows are scratch),
    # and the first block's medians are the shifts.  means_only folds the
    # deviations d alone, into the same columns, and returns the means
    (buf, acc), shift = _buffers(2 * slots), None
    for lo in range(0, n, _BLOCK):
        m = min(_BLOCK, n - lo)
        v = _samples(buf, m)
        fill(lo, v)
        if shift is None:
            shift = _shift(v[0::2])
        v[0::2] -= shift
        if means_only:
            _add_columns(buf[0::2], m, acc[0, 0::2])
        else:
            _fold(buf, m, acc)
    if means_only:
        return [float(shift[j, 0]) + _total(acc[0, 2 * j].tolist()) / n for j in range(slots)]
    return [_moments(acc, j, float(shift[j, 0]), n) for j in range(slots)]


def sample_moments(v):
    """SampleMoments of the whole sample v, fed to the power sums in blocks
    (see the module docstring)."""
    def fill(lo, w):
        w[0] = v[lo:lo + len(w[0])]
    return _stream(len(v), 1, fill)[0]


def check_replicates(replicates):
    """replicates as an int; ValueError for a count that is not an integer
    (an int or a numpy integer) or is below 2, which no variance admits."""
    return check_count(replicates, 2, "replicates")


def _check_draws(x, param, mean, i):
    # gamma draws are nonnegative, so one max finds an inf (or a NaN)
    if not x.max() < math.inf:
        raise InputError(param, "step %d: a gamma draw of mean %g is not a finite double"
                         % (i, mean))


def mc_discrepancy_moments(traj, inp: PerturbedInputs, i, replicates,
                           spec: RngSpec):
    """SampleMoments of (dp_i, dx_i) over the initial-variance draw.

    Independent route from the closed forms: samples X with the library
    gamma sampler and evaluates both filters' analysis formulas per draw.
    Raises InputError naming "phat0" when a draw of X is not a finite double,
    IndexError for a step outside [0, n_steps], and ValueError for a
    replicate count check_replicates refuses.
    """
    i, n = traj.check_step(i), check_replicates(replicates)
    gen = spec.generator()
    u = inp.r * traj.inv_S[i]
    m2s, ms, mbs, r = traj.M2_over_S[i], traj.M_over_S[i], traj.MB_over_S[i], inp.r
    pa_exact = r * inp.p0 * m2s / (inp.p0 + u)
    xa_exact = (inp.p0 * mbs + ms * r * inp.x0) / (inp.p0 + u)

    def fill(lo, v):
        x, xu, dp, _ = v
        gen.standard_gamma(inp.alpha, out=x)
        with np.errstate(over="ignore"):  # an infinite draw is named below
            x *= inp.p_tilde0 / inp.alpha
        _check_draws(x, "phat0", inp.p_tilde0, i)
        np.add(x, u, out=xu)
        # dp = r * x * m2s / xu - pa_exact
        np.multiply(x, r, out=dp)
        dp *= m2s
        dp /= xu
        dp -= pa_exact
        # dx = (x * mbs + ms * r * x_tilde0) / xu - xa_exact, in x's slot
        x *= mbs
        x += ms * r * inp.x_tilde0
        x /= xu
        x -= xa_exact

    dx, dp = _stream(n, 2, fill)
    return dp, dx


def _gain_table(traj, key):
    # E[K_i^n] (n = 1 or 4) at every step of traj as a list of floats, the
    # spec of K_i = M_i^2 X / (S_i X + r), rescaled by 1/S_i top and bottom
    # so the coefficients stay bounded, and the sizes of its inputs (see
    # _at), kept in traj.tables under key = ("gain", p0, alpha, r, n), the
    # key the entry probed, and returned; a p0 or r that is not finite is
    # refused first
    _, p0, alpha, r, n = key
    _check_finite(("p0", p0), ("obs_variance", r))
    spec = GammaRatioSpec(a=traj.array("M2_over_S"), b=0.0, c=1.0,
                          d=r * traj.array("inv_S"), alpha=alpha, p=float(p0))
    # the fourth-moment form cancels or overflows at large r/(S_i p0), and
    # po_gain_fourth refuses what it gives there; no numpy warning is printed
    with np.errstate(all="ignore"):
        moments = (ratio_mean(spec) if n == 1 else ratio_fourth_moment(spec)).tolist()
    # once r/S_i underflows to 0, K_i = q_i X/(X + 0) is q_i to double
    # precision; a Python float ** rounds as the scalar q_i ** n does
    for i in np.flatnonzero(spec.d == 0.0).tolist():
        moments[i] = traj.M2_over_S[i] ** n

    inv_s = traj.inv_S  # not traj, which holds the table

    def sizes(i):
        return ("p0", p0), ("obs_variance", r * inv_s[i])

    return traj.tables.setdefault(key, (moments, spec, sizes))


def po_gain_mean(traj, p0, alpha, r, i):
    """E[K_i], the mean of the propagated gain, exact for alpha > 1."""
    i, key = traj.check_step(i), ("gain", p0, float(alpha), float(r), 1)
    moments, spec, sizes = traj.tables.get(key) or _gain_table(traj, key)
    v = moments[i]
    return v if v == v else _at(traj, i, moments, spec, (), "K", 1, sizes)


def _refuse_gain_fourth(traj, i, r, moments, spec):
    # raises for moments[i], the E[K_i^4] table cell at a step check_step
    # passed, that is negative or not finite (see po_gain_fourth): _at
    # refuses a NaN cell and returns any other, which is named here
    k4 = _at(traj, i, moments, spec, (), "K", 4)
    p4 = (spec.p * spec.p) * (spec.p * spec.p)
    w = r * traj.inv_S[i] / spec.p
    if not 0.0 < p4 < math.inf:
        param, why = "p0", "it divides by p0^4, which is %g in double precision" % p4
    else:
        param = "obs_variance" if w >= 1.0 else "p0"
        why = "it cancels or overflows at r/(S_i p0) = %g" % w
    raise InputError(param, "step %d: the closed form of E[K^4] gives %r, which no "
                            "fourth moment is: %s" % (i, k4, why))


def po_gain_fourth(traj, p0, alpha, r, i):
    """E[K_i^4], the fourth moment of the propagated gain, exact for alpha > 4.

    Raises InputError where the closed form gives a negative or non-finite
    value, which no fourth moment is.  The form divides by p0^4, so it fails
    once p0^4 underflows to 0 or overflows (p0 below about 1e-81 or above
    about 1e77), and the error names "p0"; it cancels once w = r/(S_i p0) is
    large (w = 1e3 at alpha 5 already gives E[K^4] < 0) and overflows in
    (alpha r/S_i)^3 at extreme r, and the error names "obs_variance" for
    w >= 1, else "p0".
    """
    i, alpha, r = traj.check_step(i), float(alpha), float(r)
    key = ("gain", p0, alpha, r, 4)
    moments, spec, _ = traj.tables.get(key) or _gain_table(traj, key)
    k4 = moments[i]
    if not 0.0 <= k4 < math.inf:
        _refuse_gain_fourth(traj, i, r, moments, spec)
    return k4


def po_variance_penalty(traj, p0, alpha, r, i):
    """Extra analysis-variance term E[K_i^4] r^2 / alpha contributed by
    perturbing observations with sampled variance R ~ Gamma(alpha, r/alpha).
    Exact for alpha > 4; raises po_gain_fourth's InputError."""
    i, alpha, r = traj.check_step(i), float(alpha), float(r)
    key = ("gain", p0, alpha, r, 4)
    moments, spec, _ = traj.tables.get(key) or _gain_table(traj, key)
    k4 = moments[i]
    if not 0.0 <= k4 < math.inf:
        _refuse_gain_fourth(traj, i, r, moments, spec)
    return k4 * r * r / alpha


def po_mean_identity_check(traj, p0, alpha, r, i, replicates, spec: RngSpec):
    """SampleMoments of P, of the product of the centred rK and K^2 (R - r),
    and of R - r, at step i from draws X ~ Gamma(alpha, p0/alpha), then
    R ~ Gamma(alpha, r/alpha), of one stream: per replicate the gain
    K = (M_i^2/S_i) X / (X + r/S_i) and P = rK + K^2 (R - r).  No closed
    form: the caller holds P's mean to r E[K] (po_gain_mean), the product's
    mean (the covariance) to 0, and E[(R - r)^2], the mean2 of R - r, to
    r^2/alpha.

    It reads the ledger at step i and no closed-form table.  Raises
    InputError naming "p0" or "obs_variance" when a draw of X or of R is not
    a finite double, IndexError for a step outside [0, n_steps], and
    ValueError for a replicate count check_replicates refuses.
    """
    i, n = traj.check_step(i), check_replicates(replicates)
    gen = spec.generator()
    alpha, r = float(alpha), float(r)
    x = gen.gamma(alpha, p0 / alpha, n)
    rr = gen.gamma(alpha, r / alpha, n)
    _check_draws(x, "p0", p0, i)
    _check_draws(rr, "obs_variance", r, i)
    u, g = r * traj.inv_S[i], traj.M2_over_S[i]

    def r_and_p(lo, v):
        # e = R - r, then P = a + b of a = r * k and b = k * k * e, where
        # k = g * x / (x + u): a replaces X and b replaces R
        xs, rs = x[lo:lo + len(v[0])], rr[lo:lo + len(v[0])]
        np.subtract(rs, r, out=v[0])
        np.add(xs, u, out=v[1])
        xs *= g
        xs /= v[1]
        np.multiply(xs, xs, out=v[1])
        np.multiply(v[1], v[0], out=rs)
        xs *= r
        np.add(xs, rs, out=v[2])

    def a_and_b(lo, v):
        v[0], v[2] = x[lo:lo + len(v[0])], rr[lo:lo + len(v[0])]

    def centred_product(lo, v):
        np.subtract(x[lo:lo + len(v[0])], a_mean, out=v[0])
        np.subtract(rr[lo:lo + len(v[0])], b_mean, out=v[1])
        v[0] *= v[1]

    r2, p = _stream(n, 2, r_and_p)
    a_mean, b_mean = _stream(n, 2, a_and_b, means_only=True)
    return p, _stream(n, 1, centred_product)[0], r2
