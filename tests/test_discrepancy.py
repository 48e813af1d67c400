import math
import re
import tracemalloc

import numpy as np
import pytest

from filterlab import (
    InputError,
    PerturbedInputs,
    RngSpec,
    expected_dp,
    expected_dx,
    mc_discrepancy_moments,
    po_mean_identity_check,
    po_variance_penalty,
    second_moment_dp,
    second_moment_dx,
    skf_closed_form,
    skf_error_moments,
)
from filterlab import discrepancy as dsc
from filterlab.discrepancy import sample_moments
from conftest import MC_RTOL, make_trajectory, reference_mean_se, reference_var_se


def base_inputs(**kw):
    args = dict(p0=1.0, x0=0.0, p_tilde0=1.0, x_tilde0=0.0, alpha=4.0, r=1.0)
    args.update(kw)
    return PerturbedInputs(**args)


def test_inputs_validation():
    with pytest.raises(ValueError, match="positive"):
        base_inputs(p0=0.0)
    with pytest.raises(ValueError, match="positive"):
        base_inputs(p_tilde0=-1.0)
    with pytest.raises(ValueError, match="alpha"):
        base_inputs(alpha=1.0)


def test_moments_match_monte_carlo():
    # independent oracle: library gamma draws through both filters' closed
    # analysis forms
    for seed, steps, alpha in ((7, 10, 4.0), (8, 25, 3.0), (9, 40, 10.0)):
        traj = make_trajectory(seed, steps)
        inp = base_inputs(alpha=alpha, p_tilde0=1.4, x_tilde0=0.3, x0=0.1)
        i = steps // 2
        dp, dx = mc_discrepancy_moments(traj, inp, i, 400_000, RngSpec(seed, 2))
        assert abs(dp.mean - expected_dp(traj, inp, i)) < 4 * dp.mean_se
        assert abs(dp.mean2 - second_moment_dp(traj, inp, i)) < 4 * dp.mean2_se
        assert abs(dx.mean - expected_dx(traj, inp, i)) < 4 * dx.mean_se
        assert abs(dx.mean2 - second_moment_dx(traj, inp, i)) < 4 * dx.mean2_se


@pytest.mark.parametrize("n", [100_000, 300_000])
def test_mc_moments_match_reference_formulas(n):
    # the same draws through the kernel's first expressions and numpy's own
    # mean/std/var: every field within MC_RTOL
    traj = make_trajectory(7, 20)
    inp = base_inputs(alpha=4.0, p_tilde0=1.4, x_tilde0=0.3, x0=0.1)
    i, spec = 12, RngSpec(7, 12)
    dp_mc, dx_mc = mc_discrepancy_moments(traj, inp, i, n, spec)
    x = spec.generator().gamma(inp.alpha, inp.p_tilde0 / inp.alpha, n)
    u = inp.r * traj.inv_S[i]
    m2s, ms, mbs, r = traj.M2_over_S[i], traj.M_over_S[i], traj.MB_over_S[i], inp.r
    dp = r * x * m2s / (x + u) - r * inp.p0 * m2s / (inp.p0 + u)
    dx = ((x * mbs + ms * r * inp.x_tilde0) / (x + u)
          - (inp.p0 * mbs + ms * r * inp.x0) / (inp.p0 + u))
    want = (reference_mean_se(dp) + reference_mean_se(dp * dp) + reference_var_se(dp)
            + reference_mean_se(dx) + reference_mean_se(dx * dx) + reference_var_se(dx))
    assert (*dp_mc[:6], *dx_mc[:6]) == pytest.approx(want, rel=MC_RTOL, abs=0.0)
    assert (dp_mc.constant, dx_mc.constant) == (False, False)


@pytest.mark.parametrize("n", [100_000, 300_000])
def test_po_report_matches_reference_formulas(n):
    traj = make_trajectory(8, 20)
    p0, alpha, r, i, spec = 1.3, 10.0, 2.0, 9, RngSpec(8, 9)
    p, cross, r2 = po_mean_identity_check(traj, p0, alpha, r, i, n, spec)
    gen = spec.generator()
    x = gen.gamma(alpha, p0 / alpha, n)
    rr = gen.gamma(alpha, r / alpha, n)
    k = traj.M2_over_S[i] * x / (x + r * traj.inv_S[i])
    a_term = r * k
    b_term = k * k * (rr - r)
    prod = (a_term - np.mean(a_term)) * (b_term - np.mean(b_term))
    want = (reference_mean_se(r * k + k * k * (rr - r)) + reference_mean_se(prod)
            + reference_mean_se((rr - r) ** 2))
    assert (*p[:2], *cross[:2], *r2[2:4]) == pytest.approx(want, rel=MC_RTOL, abs=0.0)
    assert (p.constant, cross.constant, r2.constant) == (False, False, False)


def _bits(m):
    return [x.hex() for x in m[:-1]] + [m.constant]


def test_power_sums_do_not_depend_on_the_block_size(monkeypatch):
    # two block sizes that are multiples of _W, and the whole sample as one
    # block: every addition happens in replicate order within its column,
    # in every sample of every kernel
    v = np.random.default_rng(3).gamma(4.0, 0.25, 5 * 512 + 7)
    n = len(v)
    traj = make_trajectory(7, 20)
    inp = base_inputs(alpha=4.0, p_tilde0=1.4, x_tilde0=0.3, x0=0.1)
    got = []
    for block in (2 * dsc._W, 4 * dsc._W, 1 << 20):
        monkeypatch.setattr(dsc, "_BLOCK", block)
        samples = [sample_moments(v),
                   *mc_discrepancy_moments(traj, inp, 12, n, RngSpec(7, 12)),
                   *po_mean_identity_check(traj, 1.3, 10.0, 2.0, 9, n, RngSpec(8, 9)),
                   skf_error_moments(traj, 0.4, 1.3, 12, n, RngSpec(31, 3))]
        got.append([_bits(m) for m in samples])
    assert got[0] == got[1] == got[2]


def test_a_means_only_pass_gives_the_means_of_a_full_pass(monkeypatch):
    # folding the deviations alone keeps their shift and their columns, so
    # each mean has the bits the four-power fold gives it, at any block size
    rng = np.random.default_rng(9)
    v = np.stack([rng.gamma(4.0, 0.25, 5 * 512 + 7), rng.normal(3.0, 1e-3, 5 * 512 + 7)])
    n = v.shape[1]

    def fill(lo, w):
        w[0], w[2] = v[0, lo:lo + len(w[0])], v[1, lo:lo + len(w[0])]

    for block in (2 * dsc._W, 1 << 20):
        monkeypatch.setattr(dsc, "_BLOCK", block)
        full = [m.mean.hex() for m in dsc._stream(n, 2, fill)]
        assert [x.hex() for x in dsc._stream(n, 2, fill, means_only=True)] == full


def test_a_non_finite_power_sum_is_nan_not_an_exception():
    # d^3 is +inf in column 1 and -inf in column 2: math.fsum would raise
    v = np.zeros(1000)
    v[1], v[2] = 1e200, -1e200
    with np.errstate(over="ignore", invalid="ignore"):
        m = sample_moments(v)
    assert (m.mean, m.var, m.mean2) == (0.0, math.inf, math.inf)
    assert math.isnan(m.var_se) and math.isnan(m.mean2_se)


def _peak_bytes(call):
    call()  # warm: the trajectory's ratios and every first-call allocation
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n", [100_000, 300_000])
@pytest.mark.parametrize("kernel", ["mc", "po"])
def test_monte_carlo_kernels_peak_at_their_live_buffers(kernel, n):
    # mc_discrepancy_moments streams through four block buffers at any n;
    # po_mean_identity_check keeps its X and R draws, two replicate-sized
    # arrays, and streams everything it forms from them through at most
    # four block buffers
    traj = make_trajectory(7, 20)
    if kernel == "mc":
        inp = base_inputs(alpha=4.0, p_tilde0=1.4, x_tilde0=0.3, x0=0.1)
        peak = _peak_bytes(lambda: mc_discrepancy_moments(traj, inp, 12, n, RngSpec(7, 12)))
        bound = 4 * 8 * (dsc._BLOCK + dsc._W)
    else:
        peak = _peak_bytes(lambda: po_mean_identity_check(traj, 1.3, 10.0, 2.0, 9, n,
                                                          RngSpec(8, 9)))
        bound = 2 * 8 * n + sum(a.nbytes for a in dsc._buffers(4))
    assert peak <= bound + 64 * 1024


class _NoDraws:
    def generator(self):
        raise AssertionError("a refused replicate count drew")


@pytest.mark.parametrize("replicates", [1, 0, -3, 2.7])
@pytest.mark.parametrize("kernel", ["mc", "po", "skf"])
def test_a_replicate_count_below_two_or_not_an_integer_is_refused(kernel, replicates):
    # one count has no variance, and 2.7 must not run 2: each kernel
    # refuses before it asks its spec for a generator
    traj = make_trajectory(7, 20)
    call = {"mc": lambda: mc_discrepancy_moments(traj, base_inputs(), 12, replicates,
                                                 _NoDraws()),
            "po": lambda: po_mean_identity_check(traj, 1.3, 10.0, 2.0, 9, replicates,
                                                 _NoDraws()),
            "skf": lambda: skf_error_moments(traj, 0.4, 1.3, 12, replicates, _NoDraws())}
    with pytest.raises(ValueError, match=r"^replicates must be an integer >= 2, not %s$"
                       % re.escape(repr(replicates))):
        call[kernel]()


@pytest.mark.parametrize("p0,r,param", [(1e308, 2.0, "p0"), (1.0, 1e308, "obs_variance")])
def test_po_refuses_a_gamma_draw_beyond_double_range(p0, r, param):
    # at a mean of 1e308 some of 2000 draws of X or R are inf: the kernel
    # names the input behind them, before it forms any gain
    traj = make_trajectory(7, 20)
    with pytest.raises(InputError) as exc:
        po_mean_identity_check(traj, p0, 5.0, r, 3, 2000, RngSpec(1, 3))
    assert exc.value.param == param
    assert exc.value.detail == "step 3: a gamma draw of mean 1e+308 is not a finite double"


def test_constant_sample_is_told_from_an_underflowed_variance(monkeypatch):
    for block in (dsc._BLOCK, 512):
        # m = 2: r/S_39 is about 1e-23 of X, so X/(X + u) rounds to 1 and
        # every replicate of dx (and dx^2) is the same double, in one block
        # or over four
        monkeypatch.setattr(dsc, "_BLOCK", block)
        dp, dx = mc_discrepancy_moments(make_trajectory(1, 40, kind="constant", m=2.0),
                                        base_inputs(), 39, 2000, RngSpec(1, 39))
        assert (dx.mean_se, dx.mean2_se) == (0.0, 0.0)
        assert (dp.constant, dx.constant) == (False, True)
        # m = 0.3: dp^2 decays until its squared deviations underflow, though
        # its replicates differ
        dp, dx = mc_discrepancy_moments(make_trajectory(1, 80, kind="constant", m=0.3),
                                        base_inputs(alpha=8.0), 77, 2000, RngSpec(1, 77))
        assert dp.mean2_se == 0.0
        assert (dp.constant, dx.constant) == (False, False)


def test_variance_nonnegative():
    rng = np.random.default_rng(55)
    traj = make_trajectory(55, 30)
    for _ in range(50):
        inp = base_inputs(alpha=rng.uniform(2.5, 40.0),
                          p0=rng.uniform(0.2, 3.0),
                          p_tilde0=rng.uniform(0.2, 3.0),
                          x0=rng.uniform(-1, 1), x_tilde0=rng.uniform(-1, 1))
        i = int(rng.integers(0, 31))
        vp = second_moment_dp(traj, inp, i) - expected_dp(traj, inp, i) ** 2
        vx = second_moment_dx(traj, inp, i) - expected_dx(traj, inp, i) ** 2
        assert vp >= -1e-12
        assert vx >= -1e-12


def test_dp_vanishes_at_large_alpha():
    traj = make_trajectory(3, 10)
    i = 5
    inp = base_inputs(alpha=1e6)
    pa = skf_closed_form(traj, 0.0, 1.0, i).var_analysis
    assert abs(expected_dp(traj, inp, i)) <= 1e-4 * pa
    # matched means: dx also vanishes
    assert abs(expected_dx(traj, inp, i)) <= 1e-4 * max(abs(pa), 1.0)


def test_discrepancy_decays_for_stable_models():
    # |m| <= 1: both discrepancy moments sink below 1e-3 * p0^2 by i = 200
    for m in (1.0, 0.8, -0.95):
        traj = make_trajectory(41, 200, kind="constant", m=m)
        inp = base_inputs(p_tilde0=1.5, alpha=4.0)
        assert abs(expected_dp(traj, inp, 200)) < 1e-3
        assert second_moment_dp(traj, inp, 200) < 1e-3


def test_dx_exceedance_probability_decays():
    # P(|dx_i| > eps) shrinks with i for a constant model
    traj = make_trajectory(62, 200, kind="constant", m=1.0)
    inp = base_inputs(p_tilde0=2.0, x_tilde0=0.5, alpha=3.0)
    rng = np.random.default_rng(62)
    x = rng.gamma(inp.alpha, inp.p_tilde0 / inp.alpha, 200_000)
    probs = []
    for i in (2, 20, 200):
        u = inp.r * traj.inv_S[i]
        mbs = traj.MB_over_S[i]
        ms = traj.M_over_S[i]
        xa_exact = (inp.p0 * mbs + ms * inp.r * inp.x0) / (inp.p0 + u)
        xa_hat = (x * mbs + ms * inp.r * inp.x_tilde0) / (x + u)
        probs.append(np.mean(np.abs(xa_hat - xa_exact) > 0.05))
    assert probs[0] > probs[1] > probs[2]


def test_dx_degenerate_branch():
    # when B_i/S_i equals x_tilde0 the ratio collapses to a constant
    traj = make_trajectory(5, 8)
    i = 4
    inp = base_inputs(x_tilde0=traj.B_over_S[i], x0=-0.7)
    const = expected_dx(traj, inp, i)
    assert second_moment_dx(traj, inp, i) == pytest.approx(const * const,
                                                           rel=1e-14)
    u = inp.r * traj.inv_S[i]
    want = inp.r * traj.M_over_S[i] * (traj.B_over_S[i] - inp.x0) \
        / (inp.p0 + u)
    assert const == pytest.approx(want, rel=1e-14)


@pytest.mark.parametrize("seed", range(5))
def test_dx_degenerate_at_every_step(seed):
    # B_i/S_i == x_tilde0 must be caught directly: the rounded a*d and b*c
    # of the spec need not come out equal
    traj = make_trajectory(seed, 50)
    for i in range(traj.n_steps + 1):
        inp = base_inputs(x_tilde0=traj.B_over_S[i], x0=-0.7)
        const = expected_dx(traj, inp, i)
        assert second_moment_dx(traj, inp, i) == const * const


def test_specs_are_well_scaled_for_unstable_models():
    # |m| up to 2 over 300 steps: raw M, S overflow but the assembled
    # ratio-spec coefficients stay finite and the moments evaluate
    traj = make_trajectory(77, 300, low=1.2, high=2.0, signed=False)
    inp = base_inputs(alpha=5.0, p_tilde0=1.3)
    sp = dsc._moment_table(traj, inp)[4]
    for i in (150, 300):
        for v in (sp.a[0, i], sp.b[0, i], sp.c[i], sp.d[i]):
            assert math.isfinite(v)
        assert math.isfinite(expected_dp(traj, inp, i))
        assert math.isfinite(second_moment_dp(traj, inp, i))


def test_po_penalty_examples():
    traj = make_trajectory(1, 10, kind="constant", m=1.0)
    # E[(R-r)^2] = r^2/alpha exactly: r=2, alpha=4 -> 1.0
    p, cross, r2 = po_mean_identity_check(traj, 1.0, 4.0, 2.0, 5, 100_000,
                                          RngSpec(10, 0))
    assert abs(r2.mean2 - 1.0) < 4.0 * r2.mean2_se
    # mean identity and zero covariance
    mean_rk = 2.0 * dsc.po_gain_mean(traj, 1.0, 4.0, 2.0, 5)
    assert abs(p.mean - mean_rk) < 4.0 * p.mean_se
    assert abs(cross.mean) < 4.0 * cross.mean_se
    # alpha = 4 sits on the fourth-moment order boundary
    with pytest.raises(ValueError, match="fourth moment needs alpha > 4"):
        po_variance_penalty(traj, 1.0, 4.0, 2.0, 5)
    assert po_variance_penalty(traj, 1.0, 6.0, 2.0, 5) > 0.0


def test_po_penalty_matches_monte_carlo():
    traj = make_trajectory(2, 12, kind="constant", m=1.0)
    p0, alpha, r, i = 1.0, 6.0, 1.0, 4
    rng = np.random.default_rng(17)
    n = 1_000_000
    x = rng.gamma(alpha, p0 / alpha, n)
    rr = rng.gamma(alpha, r / alpha, n)
    k = traj.M2_over_S[i] * x / (x + r * traj.inv_S[i])
    term = k * k * (rr - r)
    est = np.var(term)
    se = math.sqrt(np.var((term - np.mean(term)) ** 2) / n)
    want = po_variance_penalty(traj, p0, alpha, r, i)
    # Var(K^2 (R-r)) = E[K^4] r^2/alpha since E[R-r] = 0 and K, R independent
    assert abs(est - want) < 4.0 * se


def test_po_penalty_shrinks_with_alpha():
    traj = make_trajectory(4, 10, kind="constant", m=1.0)
    p10 = po_variance_penalty(traj, 1.0, 10.0, 1.0, 5)
    p1000 = po_variance_penalty(traj, 1.0, 1000.0, 1.0, 5)
    assert p10 / p1000 > 50.0


def test_po_degenerate_noise_is_exact():
    # r_hat identically r: the perturbation term is exactly zero and the
    # update reduces to r*K per draw
    traj = make_trajectory(6, 8, kind="constant", m=1.0)
    x = np.random.default_rng(3).gamma(4.0, 0.25, 1000)
    k = traj.M2_over_S[3] * x / (x + traj.inv_S[3])
    p_var = 1.0 * k + k * k * (1.0 - 1.0)
    np.testing.assert_array_equal(p_var, k)
