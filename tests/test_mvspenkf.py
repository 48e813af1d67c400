import numpy as np
import pytest

from filterlab import (
    DiagonalizableModel,
    EnsembleState,
    RngSpec,
    inflation_schedule,
    mv_inflation_schedule,
    mv_spenkf_run,
    skf_closed_form,
    spenkf_run,
)
from filterlab.propagators import ModelSequence, build_trajectory


def demo_model(seed=42, n=3, steps=12):
    rng = np.random.default_rng(seed)
    Z = np.eye(n) + rng.uniform(-0.3, 0.3, (n, n))
    mult = rng.uniform(0.6, 1.6, (steps, n)) * rng.choice([-1.0, 1.0],
                                                          (steps, n))
    return DiagonalizableModel(Z=Z, multipliers=mult,
                               p0_diag=rng.uniform(0.5, 2.0, n),
                               r_diag=rng.uniform(0.5, 2.0, n))


def diag_mask(a):
    return np.diag(np.diag(a))


def model_matrix(model, i):
    """The step-i model matrix Z diag(m_i) Z^(-1)."""
    return model.Z @ np.diag(model.multipliers[i]) @ np.linalg.inv(model.Z)


def matrix_filter_replay(result):
    """Matrix-form square-root filter in the shared basis with diagonal
    (Schur-identity) masking, replaying the run's stored randomness."""
    model = result.model
    n, nn = result.initial_anomalies.shape
    A = result.initial_anomalies.copy()
    mean = np.array([t.truth[0] for t in result.trajectories])
    obs = np.array([t.observations for t in result.trajectories])
    R = np.diag(model.r_diag)
    means = []
    variances = []
    for i in range(model.n_steps + 1):
        if i > 0:
            D = np.diag(model.multipliers[i - 1])
            A = D @ A
            mean = D @ mean
        Pf = diag_mask(A @ A.T) / nn
        K = Pf @ np.linalg.inv(Pf + R)
        mean = mean + K @ (obs[:, i] - mean)
        Pa = (np.eye(n) - K) @ Pf
        A = np.sqrt(np.diag(Pa) / np.diag(Pf))[:, None] * A
        means.append(mean.copy())
        variances.append(np.diag(Pa).copy())
    return np.array(means), np.array(variances)


def test_model_validation():
    with pytest.raises(ValueError, match="square"):
        DiagonalizableModel(Z=np.ones((2, 3)), multipliers=np.ones((2, 3)),
                            p0_diag=np.ones(3), r_diag=np.ones(3))
    with pytest.raises(ValueError, match="shape"):
        DiagonalizableModel(Z=np.eye(3), multipliers=np.ones((2, 2)),
                            p0_diag=np.ones(3), r_diag=np.ones(3))
    with pytest.raises(ValueError, match="nonzero"):
        DiagonalizableModel(Z=np.eye(2), multipliers=np.array([[1.0, 0.0]]),
                            p0_diag=np.ones(2), r_diag=np.ones(2))
    with pytest.raises(ValueError, match="positive"):
        DiagonalizableModel(Z=np.eye(2), multipliers=np.ones((3, 2)),
                            p0_diag=np.array([1.0, -1.0]), r_diag=np.ones(2))
    with pytest.raises(ValueError, match="singular"):
        DiagonalizableModel(Z=np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]]),
                            multipliers=np.ones((3, 2)),
                            p0_diag=np.ones(2), r_diag=np.ones(2))


def test_conjugation_identity():
    model = demo_model()
    Zi = np.linalg.inv(model.Z)
    prod = np.eye(model.dim)
    for i in range(model.n_steps):
        prod = model_matrix(model, i) @ prod
        want = model.Z @ np.diag(np.prod(model.multipliers[: i + 1], axis=0)) @ Zi
        np.testing.assert_allclose(prod, want, rtol=1e-10, atol=1e-12)


def test_identity_basis_equals_scalar_runs():
    n, nn, steps = 3, 8, 10
    rng_model = np.random.default_rng(7)
    model = DiagonalizableModel(
        Z=np.eye(n),
        multipliers=rng_model.uniform(0.7, 1.4, (steps, n)),
        p0_diag=np.array([1.0, 0.5, 2.0]),
        r_diag=np.array([1.0, 1.0, 0.7]),
    )
    x0 = np.array([1.0, -0.5, 0.2])
    spec = RngSpec(99, 0)
    result = mv_spenkf_run(model, x0, nn, spec)
    for j in range(n):
        traj = build_trajectory(ModelSequence(model.multipliers[:, j]),
                                x0[j], model.r_diag[j], spec.stream(2 * j))
        a0 = result.initial_anomalies[j]
        init = EnsembleState(step=0, phase="forecast", mean=x0[j],
                             anomalies=a0,
                             sampled_var=float(np.dot(a0, a0)) / nn)
        states = spenkf_run(traj, init)
        np.testing.assert_allclose(result.means_basis[:, j],
                                   [s.mean for s in states], rtol=1e-12)
        np.testing.assert_allclose(result.variances_basis[:, j],
                                   [s.sampled_var for s in states],
                                   rtol=1e-12)
    # identity basis: original coordinates coincide with basis coordinates
    np.testing.assert_allclose(result.means, result.means_basis, rtol=1e-12)


def test_reduction_matches_matrix_filter():
    # dual path: component-wise scalar runs vs the masked matrix-form
    # filter replaying identical randomness, mapped through Z
    for seed in (1, 2, 3):
        model = demo_model(seed=seed)
        x0 = np.random.default_rng(seed + 100).uniform(-1, 1, model.dim)
        result = mv_spenkf_run(model, x0, 8, RngSpec(seed, 4))
        means_b, vars_b = matrix_filter_replay(result)
        np.testing.assert_allclose(result.means_basis, means_b, rtol=1e-10,
                                   atol=1e-12)
        np.testing.assert_allclose(result.variances_basis, vars_b,
                                   rtol=1e-10)
        np.testing.assert_allclose(result.means, means_b @ model.Z.T,
                                   rtol=1e-10, atol=1e-12)


def test_offdiagonal_sample_covariance_nonzero():
    # finite N without the mask: off-diagonal sampled covariances sit at
    # O(p0/sqrt(N)), not zero - the motivation for masking
    model = demo_model(seed=11)
    result = mv_spenkf_run(model, np.zeros(model.dim), 8, RngSpec(11, 0))
    A = result.initial_anomalies
    cov = A @ A.T / A.shape[1]
    off = cov[~np.eye(model.dim, dtype=bool)]
    assert np.all(np.abs(off) > 1e-6)


def test_mask_idempotent():
    a = np.random.default_rng(0).normal(size=(4, 4))
    np.testing.assert_array_equal(diag_mask(diag_mask(a)), diag_mask(a))


def test_basis_observation_noise_is_diagonal():
    # per-component innovations are independent N(0, r_j) across components
    n, steps = 3, 4000
    model = DiagonalizableModel(
        Z=np.eye(n) + 0.2 * np.random.default_rng(5).normal(size=(n, n)),
        multipliers=np.ones((steps, n)),
        p0_diag=np.ones(n),
        r_diag=np.array([1.0, 2.0, 0.5]),
    )
    result = mv_spenkf_run(model, np.zeros(n), 8, RngSpec(5, 0))
    innov = np.array([t.observations - t.truth for t in result.trajectories])
    cov = np.cov(innov)
    se = 1.0 / np.sqrt(steps)
    for j in range(n):
        assert abs(cov[j, j] - model.r_diag[j]) \
            < 4.0 * se * 1.5 * model.r_diag[j]
        for k in range(j):
            assert abs(cov[j, k]) < 4.0 * se * np.sqrt(
                model.r_diag[j] * model.r_diag[k])


def test_schedule_reduces_to_scalar():
    model = DiagonalizableModel(Z=np.array([[1.0]]),
                                multipliers=np.ones((6, 1)) * 1.1,
                                p0_diag=np.array([0.9]),
                                r_diag=np.array([1.2]))
    result = mv_spenkf_run(model, np.array([0.3]), 8, RngSpec(13, 0))
    scheds = mv_inflation_schedule(result)
    want = inflation_schedule(result.trajectories[0], 4.0, 0.9,
                              result.trajectories[0].truth[0])
    np.testing.assert_allclose(scheds[0].theta, want.theta, rtol=0)
    np.testing.assert_allclose(scheds[0].phi, want.phi, rtol=0)
    np.testing.assert_allclose(scheds[0].psi, want.psi, rtol=0)


def test_equal_components_share_variance_schedule():
    # theta/phi depend only on (alpha, p0, r, S): equal components agree;
    # psi also needs the realized observations, so it may differ by stream
    n = 2
    model = DiagonalizableModel(Z=np.eye(n),
                                multipliers=np.ones((5, n)) * 0.9,
                                p0_diag=np.ones(n), r_diag=np.ones(n))
    result = mv_spenkf_run(model, np.zeros(n), 8, RngSpec(21, 0))
    scheds = mv_inflation_schedule(result)
    np.testing.assert_allclose(scheds[0].theta, scheds[1].theta, rtol=1e-14)
    np.testing.assert_allclose(scheds[0].phi, scheds[1].phi, rtol=1e-14)


def test_inflated_run_matches_vector_filter_in_expectation():
    # per-component gamma surrogate for the one-shot inflated analysis mean,
    # mapped to original coordinates, vs the exact vector filter
    model = demo_model(seed=31, n=2, steps=8)
    x0 = np.array([0.4, -0.8])
    result = mv_spenkf_run(model, x0, 8, RngSpec(31, 0))
    scheds = mv_inflation_schedule(result)
    rng = np.random.default_rng(31)
    reps = 200_000
    i = 8
    mean_b = np.empty(2)
    se_b = np.empty(2)
    exact_b = np.empty(2)
    for j in range(2):
        traj = result.trajectories[j]
        p0 = model.p0_diag[j]
        th = scheds[j].theta[i]
        u = traj.obs_variance * traj.inv_S[i]
        x0b = traj.truth[0]
        phat = rng.gamma(4.0, p0 / 4.0, reps)
        mbs = traj.MB_over_S[i]
        xa = ((th * phat * mbs + traj.M_over_S[i] * model.r_diag[j] * x0b)
              / (th * phat + u))
        mean_b[j] = np.mean(xa)
        se_b[j] = np.std(xa) / np.sqrt(reps)
        exact_b[j] = skf_closed_form(traj, x0b, p0, i).mean_analysis
    assert np.all(np.abs(mean_b - exact_b) < 4.0 * se_b)
    # map to original coordinates: linear, so the SE bound transfers
    got = model.Z @ mean_b
    want = model.Z @ exact_b
    bound = 4.0 * np.abs(model.Z) @ se_b
    assert np.all(np.abs(got - want) <= bound)
