import math
import os
import re
from dataclasses import dataclass

import numpy as np
import pytest

from fastslow import (
    Grid,
    ModelParams,
    SpectralField,
    build_grid,
    critical_map_u_of_v,
    fit_order,
    lipschitz_estimates,
    lyapunov_perron_sweep,
    mode_spectrum,
    sobolev_norm,
    splitting_parameters,
    theoretical_constants,
    validate_assumptions,
)
from fastslow.errors import (
    ConfigurationError,
    ContractionError,
    HorizonError,
    SplittingError,
)
from fastslow import _parallel, galerkin_manifold
from fastslow.galerkin_manifold import (
    _SCAN_BLOCK,
    _convolve_forward,
    _propagate_slow_backward,
    _scan_kernel,
    _source_block_rows,
    _sources,
)
from fastslow.integrator import _full_node_map, _phi
from fastslow.spectral_core import _MATRIX_MAX_N, _dealiased
from oracles import lipschitz_ratio_pairwise, reflected


def linear_params(eps=0.01, delta=0.001, d=1.0):
    return ModelParams(d=d, delta=delta, eps=eps, model_kind="linear")


def small_nonlinear(eps=1e-3):
    # competition coefficients scaled so the conservative Lipschitz budget
    # passes the gap condition at k0 = 5 (see test_gap_passes_nonlinear)
    base = ModelParams(d=1.0, delta=eps**1.5, eps=eps, kappa=1.0, a=0.05, b=0.05, c=0.05)
    rep = theoretical_constants(base, M=0.25)
    return (
        ModelParams(
            d=1.0, delta=eps**1.5, eps=eps, kappa=0.5 * rep.kappa_bound,
            a=0.05, b=0.05, c=0.05,
        ),
        rep,
    )


# ---------------------------------------------------------------------------
# splitting


def test_splitting_worked_values():
    s = splitting_parameters(26.0)
    assert (s.k0, s.N_S, s.N_F, s.gap) == (5, -42.0, -45.0, 3.0)
    s = splitting_parameters(10.0)
    assert (s.k0, s.N_S, s.N_F, s.gap) == (3, -14.0, -15.0, 1.0)


def test_splitting_degenerate_gap():
    with pytest.raises(SplittingError):
        splitting_parameters(4.5)


def test_splitting_perfect_square_nudged():
    with pytest.warns(UserWarning):
        s = splitting_parameters(25.0)
    assert s.k0 == 5


def test_splitting_requires_zeta_inv_above_one():
    for bad in (0.5, np.inf, np.nan):
        with pytest.raises(ConfigurationError):
            splitting_parameters(bad)


def test_eta_value():
    s = splitting_parameters(26.0)
    # eta = -zeta_inv + (N_S + N_F)/2
    assert abs(s.eta - (-26.0 + 0.5 * (-42.0 - 45.0))) < 1e-12


# ---------------------------------------------------------------------------
# gap condition


def gap_case(eps, delta, zeta_inv=26.0, L_f=0.5, d=1.0):
    p = ModelParams(d=d, delta=delta, eps=eps, model_kind="linear")
    split = splitting_parameters(zeta_inv)
    return validate_assumptions(p, split, (L_f, 0.0, 0.0))


def test_gap_worked_case_small_eps():
    rep = gap_case(eps=0.001, delta=0.0)
    # denominator |-1 + 0.026 + 0.0435| = 0.9305
    assert abs(rep.term1 - 0.5 / 0.9305) < 1e-12
    assert rep.term2 == 0.0
    assert rep.passes
    assert rep.parameter_inequality_value < 0


def test_gap_report_holds_the_split_it_was_evaluated_for():
    # the report names the splitting it was evaluated at, not copies of its fields
    split = splitting_parameters(26.0)
    rep = validate_assumptions(linear_params(eps=0.001), split, (0.5, 0.0, 0.0))
    assert rep.split is split


def test_gap_worked_case_large_eps_fails():
    rep = gap_case(eps=0.01, delta=0.0)
    assert abs(rep.term1 - 0.5 / 0.305) < 1e-12
    assert rep.term1 > 1.0
    assert not rep.passes


def test_gap_worked_case_with_cross_diffusion():
    delta = 0.001**1.5
    rep = gap_case(eps=0.001, delta=delta)
    expected_term2 = 2.0 * (delta * 2.0 * 0.5) / (0.001 * 3.0)
    assert abs(rep.term2 - expected_term2) < 1e-12
    assert abs(rep.term2 - 0.021081851067789195) < 1e-12
    assert rep.passes


def test_gap_monotone_failure_in_delta():
    totals = []
    for delta in np.linspace(0.0, 0.02, 9):
        totals.append(gap_case(eps=0.001, delta=delta).total)
    assert all(a < b for a, b in zip(totals, totals[1:]))
    assert gap_case(eps=0.001, delta=0.02).passes is False


def test_gap_small_ratio_condition():
    # eps * zeta_inv >= (1 - L_f)/4 must fail the report even if terms are small
    rep = gap_case(eps=0.004, delta=0.0, L_f=0.9)
    assert not rep.small_ratio_ok
    assert not rep.passes


def test_gap_parameter_inequality_exactly_zero_fails_with_unbounded_term1():
    # eps = 1/32, zeta_inv = 13.75: -(1 - 0.4296875) - (-36.5)/64 == 0 exactly
    rep = gap_case(eps=1 / 32, delta=0.001, zeta_inv=13.75)
    assert rep.parameter_inequality_value == 0.0
    assert rep.term1 == math.inf and rep.total == math.inf
    assert rep.passes is False


@pytest.mark.parametrize(
    "lips", [(-5.0, 0.0, 0.0), (math.nan, 0.0, 0.0), (0.5, math.inf, 0.0), (0.5, 0.0, -1e-3)],
    ids=["negative L_f", "nan L_f", "inf L_phi", "negative L_psi"],
)
def test_gap_rejects_a_negative_or_non_finite_budget(lips):
    # L_f = -5 would pass the condition that L_f = 0.5 fails (term1 -16.39)
    # and a nan would report a row of nan
    p = ModelParams(d=1.0, delta=0.001, eps=0.01, model_kind="linear")
    with pytest.raises(ConfigurationError, match="Lipschitz budgets"):
        validate_assumptions(p, splitting_parameters(26.0), lips)


def test_gap_passes_nonlinear():
    p, consts = small_nonlinear()
    split = splitting_parameters(26.0)
    lips = lipschitz_estimates(p, 0.25, constants=consts)
    rep = validate_assumptions(p, split, lips)
    assert abs(lips[0] - 0.5) < 1e-12
    assert rep.passes


# ---------------------------------------------------------------------------
# Lyapunov-Perron


def test_lp_matches_linear_slope():
    p = linear_params(eps=0.01, delta=0.001)
    split = splitting_parameters(10.0)
    rep = validate_assumptions(p, split, lipschitz_estimates(p, 1.0))
    assert rep.passes
    v0 = np.zeros(split.k0)
    v0[1] = 1.0
    pt = lyapunov_perron_sweep([v0], p, split, n_t=2048, tol=1e-9, gap_report=rep).points[0]
    slope = mode_spectrum(p, 1).slope
    assert pt.converged
    assert abs(pt.u_coeffs[1] - slope) < 1e-6
    assert pt.contraction <= rep.total + 0.1


def test_lp_matches_slope_other_modes_and_zero_delta():
    # second slow mode, and the delta = 0 case where the slope is exactly 1/2
    p = linear_params(eps=0.005, delta=0.002)
    split = splitting_parameters(10.0)
    v0 = np.zeros(split.k0)
    v0[2] = -0.7
    # mode 2 decays 4x faster than mode 1; finer time grid for the same accuracy
    pt = lyapunov_perron_sweep([v0], p, split, n_t=4096, tol=1e-9).points[0]
    slope = mode_spectrum(p, 2).slope
    assert abs(pt.u_coeffs[2] / v0[2] - slope) < 1e-6

    p0 = linear_params(eps=0.01, delta=0.0)
    split0 = splitting_parameters(10.0)
    w0 = np.array([0.0, 1.0, 0.0])
    pt0 = lyapunov_perron_sweep([w0], p0, split0, n_t=2048, tol=1e-9).points[0]
    assert abs(pt0.u_coeffs[1] - 0.5) < 1e-6
    assert np.max(np.abs(pt0.v_fast_coeffs)) < 1e-12


def test_lp_zero_data_gives_zero_graph():
    p = linear_params()
    split = splitting_parameters(10.0)
    pt = lyapunov_perron_sweep([np.zeros(split.k0)], p, split, n_t=128, tol=1e-10).points[0]
    assert np.max(np.abs(pt.u_coeffs)) == 0.0
    assert np.max(np.abs(pt.v_fast_coeffs)) == 0.0
    # converged in the first sweep, before any ratio of two distances
    assert pt.converged and pt.iterations == 1 and math.isnan(pt.contraction)


def test_lp_horizon_error_when_explicit_t_back_too_short():
    p = linear_params()
    split = splitting_parameters(10.0)
    with pytest.raises(HorizonError):
        lyapunov_perron_sweep([np.ones(split.k0)], p, split, t_back=0.05, n_t=64, tol=1e-10)


def test_lp_sweep_horizon_error_when_explicit_t_back_too_short(monkeypatch, no_child_left):
    # the sweep checks the horizon once, in the setup its points share,
    # before any point runs or any worker is forked
    def no_point_may_run(*args):
        raise AssertionError("a graph point ran")

    monkeypatch.setattr(galerkin_manifold, "_sources", no_point_may_run)
    monkeypatch.setattr(_parallel, "_worker_count", lambda n: 2)
    p = linear_params()
    split = splitting_parameters(10.0)
    with pytest.raises(HorizonError):
        lyapunov_perron_sweep(
            [np.ones(split.k0)] * 3, p, split, t_back=0.05, n_t=64, tol=1e-10
        )
    assert no_child_left()


@pytest.mark.parametrize("fast_band", [0, -2])
def test_lp_band_without_fast_modes_rejected(fast_band):
    p = linear_params()
    split = splitting_parameters(10.0)
    needs = rf"^fast_band must be an integer >= 1, got {fast_band}$"
    with pytest.raises(ConfigurationError, match=needs):
        lyapunov_perron_sweep([np.ones(split.k0)], p, split, fast_band=fast_band)


@pytest.mark.parametrize("clip", [None, 0.01], ids=["no-clip", "clip"])
def test_lp_sweep_points_equal_separate_solves(clip):
    # the setup and work buffers shared by a graph's points keep every bit of
    # one-sample graphs, each with a setup of its own.  Without the clip the
    # quadratics diverge in the far past (ContractionError from the fourth
    # sweep on), so there the points after three sweeps are compared.
    p, _ = small_nonlinear()
    split = splitting_parameters(26.0)
    rng = np.random.default_rng(3)
    samples = [0.02 * rng.standard_normal(split.k0) for _ in range(3)]
    opts = dict(n_t=256, tol=1e-10, clip_bound=clip, max_iter=200 if clip else 3)
    graph = lyapunov_perron_sweep(samples, p, split, **opts)
    assert len(graph.points) == 3
    for v0, pt in zip(samples, graph.points):
        alone = lyapunov_perron_sweep([v0], p, split, **opts).points[0]
        assert pt.converged == alone.converged == (clip is not None)
        assert np.array_equal(pt.v_slow, alone.v_slow)
        assert np.array_equal(pt.u_coeffs, alone.u_coeffs)
        assert np.array_equal(pt.v_fast_coeffs, alone.v_fast_coeffs)
        assert (pt.iterations, pt.contraction, pt.t_back, pt.n_t) == (
            alone.iterations, alone.contraction, alone.t_back, alone.n_t
        )
    if clip is not None:  # the clip is active
        looser = lyapunov_perron_sweep([samples[0]], p, split, **{**opts, "clip_bound": 1.0})
        assert not np.array_equal(looser.points[0].u_coeffs, graph.points[0].u_coeffs)


BAD_LP_OPTIONS = [
    ("clip_bound", -1.0),  # np.clip with min > max would set every node to -1.0
    ("clip_bound", 0.0),  # and a zero bound every node to 0
    ("clip_bound", math.nan),
    ("clip_bound", math.inf),
    ("t_back", -1.0),
    ("t_back", 0.0),
    ("t_back", math.nan),
    ("t_back", math.inf),
    ("tol", 0.0),
    ("tol", 1.0),  # tol >= 1 makes the default horizon 20 eps ln(1/tol) <= 0
    ("tol", 5.0),
    ("tol", 20.0),
    ("tol", math.nan),
    ("n_t", 7),
    ("n_t", 0),
    ("n_t", 4, {"t_back": 0.05}),  # a short horizon too: still n_t's ConfigurationError
    ("max_iter", 0),  # no sweep: u = 0 would come back as a graph point
    ("max_iter", -3),
    ("n_t", 64.5),  # a float reached range() or a slice: TypeError
    ("max_iter", 2.5),
    ("fast_band", 2.5),
]
LP_OPTION_NEEDS = {
    "clip_bound": "finite and > 0",
    "t_back": "finite and > 0",
    "tol": "in (0, 1)",
    "n_t": "an integer >= 8",
    "max_iter": "an integer >= 1",
    "fast_band": "an integer >= 1",
}


@pytest.mark.parametrize(
    "case",
    BAD_LP_OPTIONS,
    ids=[f"{c[0]}={c[1]!r}{' t_back=0.05' * len(c[2:])}" for c in BAD_LP_OPTIONS],
)
def test_lp_rejects_a_bad_option_before_any_sweep(monkeypatch, case):
    # none may turn into a fake graph or an overflow
    def no_point_may_run(*args):
        raise AssertionError("a graph point ran")

    monkeypatch.setattr(galerkin_manifold, "_sources", no_point_may_run)
    name, value, *others = case
    p, _ = small_nonlinear()
    split = splitting_parameters(26.0)
    v0 = np.full(split.k0, 0.01)
    opts = {"n_t": 64, "tol": 1e-8, "clip_bound": 1.0, **dict(*others), name: value}
    needs = re.escape(LP_OPTION_NEEDS[name])
    with pytest.raises(ConfigurationError, match=rf"^{name} must be {needs}, got "):
        lyapunov_perron_sweep([v0, v0], p, split, **opts)


def test_lp_takes_numpy_integer_options():
    p = linear_params()
    split = splitting_parameters(10.0)
    v0 = np.full(split.k0, 0.3)
    opts = dict(n_t=64, max_iter=50, fast_band=4)
    want = lyapunov_perron_sweep([v0], p, split, **opts).points[0]
    numpy_opts = dict(n_t=np.int64(64), max_iter=np.int32(50), fast_band=np.int16(4))
    got = lyapunov_perron_sweep([v0], p, split, **numpy_opts).points[0]
    assert got.iterations == want.iterations and got.converged
    assert np.array_equal(got.u_coeffs, want.u_coeffs)
    assert np.array_equal(got.v_fast_coeffs, want.v_fast_coeffs)


@pytest.mark.parametrize("workers", [1, 2])
def test_lp_sweep_checks_every_sample_before_any_point(monkeypatch, workers, no_child_left):
    def no_point_may_run(*args):
        raise AssertionError("a graph point ran")

    monkeypatch.setattr(galerkin_manifold, "_sources", no_point_may_run)
    monkeypatch.setattr(_parallel, "_worker_count", lambda n: workers)
    p, _ = small_nonlinear()
    split = splitting_parameters(26.0)
    samples = [np.full(split.k0, 0.01), np.full(split.k0 + 1, 0.01)]
    with pytest.raises(ConfigurationError, match=r"expected 5 slow coefficients, got \(6,\)"):
        lyapunov_perron_sweep(samples, p, split, n_t=64, tol=1e-8, clip_bound=1.0)
    assert no_child_left()


@pytest.mark.parametrize("clip", [None, 0.01], ids=["no-clip", "clip"])
def test_lp_sweep_in_forked_workers_equals_the_sweep_in_process(
    monkeypatch, tmp_path, clip, no_child_left
):
    # the points solved in forked children, each child with its own copy of
    # the shared setup and buffers, keep every bit of the in-process sweep;
    # each sweep of a point writes down the process it ran in
    sources = galerkin_manifold._sources

    def logged(*args):
        with open(tmp_path / "pids", "a", encoding="ascii") as fh:
            fh.write(f"{os.getpid()}\n")
        return sources(*args)

    monkeypatch.setattr(galerkin_manifold, "_sources", logged)
    p, _ = small_nonlinear()
    split = splitting_parameters(26.0)
    rng = np.random.default_rng(3)
    samples = [0.02 * rng.standard_normal(split.k0) for _ in range(3)]
    opts = dict(n_t=256, tol=1e-10, clip_bound=clip, max_iter=200 if clip else 3)
    graphs, pids = {}, {}
    for workers in (1, 2, 3):
        monkeypatch.setattr(_parallel, "_worker_count", lambda n, workers=workers: workers)
        graphs[workers] = lyapunov_perron_sweep(samples, p, split, **opts)
        assert no_child_left()
        pids[workers] = set((tmp_path / "pids").read_text().split())
        (tmp_path / "pids").unlink()
    assert pids[1] == {str(os.getpid())}
    serial = graphs[1]
    assert all(pt.converged == (clip is not None) for pt in serial.points)
    for workers in (2, 3):
        # the caller is one of the workers
        assert str(os.getpid()) in pids[workers] and len(pids[workers]) <= workers
        forked = graphs[workers]
        assert forked.k0 == serial.k0 and len(forked.points) == len(serial.points)
        assert forked.lipschitz_ratio == serial.lipschitz_ratio
        for a, b in zip(serial.points, forked.points):
            assert a.grid == b.grid
            assert np.array_equal(a.v_slow, b.v_slow)
            assert np.array_equal(a.u_coeffs, b.u_coeffs)
            assert np.array_equal(a.v_fast_coeffs, b.v_fast_coeffs)
            assert (a.iterations, a.contraction, a.converged, a.t_back, a.n_t) == (
                b.iterations, b.contraction, b.converged, b.t_back, b.n_t
            )


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_lp_sweep_point_error_crosses_the_process_boundary(monkeypatch, workers, no_child_left):
    # two points fail to contract, each with its own message; the caller gets
    # the first one in list order, as in process, whichever child finished first
    p = ModelParams(d=1.0, delta=1e-4, eps=0.01, kappa=3e-5, a=1.0, b=1.0, c=1.0)
    split = splitting_parameters(10.0)
    rep = validate_assumptions(p, split, (0.5, 5.0, 5.0))
    samples = [np.array(v) for v in ([0.01, 0.0, 0.0], [0.05, 0.02, 0.0], [0.2, 0.0, 0.05])]
    opts = dict(n_t=256, tol=1e-8, gap_report=rep)
    with pytest.raises(ContractionError) as first:
        lyapunov_perron_sweep([samples[1]], p, split, **opts)
    with pytest.raises(ContractionError) as second:
        lyapunov_perron_sweep([samples[2]], p, split, **opts)
    assert str(first.value) != str(second.value)
    monkeypatch.setattr(_parallel, "_worker_count", lambda n: workers)
    with pytest.raises(ContractionError) as caught:
        lyapunov_perron_sweep(samples, p, split, **opts)
    assert type(caught.value) is ContractionError
    assert str(caught.value) == str(first.value)
    assert caught.value.gap_report == rep
    assert no_child_left()


def test_lp_default_horizon_accepted_at_tol_1e_8():
    # the default t_back = log(10/tol)/slowest leaves a tail exp(-slowest t_back)
    # that rounds just above tol/10; only an explicit t_back is checked
    p, _ = small_nonlinear()
    split = splitting_parameters(26.0)
    pt = lyapunov_perron_sweep(
        [np.full(split.k0, 0.01)], p, split, n_t=256, tol=1e-8, clip_bound=1.0
    ).points[0]
    assert pt.converged


def test_lp_graph_point_padded_from_the_band():
    # the iterate lives on the n_modes band; the graph point is N wide, with
    # u zero above the band and v_fast zero outside [k0, n_modes)
    p, consts = small_nonlinear()
    split = splitting_parameters(26.0)
    k0, n_modes = split.k0, split.k0 + 7
    pt = lyapunov_perron_sweep(
        [np.full(k0, 0.02)], p, split, fast_band=7, n_t=256, tol=1e-8, clip_bound=consts.K0
    ).points[0]
    N = pt.grid.N
    assert pt.converged and n_modes < N
    assert pt.u_coeffs.shape == pt.v_fast_coeffs.shape == (N,)
    assert np.all(pt.u_coeffs[n_modes:] == 0.0)
    assert np.all(pt.v_fast_coeffs[:k0] == 0.0)
    assert np.all(pt.v_fast_coeffs[n_modes:] == 0.0)
    assert np.any(pt.u_coeffs[:n_modes] != 0.0)
    assert np.any(pt.v_fast_coeffs[k0:n_modes] != 0.0)


# n_t as (multiple of the block rows B, offset): 8, B-1, B, B+1, 2B+3, 2048
BLOCK_CASES = [(0, 8), (1, -1), (1, 0), (1, 1), (2, 3), (0, 2048)]


@pytest.mark.parametrize("N", [64, 256])  # the matrix and the real FFT transform path
@pytest.mark.parametrize(
    "blocks, extra", BLOCK_CASES, ids=["8", "B-1", "B", "B+1", "2B+3", "2048"]
)
def test_sources_in_time_blocks_equal_one_call(monkeypatch, N, blocks, extra):
    # the blocked sources tile the time nodes once, in blocks of at most B
    # rows, and the whole equals one call over all nodes to roundoff.
    # The per-block check is a write-back check: the spy makes the same
    # call, so it shows that each block's result lands in its rows.
    assert 64 <= _MATRIX_MAX_N < 256
    p, consts = small_nonlinear()
    grid = build_grid(p.L, N)
    rows = _source_block_rows(grid)
    n_t = blocks * rows + extra
    rng = np.random.default_rng(N + n_t)
    Y = rng.standard_normal((2, n_t, 20)) * (0.8 / (1.0 + np.arange(20)))
    seen = []

    def spy(grid, coeffs, node_map):
        seen.append(coeffs.copy())
        return _dealiased(grid, coeffs, node_map)

    results = {}
    for clip in (None, consts.K0):

        def node_map(vals, clip=clip):
            if clip is not None:
                np.clip(vals, -clip, clip, out=vals)
            return _full_node_map(p, vals)

        whole = _dealiased(grid, Y, node_map)
        seen.clear()
        with monkeypatch.context() as m:
            m.setattr(galerkin_manifold, "_dealiased", spy)
            results[clip] = _sources(p, grid, Y, clip, np.empty_like(Y))
        assert results[clip].shape == Y.shape
        assert [block.shape[1] for block in seen] == [
            min(rows, n_t - i) for i in range(0, n_t, rows)
        ]
        assert np.array_equal(np.concatenate(seen, axis=1), Y)
        start = 0
        for block in seen:
            stop = start + block.shape[1]
            expected = _dealiased(grid, block, node_map)
            assert np.array_equal(results[clip][:, start:stop], expected)
            start = stop
        scale = np.max(np.abs(whole))
        assert np.max(np.abs(results[clip] - whole)) <= 1e-14 * scale
    assert not np.array_equal(results[None], results[consts.K0])  # the clip is active


@pytest.mark.parametrize("case", ["clip-0.01", "clip-K0"])
def test_lp_graph_commutes_with_the_reflection(case):
    # oracle from an exact symmetry: the reflection x -> L - x maps slow data
    # c_k to (-1)^k c_k, and the graph's u and v_F amplitudes map the same way
    # in as many sweeps.  Independent of the sources' bits: the reflected
    # data take other roundoff through the gemm products.
    p, consts = small_nonlinear()
    split = splitting_parameters(26.0)
    clip, amplitude = {"clip-0.01": (0.01, 0.02), "clip-K0": (consts.K0, 0.5)}[case]
    rng = np.random.default_rng(18)
    samples = [amplitude * rng.standard_normal(split.k0) for _ in range(2)]
    n = len(samples)
    graph = lyapunov_perron_sweep(
        samples + [reflected(v0) for v0 in samples], p, split,
        n_t=512, tol=1e-10, clip_bound=clip,
    )
    for pt, mirror in zip(graph.points[:n], graph.points[n:]):
        assert pt.converged and mirror.converged
        assert mirror.iterations == pt.iterations
        for got, ref in ((mirror.u_coeffs, pt.u_coeffs), (mirror.v_fast_coeffs, pt.v_fast_coeffs)):
            assert np.any(ref != 0.0)
            assert np.max(np.abs(got - reflected(ref))) <= 1e-13 * np.max(np.abs(ref))


def test_lp_noncontraction_raises_with_report():
    # large slow data + quadratic feedback without the cut-off diverges
    p = ModelParams(d=1.0, delta=1e-4, eps=0.01, kappa=3e-5, a=1.0, b=1.0, c=1.0)
    split = splitting_parameters(10.0)
    rep = validate_assumptions(p, split, (0.5, 5.0, 5.0))
    with pytest.raises(ContractionError) as err:
        lyapunov_perron_sweep(
            [np.array([0.05, 0.02, 0.0])], p, split, n_t=256, tol=1e-8, gap_report=rep
        )
    assert err.value.gap_report is rep


def test_lp_nonlinear_graph_is_within_order_eps_of_the_critical_manifold():
    # the slow manifold is an O(eps) perturbation of u = h_kappa(v) (Fenichel
    # 1979); the slow data keeps v > 0 at every node, where h_kappa applies
    split = splitting_parameters(26.0)
    v0 = np.array([0.03, 0.015, 0.0, 0.005, 0.0])
    eps_list = (2e-3, 1e-3, 5e-4)
    distances = []
    for eps in eps_list:
        p, consts = small_nonlinear(eps)
        rep = validate_assumptions(p, split, lipschitz_estimates(p, 0.25, constants=consts))
        assert rep.passes
        pt = lyapunov_perron_sweep(
            [v0], p, split, n_t=1024, tol=1e-10, gap_report=rep, clip_bound=consts.K0
        ).points[0]
        assert pt.converged
        assert pt.contraction <= rep.total + 0.1
        v = np.pad(v0, (0, pt.grid.N - split.k0)) + pt.v_fast_coeffs
        u_critical = critical_map_u_of_v(SpectralField(pt.grid, v), p.kappa)
        distances.append(sobolev_norm(pt.u - u_critical, 1))
        assert distances[-1] <= 5.0 * eps
    order, _ = fit_order(eps_list, distances)
    assert 0.9 <= order <= 1.1


def test_lp_graph_lipschitz_bound():
    # sampled Lipschitz ratio <= M_A (1 - L~)^{-1}
    p = linear_params(eps=0.01, delta=0.001)
    split = splitting_parameters(10.0)
    rep = validate_assumptions(p, split, lipschitz_estimates(p, 1.0))
    rng = np.random.default_rng(0)
    samples = [0.5 * rng.standard_normal(split.k0) for _ in range(4)]
    graph = lyapunov_perron_sweep(samples, p, split, n_t=512, tol=1e-9)
    bound = 1.0 / (1.0 - rep.total)
    assert graph.lipschitz_ratio <= bound


@pytest.mark.parametrize("n_points", [1, 2])
def test_lp_graph_lipschitz_ratio_nan_without_distinct_slow_data(n_points):
    # no pair of points with distinct slow data, so no ratio was measured
    p = linear_params()
    split = splitting_parameters(10.0)
    graph = lyapunov_perron_sweep([np.full(split.k0, 0.3)] * n_points, p, split, n_t=64)
    assert len(graph.points) == n_points
    assert math.isnan(graph.lipschitz_ratio)


def test_lp_graph_lipschitz_ratio_equals_pairwise_loop():
    # 16 points, the last with the slow data of the fourth: that pair is
    # skipped, and the other 119 give the ratio of the loop over pairs
    p = linear_params(eps=0.01, delta=0.001)
    split = splitting_parameters(10.0)
    rng = np.random.default_rng(5)
    samples = [0.5 * rng.standard_normal(split.k0) for _ in range(15)]
    samples.append(samples[3].copy())
    graph = lyapunov_perron_sweep(samples, p, split, n_t=64)
    assert len(graph.points) == 16
    assert graph.lipschitz_ratio == lipschitz_ratio_pairwise(graph.points, split.k0)


def test_lp_distance_to_critical_frozen_constant():
    # ||h_u(v0) - v0/2||_L2 + ||h_vF(v0)||_H2 <= C (eps + (delta+eps)/(eps gap)) ||v0||_H2
    # C calibrated once on this sweep and frozen.
    C_FROZEN = 0.02
    rng = np.random.default_rng(1)
    for eps, delta in [(0.01, 0.001), (0.01, 0.01**1.5), (0.003, 0.0003)]:
        p = linear_params(eps=eps, delta=delta)
        split = splitting_parameters(10.0)
        v0 = rng.standard_normal(split.k0)
        pt = lyapunov_perron_sweep([v0], p, split, n_t=1024, tol=1e-9).points[0]
        grid = pt.grid
        v_field = np.zeros(grid.N)
        v_field[: split.k0] = v0
        lhs = sobolev_norm(
            SpectralField(grid, pt.u_coeffs - 0.5 * v_field), 0
        ) + sobolev_norm(SpectralField(grid, pt.v_fast_coeffs), 2)
        v_norm = sobolev_norm(SpectralField(grid, v_field), 2)
        factor = eps + (delta + eps) / (eps * split.gap)
        assert lhs <= C_FROZEN * factor * v_norm


def test_lp_local_invariance_of_graph():
    # trajectory started on the graph stays near it over [0, 10 eps]
    from fastslow import FastSlowState, simulate

    p = linear_params(eps=0.01, delta=0.001)
    split = splitting_parameters(10.0)
    v0 = np.array([0.3, 1.0, -0.4])
    tol = 1e-6  # n_t = 2048 keeps the quadrature error of the graph below tol
    pt = lyapunov_perron_sweep([v0], p, split, n_t=2048, tol=tol).points[0]
    grid = pt.grid
    v_start = np.zeros(grid.N)
    v_start[: split.k0] = v0
    state = FastSlowState(
        SpectralField(grid, pt.u_coeffs),
        SpectralField(grid, v_start + pt.v_fast_coeffs),
        0.0,
    )
    traj = simulate(state, p, T=10 * p.eps, dt=p.eps / 4, sample_every=5)
    slow_now = [v[: split.k0] for _, v in traj.coeffs]
    graph = lyapunov_perron_sweep(slow_now, p, split, n_t=2048, tol=tol)
    for (u, _), pt_now in zip(traj.coeffs, graph.points):
        defect = np.max(np.abs(u - pt_now.u_coeffs))
        assert defect <= 10 * tol  # discrete local invariance


# ---------------------------------------------------------------------------
# recurrence scans against the node-by-node loops they replace


def loop_convolve_forward(lam, h, F):
    z = lam * h
    decay = np.exp(z)
    wA = h * (_phi(1, z) - _phi(2, z))
    wB = h * _phi(2, z)
    out = np.zeros_like(F)
    for j in range(1, F.shape[0]):
        out[j] = decay * out[j - 1] + wA * F[j - 1] + wB * F[j]
    return out


def loop_propagate_slow_backward(lam, h, v0, F):
    z = lam * h
    grow = np.exp(-z)
    wA = h * (_phi(1, z) - _phi(2, z))
    wB = h * _phi(2, z)
    out = np.zeros_like(F)
    out[-1] = v0
    for j in range(F.shape[0] - 1, 0, -1):
        out[j - 1] = grow * (out[j] - wA * F[j - 1] - wB * F[j])
    return out


# float64 rounding accumulated over the blocked scan, relative per mode
# column to the largest value of the envelope: the loop run on absolute data,
# which bounds every partial sum of either evaluation order.  The loop's own
# values can cancel far below the loop's rounding error.
SCAN_RTOL = 1e-13

B = _SCAN_BLOCK
# 8, 9, B - 1, B: one short block; B + 1 and 257: whole blocks; 2 B + 3 and
# 2048: whole blocks and a tail
SCAN_NODES = [8, 9, B - 1, B, B + 1, 2 * B + 3, 257, 2048]


def buffers(kernel, F):
    # the result array and the flat work buffer a scan writes into
    return np.empty_like(F), np.empty(kernel.work_size)


def assert_columns_close(new, ref, envelope):
    assert np.all(np.isfinite(new))
    assert np.all(np.abs(new - ref) <= SCAN_RTOL * np.max(envelope, axis=0))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("n_t", SCAN_NODES)
def test_convolve_forward_scan_matches_loop(n_t):
    rng = np.random.default_rng(n_t)
    for K in (1, 5, 20):
        for first in (0.0, -1e3, None):  # lam = 0; lam h = -1e3, where decay is 0
            h = 10.0 ** rng.uniform(-4, -1)
            z = -(10.0 ** rng.uniform(-6, 3, K))
            if first is not None:
                z[0] = first
            lam = z / h
            F = rng.standard_normal((n_t, K))
            kernel = _scan_kernel(lam, h, n_t)
            assert_columns_close(
                _convolve_forward(kernel, F, *buffers(kernel, F)),
                loop_convolve_forward(lam, h, F),
                loop_convolve_forward(lam, h, np.abs(F)),
            )


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("n_t", SCAN_NODES)
def test_propagate_slow_backward_scan_matches_loop(n_t):
    # growing slow modes: up to e^40 over the horizon, and one column near
    # e^600, where a factor power beyond the horizon would overflow
    rng = np.random.default_rng(n_t)
    for K in (1, 5, 20):
        for first in (0.0, -600.0 / (n_t - 1), None):
            h = 10.0 ** rng.uniform(-4, -1)
            z = -rng.uniform(0.0, 40.0 / (n_t - 1), K)
            if first is not None:
                z[0] = first
            lam = z / h
            v0 = rng.standard_normal(K)
            F = rng.standard_normal((n_t, K))
            kernel = _scan_kernel(lam, h, n_t, backward=True)
            assert_columns_close(
                _propagate_slow_backward(kernel, v0, F, *buffers(kernel, F)),
                loop_propagate_slow_backward(lam, h, v0, F),
                loop_propagate_slow_backward(lam, h, np.abs(v0), -np.abs(F)),
            )


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("n_t", SCAN_NODES)
def test_scan_kernel_forms_no_power_beyond_the_horizon(n_t):
    # a backward factor that grows by e^700 over the horizon: a^(n_t - 1) is
    # finite, a^n_t would overflow for n_t <= 72
    h = 1e-3
    lam = -np.array([700.0, 1.0, 0.0]) / ((n_t - 1) * h)
    kernel = _scan_kernel(lam, h, n_t, backward=True)
    block = min(B, n_t - 1)
    assert kernel.matrix.shape == (3, block + 2, block)
    assert (kernel.blocks, kernel.tail) == divmod(n_t - 1, block)
    assert kernel.blocks * block + kernel.tail == n_t - 1
    assert len(kernel.carry) == math.floor(math.log2(kernel.blocks)) + 1
    for table in (kernel.matrix, *kernel.carry):
        assert np.all(np.isfinite(table))
    # the largest power formed is the carry's a^(sB) <= a^(n_t - 1)
    largest = max(np.max(kernel.matrix[0, 0]), *(c[0, 0] for c in kernel.carry))
    assert largest <= math.exp(700.0 * (1 + 1e-12))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_underflowed_factor_gives_the_identity_toeplitz_factor():
    # lam h = -1e5: e^{lam h} is 0.0, and log 0 = -inf must not reach a 0 * inf
    n_t, h = 2 * B + 3, 1e-3
    kernel = _scan_kernel(np.array([-1e5 / h, -1.0]), h, n_t)
    matrix = kernel.matrix[0]
    assert np.all(matrix[0] == 0.0)  # a^1 .. a^B
    weights = matrix[1:]  # wA a^(t-q) + wB a^(t+1-q): only q = t and q = t + 1 remain
    band = np.eye(B + 1, B, dtype=bool) | np.eye(B + 1, B, k=-1, dtype=bool)
    assert np.all(weights[~band] == 0.0)
    assert np.all(weights[band] != 0.0)
    assert all(c[0, 0] == 0.0 for c in kernel.carry)


def allocating_scan(kernel, G, y0):
    # the blocked scan with a fresh array for every product
    K, rows, B = kernel.matrix.shape
    C, r = kernel.blocks, kernel.tail
    windows = np.array([[G[c * B : (c + 1) * B + 1, k] for c in range(C)] for k in range(K)])
    ends = windows @ kernel.matrix[:, 1:, B - 1 :]
    carry = np.concatenate([np.broadcast_to(y0, (K,))[:, None], ends[:, :, 0]], axis=1)
    s = 1
    for a_sB in kernel.carry:
        carry[:, s:] += a_sB * carry[:, :-s]
        s *= 2
    full = np.concatenate([carry[:, :C, None], windows], axis=2) @ kernel.matrix
    values = [full.reshape(K, C * B)]
    if r:
        row = np.concatenate([carry[:, C:], G[C * B :].T], axis=1)[:, None]
        values.append((row @ kernel.matrix[:, : r + 2, :r])[:, 0])
    return np.concatenate(values, axis=1)


def allocating_convolve_forward(kernel, F):
    return np.concatenate([np.zeros((1, F.shape[1])), allocating_scan(kernel, F, 0.0).T])


def allocating_propagate_slow_backward(kernel, v0, F):
    return np.concatenate([allocating_scan(kernel, F[::-1], v0).T[::-1], v0[None]])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("n_t", SCAN_NODES)
def test_scans_in_work_buffers_equal_the_allocating_passes(n_t):
    # bit for bit, in buffers that hold stale values, from and into the
    # strided columns a sweep passes (S[:, fast], S[:, slow], the iterate's)
    rng = np.random.default_rng(n_t)
    h = 1e-3
    for K in (1, 5, 20):
        S = rng.standard_normal((n_t, K + 3))
        F = S[:, 3:]
        v0 = rng.standard_normal(K)
        forward = _scan_kernel(-(10.0 ** rng.uniform(-3, 6, K)), h, n_t)
        backward = _scan_kernel(-rng.uniform(0.0, 40.0 / ((n_t - 1) * h), K), h, n_t, backward=True)
        for kernel, scan, expected in (
            (forward, lambda o, w: _convolve_forward(forward, F, o, w),
             allocating_convolve_forward(forward, F)),
            (backward, lambda o, w: _propagate_slow_backward(backward, v0, F, o, w),
             allocating_propagate_slow_backward(backward, v0, F)),
        ):
            Y = np.full((n_t, K + 2), np.nan)
            work = np.full(kernel.work_size, np.nan)
            assert scan(Y[:, 2:], work).base is Y
            assert np.array_equal(Y[:, 2:], expected)
            assert np.all(np.isnan(Y[:, :2]))


# ---------------------------------------------------------------------------
# resolvent bounds


@dataclass(frozen=True)
class ResolventReport:
    alpha: float
    beta: float
    worst_ratio_resolvent: float
    worst_mode_resolvent: int
    worst_ratio_shifted: float
    worst_mode_shifted: int
    passes: bool


def resolvent_bound_check(params: ModelParams, grid: Grid, alpha: float, beta: float) -> ResolventReport:
    """Per-mode check of the two resolvent estimates of (eps (d+delta) Dxx - Id)^-1.

    The first quantity mu^(alpha-beta) / |eps (d+delta) lam - 1| is tested
    against 1 for alpha <= beta and eps^{2(beta-alpha)} for alpha > beta,
    over every retained mode; the second quantity (the Id-shifted operator)
    against eps^{2(beta-alpha)} over the resolvent-scale modes
    mu <= 1/(eps (d+delta)) only: above that scale the shifted operator
    approaches the identity mode-wise and the stated bound provably fails
    (the quantity grows like mu^(alpha-beta) unchecked).  Mode 0 uses the
    conventions 0^0 = 1 and 0^positive = 0 and is skipped where the
    exponent is negative.
    """
    if not (0.0 <= alpha <= 1.0 and 0.0 <= beta <= 1.0):
        raise ConfigurationError("alpha and beta must lie in [0, 1]")
    eps, dd = params.eps, params.d + params.delta
    expo = alpha - beta
    bound1 = 1.0 if alpha <= beta else eps ** (2.0 * (beta - alpha))
    bound2 = eps ** (2.0 * (beta - alpha))
    mu_resolvent = 1.0 / (eps * dd) if dd > 0 else float("inf")
    worst1, arg1 = 0.0, 0
    worst2, arg2 = 0.0, 0
    for k in range(grid.N):
        mu = grid.mu[k]
        denom = eps * dd * mu + 1.0
        if mu == 0.0:
            if expo > 0:
                power = 0.0
            elif expo == 0:
                power = 1.0
            else:
                continue
        else:
            power = mu**expo
        q1 = power / denom
        q2 = eps * dd * mu * power / denom
        if q1 / bound1 > worst1:
            worst1, arg1 = q1 / bound1, k
        if mu <= mu_resolvent and q2 / bound2 > worst2:
            worst2, arg2 = q2 / bound2, k
    return ResolventReport(
        alpha=alpha,
        beta=beta,
        worst_ratio_resolvent=worst1,
        worst_mode_resolvent=arg1,
        worst_ratio_shifted=worst2,
        worst_mode_shifted=arg2,
        passes=bool(worst1 <= 1.0 + 1e-12 and worst2 <= 1.0 + 1e-12),
    )


def test_resolvent_equal_orders():
    p = ModelParams(d=1.0, delta=0.1, eps=0.01, model_kind="linear")
    g = build_grid(np.pi, 64)
    rep = resolvent_bound_check(p, g, 0.5, 0.5)
    assert rep.worst_ratio_resolvent <= 1.0
    assert rep.passes


def test_resolvent_rougher_target_skips_mode_zero():
    # alpha < beta: mode 0 (mu^negative) is skipped and bound1 = 1, so the
    # decreasing mu^(alpha-beta) / (eps (d+delta) mu + 1) peaks at mode 1;
    # only mode 1 lies at the resolvent scale mu <= 1/(eps (d+delta))
    p = ModelParams(d=1.0, delta=0.2, eps=0.5, model_kind="linear")
    g = build_grid(np.pi, 16)
    alpha, beta = 0.0, 0.5
    rep = resolvent_bound_check(p, g, alpha, beta)
    eps, dd, mu1 = p.eps, p.d + p.delta, g.mu[1]
    assert rep.worst_mode_resolvent == 1
    assert rep.worst_ratio_resolvent == pytest.approx(
        mu1 ** (alpha - beta) / (eps * dd * mu1 + 1.0), rel=1e-14
    )
    assert rep.worst_mode_shifted == 1
    assert rep.worst_ratio_shifted == pytest.approx(
        eps * dd * mu1 ** (1.0 + alpha - beta) / (eps * dd * mu1 + 1.0)
        / eps ** (2.0 * (beta - alpha)),
        rel=1e-14,
    )
    assert rep.passes


def test_resolvent_smoothing_orders():
    p = ModelParams(d=1.0, delta=0.0, eps=0.01, model_kind="linear")
    g = build_grid(np.pi, 128)
    rep = resolvent_bound_check(p, g, 1.0, 0.0)
    assert rep.worst_ratio_resolvent <= 1.0
    assert rep.worst_ratio_shifted <= 1.0


def test_resolvent_mode_zero_shifted_quantity_vanishes():
    p = ModelParams(d=1.0, delta=0.0, eps=0.01, model_kind="linear")
    g = build_grid(np.pi, 16)
    rep = resolvent_bound_check(p, g, 1.0, 0.0)
    # mode 0 contributes 0 to the shifted quantity; worst mode is not 0
    assert rep.worst_mode_shifted != 0


def test_resolvent_rejects_bad_orders():
    p = ModelParams(d=1.0, delta=0.0, eps=0.01, model_kind="linear")
    g = build_grid(np.pi, 16)
    with pytest.raises(ConfigurationError):
        resolvent_bound_check(p, g, 1.5, 0.0)


def test_slow_subsystem_error_trend():
    # qualitative check: restricting the reduced flow to the slow block
    # loses at most the fast content, and the loss shrinks as zeta_inv grows
    # (linear kind, reduced rate -(d + delta/2) mu per mode)
    p = linear_params(eps=0.01, delta=0.01)
    g = build_grid(np.pi, 32)
    rng = np.random.default_rng(3)
    v0 = rng.standard_normal(g.N) * np.exp(-0.3 * np.arange(g.N))
    nw = np.full(g.N, g.L / 2.0)
    nw[0] = g.L
    nw *= 1.0 + g.mu + g.mu**2
    t = 0.3
    decay = np.exp(-(p.d + p.delta / 2.0) * g.mu * t)
    errors = []
    for zeta_inv in (10.0, 26.0, 50.0):
        split = splitting_parameters(zeta_inv)
        full = decay * v0
        truncated = full.copy()
        truncated[split.k0 :] = 0.0
        err = np.sqrt(np.sum(nw * (full - truncated) ** 2))
        fast_content = np.sqrt(np.sum(nw[split.k0 :] * v0[split.k0 :] ** 2))
        assert err <= fast_content + 1e-12
        errors.append(err)
    assert errors[0] > errors[1] > errors[2]
