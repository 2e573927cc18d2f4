"""Langevin loop tests: determinism, divergence handling, planning, CSV."""

import csv
import json
import math

import numpy as np
import pytest

from tula import transform as tr
from tula.dynamics import ORIGIN_RADIUS, TransformedPotential, transformed_gradient
from tula.sampler import (
    ChainRun,
    DivergenceError,
    SamplerConfig,
    _chain_rng,
    _estimate_sharpness,
    _run_chain,
    plan_step_size,
    run_summary,
    run_tula,
    run_ula,
    tula_step,
    write_chain_csv,
)
from tula.targets import ExampleKind, make_example, parse_target_name
from tula.transform import h_forward

# tula step from y = (1, 0), gamma = 0.01, zero noise, on the t-dist
# d=2 kappa=1 b=1 potential: 1 - 0.01 * (6e^2/(1+e^2) - 4)  [mpmath, 40 digits]
STEP_COORD0 = 0.9871521753213271


@pytest.fixture
def tp():
    entry = make_example(ExampleKind.EXAMPLE6, 2, vartheta=1.0)
    return TransformedPotential(entry.potential, entry.transform)


@pytest.fixture
def tp_t21():
    entry = make_example(ExampleKind.MULTIVARIATE_T, 2, kappa=1.0, b=1.0)
    return TransformedPotential(entry.potential, entry.transform)


class TestTulaStep:
    def test_frozen_drift_step(self, tp_t21):
        y = tula_step(tp_t21, np.array([1.0, 0.0]), 0.01, np.zeros(2))
        np.testing.assert_allclose(y, [STEP_COORD0, 0.0], rtol=1e-13, atol=1e-15)

    def test_noise_enters_with_sqrt_scale(self, tp_t21):
        noise = np.array([0.5, -1.0])
        drift_only = tula_step(tp_t21, np.array([1.0, 0.0]), 0.04, np.zeros(2))
        stepped = tula_step(tp_t21, np.array([1.0, 0.0]), 0.04, noise)
        np.testing.assert_allclose(stepped - drift_only,
                                   math.sqrt(0.08) * noise, rtol=1e-13)

    def test_rejects_nonfinite_state(self, tp_t21):
        with pytest.raises(DivergenceError):
            tula_step(tp_t21, np.array([np.nan, 0.0]), 0.01, np.zeros(2))

    def test_rejects_bad_gamma_and_shape(self, tp_t21):
        with pytest.raises(ValueError, match="gamma"):
            tula_step(tp_t21, np.zeros(2), 0.0, np.zeros(2))
        with pytest.raises(ValueError, match="noise shape"):
            tula_step(tp_t21, np.zeros(2), 0.01, np.zeros(3))

    @pytest.mark.parametrize("gamma", [math.inf, math.nan])
    def test_rejects_a_gamma_that_is_not_finite(self, tp_t21, gamma):
        """An infinite gamma returned [nan nan]."""
        with pytest.raises(ValueError, match="gamma must be positive and finite"):
            tula_step(tp_t21, np.ones(2), gamma, np.zeros(2))


class TestSamplerConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="step_size"):
            SamplerConfig(step_size=0.0, num_steps=10)
        with pytest.raises(ValueError, match="num_steps"):
            SamplerConfig(step_size=0.1, num_steps=0)
        with pytest.raises(ValueError, match="thin"):
            SamplerConfig(step_size=0.1, num_steps=10, thin=0)
        with pytest.raises(ValueError, match="num_chains"):
            SamplerConfig(step_size=0.1, num_steps=10, num_chains=0)
        for scale in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="init_scale"):
                SamplerConfig(step_size=0.1, num_steps=10, init_scale=scale)
        for point in ([math.nan, 0.0], [[0.0, 0.0], [math.inf, 1.0]]):
            with pytest.raises(ValueError, match="initial_point"):
                SamplerConfig(step_size=0.1, num_steps=10, initial_point=point)

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "0", None])
    def test_seed_that_is_not_a_natural_number_names_it(self, seed):
        """A negative seed failed in numpy's SeedSequence, naming nothing."""
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            SamplerConfig(step_size=0.1, num_steps=10, seed=seed)

    @pytest.mark.parametrize("field, value", [
        ("num_steps", 2.5), ("num_steps", math.nan), ("num_steps", 10.0), ("num_steps", True),
        ("thin", 1.5), ("num_chains", 1.5),
    ])
    def test_count_that_is_not_an_integer_names_it(self, field, value):
        """These constructed, and run_tula then died with "'float' object
        cannot be interpreted as an integer" (or ran True as one step)."""
        options = {"step_size": 0.1, "num_steps": 10, field: value}
        with pytest.raises(ValueError, match=f"{field} must be an integer >= 1"):
            SamplerConfig(**options)

    def test_numpy_integer_counts_are_accepted(self):
        cfg = SamplerConfig(step_size=0.1, num_steps=np.int64(4), thin=np.int32(2),
                            num_chains=np.int64(2))
        assert (cfg.num_steps, cfg.thin, cfg.num_chains) == (4, 2, 2)

    def test_numpy_integer_seed_is_accepted(self):
        assert SamplerConfig(step_size=0.1, num_steps=10, seed=np.int64(3)).seed == 3

    def test_numpy_integer_counts_keep_the_summary_json(self, tp):
        """A numpy seed stayed an np.int64, and json.dumps(run_summary(run))
        raised "Object of type int64 is not JSON serializable"."""
        cfg = SamplerConfig(step_size=0.05, num_steps=np.int64(4), seed=np.int64(3),
                            thin=np.int32(2), num_chains=np.uint8(2))
        assert all(type(getattr(cfg, name)) is int
                   for name in ("seed", "num_steps", "thin", "num_chains"))
        echo = json.loads(json.dumps(run_summary(run_tula(tp, cfg))))["config"]
        assert (echo["seed"], echo["num_steps"], echo["thin"], echo["num_chains"]) == (3, 4, 2, 2)

    def test_to_dict_round_trips_through_json_types(self):
        cfg = SamplerConfig(step_size=0.05, num_steps=100, seed=7,
                            initial_point=np.array([1.0, 2.0]), num_chains=3)
        d = cfg.to_dict()
        assert d["initial_point"] == [1.0, 2.0]
        assert d["num_chains"] == 3


class TestDeterminism:
    def test_same_seed_same_trajectories(self, tp):
        cfg = SamplerConfig(step_size=0.05, num_steps=200, seed=42, num_chains=2)
        a = run_tula(tp, cfg)
        b = run_tula(tp, cfg)
        for ya, yb in zip(a.ys, b.ys):
            np.testing.assert_array_equal(ya, yb)

    def test_chain_streams_do_not_depend_on_sibling_count(self, tp):
        """Chain k draws from a spawn-keyed stream, so adding chains to a
        run must not change the chains already there."""
        solo = run_tula(tp, SamplerConfig(step_size=0.05, num_steps=150, seed=9, num_chains=1))
        trio = run_tula(tp, SamplerConfig(step_size=0.05, num_steps=150, seed=9, num_chains=3))
        np.testing.assert_array_equal(solo.ys[0], trio.ys[0])

    def test_each_chain_draws_the_stream_of_its_own_index(self, tp):
        """Chain k's first step adds sqrt(2 gamma) standard_normal(d) of
        Philox(SeedSequence(seed, spawn_key=(k,))), as the sampler's module
        docstring says.  With spawn_key=(0,) for every chain, every chain of
        a run was a copy of chain 0, and every other test passed."""
        gamma, start = 0.05, np.array([0.3, -0.2])
        run = run_tula(tp, SamplerConfig(step_size=gamma, num_steps=6, seed=11, num_chains=3,
                                         initial_point=start))
        assert len({ys.tobytes() for ys in run.ys}) == 3
        drift = start - gamma * transformed_gradient(tp, start)
        for k, ys in enumerate(run.ys):
            seeds = np.random.SeedSequence(11, spawn_key=(k,))
            noise = np.random.Generator(np.random.Philox(seeds)).standard_normal(2)
            assert ys[1].tobytes() == (drift + math.sqrt(2.0 * gamma) * noise).tobytes(), k

    def test_different_seeds_differ(self, tp):
        a = run_tula(tp, SamplerConfig(step_size=0.05, num_steps=50, seed=0))
        b = run_tula(tp, SamplerConfig(step_size=0.05, num_steps=50, seed=1))
        assert not np.array_equal(a.ys[0], b.ys[0])


class TestRecording:
    def test_thinning_keeps_every_kth(self, tp):
        cfg = SamplerConfig(step_size=0.05, num_steps=100, seed=0, thin=10)
        run = run_tula(tp, cfg)
        np.testing.assert_array_equal(run.steps[0], np.arange(0, 101, 10))
        assert run.ys[0].shape == (11, 2)

    def test_iterate_zero_always_recorded(self, tp):
        cfg = SamplerConfig(step_size=0.05, num_steps=7, seed=0, thin=3,
                            initial_point=np.array([0.5, 0.5]))
        run = run_tula(tp, cfg)
        np.testing.assert_array_equal(run.ys[0][0], [0.5, 0.5])
        np.testing.assert_array_equal(run.steps[0], [0, 3, 6])

    def test_xs_maps_through_transform(self, tp):
        run = run_tula(tp, SamplerConfig(step_size=0.05, num_steps=20, seed=5))
        np.testing.assert_allclose(run.xs[0], h_forward(tp.transform, run.ys[0]), rtol=1e-12)

    def test_pooled_drops_burn_in(self, tp):
        run = run_tula(tp, SamplerConfig(step_size=0.05, num_steps=30, seed=5, num_chains=2))
        pooled = run.pooled(space="y", burn_in=10)
        assert pooled.shape == (2 * (31 - 10), 2)
        with pytest.raises(ValueError, match="burn_in"):
            run.pooled(burn_in=100)

    def test_pooled_refuses_a_burn_in_by_the_diagnostics_rule(self, tp):
        """pooled said "burn_in=100 leaves no recorded samples" where
        radial_diagnostics and tula sample say "no recorded samples remain
        after burn-in"; the rule is the same, against the longest chain."""
        cfg = SamplerConfig(step_size=0.05, num_steps=4, num_chains=2)
        run = ChainRun(config=cfg, ys=(np.zeros((5, 2)), np.ones((2, 2))),
                       steps=(np.arange(5), np.arange(2)), diverged=(False, True))
        assert run.pooled(space="y", burn_in=3).tolist() == [[0.0, 0.0]] * 2
        for burn_in in (5, 100):
            with pytest.raises(ValueError, match="no recorded samples remain after burn-in: "
                                                 f"burn_in={burn_in}, at most 5 recorded rows"):
                run.pooled(burn_in=burn_in)

    @pytest.mark.parametrize("space", ["q", "X", "", None])
    def test_pooled_names_a_space_that_is_not_x_or_y(self, tp, space):
        """run.pooled(space="q") returned the y samples."""
        run = run_tula(tp, SamplerConfig(step_size=0.05, num_steps=10, seed=5))
        with pytest.raises(ValueError, match=f"space must be 'x' or 'y', got {space!r}"):
            run.pooled(space=space)

    @pytest.mark.parametrize("burn_in", [-5, -1, 1.5, True, np.float64(10.0)])
    def test_pooled_rejects_a_burn_in_that_is_not_a_count(self, tp, burn_in):
        """burn_in=-5 kept the last 5 rows of each chain: shape (10, 2)."""
        run = run_tula(tp, SamplerConfig(step_size=0.05, num_steps=100, seed=5, num_chains=2))
        with pytest.raises(ValueError, match="burn_in must be a nonnegative integer"):
            run.pooled(burn_in=burn_in)
        assert run.pooled(burn_in=np.int64(0)).shape == (202, 2)

    def test_initial_point_shapes(self, tp):
        shared = SamplerConfig(step_size=0.05, num_steps=5, num_chains=2,
                               initial_point=np.array([1.0, 0.0]))
        run = run_tula(tp, shared)
        np.testing.assert_array_equal(run.ys[0][0], run.ys[1][0])

        per_chain = SamplerConfig(step_size=0.05, num_steps=5, num_chains=2,
                                  initial_point=np.array([[1.0, 0.0], [0.0, 1.0]]))
        run2 = run_tula(tp, per_chain)
        np.testing.assert_array_equal(run2.ys[1][0], [0.0, 1.0])

        with pytest.raises(ValueError, match="dimension"):
            run_tula(tp, SamplerConfig(step_size=0.05, num_steps=5,
                                       initial_point=np.array([1.0, 0.0, 0.0])))
        with pytest.raises(ValueError, match="per-chain"):
            run_tula(tp, SamplerConfig(step_size=0.05, num_steps=5, num_chains=3,
                                       initial_point=np.array([[1.0, 0.0]] * 2)))

    def test_random_starts_without_explicit_scale(self, tp):
        """No initial point and no scale: the curvature-probe default."""
        run = run_tula(tp, SamplerConfig(step_size=0.05, num_steps=10, seed=2))
        assert np.all(np.isfinite(run.ys[0]))

    @pytest.mark.parametrize("kind, d, kwargs", [
        (ExampleKind.MULTIVARIATE_T, 2, {"kappa": 3.0}), (ExampleKind.EXAMPLE6, 2, {}),
        (ExampleKind.WARMUP, 3, {}), (ExampleKind.EXAMPLE3, 5, {}),
    ])
    def test_curvature_probe_equals_its_loop_form(self, kind, d, kwargs):
        """The curvature probe behind the default scale takes the gradient at
        its 64 radii in two batched calls; it equals the point-by-point loop
        bit for bit."""
        entry = make_example(kind, d, **kwargs)
        tp = TransformedPotential(entry.potential, entry.transform)
        grad = lambda y: transformed_gradient(tp, y)
        eps, worst = 1e-5, 1.0
        for r in np.geomspace(1e-2, 10.0, 64):
            plus, minus = np.zeros(d), np.zeros(d)
            plus[0], minus[0] = r + eps, r - eps
            slope = np.linalg.norm(grad(plus) - grad(minus)) / (2.0 * eps)
            if np.isfinite(slope):
                worst = max(worst, float(slope))
        assert _estimate_sharpness(grad, d) == worst


class TestDivergence:
    def test_oversized_step_flags_and_truncates(self, tp):
        cfg = SamplerConfig(step_size=5.0, num_steps=200, seed=1, num_chains=2,
                            initial_point=np.array([1.0, 0.0]))
        run = run_tula(tp, cfg)
        assert run.any_diverged
        for y, flag in zip(run.ys, run.diverged):
            assert flag
            assert np.all(np.isfinite(y))  # finite prefix kept
            assert y.shape[0] < 201

    def test_divergence_stays_in_its_chain(self, tp):
        """A chain that leaves double range leaves its sibling untouched."""
        def run(first):
            return run_tula(tp, SamplerConfig(step_size=0.05, num_steps=200, seed=3, num_chains=2,
                                              initial_point=np.array([first, [0.5, 0.5]])))
        blown, healthy = run([1e200, 0.0]), run([1.0, 0.0])
        assert blown.diverged == (True, False)
        assert healthy.diverged == (False, False)
        np.testing.assert_array_equal(blown.ys[1], healthy.ys[1])
        np.testing.assert_array_equal(blown.steps[1], healthy.steps[1])

    def test_summary_reports_divergence(self, tp):
        cfg = SamplerConfig(step_size=5.0, num_steps=200, seed=1,
                            initial_point=np.array([1.0, 0.0]))
        summary = run_summary(run_tula(tp, cfg))
        assert summary["any_diverged"] is True
        assert summary["chains"][0]["diverged"] is True

    def test_healthy_run_summary(self, tp):
        summary = run_summary(run_tula(tp, SamplerConfig(step_size=0.05, num_steps=50, seed=0)))
        assert summary["any_diverged"] is False
        assert summary["chains"][0]["recorded"] == 51
        assert summary["chains"][0]["last_step"] == 50
        for key in ("x_radius_mean", "y_radius_mean", "x_radius_second_moment"):
            assert summary[key] > 0.0


class TestChainEngine:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e160])
    def test_one_finiteness_test_flags_every_bad_state(self, bad):
        """A NaN or infinite coordinate, or a finite one whose square
        overflows, ends the chain at that step with its finite prefix."""
        def grad(y):
            return np.array([-bad, 0.0]) if abs(y[0]) > 5.0 else np.zeros(2)

        cfg = SamplerConfig(step_size=1.0, num_steps=50, thin=2)
        y0 = np.array([10.0, 0.0])
        ys, steps, diverged = _run_chain(grad, y0, cfg, np.random.default_rng(0))
        assert diverged
        assert ys.shape == (1, 2) and steps.tolist() == [0]
        np.testing.assert_array_equal(ys[0], y0)

    def test_records_match_the_step_indices(self):
        """Thinned records hold the iterates at steps 0, thin, 2 thin, ...,
        including after a divergence part way through."""
        state = {"k": 0}

        def grad(y):
            state["k"] += 1
            return np.array([-np.inf, 0.0]) if state["k"] == 9 else np.zeros(2)

        cfg = SamplerConfig(step_size=0.5, num_steps=20, thin=3)
        ys, steps, diverged = _run_chain(grad, np.zeros(2), cfg, np.random.default_rng(1))
        assert diverged
        assert steps.dtype == np.int64 and steps.tolist() == [0, 3, 6]
        assert ys.shape == (3, 2) and np.all(np.isfinite(ys))


def _reference_run(grad, dim, cfg):
    """The chain loop as first written, one ``standard_normal(d)`` per step:
    per chain, (recorded iterates, step indices, diverged flag)."""
    out = []
    for chain in range(cfg.num_chains):
        rng = _chain_rng(cfg.seed, chain)
        y = (cfg.initial_point[chain].copy() if cfg.initial_point is not None
             else rng.standard_normal(dim) * cfg.init_scale)
        ys, steps, diverged = [y], [0], False
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(1, cfg.num_steps + 1):
                noise = math.sqrt(2.0 * cfg.step_size) * rng.standard_normal(dim)
                y = y - cfg.step_size * grad(y) + noise
                if not np.isfinite(y @ y):
                    diverged = True
                    break
                if k % cfg.thin == 0:
                    ys.append(y)
                    steps.append(k)
        out.append((np.array(ys), np.array(steps), diverged))
    return out


def _assert_run_is(run, reference):
    assert len(run.ys) == len(reference)
    for y, s, flag, (ref_y, ref_s, ref_flag) in zip(run.ys, run.steps, run.diverged, reference):
        assert flag == ref_flag
        np.testing.assert_array_equal(s, ref_s)
        assert y.tobytes() == ref_y.tobytes()


def _pairing(name, d):
    entry = (parse_target_name(name, dimension=d) if name == "example6"
             else parse_target_name(f"t{d}_3"))
    return TransformedPotential(entry.potential, entry.transform)


class TestBlockNoise:
    """The engine draws each chain's noise in blocks; every chain must keep
    the bits of the one-draw-per-step loop across block edges."""

    @staticmethod
    def _check(name, d, chains, steps, thin, engine):
        tp = _pairing(name, d)
        gamma = 0.005 if name == "t" else 0.05
        cfg = SamplerConfig(step_size=gamma, num_steps=steps, seed=7, thin=thin,
                            num_chains=chains, init_scale=0.8)
        if engine == "tula":
            run, grad = run_tula(tp, cfg), lambda y: transformed_gradient(tp, y)
        else:
            p = tp.potential
            run = run_ula(p, cfg)
            grad = lambda x: tr._radial_field(x, d, p.dvalue, lambda r: r < ORIGIN_RADIUS)
        _assert_run_is(run, _reference_run(grad, d, cfg))

    # run_ula on example6 inverts g by Newton's method at every gradient, about
    # 0.2 ms a step, so it gets one case of its own below
    ENGINES = [("t", "tula"), ("t", "ula"), ("example6", "tula")]

    @pytest.mark.parametrize("name, engine", ENGINES)
    @pytest.mark.parametrize("steps", [1, 255, 256, 257, 1000])
    @pytest.mark.parametrize("thin", [1, 3])
    def test_step_counts_around_the_block_edge(self, name, engine, steps, thin):
        self._check(name, 2, 2, steps, thin, engine)

    @pytest.mark.parametrize("name, engine", ENGINES)
    @pytest.mark.parametrize("d, chains", [(2, 1), (2, 2), (2, 16), (1, 2), (5, 2), (5, 16)])
    def test_chain_counts_and_dimensions(self, name, engine, d, chains):
        self._check(name, d, chains, 257, 3, engine)

    def test_ula_on_a_pulled_back_potential(self):
        self._check("example6", 2, 2, 257, 1, "ula")

    def test_divergence_inside_a_block_keeps_the_reference_prefix(self):
        """On example6 (f_h = |y|^2, gradient 2y) at gamma 1.005 every step
        scales y by -1.01: chain 0, started at (5e152, 5e152), overflows part way
        through the second block; chain 1, started at 1, stays finite."""
        tp = _pairing("example6", 2)
        grad = lambda y: transformed_gradient(tp, y)

        def config(first):
            return SamplerConfig(step_size=1.005, num_steps=600, seed=11, num_chains=2,
                                 initial_point=np.array([[first, first], [1.0, 0.0]]))

        blown_cfg, healthy_cfg = config(5e152), config(1.0)
        blown, healthy = run_tula(tp, blown_cfg), run_tula(tp, healthy_cfg)
        assert blown.diverged == (True, False) and healthy.diverged == (False, False)
        diverged_at = blown.ys[0].shape[0]  # steps 0 .. diverged_at - 1 are kept
        assert 257 < diverged_at < 512
        _assert_run_is(blown, _reference_run(grad, 2, blown_cfg))
        assert blown.ys[1].tobytes() == healthy.ys[1].tobytes()
        np.testing.assert_array_equal(blown.steps[1], healthy.steps[1])


class TestRunUla:
    def test_untransformed_run_keeps_spaces_equal(self):
        entry = make_example(ExampleKind.WARMUP, 2)
        run = run_ula(entry.potential, SamplerConfig(step_size=0.01, num_steps=50, seed=0))
        assert run.transform is None
        np.testing.assert_array_equal(run.xs[0], run.ys[0])


class TestPlanner:
    def test_frozen_example(self):
        """L=8, C=4/7, d=4, eps=0.1, H0=4 resolves to gamma = 7/81920 and
        14653 iterations (the raw bound is 14652.07)."""
        gamma, steps = plan_step_size(8.0, 4.0 / 7.0, 4, 0.1, 4.0)
        assert gamma == min(1.0, 0.1 / 16.0) / (2.0 * 64.0 * (4.0 / 7.0))
        assert gamma == pytest.approx(7.0 / 81920.0, rel=1e-12)
        assert steps == 14653

    @pytest.mark.parametrize("args, message", [
        ((math.inf, 1.0, 2, 0.1, 1.0), "lipschitz must be positive and finite"),
        ((1.0, math.nan, 2, 0.1, 1.0), "lsi_constant must be positive and finite"),
        ((1.0, 1.0, 2, math.inf, 1.0), "accuracy must be positive and finite"),
        ((1.0, 1.0, 2, 0.1, math.inf), "initial_kl must be positive and finite"),
        ((1.0, 1.0, 2, 0.0, 1.0), "accuracy must be positive and finite"),
        ((1.0, 1.0, 2.5, 0.1, 1.0), "dimension must be an integer >= 1"),
        ((1.0, 1.0, 0, 0.1, 1.0), "dimension must be an integer >= 1"),
        ((1e200, 1.0, 2, 0.1, 1.0), "leaves the float range"),
        ((1.0, 1e300, 2, 0.1, 1.0), "leaves the float range"),
    ])
    def test_rejects_inputs_by_name(self, args, message):
        """An infinite lipschitz raised ZeroDivisionError, an infinite
        accuracy "math domain error" and an infinite initial_kl OverflowError."""
        with pytest.raises(ValueError, match=message):
            plan_step_size(*args)

    def test_accuracy_branch(self):
        """The eps/(4d) factor saturates at 1 once eps >= 4d."""
        cap, _ = plan_step_size(2.0, 1.0, 4, 16.0, 4.0)
        above, _ = plan_step_size(2.0, 1.0, 4, 32.0, 4.0)
        below, _ = plan_step_size(2.0, 1.0, 4, 8.0, 4.0)
        assert cap == above == 1.0 / 8.0
        assert below == pytest.approx(cap / 2.0)

    @pytest.mark.parametrize("accuracy", [0.1, 0.01])
    @pytest.mark.parametrize("d", [2, 5, 10, 50])
    def test_plan_is_sound_on_the_exact_ar1_family(self, d, accuracy):
        """On example6, f_h = (d/2)|y|^2: L = d, C = 1/d, and the chain from
        N(0, I) is N(0, c_n I) at step n, c_n = a^(2n) + s2 (1 - a^(2n)) with
        a = 1 - gamma d and s2 = 1/(d (1 - gamma d/2)).  Its exact KL to the
        target N(0, I/d) at the planned (gamma, n) meets the accuracy."""
        entry = make_example(ExampleKind.EXAMPLE6, d)
        tp = TransformedPotential(entry.potential, entry.transform)
        y = np.linspace(0.1, 3.0, 4 * d).reshape(4, d)
        np.testing.assert_allclose(transformed_gradient(tp, y), d * y, rtol=1e-12)
        initial_kl = 0.5 * d * (d - 1.0 - math.log(d))  # KL(N(0, I) || N(0, I/d))
        gamma, n = plan_step_size(float(d), 1.0 / d, d, accuracy, initial_kl)
        decay = math.exp(2.0 * n * math.log1p(-gamma * d))  # a^(2n)
        stationary_excess = 0.5 * gamma * d / (1.0 - 0.5 * gamma * d)  # d s2 - 1
        excess = stationary_excess + (d - 1.0 - stationary_excess) * decay  # d c_n - 1
        kl = 0.5 * d * (excess - math.log1p(excess))
        assert 0.0 < kl <= accuracy

    def test_validation(self):
        with pytest.raises(ValueError):
            plan_step_size(0.0, 1.0, 2, 0.1, 1.0)
        with pytest.raises(ValueError):
            plan_step_size(1.0, -1.0, 2, 0.1, 1.0)
        with pytest.raises(ValueError, match="dimension"):
            plan_step_size(1.0, 1.0, 0, 0.1, 1.0)
        with pytest.raises(ValueError):
            plan_step_size(1.0, 1.0, 2, 0.0, 1.0)


class TestCsvExport:
    def test_rows_round_trip_bit_exact(self, tp, tmp_path):
        run = run_tula(tp, SamplerConfig(step_size=0.05, num_steps=10, seed=4, num_chains=2))
        path = tmp_path / "chain.csv"
        write_chain_csv(run, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["chain", "step", "space", "coord0", "coord1"]
        body = rows[1:]
        assert len(body) == 2 * 2 * 11  # chains x spaces x records
        y_rows = [r for r in body if r[2] == "y" and r[0] == "0"]
        parsed = np.array([[float(v) for v in r[3:]] for r in y_rows])
        np.testing.assert_array_equal(parsed, run.ys[0])  # repr round trip

    def test_x_rows_match_transform(self, tp, tmp_path):
        run = run_tula(tp, SamplerConfig(step_size=0.05, num_steps=5, seed=4))
        path = tmp_path / "chain.csv"
        write_chain_csv(run, path)
        with open(path, newline="") as fh:
            rows = [r for r in csv.DictReader(fh) if r["space"] == "x" and r["step"] == "0"]
        x0 = np.array([float(rows[0]["coord0"]), float(rows[0]["coord1"])])
        np.testing.assert_array_equal(x0, run.xs[0][0])


class TestChainRunContainer:
    def test_spaces_and_flags_are_tuples(self, tp):
        run = run_tula(tp, SamplerConfig(step_size=0.05, num_steps=5, num_chains=2))
        assert isinstance(run, ChainRun)
        assert isinstance(run.ys, tuple) and isinstance(run.diverged, tuple)
        assert len(run.ys) == len(run.steps) == len(run.diverged) == 2
