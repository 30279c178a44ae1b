"""Kirillov form, orbit flow, sampling, and rank stratification."""

import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

import orbiton
from orbiton import coadjoint as co, families, lie_core as lc

from conftest import family_fixtures


class TestKirillovForm:
    def test_real_diamond_example(self):
        g = families.build_family("g442")
        kf = co.kirillov_form(g, [1.0, 1.0, 1.0, 0.0])
        expected = np.array([
            [0.0, 1.0, 0.0, 1.0],
            [-1.0, 0.0, 0.0, -1.0],
            [0.0, 0.0, 0.0, 0.0],
            [-1.0, 1.0, 0.0, 0.0],
        ])
        assert np.abs(kf.matrix - expected).max() == 0.0
        assert co.orbit_dimension(g, [1.0, 1.0, 1.0, 0.0]) == 2

    def test_skew_symmetry_and_even_rank(self):
        rng = np.random.default_rng(21)
        for name, params, g in family_fixtures():
            for _ in range(50):
                F = rng.standard_normal(4)
                kf = co.kirillov_form(g, F)
                assert np.abs(kf.matrix + kf.matrix.T).max() < 1e-12
                rank = co.orbit_dimension(g, F)
                assert rank % 2 == 0

    def test_kernel_is_stabilizer(self):
        rng = np.random.default_rng(22)
        for name, params, g in family_fixtures():
            F = rng.standard_normal(4)
            kf = co.kirillov_form(g, F)
            stab = co.stabilizer_algebra(g, F)
            assert stab.dim + co.orbit_dimension(g, F) == 4
            if stab.dim:
                assert np.abs(kf.matrix @ stab.basis_matrix).max() < 1e-10

    def test_zero_functional_has_point_orbit(self):
        for name, params, g in family_fixtures():
            assert co.orbit_dimension(g, np.zeros(4)) == 0

    # Structure constants with [X0, X1] = X0 but no [X1, X0] entry, built
    # without validate_algebra: B_F at F = (1, 0, 0) has rank one.
    NON_SKEW = textwrap.dedent("""
        import numpy as np
        from orbiton import coadjoint as co, lie_core as lc
        c = np.zeros((3, 3, 3))
        c[0, 1, 0] = 1.0
        g = lc.LieAlgebra(dim=3, c=c)
        F = [1.0, 0.0, 0.0]
    """)

    def test_odd_rank_raises(self):
        scope = {}
        exec(self.NON_SKEW, scope)
        g, F = scope["g"], scope["F"]
        with pytest.raises(co.OddKirillovRank):
            co.orbit_dimension(g, F)
        with pytest.raises(lc.LieAlgebraError):
            co.sample_orbit(g, F, 3, seed=0)

    def test_odd_rank_raises_under_optimize(self):
        script = self.NON_SKEW + textwrap.dedent("""
            assert False, "asserts must be stripped"
            try:
                co.orbit_dimension(g, F)
            except co.OddKirillovRank:
                print("raised")
        """)
        src = str(Path(orbiton.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "raised"


class TestFlow:
    def test_word_then_inverse_returns(self):
        rng = np.random.default_rng(23)
        for name, params, g in family_fixtures():
            F = rng.standard_normal(4)
            word = co.random_word(g, rng)
            forward = co.coadjoint_flow(g, F, word)
            inverse = [(k, -t) for k, t in reversed(word.steps)]
            back = co.coadjoint_flow(g, forward, inverse)
            assert np.abs(back - F).max() < 1e-10

    def test_generator_index_out_of_range_raises(self):
        # -1 must not wrap around to the last generator.
        g = families.build_family("g441")
        F = np.array([0.3, -0.7, 1.1, 0.2])
        for bad in (-1, g.dim):
            with pytest.raises(IndexError):
                co.coadjoint_flow(g, F, [(0, 0.5), (bad, 0.25)])

    def test_single_step_matches_exp_ad(self):
        g = families.build_family("g441")
        F = np.array([0.3, -0.7, 1.1, 0.2])
        t = 0.8
        flowed = co.coadjoint_flow(g, F, [(3, t)])
        u = np.zeros(4)
        u[3] = t
        assert np.allclose(flowed, F @ lc.exp_ad(g, u))

    def test_tangent_matches_finite_differences(self):
        # (d/dt)|0 of the one-parameter flows against the algebraic rows.
        rng = np.random.default_rng(24)
        h = 1e-5
        for name, params, g in family_fixtures():
            F = rng.standard_normal(4)
            for k in range(4):
                plus = co.coadjoint_flow(g, F, [(k, h)])
                minus = co.coadjoint_flow(g, F, [(k, -h)])
                fd = (plus - minus) / (2 * h)
                assert np.abs(fd - co.flow_tangent(g, F, k)).max() < 1e-6

    def test_tangent_rows_are_kirillov_rows(self):
        rng = np.random.default_rng(25)
        g = families.build_family("g434")
        F = rng.standard_normal(4)
        kf = co.kirillov_form(g, F)
        for k in range(4):
            assert np.allclose(co.flow_tangent(g, F, k), kf.matrix[k])


class TestSampling:
    def test_points_stay_on_orbit_rank(self):
        # rank(B_F) is constant along an orbit; 50 points from one orbit
        # must all report the same dimension.
        g = families.build_family("g442")
        F = np.array([1.0, 1.0, 1.0, 0.0])
        sample = co.sample_orbit(g, F, 50, seed=31)
        ranks = {co.orbit_dimension(g, p) for p in sample.points}
        assert ranks == {2}

    def test_est_dim_is_even_and_matches(self):
        g = families.build_family("g424")
        F = np.array([0.0, 1.0, 0.5, 0.3])
        sample = co.sample_orbit(g, F, 60, seed=32)
        assert sample.est_dim == co.orbit_dimension(g, F) == 4

    def test_seeded_reproducibility(self):
        g = families.build_family("g421", 2.0)
        F = np.array([0.2, 1.0, -0.4, 0.9])
        a = co.sample_orbit(g, F, 10, seed=5)
        b = co.sample_orbit(g, F, 10, seed=5)
        assert np.array_equal(a.points, b.points)

    def test_rows_are_flows_of_the_drawn_words(self):
        seed = 41
        for name, params, g in family_fixtures():
            F = np.array([0.6, -1.2, 0.8, 0.3])
            sample = co.sample_orbit(g, F, 12, seed=seed)
            rng = np.random.default_rng(seed)
            for row in sample.points:
                flowed = co.coadjoint_flow(g, F, co.random_word(g, rng))
                assert row.tobytes() == flowed.tobytes(), name

    def test_prefix_does_not_depend_on_n(self):
        g = families.build_family("g424")
        F = np.array([0.0, 1.0, 0.5, 0.3])
        full = co.sample_orbit(g, F, 40, seed=42).points
        for m in (1, 7, 39):
            head = co.sample_orbit(g, F, m, seed=42).points
            assert head.tobytes() == full[:m].tobytes()

    def test_prefix_across_a_block_boundary(self):
        # Rows are evaluated in blocks of _BLOCK_STEPS // word length; the
        # points must not depend on where a block ends.
        g = families.build_family("g442")
        F = np.array([1.0, 1.0, 1.0, 0.0])
        block = co._BLOCK_STEPS // (2 * g.dim)
        full = co.sample_orbit(g, F, block + 3, seed=43).points
        for m in (block - 1, block, block + 1):
            head = co.sample_orbit(g, F, m, seed=43).points
            assert head.tobytes() == full[:m].tobytes()
        rng = np.random.default_rng(43)
        words = [co.random_word(g, rng) for _ in range(block + 3)]
        for r in (block - 1, block, block + 2):
            flowed = co.coadjoint_flow(g, F, words[r])
            assert full[r].tobytes() == flowed.tobytes()

    def test_empty_or_still_words_give_the_base(self):
        g = families.build_family("g434")
        F = np.array([0.2, -0.5, 1.5, 0.7])
        for kwargs in ({"word_length": 0}, {"step_scale": 0.0}):
            sample = co.sample_orbit(g, F, 6, seed=44, **kwargs)
            assert sample.points.shape == (6, 4)
            assert np.array_equal(sample.points, np.tile(F, (6, 1)))

    @pytest.mark.parametrize("step_scale", [0.0, 1.0, 7.0])
    def test_step_exponentials_keep_exact_results(self, step_scale):
        # Every exact zero of scipy's expm is an exact zero of the kernel,
        # and every diagonal step (zero included) is scipy's
        # diag(exp(diag)) byte for byte.  The sign of a zero is left out:
        # scipy's follows the Pade degree it picks per slice.
        off = ~np.eye(4, dtype=bool)
        for name, params, g in family_fixtures():
            rng = np.random.default_rng(45)
            drawn = [co._draw_word(rng, g.dim, 2 * g.dim, step_scale)
                     for _ in range(200)]
            idx = np.array([i for i, _ in drawn])
            ts = np.array([t for _, t in drawn])
            steps = ts[..., None, None] * np.swapaxes(g.c, 1, 2)[idx] + 0.0
            got = co._step_exponentials(g, idx, ts)
            want = expm(steps)
            assert np.all(got[want == 0.0] == 0.0), name
            diagonal = ~steps[..., off].any(axis=-1)
            assert got[diagonal].tobytes() == want[diagonal].tobytes(), name
            if step_scale == 0.0:
                assert diagonal.all()

    def test_first_coordinate_constant_on_g421_orbits(self):
        # The first dual coordinate is a Casimir for this family: every
        # orbit keeps x = alpha.
        g = families.build_family("g421", 2.0)
        F = np.array([0.7, 1.0, -0.4, 0.9])
        sample = co.sample_orbit(g, F, 40, seed=33)
        assert np.abs(sample.points[:, 0] - 0.7).max() < 1e-9

    def test_csv_layout(self):
        g = families.build_family("g442")
        sample = co.sample_orbit(g, [1.0, 1.0, 1.0, 0.0], 3, seed=1)
        lines = sample.to_csv(g.basis_labels).strip().splitlines()
        assert lines[0] == "X,Y,Z,T"
        assert len(lines) == 4
        assert all(len(row.split(",")) == 4 for row in lines[1:])


def _row_loop(rng, rows, dim, length, step_scale):
    """The reference: ``rows`` calls of _draw_word, stacked."""
    idx = np.empty((rows, length), dtype=np.int64)
    ts = np.empty((rows, length))
    for r in range(rows):
        idx[r], ts[r] = co._draw_word(rng, dim, length, step_scale)
    return idx, ts


def _twins(seed):
    """Two generators in one state; seed=None takes fresh entropy."""
    a = np.random.default_rng(seed)
    b = np.random.default_rng()
    b.bit_generator.state = a.bit_generator.state
    return a, b


def _assert_same_draws(got, want):
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


@pytest.fixture
def row_calls(monkeypatch):
    """Records every call of co._draw_word, the reference row draw."""
    calls = []
    reference = co._draw_word
    monkeypatch.setattr(co, "_draw_word",
                        lambda *a: calls.append(a) or reference(*a))
    return calls


class TestBlockDraws:
    """_draw_words against numpy's own row-by-row draws, byte for byte."""

    @pytest.mark.parametrize("length", [*range(10), 17])
    def test_block_equals_row_loop(self, length, row_calls):
        for dim in range(1, 9):
            for seed in range(50):
                a, b = _twins(seed)
                if seed % 2:
                    # An odd integer draw leaves a high half pending.
                    a.integers(0, 5, size=1)
                    b.integers(0, 5, size=1)
                rows = 1 + seed % 7
                got = co._draw_words(a, rows, dim, length, 0.75)
                assert row_calls == [], (dim, seed)
                want = _row_loop(b, rows, dim, length, 0.75)
                row_calls.clear()
                _assert_same_draws(got, want)
                assert a.bit_generator.state == b.bit_generator.state
                # The next draws of both generators agree too.
                assert a.integers(0, 7, size=3).tolist() == \
                    b.integers(0, 7, size=3).tolist()

    def test_lemire_rejection_falls_back_to_the_row_loop(self, row_calls):
        # (2**32 - dim) mod dim = 2**30: a quarter of the draws are rejected.
        dim = 3 * 2 ** 30
        for seed in range(20):
            a, b = _twins(seed)
            got = co._draw_words(a, 5, dim, 3, 2.0)
            assert len(row_calls) == 5, seed
            want = _row_loop(b, 5, dim, 3, 2.0)
            row_calls.clear()
            _assert_same_draws(got, want)
            assert a.bit_generator.state == b.bit_generator.state

    def test_other_bit_generators_run_the_row_loop(self):
        for bit_generator in (np.random.MT19937, np.random.Philox):
            a = np.random.Generator(bit_generator(47))
            b = np.random.Generator(bit_generator(47))
            _assert_same_draws(co._draw_words(a, 9, 4, 5, 1.0),
                               _row_loop(b, 9, 4, 5, 1.0))
            assert a.integers(0, 7, size=3).tolist() == \
                b.integers(0, 7, size=3).tolist()

    def test_unseeded_generator_ends_in_the_row_loop_state(self):
        for length in (3, 8):
            a, b = _twins(None)
            got = co._draw_words(a, 40, 4, length, 1.0)
            want = _row_loop(b, 40, 4, length, 1.0)
            _assert_same_draws(got, want)
            assert a.bit_generator.state == b.bit_generator.state

    def test_odd_length_across_a_block_boundary(self):
        # At length 17 a block holds 481 rows; the half pending after an odd
        # row crosses into the next block.
        g = families.build_family("g434", 2.0, 1.0)
        F = np.array([0.2, -0.5, 1.5, 0.7])
        n = co._BLOCK_STEPS // 17 + 3
        sample = co.sample_orbit(g, F, n, seed=46, word_length=17)
        rng = np.random.default_rng(46)
        for r, row in enumerate(sample.points):
            flowed = co.coadjoint_flow(g, F, co.random_word(g, rng, 17))
            assert row.tobytes() == flowed.tobytes(), r


class TestSamplingInputs:
    """sample_orbit checks its arguments before it draws anything."""

    @pytest.fixture(autouse=True)
    def no_draws(self, monkeypatch):
        def fail(*args):
            raise AssertionError("drew before checking the inputs")
        monkeypatch.setattr(co, "_draw_words", fail)
        monkeypatch.setattr(co, "_draw_word", fail)

    G = families.build_family("g442")

    @pytest.mark.parametrize("step_scale", [
        -1.0, -0.0, math.nan, math.inf, -math.inf, 1e308])
    def test_step_scale(self, step_scale):
        with pytest.raises(ValueError, match="step_scale"):
            co.sample_orbit(self.G, [1.0, 1.0, 1.0, 0.0], 2,
                            step_scale=step_scale, seed=0)

    def test_word_length(self):
        with pytest.raises(ValueError, match="word_length"):
            co.sample_orbit(self.G, [1.0, 1.0, 1.0, 0.0], 2, seed=0,
                            word_length=-1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_functional(self, bad):
        # A NaN base once sampled every point, then died in the SVD of
        # orbit_dimension with LinAlgError.
        for i in range(4):
            F = [1.0, 1.0, 1.0, 1.0]
            F[i] = bad
            with pytest.raises(lc.NonFiniteInput, match=f"coordinate {i} "):
                co.sample_orbit(self.G, F, 2)
            with pytest.raises(lc.NonFiniteInput):
                co.orbit_dimension(self.G, F)


class TestStratify:
    def test_md_property_spot(self):
        # Orbit dimensions only 0 or max over random functionals.
        rng = np.random.default_rng(34)
        for name in ("g411", "g424", "g442"):
            params = families.default_params(name)
            g = families.build_family(name, *params)
            top = 4 if name == "g424" else 2
            fs = rng.standard_normal((500, 4))
            strata = co.stratify(g, fs)
            assert set(strata) <= {0, top}
            assert sum(len(v) for v in strata.values()) == 500

    def test_zero_is_its_own_stratum(self):
        g = families.build_family("g442")
        strata = co.stratify(g, [np.zeros(4), np.array([1.0, 1, 1, 0])])
        assert len(strata[0]) == 1
        assert len(strata[2]) == 1
