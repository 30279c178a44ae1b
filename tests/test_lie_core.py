"""Structure-constant container, validation, brackets, exp(ad), series."""

import io
import json

import numpy as np
import pytest
from scipy.linalg import expm

from orbiton import classify, cli, families, lie_core as lc

from conftest import family_fixtures, gl_at_cond, random_gl


def _set_bracket(c, i, j, k, v):
    c[i, j, k] = v
    c[j, i, k] = -v


class TestValidation:
    def test_zero_constants_are_abelian(self):
        g = lc.validate_algebra(np.zeros((3, 3, 3)))
        assert g.dim == 3
        assert g.basis_labels == ("X0", "X1", "X2")

    def test_antisymmetry_violation(self):
        bad = np.zeros((2, 2, 2))
        bad[0, 1, 0] = 1.0
        bad[1, 0, 0] = 1.0
        with pytest.raises(lc.AntisymmetryViolation):
            lc.validate_algebra(bad)

    def test_jacobi_violation(self):
        c = np.zeros((3, 3, 3))
        _set_bracket(c, 0, 1, 2, 1.0)
        _set_bracket(c, 1, 2, 1, 1.0)
        with pytest.raises(lc.JacobiViolation):
            lc.validate_algebra(c)

    @pytest.mark.parametrize("value", (np.nan, np.inf, -np.inf))
    def test_non_finite_constant(self, value):
        # Every comparison with NaN is false, so a NaN entry slips past
        # both the antisymmetry and the Jacobi check unless named first.
        c = np.zeros((3, 3, 3))
        _set_bracket(c, 0, 1, 1, 1.0)
        _set_bracket(c, 1, 2, 2, value)
        with pytest.raises(lc.NonFiniteInput, match=r"c\[1,2,2\]"):
            lc.validate_algebra(c)

    def test_non_finite_constant_from_json(self):
        text = '{"dim": 2, "brackets": [{"i": 0, "j": 1, "coeffs": {"1": NaN}}]}'
        with pytest.raises(lc.NonFiniteInput, match=r"c\[0,1,1\] is nan"):
            lc.load_algebra_json(text)

    def test_shape_mismatch(self):
        with pytest.raises(lc.DimensionMismatch):
            lc.validate_algebra(np.zeros((2, 3, 2)))

    def test_label_count_must_match_dim(self):
        with pytest.raises(lc.DimensionMismatch):
            lc.validate_algebra(np.zeros((2, 2, 2)), basis_labels=("X",))

    def test_families_validate(self):
        for name, params, g in family_fixtures():
            assert g.dim == 4
            lc.validate_algebra(g.c, g.basis_labels)


class TestBracket:
    def test_heisenberg_table(self):
        h = families.heisenberg3()
        x, y, z = np.eye(3)
        assert np.allclose(lc.bracket(h, x, y), z)
        assert np.allclose(lc.bracket(h, y, x), -z)
        assert np.allclose(lc.bracket(h, z, x), 0.0)

    def test_antisymmetry_and_jacobi_random_triples(self):
        rng = np.random.default_rng(3)
        for name, params, g in family_fixtures():
            for _ in range(20):
                u, v, w = rng.standard_normal((3, 4))
                assert np.allclose(lc.bracket(g, u, v),
                                   -lc.bracket(g, v, u), atol=1e-12)
                cyc = (lc.bracket(g, u, lc.bracket(g, v, w))
                       + lc.bracket(g, v, lc.bracket(g, w, u))
                       + lc.bracket(g, w, lc.bracket(g, u, v)))
                assert np.abs(cyc).max() < 1e-12

    def test_ad_matrix_linearity(self):
        rng = np.random.default_rng(4)
        g = families.build_family("g442")
        for _ in range(20):
            u, v = rng.standard_normal((2, 4))
            a, b = rng.standard_normal(2)
            lhs = lc.ad_matrix(g, a * u + b * v)
            rhs = a * lc.ad_matrix(g, u) + b * lc.ad_matrix(g, v)
            assert np.abs(lhs - rhs).max() < 1e-12

    def test_ad_matrix_represents_bracket(self):
        rng = np.random.default_rng(5)
        for name, params, g in family_fixtures():
            u, v = rng.standard_normal((2, 4))
            assert np.allclose(lc.ad_matrix(g, u) @ v, lc.bracket(g, u, v))


class TestExpAd:
    def test_inverse(self):
        rng = np.random.default_rng(6)
        for name, params, g in family_fixtures():
            for _ in range(5):
                u = rng.standard_normal(4)
                prod = lc.exp_ad(g, u) @ lc.exp_ad(g, -u)
                assert np.abs(prod - np.eye(4)).max() < 1e-10

    def test_nilpotent_truncates_exactly(self):
        # On h3 every ad_u is 2-step nilpotent, so exp(ad_u) = I + ad_u
        # with no truncation error at all.
        h = families.heisenberg3()
        rng = np.random.default_rng(7)
        for _ in range(10):
            u = rng.standard_normal(3)
            a = lc.ad_matrix(h, u)
            assert np.abs(a @ a).max() == 0.0
            assert np.abs(lc.exp_ad(h, u) - np.eye(3) - a).max() < 1e-14

    def test_unreachable_entries_are_exact_zeros(self):
        # Row 0 reaches only itself, row 1 reaches 1, 3 and (through 3) 0,
        # row 3 reaches 3 and 0: those entries of exp(A) vanish.  The Pade
        # solve alone leaves roundoff in (1, 2).
        a = np.array([[0.0, 0.0, 0.0, 0.0],
                      [0.0, 0.63, 0.0, 1.29],
                      [-0.75, 1.69, -0.29, 1.57],
                      [-0.43, 0.0, 0.0, 0.0]])
        e = lc.expm(a)
        for i, j in ((0, 1), (0, 2), (0, 3), (1, 2), (3, 1), (3, 2)):
            assert e[i, j] == 0.0, (i, j)
        assert np.abs(e - expm(a)).max() < 1e-14 * np.abs(e).max()

    def test_non_finite_input_raises(self):
        for bad in (np.inf, np.nan):
            a = np.zeros((2, 3, 3))
            a[1, 0, 2] = bad
            with pytest.raises(ValueError):
                lc.expm(a)

    def test_matches_series_on_g411(self):
        g = families.build_family("g411")
        rng = np.random.default_rng(8)
        u = rng.standard_normal(4)
        a = lc.ad_matrix(g, u)
        series = np.eye(4)
        term = np.eye(4)
        for n in range(1, 8):
            term = term @ a / n
            series += term
        assert np.abs(lc.exp_ad(g, u) - series).max() < 1e-12


class TestDerivedSeries:
    def test_h3(self):
        h = families.heisenberg3()
        s = lc.derived_subalgebra(h)
        assert s.dim == 1
        assert lc.derived_series_length(h) == 2

    def test_containment_chain(self):
        for name, params, g in family_fixtures():
            prev = None
            for k in range(1, 4):
                sub = lc.derived_subalgebra(g, k)
                if prev is not None and sub.dim > 0:
                    # residual of projecting the deeper space onto the
                    # shallower one
                    q = prev.basis_matrix
                    proj = q @ np.linalg.lstsq(q, sub.basis_matrix,
                                               rcond=None)[0]
                    assert np.abs(proj - sub.basis_matrix).max() < 1e-10
                prev = sub

    def test_lengths(self):
        assert lc.derived_series_length(families.abelian(4)) == 1
        assert lc.derived_series_length(families.build_family("g442")) == 3
        assert lc.derived_series_length(families.aff_r()) == 2

    @staticmethod
    def _count_steps(monkeypatch):
        calls = []
        step = lc._derived_step

        def counting(g, stage, floor):
            calls.append(stage.dim)
            return step(g, stage, floor)
        monkeypatch.setattr(lc, "_derived_step", counting)
        return calls

    def test_one_bracket_pass_per_stage(self, monkeypatch):
        calls = self._count_steps(monkeypatch)
        assert lc.derived_series_length(families.build_family("g442")) == 3
        assert calls == [4, 3, 1]
        for _, _, g in family_fixtures():
            calls.clear()
            length = lc.derived_series_length(g)
            assert len(calls) == length

    @staticmethod
    def _fresh(g):
        """The same algebra as a new object, with nothing cached on it."""
        return lc.LieAlgebra(g.dim, g.c, g.basis_labels)

    def test_classify_md4_walks_the_series_once(self, monkeypatch):
        calls = self._count_steps(monkeypatch)
        decisions = (classify.classify_md4, classify.is_exponential,
                     classify.classify_md_bar)
        for name, _, g in family_fixtures():
            length = lc.derived_series_length(self._fresh(g))
            for decide in decisions:
                calls.clear()
                decide(self._fresh(g))
                assert len(calls) == length, (name, decide.__name__)

    def test_later_decisions_walk_nothing(self, monkeypatch):
        calls = self._count_steps(monkeypatch)
        for name, _, g in family_fixtures():
            g = self._fresh(g)
            classify.classify_md4(g)
            calls.clear()
            classify.classify_md4(g)
            classify.is_exponential(g)
            classify.classify_md_bar(g)
            for k in range(4):
                lc.derived_subalgebra(g, k)
            lc.derived_series_length(g)
            assert calls == [], name

    def test_classify_report_walks_once(self, monkeypatch, capsys):
        calls = self._count_steps(monkeypatch)
        want = {"aff-c": [4, 2], "g442": [4, 3, 1], "abelian4": [4]}
        for name in families.builtin_names():
            length = lc.derived_series_length(families.builtin(name))
            calls.clear()
            cli.main(["classify", "--builtin", name])
            capsys.readouterr()
            assert len(calls) == length, name
            if name in want:
                assert calls == want[name]

    def test_cached_stages_are_read_only(self):
        for name, _, g in family_fixtures():
            for stage in lc.derived_series(g)[0]:
                with pytest.raises(ValueError):
                    stage.basis_matrix[...] = 0.0

    def test_stages_equal_derived_subalgebra(self):
        rng = np.random.default_rng(77)
        cases = []
        for _, _, g in family_fixtures():
            length = lc.derived_series_length(g)
            cases += [(lc.change_basis(g, random_gl(rng)), length)
                      for _ in range(20)]
        aff_r2 = np.zeros((4, 4, 4))
        _set_bracket(aff_r2, 0, 1, 1, 1.0)
        _set_bracket(aff_r2, 2, 3, 3, 1.0)
        cases.append((lc.validate_algebra(aff_r2), 2))
        so3 = np.zeros((4, 4, 4))
        _set_bracket(so3, 0, 1, 2, 1.0)
        _set_bracket(so3, 1, 2, 0, 1.0)
        _set_bracket(so3, 2, 0, 1, 1.0)
        cases.append((lc.validate_algebra(so3), None))
        for g, want in cases:
            series, length = lc.derived_series(g)
            assert length == want == lc.derived_series_length(g)
            if length is None:
                assert series[-1].dim == series[-2].dim > 0
            else:
                assert len(series) == length + 1
            for k, stage in enumerate(series):
                ref = lc.derived_subalgebra(g, k).basis_matrix
                assert stage.basis_matrix.shape == ref.shape
                assert stage.basis_matrix.tobytes() == ref.tobytes()


class TestChangeBasis:
    def test_roundtrip(self):
        rng = np.random.default_rng(9)
        g = families.build_family("g424")
        p = random_gl(rng)
        back = lc.change_basis(lc.change_basis(g, p), np.linalg.inv(p))
        assert np.abs(back.c - g.c).max() < 1e-9

    def test_identity_is_noop(self):
        g = families.build_family("g433")
        h = lc.change_basis(g, np.eye(4))
        assert np.abs(h.c - g.c).max() < 1e-15

    def test_bracket_equivariance(self):
        # [u,v] computed in the new basis must match the pushforward of
        # the bracket of the pulled-back vectors.
        rng = np.random.default_rng(10)
        g = families.build_family("g441")
        p = random_gl(rng)
        h = lc.change_basis(g, p)
        u, v = rng.standard_normal((2, 4))
        lhs = lc.bracket(h, u, v)
        rhs = np.linalg.solve(p, lc.bracket(g, p @ u, p @ v))
        assert np.abs(lhs - rhs).max() < 1e-10

    @pytest.mark.parametrize("name", ("aff-r", "h3", "g442"))
    def test_cached_path_bitwise_equal_fresh_search(self, name):
        # Reference: the einsum planning its contraction on every call, on
        # bases at cond <= 1e3 and at exactly 1e4 and 1e5.
        g = families.builtin(name)
        rng = np.random.default_rng(11)
        bases = [random_gl(rng, n=g.dim) for _ in range(50)]
        bases += [gl_at_cond(rng, cond, n=g.dim)
                  for cond in (1e4, 1e5) for _ in range(50)]
        for p in bases:
            want = np.einsum("ia,jb,ijk,mk->abm", p, p, g.c,
                             np.linalg.inv(p), optimize=True)
            want = 0.5 * (want - np.swapaxes(want, 0, 1))
            assert lc.change_basis(g, p).c.tobytes() == want.tobytes()


class TestJson:
    def test_roundtrip(self):
        g = families.build_family("g442")
        doc = lc.algebra_to_json(g)
        back = lc.load_algebra_json(doc)
        assert back.dim == 4
        assert np.abs(back.c - g.c).max() == 0.0
        assert back.basis_labels == g.basis_labels

    def test_loads_from_string_and_file(self):
        doc = {
            "dim": 2,
            "labels": ["X", "Y"],
            "brackets": [{"i": 0, "j": 1, "coeffs": {"1": 1.0}}],
        }
        text = json.dumps(doc)
        g1 = lc.load_algebra_json(text)
        g2 = lc.load_algebra_json(io.StringIO(text))
        assert np.array_equal(g1.c, g2.c)
        assert g1.c[0, 1, 1] == 1.0
        assert g1.c[1, 0, 1] == -1.0

    def test_omitted_entries_are_zero(self):
        g = lc.load_algebra_json({"dim": 3, "brackets": []})
        assert np.abs(g.c).max() == 0.0


class TestNumericRank:
    def test_exact_ranks(self):
        assert lc.numeric_rank(np.zeros((4, 4))) == 0
        assert lc.numeric_rank(np.eye(4)) == 4
        m = np.outer([1.0, 2.0, 0.5], [3.0, -1.0, 2.0])
        assert lc.numeric_rank(m) == 1

    def test_tiny_noise_ignored(self):
        rng = np.random.default_rng(11)
        m = np.outer([1.0, 1.0, 1.0, 1.0], [1.0, -1.0, 2.0, 0.0])
        m = m + 1e-13 * rng.standard_normal((4, 4))
        assert lc.numeric_rank(m) == 1

    def test_stacked_span_rank_matches_from_columns(self):
        # check_tangency ranks a stack of field spans at once; each must get
        # the dimension Subspace.from_columns gives its matrix alone.
        rng = np.random.default_rng(12)
        stack = [np.zeros((4, 3)), np.eye(4)[:, :3],
                 1e-13 * rng.standard_normal((4, 3))]
        for r in (1, 2, 3):
            stack.append(rng.standard_normal((4, r))
                         @ rng.standard_normal((r, 3)))
        stack = np.array(stack)
        s = np.linalg.svd(stack, compute_uv=False)
        for atol in (0.0, 1e-12):
            want = [lc.Subspace.from_columns(m, 4, atol=atol).dim
                    for m in stack]
            assert lc.span_rank(s, 4, atol).tolist() == want
        assert lc.span_rank(s, 4, 1e-12).tolist() == [0, 3, 0, 1, 2, 3]
