"""Stratification, closed-form orbit models, foliations, polarizations."""

import dataclasses
import math

import numpy as np
import pytest

from orbiton import coadjoint as co, families, lie_core as lc, orbit_atlas as oa

from conftest import family_fixtures


EXPECTED_STRATA = {
    "g411": ("fixed-points", "generic"),
    "g412": ("fixed-points", "generic"),
    "g421": ("fixed-points", "generic"),
    "g422": ("fixed-points", "generic"),
    "g423": ("fixed-points", "generic"),
    "g424": ("fixed-points", "generic"),
    "g431": ("fixed-points", "generic"),
    "g432": ("fixed-points", "generic"),
    "g433": ("fixed-points", "generic"),
    "g434": ("fixed-points", "generic"),
    "g441": ("fixed-points", "cylinders", "paraboloids"),
    "g442": ("fixed-points", "half-planes-x", "half-planes-y",
             "hyperbolic-cylinders", "hyperbolic-paraboloids"),
}


class TestStrata:
    def test_names(self):
        for name, params, g in family_fixtures():
            assert oa.strata_names(name, params) == EXPECTED_STRATA[name]

    def test_real_diamond_example(self):
        assert oa.stratum_of("g442", [1.0, 1.0, 1.0, 0.0]) \
            == "hyperbolic-paraboloids"
        assert oa.stratum_of("g442", [0.0, 0.0, 0.0, 5.0]) == "fixed-points"
        assert oa.stratum_of("g442", [2.0, 0.0, 0.0, 0.0]) == "half-planes-x"
        assert oa.stratum_of("g442", [0.0, 2.0, 0.0, 0.0]) == "half-planes-y"
        assert oa.stratum_of("g442", [1.0, 1.0, 0.0, 0.0]) \
            == "hyperbolic-cylinders"

    def test_boundary_tolerance(self):
        # A coordinate below 1e-9*(1+|F|) counts as zero.
        f = np.array([1.0, 1.0, 1e-12, 0.0])
        assert oa.stratum_of("g442", f) == "hyperbolic-cylinders"

    def test_g424_open_dense(self):
        assert oa.stratum_of("g424", [0.3, 1.0, 0.5, 0.2]) == "generic"
        assert oa.stratum_of("g424", [0.3, 0.0, 0.0, 0.2]) == "fixed-points"

    def test_random_base_lands_in_stratum(self):
        rng = np.random.default_rng(51)
        for name, params, g in family_fixtures():
            for stratum in oa.strata_names(name, params):
                for _ in range(5):
                    base = oa.random_base(name, stratum, rng, params)
                    assert oa.stratum_of(name, base, params) == stratum

    def test_unknown_family(self):
        with pytest.raises(oa.UnknownFamily):
            oa.strata_names("g999")

    def test_derived_coords_span_the_derived_algebra(self):
        # The fixed-point rule reads derived_dim: F is fixed exactly when
        # it vanishes on [g, g], the span of the named basis vectors.
        for name, params, g in family_fixtures():
            derived = lc.derived_subalgebra(g)
            assert families.FAMILIES[name].derived_dim == derived.dim
            coords = oa._derived_coords(name)
            assert len(coords) == derived.dim
            for i in coords:
                assert derived.residual(np.eye(4)[i]) < 1e-12, (name, i)


class TestOrbitModels:
    def test_fixed_points_are_point_models(self):
        rng = np.random.default_rng(52)
        for name, params, g in family_fixtures():
            base = oa.random_base(name, "fixed-points", rng, params)
            model = oa.orbit_model(name, base, params)
            assert model.kind == "Point"
            assert model.dim == 0
            assert co.orbit_dimension(g, base) == 0

    def test_model_dim_matches_kirillov_rank(self):
        rng = np.random.default_rng(53)
        for name, params, g in family_fixtures():
            for stratum in oa.strata_names(name, params):
                base = oa.random_base(name, stratum, rng, params)
                model = oa.orbit_model(name, base, params)
                assert model.dim == co.orbit_dimension(g, base)

    def test_membership_example(self):
        model = oa.orbit_model("g442", [1.0, 1.0, 1.0, 0.0])
        assert model.kind == "HyperbolicParaboloid"
        assert oa.orbit_membership(model, [1.0, 1.0, 1.0, 0.0]) == 0.0
        assert oa.orbit_membership(model, [5.0, -3.0, 2.0, 1.0]) > 1e-2

    def test_sampled_points_are_members(self):
        rng = np.random.default_rng(54)
        for name, params, g in family_fixtures():
            for stratum in oa.strata_names(name, params):
                base = oa.random_base(name, stratum, rng, params)
                model = oa.orbit_model(name, base, params)
                n = 1 if model.kind == "Point" else 60
                sample = co.sample_orbit(g, base, n, seed=7)
                worst = max(oa.orbit_membership(model, p)
                            for p in sample.points)
                assert worst < 1e-8, (name, stratum, worst)

    def test_point_off_its_orbit_rejected(self):
        model = oa.orbit_model("g442", [1.0, 1.0, 1.0, 0.0])
        # same stratum, different orbit parameter
        other = oa.orbit_model("g442", [2.0, 1.0, 1.0, 0.0])
        assert other.kind == model.kind
        sample = co.sample_orbit(families.build_family("g442"),
                                 np.array([2.0, 1.0, 1.0, 0.0]), 20, seed=8)
        worst = max(oa.orbit_membership(model, p) for p in sample.points)
        assert worst > 1e-4

    # Bases on which some log anchors are undefined (a zero reference
    # coordinate) or the rotating block has cos(phi) = 0.
    ANCHOR_DEGENERATE = [
        ("g421", (2.0,), [0.4, 0.0, 0.7, 0.3]),
        ("g421", (2.0,), [0.4, 0.9, 0.0, 0.3]),
        ("g422", (), [0.4, 0.0, 0.7, 0.3]),
        ("g431", (2.0, 3.0), [0.0, 0.9, 0.0, 0.3]),
        ("g432", (2.0,), [0.0, 0.9, 0.7, 0.3]),
        ("g432", (2.0,), [0.0, 0.9, 0.0, 0.3]),
        ("g433", (), [0.0, 0.9, 0.7, 0.3]),
        ("g433", (), [0.0, 0.0, 0.7, 0.3]),
        ("g423", (math.pi / 2,), [0.4, 0.9, 0.7, 0.3]),
        ("g434", (2.0, math.pi / 2), [0.4, 0.9, 0.0, 0.3]),
        ("g434", (2.0, math.pi / 2), [0.4, 0.9, 0.7, 0.3]),
        # zero radius in the rotating block: no angle to anchor by
        ("g434", (2.0, math.pi / 2), [0.0, 0.0, 0.7, 0.3]),
        # gamma below the stratum tolerance, but not zero
        ("g434", (2.0, math.pi / 2), [0.4, 0.9, 1e-12, 0.3]),
    ]

    @pytest.mark.parametrize("name, params, base", ANCHOR_DEGENERATE)
    def test_curve_membership_on_anchor_degenerate_bases(self, name, params,
                                                         base):
        model = oa.orbit_model(name, base, params)
        assert model.kind == "ParamCurveCylinder"
        g = families.build_family(name, *params)
        points = co.sample_orbit(g, np.array(base), 200, seed=11).points
        shift = np.array([1e-3, -2e-3, 3e-3, 0.0])
        for p in points:
            assert oa.orbit_membership(model, p) < 1e-8, p
            assert oa.orbit_membership(model, p + shift) > 1e-8, p
            if name == "g421":
                # no anchor places -p: the residual is its ceiling
                assert oa.orbit_membership(model, -p) == 1.0, p

    # phi = pi/2 - eps: cos(phi) ~ eps, where the radius anchor alone
    # amplified rounding into residuals of 4e-6 (eps = 1e-10).
    NEAR_ROTATION = [("g423", [0.4, 0.9, -0.7, 0.3]),
                     ("g434", [0.9, -0.7, 0.0, 0.3])]

    @pytest.mark.parametrize("eps", [1e-10, 1e-8])
    @pytest.mark.parametrize("name, base", NEAR_ROTATION)
    def test_curve_membership_near_a_pure_rotation(self, name, base, eps):
        phi = math.pi / 2 - eps
        params = (phi,) if name == "g423" else (1.0, phi)
        model = oa.orbit_model(name, base, params)
        assert model.kind == "ParamCurveCylinder"
        g = families.build_family(name, *params)
        points = co.sample_orbit(g, np.array(base), 200, seed=11).points
        shift = np.array([1e-3, -2e-3, 3e-3, 0.0])
        for p in points:
            assert oa.orbit_membership(model, p) < 1e-8, p
            assert oa.orbit_membership(model, p + shift) > 1e-8, p

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_point_fails_closed(self, bad):
        # max() never picks a NaN part, so a NaN coordinate once read as a
        # member (residual 0.0) of almost every model.
        rng = np.random.default_rng(56)
        for name, params, g in family_fixtures():
            for stratum in oa.strata_names(name, params):
                base = oa.random_base(name, stratum, rng, params)
                model = oa.orbit_model(name, base, params)
                for i in range(4):
                    p = base.copy()
                    p[i] = bad
                    with pytest.raises(lc.NonFiniteInput,
                                       match=f"coordinate {i} "):
                        oa.orbit_membership(model, p)

    def test_model_json_roundtrippable(self):
        import json
        model = oa.orbit_model("g421", [0.4, 1.0, 0.2, 0.0], (2.0,))
        doc = json.loads(json.dumps(model.to_json()))
        assert doc["kind"] == model.kind
        assert doc["dim"] == model.dim


class TestFoliation:
    def test_generic_ranks(self):
        for name, params, g in family_fixtures():
            spec = oa.distribution_spec(name, params)
            assert spec.generic_rank == (4 if name == "g424" else 2)

    def test_rank_at_generic_points(self):
        rng = np.random.default_rng(55)
        for name, params, g in family_fixtures():
            spec = oa.distribution_spec(name, params)
            for stratum in oa.strata_names(name, params):
                if stratum == "fixed-points":
                    continue
                for _ in range(10):
                    base = oa.random_base(name, stratum, rng, params)
                    assert oa.distribution_rank_at(spec, base) \
                        == spec.generic_rank

    def test_tangency(self):
        rng = np.random.default_rng(56)
        for name, params, g in family_fixtures():
            spec = oa.distribution_spec(name, params)
            strata = [s for s in oa.strata_names(name, params)
                      if s != "fixed-points"]
            for stratum in strata:
                base = oa.random_base(name, stratum, rng, params)
                sample = co.sample_orbit(g, base, 30, seed=9)
                assert oa.check_tangency(spec, sample, g) < 1e-6

    @staticmethod
    def _next_family_fields(i):
        """Fields of the system after family i in FAMILY_ORDER (cyclic)."""
        nxt = families.FAMILY_ORDER[(i + 1) % len(families.FAMILY_ORDER)]
        return oa.distribution_spec(nxt, families.default_params(nxt)).fields_

    def test_tangency_matches_a_pointwise_reference(self):
        # The stacked computation against one point and one tangent at a
        # time, on the true system and on the next family's (residuals of
        # order 0.1), so that both the zero and the nonzero values count.
        rng = np.random.default_rng(59)
        for i, (name, params, g) in enumerate(family_fixtures()):
            true = oa.distribution_spec(name, params)
            wrong = dataclasses.replace(true,
                                        fields_=self._next_family_fields(i))
            stratum = oa.strata_names(name, params)[1]
            base = oa.random_base(name, stratum, rng, params)
            sample = co.sample_orbit(g, base, 10, seed=9)
            for spec in (true, wrong):
                want = 0.0
                for p in sample.points:
                    span = lc.Subspace.from_columns(
                        np.column_stack([f(p) for f in spec.fields_]), 4)
                    for k in range(4):
                        v = co.flow_tangent(g, p, k)
                        want = max(want, span.residual(v)
                                   / (1.0 + np.linalg.norm(v)))
                got = oa.check_tangency(spec, sample, g)
                assert abs(got - want) <= 1e-14 * (1.0 + want), \
                    (name, spec.system, got, want)

    def test_tangency_rejects_fixed_points(self):
        g = families.build_family("g442")
        spec = oa.distribution_spec("g442")
        sample = co.sample_orbit(g, np.array([0.0, 0.0, 0.0, 1.0]), 3, seed=2)
        with pytest.raises(oa.StratumMismatch):
            oa.check_tangency(spec, sample, g)

    @staticmethod
    def _foliation_verdict(spec, g):
        """The foliation verdict of criterion 5 and ``orbiton foliation``:
        the rank is spec.generic_rank at every sample point of every
        non-fixed stratum, and the tangency residual is under 1e-6."""
        rng = np.random.default_rng(58)
        for stratum in oa.strata_names(spec.family, spec.params):
            if stratum == "fixed-points":
                continue
            base = oa.random_base(spec.family, stratum, rng, spec.params)
            sample = co.sample_orbit(g, base, 20, seed=9)
            if any(oa.distribution_rank_at(spec, p) != spec.generic_rank
                   for p in sample.points):
                return False
            if oa.check_tangency(spec, sample, g) >= 1e-6:
                return False
        return True

    def test_wrong_field_systems_fail_the_verdict(self):
        # Mutants of each family's system: the next family's fields (in
        # FAMILY_ORDER, cyclically), and every field matrix plus 1e-3 times
        # the cyclic shift.  The one exempt mutant is g424 perturbed: its
        # fields span all of R^4, as the perturbed ones still do, so the
        # foliation it describes does not change.
        shift = 1e-3 * np.roll(np.eye(4), 1, axis=1)
        passed = []
        for i, (name, params, g) in enumerate(family_fixtures()):
            spec = oa.distribution_spec(name, params)
            assert self._foliation_verdict(spec, g), name
            mutants = {
                "next": self._next_family_fields(i),
                "perturbed": tuple(oa.LinearField(f.matrix + shift, f.offset)
                                   for f in spec.fields_),
            }
            for kind, fields in mutants.items():
                mutant = dataclasses.replace(spec, fields_=fields)
                if self._foliation_verdict(mutant, g):
                    passed.append((name, kind))
        assert passed == [("g424", "perturbed")]

    def test_system_fields_are_affine(self):
        # every listed field evaluates linearly: X(p) + X(q) - X(0) = X(p+q)
        rng = np.random.default_rng(57)
        for name, params, g in family_fixtures():
            spec = oa.distribution_spec(name, params)
            p, q = rng.standard_normal((2, 4))
            for field in spec.fields_:
                lhs = field(p) + field(q) - field(np.zeros(4))
                assert np.allclose(lhs, field(p + q), atol=1e-10)


class TestPolarization:
    def test_real_diamond_polarization(self):
        g = families.build_family("g442")
        F = np.array([1.0, 1.0, 1.0, 0.0])
        h = lc.Subspace.from_columns(np.column_stack(
            [[1, 0, 0, 0], [0, 1, 0, -1], [0, 0, 1, 0]]).astype(float))
        rep = oa.check_polarization(g, F, h)
        assert rep.is_subalgebra
        assert rep.contains_stabilizer
        assert rep.isotropic
        assert rep.codim_ok
        assert rep.pukanszky_ok

    def test_booleans_invariant_under_positive_scaling(self):
        g = families.build_family("g442")
        F = np.array([1.0, 1.0, 1.0, 0.0])
        h = lc.Subspace.from_columns(np.column_stack(
            [[1, 0, 0, 0], [0, 1, 0, -1], [0, 0, 1, 0]]).astype(float))
        a = oa.check_polarization(g, F, h)
        b = oa.check_polarization(g, 7.5 * F, h)
        assert (a.is_subalgebra, a.contains_stabilizer, a.isotropic,
                a.codim_ok) == (b.is_subalgebra, b.contains_stabilizer,
                                b.isotropic, b.codim_ok)

    def test_wrong_codimension_detected(self):
        g = families.build_family("g442")
        F = np.array([1.0, 1.0, 1.0, 0.0])
        line = lc.Subspace.from_columns(
            np.array([[1.0], [0.0], [0.0], [0.0]]))
        assert not oa.check_polarization(g, F, line).codim_ok

    def test_aff_r_half_plane(self):
        g = families.aff_r()
        h = lc.Subspace.from_columns(np.array([[0.0], [1.0]]))
        rep = oa.check_polarization(g, np.array([0.0, 1.0]), h)
        assert rep.is_subalgebra and rep.isotropic
        assert rep.codim_ok and rep.pukanszky_ok


class TestAtlasExport:
    def test_family_atlas_shape(self):
        atlas = oa.family_atlas("g442", n_bases=2, cloud_points=10, seed=3)
        assert atlas["family"] == "g442"
        assert {s["name"] for s in atlas["strata"]} \
            == set(EXPECTED_STRATA["g442"])
        for entry in atlas["strata"]:
            for base in entry["bases"]:
                model = base["model"]
                assert base["orbit_dimension"] == model["dim"]
                rows = base["cloud_csv"].strip().splitlines()
                assert rows[0] == "x,y,z,t"
                expected = 1 if model["kind"] == "Point" else 10
                assert len(rows) == 1 + expected

    def test_atlas_reports_foliation(self):
        atlas = oa.family_atlas("g424", n_bases=1)
        assert atlas["foliation"]["generic_rank"] == 4
        assert atlas["topological_type"]
