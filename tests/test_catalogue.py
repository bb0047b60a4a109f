"""Catalogue wiring and closed-form oracles."""

import numpy as np
import pytest

from finslercheck import catalogue, geometry, scalars
from finslercheck.calculus import TangentSample, jet_of
from finslercheck.errors import BadParameter, NonFiniteValue
from finslercheck.sampling import tangent_samples
from oracles import funk_parallel_connection, projective_factor_jets


def test_general_berwald_a0_equals_classic():
    gb = catalogue.entry("general_berwald", n=3, a=(0.0, 0.0, 0.0))
    bc = catalogue.entry("berwald_classic", n=3)
    for at in tangent_samples(3, 50, seed=5):
        va = gb.model.F(at.x, at.y)
        vb = bc.model.F(at.x, at.y)
        assert abs(va - vb) <= 1e-12 * (1.0 + abs(vb))


def test_klein_reduces_to_norm_at_origin():
    klein = catalogue.entry("klein", n=3)
    for y in [(1.0, 0.0, 0.0), (0.3, -0.4, 1.2)]:
        at = TangentSample((0.0, 0.0, 0.0), y)
        assert klein.model.F(at.x, at.y) == pytest.approx(
            np.linalg.norm(y), rel=1e-14)


def test_funk_closed_spray_value():
    ent = catalogue.entry("funk_parallel", n=3, a=(0.5, 0.0, 0.0))
    G = ent.spray_cf((0.0, 0.0, 0.0), (1.0, 0.0, 0.0))
    assert tuple(G) == pytest.approx((-0.5, 0.0, 0.0))


def test_default_parameters_pad_across_dimensions():
    for n in (2, 3, 4):
        for name in ("funk_parallel", "general_berwald"):
            ent = catalogue.entry(name, n=n)
            assert len(ent.params["a"]) == n
            # defaults must stay valid metrics
            at = TangentSample((0.1,) * n, (1.0,) + (0.2,) * (n - 1))
            assert float(ent.model.F(at.x, at.y)) > 0.0


def test_bad_parameters():
    with pytest.raises(BadParameter):
        catalogue.entry("general_berwald", n=3, a=(1.0, 0.3, 0.0))
    with pytest.raises(BadParameter):
        catalogue.entry("funk_parallel", n=3, a=(0.5, 0.1))
    with pytest.raises(BadParameter):
        catalogue.entry("nope")
    with pytest.raises(BadParameter):
        catalogue.entry("euclidean", n=1)
    ent = catalogue.entry("funk_parallel", n=3, a=(0.0, 0.5, 0.0))
    with pytest.raises(BadParameter):
        ent.parallel_family(c=1.0)
    with pytest.raises(BadParameter):
        catalogue.entry("klein", n=3, bogus=1)


def test_closed_berwald_curvature_a_independent(samples10):
    g1 = catalogue.entry("general_berwald", n=3, a=(0.1, 0.0, 0.0))
    g2 = catalogue.entry("general_berwald", n=3, a=(0.0, 0.0, 0.0))
    for at in samples10[:4]:
        c1 = g1.berwald_curvature_cf(at.x, at.y)
        c2 = g2.berwald_curvature_cf(at.x, at.y)
        np.testing.assert_array_equal(c1, c2)


def test_closed_berwald_curvature_contraction(gb3, samples10):
    for at in samples10[:4]:
        C = geometry.TensorValue(gb3.berwald_curvature_cf(at.x, at.y),
                                 (("sym", (1, 2, 3)),))
        y = np.array(at.y)
        assert np.max(np.abs(np.einsum("hijk,k->hij", C.components, y))) <= 1e-9
        assert C.symmetry_violation() <= 1e-10 * (1.0 + C.max_abs())


def test_closed_berwald_curvature_domain():
    gb = catalogue.entry("general_berwald", n=3)
    with pytest.raises(NonFiniteValue):
        gb.berwald_curvature_cf((1.1, 0.0, 0.0), (1.0, 0.0, 0.0))


def test_projective_factor_jets_at_origin():
    at = TangentSample((0.0, 0.0, 0.0), (0.6, -0.8, 0.0))
    pj = projective_factor_jets(at)
    u = np.linalg.norm(at.y)
    assert pj.P == pytest.approx(u, rel=1e-12)
    np.testing.assert_allclose(pj.P_i, np.array(at.y) / u, atol=1e-12)


def test_projective_factor_jets_symmetry_and_ad(samples10):
    for at in samples10[:4]:
        pj = projective_factor_jets(at)
        np.testing.assert_allclose(pj.P_ij, pj.P_ij.T, atol=1e-10)
        for perm in ((0, 2, 1), (1, 0, 2), (2, 1, 0)):
            np.testing.assert_allclose(pj.P_ijk,
                                       np.transpose(pj.P_ijk, perm),
                                       atol=1e-10)
        # AD oracle for the fiber derivatives of the projective factor
        jet = jet_of(lambda yv: catalogue._shared_projective_factor(at.x, yv),
                     (at.y,), (3,))
        n = 3
        for i in range(n):
            assert pj.P_i[i] == pytest.approx(jet.pvars((i,)), abs=1e-8)
            for j in range(n):
                assert pj.P_ij[i, j] == pytest.approx(
                    jet.pvars((i, j)), abs=1e-8)
                for k in range(n):
                    assert pj.P_ijk[i, j, k] == pytest.approx(
                        jet.pvars((i, j, k)), abs=1e-8)


def test_assembly_identity_matches_closed_form(gb3, samples10):
    for at in samples10[:4]:
        pj = projective_factor_jets(at)
        C = gb3.berwald_curvature_cf(at.x, at.y)
        np.testing.assert_allclose(pj.assemble_berwald(at.y), C, atol=1e-9)


def test_closed_forms_match_pipeline():
    # every catalogue entry carrying a closed-form spray agrees with AD
    samples = tangent_samples(3, 100, seed=303)
    for name in catalogue.names():
        ent = catalogue.entry(name, n=3)
        for at in samples:
            G = geometry.spray_coefficients(ent.model, at)
            ref = np.array([scalars.value(v) for v in ent.spray_cf(at.x, at.y)])
            scale = 1.0 + float(np.max(np.abs(ref)))
            assert np.max(np.abs(G.components - ref)) <= 1e-6 * scale


def test_funk_closed_connection_matches_pipeline():
    ent = catalogue.entry("funk_parallel", n=3, a=(0.5, 0.1, 0.0))
    for at in tangent_samples(3, 100, seed=305):
        C = geometry.berwald_connection(ent.model, at).components
        ref = funk_parallel_connection(ent.params["a"], at.x)
        assert np.max(np.abs(C - ref)) <= 1e-6 * (1.0 + np.max(np.abs(ref)))


def test_berwald_classic_phi_value():
    assert catalogue.berwald_classic_phi(0.0, 0.0) == pytest.approx(1.0)
    # profile reproduces F = u * phi(r, s)
    bc = catalogue.entry("berwald_classic", n=3)
    for at in tangent_samples(3, 10, seed=3):
        x, y = np.array(at.x), np.array(at.y)
        u = np.linalg.norm(y)
        r = np.linalg.norm(x)
        s = float(x @ y) / u
        assert bc.model.F(at.x, at.y) == pytest.approx(
            u * catalogue.berwald_classic_phi(r, s), rel=1e-12)
