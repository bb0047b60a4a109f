"""Tensor pipeline against hand oracles and catalogue closed forms."""

import numpy as np
import pytest

from finslercheck import catalogue, geometry, scalars, taylor
from finslercheck.calculus import TangentSample, jet_of, jet_of_many
from finslercheck.errors import DegenerateMetric, FinslerCheckError
from finslercheck.geometry import Domain, MetricModel
from finslercheck.sampling import tangent_samples


def test_euclidean_everything(euclid3, origin_e1):
    m = euclid3.model
    at = TangentSample((0.1, -0.4, 0.2), (3.0, 4.0, 0.0))
    assert geometry.energy(m, at) == pytest.approx(12.5)
    np.testing.assert_allclose(geometry.metric_tensor(m, at).components,
                               np.eye(3), atol=1e-12)
    ell = geometry.hilbert_form(m, origin_e1).components
    np.testing.assert_allclose(ell, [1.0, 0.0, 0.0], atol=1e-14)
    h = geometry.angular_metric(m, origin_e1).components
    np.testing.assert_allclose(h, np.diag([0.0, 1.0, 1.0]), atol=1e-12)
    for op in (geometry.spray_coefficients, geometry.nonlinear_connection,
               geometry.berwald_connection, geometry.berwald_curvature,
               geometry.mean_berwald, geometry.landsberg_tensor,
               geometry.jacobi_endomorphism, geometry.curvature_R):
        assert op(m, at).max_abs() <= 1e-12


def test_klein_at_origin(klein3, origin_e1):
    m = klein3.model
    assert geometry.energy(m, origin_e1) == pytest.approx(0.5)
    np.testing.assert_allclose(geometry.metric_tensor(m, origin_e1).components,
                               np.eye(3), atol=1e-12)
    phi = geometry.jacobi_endomorphism(m, origin_e1).components
    np.testing.assert_allclose(phi, np.diag([0.0, -1.0, -1.0]), atol=1e-9)


def test_funk_energy_direct_substitution():
    ent = catalogue.entry("funk_parallel", n=3, a=(0.5, 0.0, 0.0))
    at = TangentSample((0.0, 0.0, 0.0), (0.0, 1.0, 0.0))
    assert geometry.energy(ent.model, at) == pytest.approx(0.375, rel=1e-12)


def test_funk_spray_and_connection_hand_oracle():
    a = (0.5, 0.0, 0.0)
    ent = catalogue.entry("funk_parallel", n=3, a=a)
    at = TangentSample((0.0, 0.0, 0.0), (1.0, 0.0, 0.0))
    G = geometry.spray_coefficients(ent.model, at)
    np.testing.assert_allclose(G.components, [-0.5, 0.0, 0.0], atol=1e-12)
    assert G.notes["override_deviation"] <= 1e-12

    # hand oracle: q = -a/(1+<a,x>); N^i_j = q_j y^i + (q.y) delta^i_j
    q = np.array([-0.5, 0.0, 0.0])
    y = np.array(at.y)
    N_oracle = np.outer(y, q) + (q @ y) * np.eye(3)
    N = geometry.nonlinear_connection(ent.model, at).components
    np.testing.assert_allclose(N, N_oracle, atol=1e-12)
    assert N[0, 0] == pytest.approx(-1.0)
    assert N[1, 1] == pytest.approx(-0.5)
    assert N[2, 2] == pytest.approx(-0.5)

    # G^h_ij = q_i d^h_j + q_j d^h_i; in particular G^1_11 = -1
    conn = geometry.berwald_connection(ent.model, at).components
    conn_oracle = (np.einsum("i,hj->hij", q, np.eye(3))
                   + np.einsum("j,hi->hij", q, np.eye(3)))
    np.testing.assert_allclose(conn, conn_oracle, atol=1e-12)
    assert conn[0, 0, 0] == pytest.approx(-1.0)


def test_funk_is_berwald(funk3, samples10):
    for at in samples10[:4]:
        assert geometry.berwald_curvature(funk3.model, at).max_abs() <= 1e-12
        assert geometry.landsberg_tensor(funk3.model, at).max_abs() <= 1e-12
        assert geometry.mean_berwald(funk3.model, at).max_abs() <= 1e-12


def test_berwald_connection_y_independent_for_berwald_metrics(funk3):
    x = (0.2, -0.1, 0.3)
    c1 = geometry.berwald_connection(
        funk3.model, TangentSample(x, (1.0, 0.2, -0.4))).components
    c2 = geometry.berwald_connection(
        funk3.model, TangentSample(x, (-0.3, 0.9, 0.5))).components
    assert np.max(np.abs(c1 - c2)) <= 1e-9
    np.testing.assert_allclose(c1, funk3.connection_cf(x, None), atol=1e-10)


def test_general_berwald_spray_at_origin():
    ent = catalogue.entry("general_berwald", n=3, a=(0.0, 0.0, 0.0))
    at = TangentSample((0.0, 0.0, 0.0), (1.0, 0.0, 0.0))
    G = geometry.spray_coefficients(ent.model, at).components
    np.testing.assert_allclose(G, [1.0, 0.0, 0.0], atol=1e-12)


def test_berwald_curvature_matches_closed_form(gb3, samples10):
    for at in samples10[:5]:
        B = geometry.berwald_curvature(gb3.model, at)
        C = catalogue.closed_berwald_curvature(gb3, at)
        scale = max(1.0, C.max_abs())
        assert np.max(np.abs(B.components - C.components)) / scale <= 1e-6
        B.check_symmetries(1e-10)


def test_mean_berwald_equals_half_trace_of_closed_form(gb3, samples10):
    for at in samples10[:3]:
        E = geometry.mean_berwald(gb3.model, at).components
        C = catalogue.closed_berwald_curvature(gb3, at).components
        np.testing.assert_allclose(E, 0.5 * np.einsum("iijk->jk", C),
                                   atol=1e-7)


def test_jacobi_zero_for_classic(classic3, samples10):
    for at in samples10[:5]:
        m = classic3.model
        f2 = 2.0 * geometry.energy(m, at)
        assert geometry.jacobi_endomorphism(m, at).max_abs() <= 1e-6 * f2


def test_curvature_R_klein(klein3, samples10):
    for at in samples10[:4]:
        R = geometry.curvature_R(klein3.model, at)
        assert R.notes["orientation"] in (-1, 1)
        # exact antisymmetry as stored
        assert R.symmetry_violation() == 0.0
        phi = geometry.jacobi_endomorphism(klein3.model, at).components
        contracted = np.einsum("hjk,k->hj", R.components, np.array(at.y))
        scale = 1.0 + float(np.max(np.abs(phi)))
        assert np.max(np.abs(contracted - phi)) <= 1e-8 * scale


def test_euler_chain_all_catalogue(samples10):
    for name in catalogue.names():
        m = catalogue.entry(name, n=3).model
        for at in samples10[:3]:
            y = np.array(at.y)
            G = geometry.spray_coefficients(m, at).components
            N = geometry.nonlinear_connection(m, at).components
            conn = geometry.berwald_connection(m, at).components
            B = geometry.berwald_curvature(m, at).components
            E = geometry.mean_berwald(m, at).components
            L = geometry.landsberg_tensor(m, at).components
            phi = geometry.jacobi_endomorphism(m, at).components
            scale = 1.0 + max(np.max(np.abs(t)) for t in (G, N, conn, B))
            assert np.max(np.abs(N @ y - 2 * G)) <= 1e-9 * scale
            assert np.max(np.abs(np.einsum("hij,j->hi", conn, y) - N)) <= 1e-9 * scale
            assert np.max(np.abs(np.einsum("hijk,k->hij", B, y))) <= 1e-9 * scale
            assert np.max(np.abs(E @ y)) <= 1e-9 * scale
            assert np.max(np.abs(np.einsum("ijk,k->ij", L, y))) <= 1e-9 * scale
            assert np.max(np.abs(phi @ y)) <= 1e-9 * (1.0 + np.max(np.abs(phi)))


def test_angular_metric_trace_identity(samples10):
    # g^{ij} h_ij = n - 1
    for name in catalogue.names():
        m = catalogue.entry(name, n=3).model
        for at in samples10[:3]:
            ginv = geometry.metric_inverse(m, at)
            h = geometry.angular_metric(m, at).components
            tr = float(np.trace(ginv @ h))
            assert tr == pytest.approx(2.0, abs=1e-8)


def test_degenerate_metric_detected():
    # F = <x,y> is fiberwise linear: g has rank 1
    m = MetricModel(3, lambda x, y: scalars.dot(x, y), Domain(None),
                    name="linear")
    at = TangentSample((0.5, 0.2, 0.1), (1.0, 0.3, 0.2))
    with pytest.raises(DegenerateMetric):
        geometry.metric_tensor(m, at)
    with pytest.raises(DegenerateMetric):
        geometry.spray_coefficients(m, at)


def test_delta_derivative_examples(euclid3, funk3):
    m = euclid3.model
    at = TangentSample((0.3, -0.2, 0.5), (0.6, 0.8, 0.0))
    const_beta = lambda x, y: scalars.dot((0.7, -0.1, 0.4), y)
    assert geometry.delta_derivative(m, const_beta, at).max_abs() <= 1e-14

    xbeta = lambda x, y: scalars.dot(x, y)
    d = geometry.delta_derivative(m, xbeta, at).components
    np.testing.assert_allclose(d, at.y, atol=1e-12)

    omega = funk3.parallel_family(c=1.0, c_mu=(0.0, 0.0))
    beta = omega.beta()
    for at in tangent_samples(3, 5, seed=9):
        assert geometry.delta_derivative(funk3.model, beta, at).max_abs() <= 1e-8


def test_spray_only_model():
    # spray-only models drive delta derivatives without an F
    ent = catalogue.entry("funk_parallel", n=3, a=(0.5, 0.1, 0.0))
    m = MetricModel(3, None, Domain(1.0), spray_override=ent.spray_cf,
                    name="spray_only")
    at = TangentSample((0.2, 0.1, -0.3), (0.5, -0.5, 0.7))
    G1 = geometry.spray_coefficients(m, at).components
    G2 = geometry.spray_coefficients(ent.model, at).components
    np.testing.assert_allclose(G1, G2, atol=1e-10)


def test_fd_scheme_pipeline_agrees_coarsely(klein3):
    at = TangentSample((0.1, -0.2, 0.25), (0.3, 0.9, -0.3))
    N_ad = geometry.nonlinear_connection(klein3.model, at, scheme="ad").components
    N_fd = geometry.nonlinear_connection(klein3.model, at, scheme="fd").components
    assert np.max(np.abs(N_ad - N_fd)) <= 1e-5 * (1.0 + np.max(np.abs(N_ad)))
    phi_ad = geometry.jacobi_endomorphism(klein3.model, at, scheme="ad").components
    phi_fd = geometry.jacobi_endomorphism(klein3.model, at, scheme="fd").components
    assert np.max(np.abs(phi_ad - phi_fd)) <= 1e-4 * (1.0 + np.max(np.abs(phi_ad)))


@pytest.mark.parametrize("name,n,a", [
    ("general_berwald", 2, (0.1, 0.05)),
    ("general_berwald", 3, (0.1, 0.05, 0.0)),
    ("klein", 3, None),
    ("funk_parallel", 3, (0.5, 0.1, 0.0)),
    ("berwald_classic", 3, None),
])
@pytest.mark.parametrize("kx,ky", [(1, 2), (1, 3)])
def test_spray_jets_match_nested_reference(name, n, a, kx, ky):
    # derivative shifts of one flat energy jet against differentiating the
    # spray evaluation itself, whose energy jet nests inside the outer one
    m = catalogue.entry(name, n=n, a=a).model
    for at in tangent_samples(n, 2, seed=31):
        got = geometry.spray_jets(m, at, kx, ky)
        ref = jet_of_many(lambda xs, ys: geometry._spray_scalars(m, xs, ys),
                          (at.x, at.y), (kx, ky))
        assert len(got) == len(ref) == n
        for g, r in zip(got, ref):
            assert g.table.shape == r.table.shape
            scale = max(1.0, float(np.max(np.abs(r.table))))
            assert np.max(np.abs(g.table - r.table)) <= 1e-11 * scale


def test_spray_jets_build_only_flat_algebras(monkeypatch):
    # the spray of an F model is differentiated without nested algebras
    monkeypatch.setattr(taylor, "_ALGEBRAS", {})
    m = catalogue.entry("general_berwald", n=3, a=(0.1, 0.05, 0.0)).model
    at = TangentSample((0.1, -0.2, 0.3), (0.6, 0.0, 0.8))
    geometry.spray_jets(m, at, 1, 3)
    built = list(taylor._ALGEBRAS)
    assert built and max(len(blocks) for blocks in built) <= 2


def test_fd_spray_jets_equal_per_component_reference():
    # the FD spray jets evaluate the spray vector once per stencil point and
    # give exactly the numbers of differentiating each component alone
    m = catalogue.entry("general_berwald", n=2, a=(0.1, 0.05)).model
    at = tangent_samples(2, 1, seed=41)[0]
    got = geometry.spray_jets(m, at, 0, 3, scheme="fd")
    assert len(got) == 2
    for i, g in enumerate(got):
        ref = jet_of(lambda xs, ys, i=i: geometry._spray_scalars(m, xs, ys)[i],
                     (at.x, at.y), (0, 3), scheme="fd")
        assert np.array_equal(g.table, ref.table)


@pytest.mark.parametrize("scheme", ["ad", "fd"])
def test_spray_homogeneity_one_evaluation_per_scale(scheme, monkeypatch):
    # the base value once, then the whole spray vector once per scale
    calls = []
    spray = geometry._spray_scalars

    def counted(m, x, y):
        calls.append(1)
        return spray(m, x, y)

    monkeypatch.setattr(geometry, "_spray_scalars", counted)
    m = catalogue.entry("general_berwald", n=3, a=(0.1, 0.05, 0.0)).model
    at = TangentSample((0.1, -0.2, 0.3), (0.6, 0.0, 0.8))
    geometry.spray_coefficients(m, at, scheme)
    assert len(calls) <= 4


def test_spray_homogeneity_names_the_component():
    m = MetricModel(3, None, Domain(None),
                    spray_override=lambda x, y: (y[0] * y[0], y[1], 0.0),
                    name="not_homogeneous")
    at = TangentSample((0.1, 0.0, 0.0), (0.5, 0.5, -0.7))
    with pytest.raises(FinslerCheckError,
                       match="spray component 1 is not 2-homogeneous"):
        geometry.spray_coefficients(m, at)


def test_spray_jets_live_on_the_sample(monkeypatch):
    # jets are computed once per (sample, model, order, scheme); another
    # sample object at the same point, or another model, computes afresh
    computed = []
    shifted = geometry._shifted_spray_jets

    def counted(m, at, kx, ky):
        computed.append((m, at))
        return shifted(m, at, kx, ky)

    monkeypatch.setattr(geometry, "_shifted_spray_jets", counted)
    klein = catalogue.entry("klein", n=3).model
    funk = catalogue.entry("funk_parallel", n=3, a=(0.5, 0.1, 0.0)).model
    x, y = (0.1, -0.2, 0.3), (0.6, 0.7, -0.3)
    at = TangentSample(x, y)
    first = geometry.spray_jets(klein, at, 1, 2)
    assert geometry.spray_jets(klein, at, 1, 2) is first
    assert computed == [(klein, at)]
    again = TangentSample(x, y)
    fresh = geometry.spray_jets(klein, again, 1, 2)
    assert fresh is not first
    assert all(np.array_equal(a.table, b.table) for a, b in zip(fresh, first))
    geometry.spray_jets(funk, at, 1, 2)
    assert computed == [(klein, at), (klein, again), (funk, at)]
