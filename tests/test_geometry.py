"""Tensor pipeline against hand oracles and catalogue closed forms."""

import ast
import inspect
import math
from collections import Counter

import numpy as np
import pytest

from finslercheck import (analysis, catalogue, cli, forms, geometry, sampling,
                          scalars, taylor)
from finslercheck.calculus import FD_BATCH, TangentSample, jet_of, jet_of_many
from finslercheck.config import build_config
from finslercheck.errors import (DegenerateMetric, FinslerCheckError,
                                 NonFiniteValue)
from finslercheck.geometry import Domain, MetricModel
from finslercheck.sampling import map_samples, tangent_samples
from oracles import funk_parallel_connection

# the twelve pipeline ops, metric_tensor to delta_derivative
GEOMETRY_OPS = geometry.__all__[geometry.__all__.index("metric_tensor"):]


def test_euclidean_everything(euclid3, origin_e1):
    m = euclid3.model
    at = TangentSample((0.1, -0.4, 0.2), (3.0, 4.0, 0.0))
    assert geometry.energy(m, at) == pytest.approx(12.5)
    np.testing.assert_allclose(geometry.metric_tensor(m, at).components,
                               np.eye(3), atol=1e-12)
    ell = geometry.hilbert_form(m, origin_e1).components
    np.testing.assert_allclose(ell, [1.0, 0.0, 0.0], atol=1e-14)
    g = geometry.metric_tensor(m, origin_e1)
    h = geometry.angular_metric(m, origin_e1, g).components
    np.testing.assert_allclose(h, np.diag([0.0, 1.0, 1.0]), atol=1e-12)
    B = geometry.berwald_curvature(m, at)
    phi = geometry.jacobi_endomorphism(m, at)
    for t in (geometry.spray_coefficients(m, at),
              geometry.nonlinear_connection(m, at),
              geometry.berwald_connection(m, at), B, geometry.mean_berwald(B),
              geometry.landsberg_tensor(B, geometry.hilbert_form(m, at)), phi,
              geometry.curvature_R(m, at, phi)):
        assert t.max_abs() <= 1e-12


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
    np.testing.assert_allclose(G.components, ent.spray_cf(at.x, at.y),
                               rtol=0.0, atol=1e-12)

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
        B = geometry.berwald_curvature(funk3.model, at)
        assert B.max_abs() <= 1e-12
        ell = geometry.hilbert_form(funk3.model, at)
        assert geometry.landsberg_tensor(B, ell).max_abs() <= 1e-12
        assert geometry.mean_berwald(B).max_abs() <= 1e-12


def test_berwald_connection_y_independent_for_berwald_metrics(funk3):
    x = (0.2, -0.1, 0.3)
    c1 = geometry.berwald_connection(
        funk3.model, TangentSample(x, (1.0, 0.2, -0.4))).components
    c2 = geometry.berwald_connection(
        funk3.model, TangentSample(x, (-0.3, 0.9, 0.5))).components
    assert np.max(np.abs(c1 - c2)) <= 1e-9
    np.testing.assert_allclose(
        c1, funk_parallel_connection(funk3.params["a"], x), atol=1e-10)


def test_general_berwald_spray_at_origin():
    ent = catalogue.entry("general_berwald", n=3, a=(0.0, 0.0, 0.0))
    at = TangentSample((0.0, 0.0, 0.0), (1.0, 0.0, 0.0))
    G = geometry.spray_coefficients(ent.model, at).components
    np.testing.assert_allclose(G, [1.0, 0.0, 0.0], atol=1e-12)


def test_berwald_curvature_matches_closed_form(gb3, samples10):
    for at in samples10[:5]:
        B = geometry.berwald_curvature(gb3.model, at)
        C = gb3.berwald_curvature_cf(at.x, at.y)
        scale = max(1.0, float(np.max(np.abs(C))))
        assert np.max(np.abs(B.components - C)) / scale <= 1e-6
        assert B.symmetry_violation() <= 1e-10 * (1.0 + B.max_abs())


def test_mean_berwald_equals_half_trace_of_closed_form(gb3, samples10):
    for at in samples10[:3]:
        E = geometry.mean_berwald(
            geometry.berwald_curvature(gb3.model, at)).components
        C = gb3.berwald_curvature_cf(at.x, at.y)
        np.testing.assert_allclose(E, 0.5 * np.einsum("iijk->jk", C),
                                   atol=1e-7)


def test_jacobi_zero_for_classic(classic3, samples10):
    for at in samples10[:5]:
        m = classic3.model
        f2 = 2.0 * geometry.energy(m, at)
        assert geometry.jacobi_endomorphism(m, at).max_abs() <= 1e-6 * f2


def test_curvature_R_klein(klein3, samples10):
    for at in samples10[:4]:
        phi = geometry.jacobi_endomorphism(klein3.model, at)
        R = geometry.curvature_R(klein3.model, at, phi)
        assert R.notes["orientation"] in (-1, 1)
        # exact antisymmetry as stored
        assert R.symmetry_violation() == 0.0
        phi = phi.components
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
            Bt = geometry.berwald_curvature(m, at)
            B = Bt.components
            E = geometry.mean_berwald(Bt).components
            L = geometry.landsberg_tensor(Bt, geometry.hilbert_form(m, at)).components
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
            g = geometry.metric_tensor(m, at)
            ginv = np.linalg.inv(g.components)
            h = geometry.angular_metric(m, at, g).components
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
    with pytest.raises(DegenerateMetric):  # FD solves its stencil as rows
        geometry.nonlinear_connection(m, at, scheme="fd")


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
    # spray evaluation itself, whose energy jet nests inside the outer one,
    # on every partial of the tier's demand staircase; the x-order-1,
    # y-order-2 partials lie outside it and are not computed
    m = catalogue.entry(name, n=n, a=a).model
    for at in tangent_samples(n, 2, seed=31):
        got = geometry.spray_jets(m, at, kx, ky)
        ref = jet_of_many(lambda xs, ys: geometry._spray_scalars(m, xs, ys),
                          (at.x, at.y), (kx, ky))
        assert len(got) == len(ref) == n
        for g, r in zip(got, ref):
            assert g.table.shape == r.table.shape
            scale = max(1.0, float(np.max(np.abs(r.table))))
            for dx, dy in _demand(kx, ky):
                diff = g.dense(dx, dy) - r.dense(dx, dy)
                assert np.max(np.abs(diff)) <= 1e-11 * scale, (dx, dy)
        with pytest.raises(KeyError):
            _partials(got, 1, 2)


def _partials(jets, kx, ky):
    """Partials of order (kx, ky) of each spray component, component axis
    first: ``_partials(jets, 1, 2)[h, k, i, j]`` is d_k dy_i dy_j G^h."""
    return np.array([j.dense(kx, ky) for j in jets])


def _demand(kx, ky):
    """(x-order, y-order) of each spray partial an AD (kx, ky) tier keeps."""
    spray_stair, _ = geometry._AD_STAIRS[(kx, ky)]
    return [(dx, dy) for dx, cap in enumerate(spray_stair)
            for dy in range(cap + 1)]


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


def test_spray_homogeneity_one_evaluation_per_scale(monkeypatch):
    # the base value once, then the whole spray vector once per scale
    calls = []
    spray = geometry._spray_scalars

    def counted(m, x, y):
        calls.append(1)
        return spray(m, x, y)

    monkeypatch.setattr(geometry, "_spray_scalars", counted)
    m = catalogue.entry("general_berwald", n=3, a=(0.1, 0.05, 0.0)).model
    at = TangentSample((0.1, -0.2, 0.3), (0.6, 0.0, 0.8))
    geometry.spray_coefficients(m, at)
    assert len(calls) <= 4


def test_spray_homogeneity_names_the_component():
    m = MetricModel(3, None, Domain(None),
                    spray_override=lambda x, y: (y[0] * y[0], y[1], 0.0),
                    name="not_homogeneous")
    at = TangentSample((0.1, 0.0, 0.0), (0.5, 0.5, -0.7))
    with pytest.raises(FinslerCheckError,
                       match="spray component 1 is not 2-homogeneous"):
        geometry.spray_coefficients(m, at)


def test_spray_partials_live_on_the_sample(monkeypatch):
    # spray partials are computed once per (sample, model, order, scheme),
    # also outside a loop; another sample object at the same point, or
    # another model, computes afresh; spray_jets, a library read, computes
    # on every call and keeps nothing
    computed = []
    shifted = geometry._shifted_spray_jets

    def counted(m, x, y, kx, ky):
        computed.append(m)
        return shifted(m, x, y, kx, ky)

    monkeypatch.setattr(geometry, "_shifted_spray_jets", counted)
    klein = catalogue.entry("klein", n=3).model
    funk = catalogue.entry("funk_parallel", n=3, a=(0.5, 0.1, 0.0)).model
    x, y = (0.1, -0.2, 0.3), (0.6, 0.7, -0.3)
    at = TangentSample(x, y)
    key = ("spray_partials", klein, 1, 2, "ad")
    first = geometry.nonlinear_connection(klein, at).components
    held = at.jets[key]
    assert geometry.nonlinear_connection(klein, at).components.tobytes() \
        == first.tobytes()
    assert at.jets[key] is held and computed == [klein]
    again = TangentSample(x, y)
    fresh = geometry.nonlinear_connection(klein, again).components
    assert again.jets[key] is not held
    assert fresh.tobytes() == first.tobytes()
    geometry.nonlinear_connection(funk, at)
    assert computed == [klein, klein, funk]
    jets = geometry.spray_jets(klein, at, 1, 2)
    assert geometry.spray_jets(klein, at, 1, 2) is not jets
    assert computed == [klein, klein, funk, klein, klein]
    assert len(at.jets) == 4


def _count_energy_jets(monkeypatch):
    """Each energy jet taken for spray jets, in order: the (x, y) points of
    its rows (one for a lone sample's batch of one)."""
    built = []
    shifted = geometry._shifted_spray_jets

    def counted(m, x, y, kx, ky):
        built.append([(tuple(map(float, px)), tuple(map(float, py)))
                      for px, py in zip(zip(*x), zip(*y))])
        return shifted(m, x, y, kx, ky)

    monkeypatch.setattr(geometry, "_shifted_spray_jets", counted)
    return built


@pytest.mark.parametrize("name", ["general_berwald", "klein"])
def test_a_lone_chain_takes_one_energy_jet(name, monkeypatch):
    # outside a loop the sample is a loop of one: the Berwald curvature's
    # (1, 3) rows stay on it, and N, C and Phi read their (1, 2) partials
    # off them
    built = _count_energy_jets(monkeypatch)
    m = catalogue.entry(name, n=3).model
    at = TangentSample((0.1, -0.2, 0.3), (0.6, 0.7, -0.3))
    cli._chain(m, at)
    assert built == [[(at.x, at.y)]]


def _assert_built_once_in_batches(built, points):
    # ceil(samples / SPRAY_BATCH) batches, and each sample in exactly one
    # batch, so no sample takes its own
    assert len(built) == math.ceil(len(points) / geometry.SPRAY_BATCH)
    rows = [p for batch in built for p in batch]
    assert len(rows) == len(set(rows)) and set(rows) == set(points)


def _assert_reads_equal(got, ref):
    # every spray partial an op reads from a (1, 2) tier, bit for bit
    for kx, ky in _demand(1, 2):
        want = _partials(ref, kx, ky)
        assert got[kx, ky].shape == want.shape, (kx, ky)
        assert got[kx, ky].tobytes() == want.tobytes(), (kx, ky)


def _loop_partials(m, samples, tier):
    """Each sample's spray partials of ``tier``, read in a per-sample loop
    over ``samples``, by order."""
    return map_samples(lambda at: {
        o: p[0] for o, p in
        geometry._spray_partials(m, [at], tier, "ad").items()}, samples)


@pytest.mark.parametrize("name,n,a", [
    ("general_berwald", 2, None), ("general_berwald", 3, (0.1, 0.05, 0.0)),
    ("klein", 3, None), ("funk_parallel", 3, (0.5, 0.1, 0.0))])
def test_cut_spray_jets_equal_direct_jets(name, n, a, monkeypatch):
    # with the (1, 3) rows held on the samples, a (1, 2) read in a loop
    # takes them without a new energy jet, and they read as the direct
    # (1, 2) jets
    m = catalogue.entry(name, n=n, a=a).model
    samples = tangent_samples(n, 3, seed=31, radius=0.5)
    map_samples(lambda at: geometry.berwald_curvature(m, at), samples)
    direct = [geometry.spray_jets(m, TangentSample(at.x, at.y), 1, 2)
              for at in samples]
    built = _count_energy_jets(monkeypatch)
    for got, ref in zip(_loop_partials(m, samples, "jacobi"), direct):
        _assert_reads_equal(got, ref)
    assert built == []
    assert not any(("spray_partials", m, 1, 2, "ad") in at.jets
                   for at in samples)


def test_cut_spray_jets_of_a_spray_only_model():
    klein = catalogue.entry("klein", n=3)
    m = MetricModel(3, domain=klein.model.domain,
                    spray_override=klein.spray_cf, name="klein spray")
    samples = [TangentSample((0.1, -0.2, 0.3), (0.6, 0.7, -0.3)),
               TangentSample((0.2, 0.1, -0.3), (0.0, 0.6, 0.8))]
    map_samples(lambda at: geometry.berwald_curvature(m, at), samples)
    for got, at in zip(_loop_partials(m, samples, "jacobi"), samples):
        ref = jet_of_many(lambda xs, ys: geometry._spray_scalars(m, xs, ys),
                          (at.x, at.y), (1, 2))
        _assert_reads_equal(got, ref)
        assert list(at.jets) == [("spray_partials", m, 1, 3, "ad"),
                                 ("Berwald curvature", m, "ad")]


def test_fd_spray_jets_are_never_cut(monkeypatch):
    # FD jets are always taken at the order asked for: an FD read takes
    # neither the AD (1, 3) rows nor FD rows of a higher order that its
    # sample holds
    m = catalogue.entry("klein", n=2).model
    at = TangentSample((0.1, -0.2), (0.6, 0.8))
    geometry.berwald_curvature(m, at)
    geometry.berwald_connection(m, at, "fd")
    assert ("spray_partials", m, 1, 3, "ad") in at.jets
    assert ("spray_partials", m, 0, 2, "fd") in at.jets
    orders = []
    many = geometry.jet_of_many

    def counted(fn, groups, caps, scheme="ad", **kwargs):
        orders.append((caps, scheme))
        return many(fn, groups, caps, scheme, **kwargs)

    monkeypatch.setattr(geometry, "jet_of_many", counted)
    geometry.nonlinear_connection(m, at, "fd")
    assert orders == [((0, 1), "fd")]
    geometry.spray_jets(m, at, 0, 1, "fd")
    assert orders == [((0, 1), "fd")] * 2


@pytest.mark.parametrize("n", [2, 3])
def test_scan_builds_each_samples_spray_jets_once_in_batches(n, monkeypatch):
    built = _count_energy_jets(monkeypatch)
    m = catalogue.entry("general_berwald", n=n).model
    xs = sampling.base_points(n, 3, 0, m.domain.default_sample_radius())
    ys = sampling.fiber_samples(n, n + 4, 104729)
    analysis.parallel_obstruction_scan(m, x_points=3, y_per_point=n + 4)
    _assert_built_once_in_batches(built, [(x, y) for x in xs for y in ys])


@pytest.mark.parametrize("command", ["tensors", "invariants"])
def test_commands_build_each_samples_spray_jets_once_in_batches(
        command, monkeypatch, capsys):
    built = _count_energy_jets(monkeypatch)
    assert cli.main([command, "--metric", "general_berwald",
                     "--samples", "20"]) == 0
    cfg = build_config(command, overrides={"metric": "general_berwald",
                                           "samples": "20"})
    samples = cli._samples(cfg, cli._resolve_metric(cfg)[1])
    _assert_built_once_in_batches(built, [(at.x, at.y) for at in samples])


def _lone_partials(m, point, kx, ky):
    """The spray partials a (kx, ky) read holds, from ``point``'s own
    spray jets: one array per order, the component axis first."""
    jets = geometry.spray_jets(m, TangentSample(*point), kx, ky)
    return [_partials(jets, *o) for o in geometry._SPRAY_ORDERS
            if o[0] <= kx and o[1] <= ky]


@pytest.mark.parametrize("kx,ky", [(1, 2), (1, 3)])
@pytest.mark.parametrize("name,n", [
    (name, n) for name in ("general_berwald", "funk_parallel", "klein",
                           "berwald_classic") for n in (2, 3)])
def test_batched_spray_jets_equal_per_sample_jets(name, n, kx, ky):
    # one, part of one, exactly one, one and a bit, and two and a bit
    # batches of SPRAY_BATCH samples, then the edges of FD_BATCH: every
    # sample's spray partials held in a loop are those of its own spray
    # jets, its batch of one, bit for bit
    m = catalogue.entry(name, n=n).model
    op = {2: geometry.nonlinear_connection, 3: geometry.berwald_curvature}[ky]
    points = [(at.x, at.y) for at in tangent_samples(
        n, FD_BATCH + 1, seed=13, radius=0.5)]
    refs = [[(a.shape, a.tobytes()) for a in _lone_partials(m, p, kx, ky)]
            for p in points]
    for count in (1, 15, 16, 17, 33, FD_BATCH - 1, FD_BATCH, FD_BATCH + 1):
        samples = [TangentSample(*p) for p in points[:count]]
        map_samples(lambda at: op(m, at) if at is samples[0] else None,
                    samples)
        for at, ref in zip(samples, refs):
            got = at.jets[("spray_partials", m, kx, ky, "ad")]
            assert [(p.shape, p.tobytes()) for p in got] == ref


def test_a_failing_spray_batch_and_non_finite_rows_read_alone(monkeypatch):
    # a batch of spray jets that raises leaves None on each sample of its
    # fill, and a row with a non-finite jet entry None on its sample; those
    # samples read alone, so each passes or fails with its own error, and
    # one that passes holds what it read alone
    m = catalogue.entry("general_berwald", n=2).model
    samples = tangent_samples(2, 20, seed=4, radius=0.5)
    key = ("spray_partials", m, 1, 3, "ad")
    assemble = geometry._assemble_spray

    def at_target(y, target):  # the rows whose y is the target's
        return np.equal(scalars.value(y[0]), target.y[0])

    def degenerate(n, y, d):
        if np.any(at_target(y, samples[3])):
            raise DegenerateMetric("forced")
        return assemble(n, y, d)

    def nan_entry(n, y, d):
        out = assemble(n, y, d)
        out[0].c[1:, at_target(y, samples[1])] = np.nan
        return out

    for patch, error in ((degenerate, DegenerateMetric),
                         (nan_entry, NonFiniteValue)):
        monkeypatch.setattr(geometry, "_assemble_spray", patch)
        fresh = [TangentSample(at.x, at.y) for at in samples]
        got = []
        with pytest.raises(error) as err:
            map_samples(lambda at: got.append(
                geometry.berwald_curvature(m, at).components), fresh)
        failing = samples[3] if patch is degenerate else samples[1]
        assert str(err.value).endswith(f" at the sample {failing!r}")
        held = [at.jets[key] is None for at in fresh]
        assert held == ([False] * 3 + [True] * 17 if patch is degenerate
                        else [False, True] + [False] * 18)
        monkeypatch.setattr(geometry, "_assemble_spray", assemble)
        for B, at in zip(got, fresh):
            alone = geometry.berwald_curvature(m, TangentSample(at.x, at.y))
            assert B.tobytes() == alone.components.tobytes()


# Calls per sample and scheme of one pipeline pass.
ONE_PASS_CALLS = {
    "invariants": {"spray_coefficients": 1, "metric_tensor": 1,
                   "angular_metric": 1, "berwald_connection": 1,
                   "berwald_curvature": 1, "jacobi_endomorphism": 1,
                   "delta_beta": 1},
    "check-parallel": {"spray_coefficients": 0, "metric_tensor": 0,
                       "angular_metric": 0, "berwald_connection": 1,
                       "berwald_curvature": 0, "jacobi_endomorphism": 1,
                       "delta_beta": 1},
    "tensors": {"spray_coefficients": 1, "metric_tensor": 1,
                "angular_metric": 1, "berwald_connection": 1,
                "berwald_curvature": 1, "jacobi_endomorphism": 1,
                "delta_beta": 0},
    "sphsym": {"spray_coefficients": 1, "berwald_connection": 1,
               "jacobi_endomorphism": 1, "delta_beta": 1,
               "delta_derivative": 1},
}


@pytest.mark.parametrize("argv", [
    ["invariants", "--metric", "general_berwald"],
    ["check-parallel", "--metric", "funk_parallel", "--a", "0.5,0.1,0",
     "--c", "1", "--cmu", "0,0.2"],
    ["tensors", "--metric", "general_berwald"],
    ["tensors", "--metric", "general_berwald", "--dim", "2",
     "--scheme", "fd"],
    ["invariants", "--metric", "klein", "--scheme", "fd"],
    ["sphsym", "--phi", "berwald_classic", "--f", "1", "--P", "r*s/10"]])
def test_commands_take_each_tensor_once_per_sample(argv, monkeypatch,
                                                   capsys):
    # counted per (op, scheme): under --scheme fd the Euler chain takes
    # its own AD pass; the spray has no scheme and counts as AD
    calls = Counter()
    for name in ONE_PASS_CALLS[argv[0]]:
        module = forms if name == "delta_beta" else geometry
        fn = getattr(module, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            bound = inspect.signature(_fn).bind(*args, **kwargs)
            bound.apply_defaults()
            calls[_name, bound.arguments.get("scheme", "ad")] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    assert cli.main(argv + ["--samples", "10"]) == 0
    assert calls
    for (name, scheme), count in calls.items():
        assert count <= 10 * ONE_PASS_CALLS[argv[0]][name], \
            (name, scheme, count)


def test_tensors_takes_two_jets_of_F_per_sample(monkeypatch, capsys):
    # the Hilbert form's (0, 1) jet and the angular metric's (0, 2) jet;
    # the Landsberg tensor reads F and l off the Hilbert form
    models, fns = [], []
    resolve, eval_jet = cli._resolve_metric, geometry.eval_jet

    def resolved(cfg):
        ent, model = resolve(cfg)
        models.append(model)
        return ent, model

    def counted(f, *args, **kwargs):
        fns.append(f)
        return eval_jet(f, *args, **kwargs)

    monkeypatch.setattr(cli, "_resolve_metric", resolved)
    monkeypatch.setattr(geometry, "eval_jet", counted)
    assert cli.main(["tensors", "--metric", "general_berwald",
                     "--samples", "10"]) == 0
    assert 0 < sum(f is models[0].F for f in fns) <= 2 * 10


def test_geometry_ops_call_no_other_op(monkeypatch):
    # every derived op takes the tensor it derives from as an argument
    assert len(GEOMETRY_OPS) == 12
    ops = {name: getattr(geometry, name) for name in GEOMETRY_OPS}
    nested = []
    for name, fn in ops.items():
        def counted(*args, _fn=fn, _name=name, **kwargs):
            nested.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(geometry, name, counted)
    m = catalogue.entry("general_berwald", n=3, a=(0.1, 0.05, 0.0)).model
    beta = forms.OneForm.constant((1.0, 0.3, 0.3)).beta()
    for scheme in ("ad", "fd"):
        at = TangentSample((0.1, -0.2, 0.3), (0.6, 0.7, -0.3))
        g = ops["metric_tensor"](m, at, scheme)
        B = ops["berwald_curvature"](m, at, scheme)
        phi = ops["jacobi_endomorphism"](m, at, scheme)
        ell = ops["hilbert_form"](m, at, scheme)
        ops["angular_metric"](m, at, g, scheme)
        ops["spray_coefficients"](m, at)
        ops["nonlinear_connection"](m, at, scheme)
        ops["berwald_connection"](m, at, scheme)
        ops["mean_berwald"](B)
        ops["landsberg_tensor"](B, ell)
        ops["curvature_R"](m, at, phi, scheme)
        ops["delta_derivative"](m, beta, at, scheme)
    assert nested == []


def test_forms_take_the_tensors_they_derive_from(monkeypatch):
    # handed their tensors, the per-sample form functions call no op
    m = catalogue.entry("general_berwald", n=3, a=(0.1, 0.05, 0.0)).model
    omega = forms.OneForm.constant((1.0, 0.3, 0.3))
    for scheme in ("ad", "fd"):
        at = TangentSample((0.1, -0.2, 0.3), (0.6, 0.7, -0.3))
        C = geometry.berwald_connection(m, at, scheme)
        phi = geometry.jacobi_endomorphism(m, at, scheme)
        R = geometry.curvature_R(m, at, phi, scheme)
        delta = forms.delta_beta(m, omega, at, scheme)
        called = []
        for name in geometry.__all__:
            fn = getattr(geometry, name)
            if inspect.isfunction(fn):
                def counted(*args, _fn=fn, _name=name, **kwargs):
                    called.append(_name)
                    return _fn(*args, **kwargs)

                monkeypatch.setattr(geometry, name, counted)
        forms.covariant_derivative(omega, at, C, delta, scheme)
        forms.d_R_beta(omega, at, R)
        forms.homogeneity_residual(omega, at)
        assert called == []
        monkeypatch.undo()


def _recomputed_euler_term(model, at):
    # the Euler chain as it was computed before the ops recorded their
    # residuals: the whole AD pipeline again, contracted here
    geometry.spray_jets(model, at, 1, 3)
    y = np.asarray(at.y)
    G = geometry.spray_coefficients(model, at).components
    N = geometry.nonlinear_connection(model, at).components
    C = geometry.berwald_connection(model, at).components
    B = geometry.berwald_curvature(model, at).components
    phi = geometry.jacobi_endomorphism(model, at).components
    scale = 1.0 + max(float(np.max(np.abs(t))) for t in (G, N, C, B, phi))
    return max(float(np.max(np.abs(N @ y - 2 * G))) / scale,
               float(np.max(np.abs(np.einsum("hij,j->hi", C, y) - N))) / scale,
               float(np.max(np.abs(np.einsum("hijk,k->hij", B, y)))) / scale,
               float(np.max(np.abs(phi @ y))) / scale)


@pytest.mark.parametrize("name", ["general_berwald", "klein",
                                  "funk_parallel"])
def test_euler_term_from_notes_equals_recomputation(name):
    model = catalogue.entry(name, n=3).model
    for at in tangent_samples(3, 10, seed=5):
        ref = _recomputed_euler_term(model, TangentSample(at.x, at.y))
        G = geometry.spray_coefficients(model, at)
        assert cli._euler_term(G, *cli._chain(model, at)) == ref


def _pivoting_F(x, y):
    # Randers-perturbed Riemannian metric whose g_00 crosses |g_10| = 0.3
    # with x0, so rows of one batch pick different pivots in column 0
    q = ((0.05 + x[0] * x[0]) * y[0] * y[0] + 0.6 * y[0] * y[1]
         + y[1] * y[1] + y[2] * y[2])
    return scalars.sqrt(q) + 0.05 * y[2] * (1.0 + x[1])


def test_fd_spray_rows_equal_per_point_spray_with_mixed_pivots():
    m = MetricModel(3, _pivoting_F, name="pivoting")
    rng = np.random.default_rng(5)
    xs = np.column_stack([np.linspace(0.0, 0.8, 12),
                          rng.uniform(-0.3, 0.3, (12, 2))])
    ys = rng.uniform(-1.0, 1.0, (12, 3)) + np.array([1.5, 0.0, 0.0])
    g = geometry.jet_of_rows(m.energy, (xs, ys), (1, 2)).dense(0, 2)
    pivots = np.argmax(np.abs(g[:, 0, :]), axis=0)
    assert set(pivots) == {0, 1}
    got = geometry._spray_rows(m, xs, ys)
    ref = [geometry._spray_scalars(m, tuple(x), tuple(y))
           for x, y in zip(xs.tolist(), ys.tolist())]
    assert np.array_equal(got, np.array(ref, dtype=float))


def _pivot_rows(A):
    """The row each column's pivot is taken from by partial pivoting."""
    M = [list(row) for row in A]
    out = []
    for col in range(len(M)):
        p = max(range(col, len(M)), key=lambda r: abs(M[r][col]))
        M[col], M[p] = M[p], M[col]
        for r in range(col + 1, len(M)):
            f = M[r][col] / M[col][col]
            M[r] = [a - f * b for a, b in zip(M[r], M[col])]
        out.append(p)
    return out


def test_solve_linear_on_rows_equals_each_row_bit_for_bit():
    # one diagonally dominant matrix with its rows in every order, so the
    # pivots of columns 0 and 1 come from different rows per batch row
    rng = np.random.default_rng(7)
    D = np.diag([4.0, 3.0, 2.0]) + rng.uniform(-0.3, 0.3, (3, 3))
    perms = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
    A = np.array([D[list(p)] for p in perms * 2]) \
        + rng.uniform(-0.01, 0.01, (12, 3, 3))
    b = rng.normal(size=(12, 3))
    pivots = np.array([_pivot_rows(a) for a in A.tolist()])
    assert set(pivots[:, 0]) == {0, 1, 2} and set(pivots[:, 1]) == {1, 2}
    got = geometry.solve_linear(
        [[A[:, i, j] for j in range(3)] for i in range(3)], list(b.T))
    ref = [geometry.solve_linear(a, r) for a, r in zip(A.tolist(), b.tolist())]
    assert np.array_equal(np.transpose(got), np.array(ref))


def test_solve_linear_on_taylor_rows_equals_each_rows_series_solve():
    # the pivots of columns 0 and 1 come from different rows per batch row;
    # the value parts are those of the float test above, the rest random
    rng = np.random.default_rng(11)
    D = np.diag([4.0, 3.0, 2.0]) + rng.uniform(-0.3, 0.3, (3, 3))
    perms = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
    values = np.array([D[list(p)] for p in perms * 2]) \
        + rng.uniform(-0.01, 0.01, (12, 3, 3))
    pivots = np.array([_pivot_rows(a) for a in values.tolist()])
    assert set(pivots[:, 0]) == {0, 1, 2} and set(pivots[:, 1]) == {1, 2}
    alg = taylor.algebra(((2, 1), (2, 2)))

    def rows(value):
        return taylor.TRows(alg, np.vstack(
            [value, rng.normal(size=(alg.size - 1, len(value)))]))

    A = [[rows(values[:, i, j]) for j in range(3)] for i in range(3)]
    b = [rows(rng.normal(size=12)) for _ in range(3)]
    got = geometry.solve_linear(A, b)
    assert all(isinstance(z, taylor.TRows) for z in got)
    for r in range(12):
        def row(t):  # the one-row batch of row r
            return taylor.TRows(alg, t.c[:, r:r + 1].copy())
        ref = geometry.solve_linear([[row(e) for e in line] for line in A],
                                    [row(e) for e in b])
        for z, zr in zip(got, ref):
            assert z.c[:, r].tobytes() == zr.c[:, 0].tobytes()


def test_solve_linear_on_rows_rejects_one_singular_row():
    A = np.array([np.eye(3) + 0.1 * k for k in range(5)])
    A[3, :, 1] = 0.0
    with pytest.raises(DegenerateMetric, match="singular linear system"):
        geometry.solve_linear(
            [[A[:, i, j] for j in range(3)] for i in range(3)],
            [np.ones(5)] * 3)


def test_fd_spray_rows_equal_per_point_spray_on_the_catalogue():
    m = catalogue.entry("general_berwald", n=3, a=(0.1, 0.05, 0.0)).model
    samples = tangent_samples(3, 9, seed=3, radius=0.5)
    xs = np.array([at.x for at in samples])
    ys = np.array([at.y for at in samples])
    ref = [geometry._spray_scalars(m, at.x, at.y) for at in samples]
    assert np.array_equal(geometry._spray_rows(m, xs, ys),
                          np.array(ref, dtype=float))


def test_fd_domain_error_names_its_first_failing_stencil_point():
    # the klein stencil around |x| = 0.995 leaves the unit ball; the batched
    # spray reports the point and value that point-by-point FD meets first
    m = catalogue.entry("klein", n=2).model
    at = TangentSample((0.995, 0.0), (0.0, 1.0))
    with pytest.raises(NonFiniteValue) as batched:
        geometry.spray_jets(m, at, 1, 2, "fd")
    with pytest.raises(NonFiniteValue) as single:
        jet_of_many(lambda xs, ys: geometry._spray_scalars(m, xs, ys),
                    (at.x, at.y), (1, 2), scheme="fd")
    message = str(batched.value)
    assert message == str(single.value)
    assert message.startswith("sqrt of non-positive Taylor value "
                              "-0.013203914556821905 at the FD stencil "
                              "point ((")
    x, y = ast.literal_eval(message.split("stencil point ")[1])
    assert math.hypot(*x) > 1.0
    with pytest.raises(NonFiniteValue):
        geometry._spray_scalars(m, x, y)
