"""The pipeline ops on stacks of samples: inside a per-sample loop an op's
first read runs its body over the loop's samples, and every sample's row
is bit for bit the per-sample formula written out below; outside a loop
the op runs the same body on the one sample."""

import math
from collections import Counter

import numpy as np
import pytest

from finslercheck import catalogue, cli, forms, geometry, scalars, sphsym
from finslercheck.calculus import FD_BATCH, TangentSample, jet_of
from finslercheck.errors import FinslerCheckError
from finslercheck.expressions import compile_form
from finslercheck.geometry import MetricModel
from finslercheck.sampling import map_samples, tangent_samples

COUNTS = (1, 17, 65)  # one sample, part of a batch, a batch and one more


def _pq_model(n):
    profile = sphsym.SphSymProfile(catalogue.berwald_classic_phi)
    return sphsym.spray_model_from_pq(sphsym.pq_from_profile(profile), n)


MODELS = [*((name, n) for name in ("funk_parallel", "general_berwald",
                                   "klein") for n in (2, 3)),
          ("berwald_classic_pq", 2), ("berwald_classic_pq", 3)]


def _model(name, n):
    if name == "berwald_classic_pq":
        return _pq_model(n)
    if name == "klein_spray":  # a spray-only model of closed-form floats
        ent = catalogue.entry("klein", n=n)
        return MetricModel(n, domain=ent.model.domain,
                           spray_override=ent.spray_cf, name=name)
    return catalogue.entry(name, n=n).model


def _form(n):
    if n == 2:
        return compile_form(["exp(x2)", "x1/(2+x2)"], 2)
    return compile_form(["x2*x3", "sin(x1)", "1+x1*x1"], 3)


def _points(n, count=max(COUNTS)):
    return [(at.x, at.y) for at in tangent_samples(n, count, seed=17,
                                                   radius=0.5, r_min=0.1)]


def _reference(m, omega, x, y):
    """The per-sample formulas of the ops, as each computed its tensor at
    one sample on (n, ...) arrays, from that sample's own jets."""
    at = TangentSample(x, y)
    j12, j13 = (geometry.spray_jets(m, at, 1, ky) for ky in (2, 3))

    def partials(jets, kx, ky):
        return np.array([j.dense(kx, ky) for j in jets])

    G, dG, N = (partials(j12, *o) for o in ((0, 0), (1, 0), (0, 1)))
    dN = partials(j12, 1, 1).transpose(0, 2, 1).copy()  # d_k N^i_j
    C, B = partials(j12, 0, 2), partials(j13, 0, 3)
    n, yv = len(x), np.asarray(y, dtype=float)
    out = {
        "nonlinear_connection": (N, float(np.max(np.abs(N @ yv - 2.0 * G)))),
        "berwald_connection": (C, float(np.max(np.abs(
            np.einsum("hij,j->hi", C, yv) - N)))),
        "berwald_curvature": (B, float(np.max(np.abs(
            np.einsum("hijk,k->hij", B, yv))))),
    }
    SN = np.einsum("ijk,k->ij", dN, yv) - 2.0 * np.einsum("ijk,k->ij", C, G)
    phi = 2.0 * dG - SN - N @ N
    out["jacobi_endomorphism"] = (phi, float(np.max(np.abs(phi @ yv))))
    R = np.zeros((n, n, n))
    for j in range(n):
        for k in range(j + 1, n):
            val = (dN[:, k, j] - dN[:, j, k]
                   - np.einsum("l,hl->h", N[:, j], C[:, :, k])
                   + np.einsum("l,hl->h", N[:, k], C[:, :, j]))
            R[:, j, k] = val
            R[:, k, j] = -val
    contracted = np.einsum("hjk,k->hj", R, yv)
    bound = 1e-8 * (1.0 + float(np.max(np.abs(phi))))
    orientation = 1
    if float(np.max(np.abs(contracted - phi))) > bound:
        assert float(np.max(np.abs(contracted + phi))) <= bound
        R, orientation = -R, -1
    out["curvature_R"] = (R, orientation)
    beta = omega.beta()
    fjet = jet_of(beta, (x, y), (1, 1))
    delta = fjet.dense(1, 0) - (N * fjet.dense(0, 1)[:, None]).sum(axis=0)
    out["delta_beta"] = (delta, None)
    hjet = jet_of(beta, (x, y), (0, 1))  # the jet the residual read before
    out["homogeneity_residual"] = (
        None, abs(sum(y[i] * hjet.pvars((), (i,)) for i in range(n))
                  - hjet.value))
    b = omega.values(x)
    cov = omega.jacobian(x) - np.einsum("kji,k->ij", C, b)
    max_delta = float(np.max(np.abs(delta)))
    out["covariant_derivative"] = (
        cov, float(np.max(np.abs(yv @ cov - delta))) / (1.0 + max_delta))
    two_form = np.einsum("hjk,h->jk", R, b)
    out["d_R_beta"] = ((two_form, two_form @ yv), None)
    if m.F is not None:
        g = jet_of(m.energy, (x, y), (0, 2)).dense(0, 2)
        out["metric_tensor"] = (g, None)
    return out


def _ops(m, omega, at, scheme="ad"):
    """Every stacked op at ``at``, read in a per-sample pass's order, as
    (components, the note or value the reference records)."""
    t = {"berwald_curvature": geometry.berwald_curvature(m, at, scheme)}
    for name in ("nonlinear_connection", "berwald_connection",
                 "jacobi_endomorphism"):
        t[name] = getattr(geometry, name)(m, at, scheme)
    t["curvature_R"] = geometry.curvature_R(m, at, t["jacobi_endomorphism"],
                                            scheme)
    t["delta_beta"] = forms.delta_beta(m, omega, at, scheme)
    t["covariant_derivative"] = forms.covariant_derivative(
        omega, at, t["berwald_connection"], t["delta_beta"], scheme)
    out = {name: (v.components, v.notes.get("euler_residual"))
           for name, v in t.items()}
    out["curvature_R"] = (t["curvature_R"].components,
                          t["curvature_R"].notes["orientation"])
    out["delta_beta"] = (t["delta_beta"].components, None)
    cov = t["covariant_derivative"]
    out["covariant_derivative"] = (cov.components, cov.notes["delta_residual"])
    two_form, contracted = forms.d_R_beta(omega, at, t["curvature_R"])
    out["d_R_beta"] = ((two_form.components, contracted.components), None)
    out["homogeneity_residual"] = (None, forms.homogeneity_residual(omega, at))
    if m.F is not None:
        out["metric_tensor"] = (geometry.metric_tensor(m, at, scheme)
                                .components, None)
    return out


def _bits(v):
    if v is None or isinstance(v, int):
        return repr(v)
    if isinstance(v, tuple):
        return tuple(map(_bits, v))
    if np.ndim(v) == 0:
        return float(v).hex()
    return v.dtype, v.shape, v.tobytes()


def _assert_equal(got, ref):
    assert got.keys() == ref.keys()
    for name in ref:
        (tensor, note), (want_tensor, want_note) = got[name], ref[name]
        assert _bits(tensor) == _bits(want_tensor), name
        assert _bits(note) == _bits(want_note), name


@pytest.mark.parametrize("name,n,scheme", [
    *(pytest.param(name, n, "ad", id=f"{name}-{n}") for name, n in MODELS),
    *(pytest.param(name, 2, "fd", id=f"{name}-2-fd") for name in (
        "funk_parallel", "general_berwald", "klein", "klein_spray"))])
def test_stacked_ops_equal_the_per_sample_formulas(name, n, scheme):
    # in a loop the rows of every count, and outside a loop the op at one
    # sample, equal the per-sample formulas bit for bit; under fd, those
    # of each sample's ops on a fresh sample outside a loop, also where the
    # loop's samples already hold their AD chain (as in an fd pass)
    m, omega = _model(name, n), _form(n)
    points = _points(n)
    if scheme == "ad":
        refs = [_reference(m, omega, *p) for p in points]
    else:
        refs = [_ops(m, omega, TangentSample(*p), "fd") for p in points]
    for count in COUNTS:
        samples = [TangentSample(*p) for p in points[:count]]
        if scheme == "fd":
            map_samples(lambda at: cli._chain(m, at), samples)
        for got, ref in zip(map_samples(lambda at: _ops(m, omega, at, scheme),
                                        samples), refs):
            _assert_equal(got, ref)
    for p, ref in zip(points[:3], refs):
        _assert_equal(_ops(m, omega, TangentSample(*p), scheme), ref)


def _held_partials(m, at, ky, order="C"):
    """The rows of the (1, ky) spray partials a loop holds at ``at``, from
    its own spray jets, in the memory ``order`` given."""
    jets = geometry.spray_jets(m, TangentSample(at.x, at.y), 1, ky)
    return [np.array([j.dense(*o) for j in jets], order=order)
            for o in geometry._SPRAY_ORDERS if o[1] <= ky]


def test_stacked_ops_take_non_contiguous_inputs():
    # spray partials held in Fortran order, and upstream tensors with
    # transposed components, give the same rows as contiguous ones
    m, omega = _model("general_berwald", 3), _form(3)
    points = _points(3, 17)
    refs = [_reference(m, omega, *p) for p in points]
    samples = [TangentSample(*p) for p in points]
    for at in samples:
        at.jets[("spray_partials", m, 1, 3, "ad")] = _held_partials(m, at, 3,
                                                                   "F")
        assert not at.jets[("spray_partials", m, 1, 3, "ad")][3] \
            .flags.c_contiguous
    for got, ref in zip(map_samples(lambda at: _ops(m, omega, at), samples),
                        refs):
        _assert_equal(got, ref)
    at, ref = TangentSample(*points[0]), refs[0]
    C = geometry.berwald_connection(m, at).components
    R = geometry.curvature_R(m, at, geometry.jacobi_endomorphism(m, at))
    C, R = (geometry.TensorValue(np.asfortranarray(t))
            for t in (C, R.components))
    assert not (C.components.flags.c_contiguous
                or R.components.flags.c_contiguous)
    cov = forms.covariant_derivative(omega, at, C,
                                     forms.delta_beta(m, omega, at))
    assert _bits(cov.components) == _bits(ref["covariant_derivative"][0])
    two_form, _ = forms.d_R_beta(omega, at, R)
    assert _bits(two_form.components) == _bits(ref["d_R_beta"][0][0])


def test_curvature_R_takes_the_orientation_of_each_rows_phi():
    # against a Jacobi endomorphism of the opposite sign R is negated and
    # the orientation is -1, per row inside a loop and outside one (klein:
    # phi does not vanish)
    m = _model("klein", 3)
    points = _points(3, 17)
    refs = [_reference(m, _form(3), *p) for p in points]
    samples = [TangentSample(*p) for p in points]
    for at, ref in zip(samples, refs):
        at.jets[("negated phi",)] = [-ref["jacobi_endomorphism"][0]]

    def read(at):
        phi = geometry.TensorValue(at.jets[("negated phi",)][0],
                                   key=("negated phi",))
        R = geometry.curvature_R(m, at, phi)
        return R.components, R.notes["orientation"]

    for (R, orientation), ref in zip(map_samples(read, samples), refs):
        assert orientation == -1 == -ref["curvature_R"][1]
        assert _bits(R) == _bits(-ref["curvature_R"][0])
    R = geometry.curvature_R(m, TangentSample(*points[0]),
                             geometry.TensorValue(
                                 -refs[0]["jacobi_endomorphism"][0]))
    assert R.notes["orientation"] == -1
    assert _bits(R.components) == _bits(-refs[0]["curvature_R"][0])


def test_stacked_ops_take_held_partials_of_two_tiers():
    # every other sample holds (1, 3) spray partials, the others (1, 2)
    # ones: each (1, 2) read takes the rows its sample holds
    m, omega = _model("klein", 3), _form(3)
    points = _points(3, 17)
    refs = [_reference(m, omega, *p) for p in points]
    samples = [TangentSample(*p) for p in points]
    tiers = [3 if i % 2 else 2 for i in range(len(samples))]
    for at, ky in zip(samples, tiers):
        at.jets[("spray_partials", m, 1, ky, "ad")] = _held_partials(m, at,
                                                                    ky)
    names = ("nonlinear_connection", "berwald_connection",
             "jacobi_endomorphism")
    got = map_samples(lambda at: [getattr(geometry, name)(m, at)
                                  for name in names], samples)
    for tensors, ref in zip(got, refs):
        for name, t in zip(names, tensors):
            assert _bits((t.components, t.notes["euler_residual"])) \
                == _bits(ref[name]), name
    # nothing else was taken: each sample holds the tier it held before
    assert [[key[3] for key in at.jets if key[0] == "spray_partials"]
            for at in samples] == [[ky] for ky in tiers]


def test_each_stacked_body_runs_once_per_batch(monkeypatch):
    # a 100-sample check-parallel loop: two batches of FD_BATCH samples,
    # so each op's body, and the gather of the spray partials it reads,
    # runs twice
    calls = Counter()
    held = geometry.held

    def counted(at, key, rows, *args):
        def count(part):
            calls[key[0]] += 1
            return rows(part)
        return held(at, key, count, *args)

    monkeypatch.setattr(geometry, "held", counted)
    assert cli.main(["check-parallel", "--metric", "funk_parallel", "--a",
                     "0.5,0.1,0", "--c", "1", "--cmu", "0,0.2",
                     "--samples", "100"]) == 0
    assert calls == dict.fromkeys((
        "spray_partials", "homogeneity_residual", "Berwald connection",
        "delta_derivative", "covariant_derivative", "Jacobi endomorphism",
        "curvature_R", "d_R_beta"), math.ceil(100 / FD_BATCH))


@pytest.mark.parametrize("omega", [
    catalogue.entry("funk_parallel", n=3).parallel_family(c=1.0,
                                                          c_mu=(0.0, 0.2)),
    forms.OneForm.constant((1.0, 0.3, -0.2)),
    compile_form(["sin(x2)*exp(x1)", "sqrt(2+x3)", "exp(x1*x2)"], 3)],
    ids=lambda o: o.name)
def test_homogeneity_residual_reads_the_jet_delta_beta_takes(omega):
    # the (1, 1) jet of beta that delta_beta reads carries the value and
    # y-partials of the (0, 1) jet that the residual took before, so the
    # residual is the same number
    beta = omega.beta()
    for at in tangent_samples(3, 200, seed=5, radius=0.6):
        small = jet_of(beta, (at.x, at.y), (0, 1))
        full = jet_of(beta, (at.x, at.y), (1, 1))
        assert _bits(full.value) == _bits(small.value)
        assert _bits(full.dense(0, 1)) == _bits(small.dense(0, 1))


@pytest.mark.parametrize("count", (1, 20, 65))
@pytest.mark.parametrize("n", (2, 3))
def test_pq_spray_rows_equal_each_samples_spray(count, n):
    # the closure check's (P, Q) spray: one profile jet per batch of
    # samples, each row the spray at that sample alone
    pq = sphsym.pq_from_profile(
        sphsym.SphSymProfile(catalogue.berwald_classic_phi))
    points = [(at.x, at.y) for at in tangent_samples(n, count, seed=9,
                                                     radius=0.6, r_min=0.05)]
    refs = [np.array([scalars.value(c) for c in sphsym._pq_spray(pq, x, y)])
            for x, y in points]
    samples = [TangentSample(*p) for p in points]
    got = map_samples(lambda at: sphsym.spray_from_pq(pq, at).components,
                      samples)
    alone = [sphsym.spray_from_pq(pq, TangentSample(*p)).components
             for p in points]
    assert [_bits(v) for v in got] == [_bits(v) for v in refs] \
        == [_bits(v) for v in alone]


def test_pq_spray_of_a_pair_without_rows_is_taken_per_sample():
    # a pair whose PQ takes floats and Taylor scalars only (exp of r)
    factor = sphsym.RadialFactor(lambda r: scalars.exp(r))
    pq = sphsym.parallel_pq(factor, lambda r, s: r * s / 10.0)
    samples = tangent_samples(3, 20, seed=9, radius=0.6, r_min=0.05)
    refs = [np.array([scalars.value(c) for c in sphsym._pq_spray(
        pq, at.x, at.y)]) for at in samples]
    got = map_samples(lambda at: sphsym.spray_from_pq(pq, at).components,
                      samples)
    assert [_bits(v) for v in got] == [_bits(v) for v in refs]
    assert not any(at.jets for at in samples)


def _bump_spray(target):
    """A spray-only model whose spray is 2-homogeneous except near the base
    point ``target``, where a cubic term breaks the Euler contractions."""
    def spray(x, y):
        gap = scalars.norm_sq([xi - ti for xi, ti in zip(x, target)])
        bump = scalars.exp(-gap / 1e-5) * scalars.norm_sq(y)
        return tuple(0.1 * yi * yi + bump * yi for yi in y)
    return MetricModel(3, domain=geometry.Domain(1.0), spray_override=spray,
                       name="bump")


def _failing_stencil_at(target):
    """catalogue.entry with euclidean's F out of sqrt's domain at the base
    points whose squared distance to ``target`` lies in (1e-6, 1e-3): the
    x-steps of an FD stencil around it, and no sample."""
    entry = catalogue.entry

    def broken(name, **kwargs):
        ent = entry(name, **kwargs)
        if name == "euclidean":
            F0 = ent.model.F

            def F(x, y):
                gap = scalars.norm_sq([xi - ti for xi, ti in zip(x, target)])
                return F0(x, y) + 0.0 * scalars.sqrt((gap - 1e-6)
                                                     * (gap - 1e-3))
            ent.model.F = F
        return ent
    return broken


def _degenerate_at(target):
    """catalogue.entry with euclidean's g of rank n - 1 at ``target``."""
    entry = catalogue.entry

    def broken(name, **kwargs):
        ent = entry(name, **kwargs)
        if name == "euclidean":
            def F(x, y):
                gap = scalars.norm_sq([xi - ti for xi, ti in zip(x, target)])
                return scalars.sqrt(scalars.norm_sq(y)
                                    - (1.0 - gap) * y[0] * y[0])
            ent.model.F = F
        return ent
    return broken


SAMPLE_40 = ("TangentSample(x=(0.35857750158678386, -0.297356632244573, "
             "-0.17517532249255666), y=(-0.9388531266416029, "
             "0.03698494113784892, -0.3423257523533922))")


@pytest.mark.parametrize("argv,rc,line", [
    (["check-parallel", "--metric", "euclidean", "--form", "log(x1),0,0",
      "--samples", "10"], 3,
     "numeric domain error: log of non-positive Taylor value "
     "-0.39455540746900536 at the sample TangentSample(x=("
     "-0.39455540746900536, -0.23189461907231043, -0.17235607827620683), "
     "y=(0.36486176735685877, 0.9240647543268905, -0.11393077078653184))"),
    (["invariants", "--metric", "funk_parallel", "--a", "0.99999999,0,0",
      "--samples", "10"], 4,
     "internal self-check failure: spray component 0 is not 2-homogeneous "
     "(residual 3.43163e-08) at the sample TangentSample(x=("
     "0.028857776140179574, -0.030320892930408898, 0.1469907021627264), "
     "y=(-0.36806344459523743, 0.24845534974903277, 0.8959906472356587))"),
    (["check-parallel", "--metric", "bump", "--form", "1,0,0",
      "--samples", "70"], 4,
     "internal self-check failure: Berwald connection failed its Euler "
     f"contraction (residual 2.76289) at the sample {SAMPLE_40}"),
    (["tensors", "--metric", "euclidean", "--samples", "70"], 3,
     "numeric domain error: metric tensor degenerate (det=0.000e+00, "
     f"scale=6.667e-01) at the sample {SAMPLE_40}"),
    (["tensors", "--metric", "euclidean", "--samples", "70", "--scheme",
      "fd"], 3,
     "numeric domain error: metric tensor degenerate (det=0.000e+00, "
     f"scale=6.667e-01) at the sample {SAMPLE_40}"),
    (["tensors", "--metric", "stencil", "--samples", "70", "--scheme", "fd"],
     3, "numeric domain error: sqrt of non-positive Taylor value "
     "-4.341407903472492e-08 at the FD stencil point ((0.35857750158678386, "
     "-0.297356632244573, -0.16835382320365583), (-0.9388531266416029, "
     "0.03698494113784892, -0.3423257523533922)) at the sample "
     f"{SAMPLE_40}"),
])
def test_a_located_failure_keeps_its_stderr_and_exit_code(
        argv, rc, line, monkeypatch, capsys):
    # the lines the per-sample ops printed; the bump, the degenerate metric
    # and the one whose FD stencil leaves its domain (fd's Jacobi tier steps
    # in x) fail at sample 40 of 70, inside the first batch of ops
    target = tangent_samples(3, 70, 0, 0.6)[40]
    assert repr(target) == SAMPLE_40
    if "bump" in argv:
        model = _bump_spray(target.x)
        monkeypatch.setattr(cli, "_resolve_metric", lambda cfg: (None, model))
        argv[argv.index("bump")] = "euclidean"
    elif "stencil" in argv:
        monkeypatch.setattr(catalogue, "entry", _failing_stencil_at(target.x))
        argv[argv.index("stencil")] = "euclidean"
    elif argv[0] == "tensors":
        monkeypatch.setattr(catalogue, "entry", _degenerate_at(target.x))
    assert cli.main(argv) == rc
    assert capsys.readouterr().err == line + "\n"


def test_a_degenerate_metric_fails_at_its_own_read():
    # g of rank n - 1 at sample 40 only: the stacked determinant is taken
    # for the whole batch, and only that sample's read raises
    target = tangent_samples(3, 70, 0, 0.6)[40]
    m = _degenerate_at(target.x)("euclidean", n=3).model
    samples = tangent_samples(3, 70, 0, 0.6)
    seen = []

    def read(at):
        seen.append(at)
        return geometry.metric_tensor(m, at)

    with pytest.raises(FinslerCheckError,
                       match=r"^metric tensor degenerate \(det=0\.000e\+00, "
                             r"scale=6\.667e-01\) at the sample "):
        map_samples(read, samples)
    assert seen[-1] is samples[40] and len(seen) == 41
