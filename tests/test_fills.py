"""What the first read of a jet inside a per-sample loop puts on all the
loop's samples as Taylor rows: every filled row is bit for bit the sample's
own result, at batch counts around each fill's batch size."""

import ast
from pathlib import Path

import numpy as np
import pytest

import finslercheck
from finslercheck import calculus, catalogue, cli, forms, geometry, sphsym
from finslercheck.calculus import (FD_BATCH, HOMOGENEITY_SCALES,
                                   TangentSample, eval_jet, jet_of)
from finslercheck.errors import FinslerCheckError, SingularDenominator
from finslercheck.expressions import compile_form, compile_scalar
from finslercheck.geometry import MetricModel
from finslercheck.sampling import map_samples, tangent_samples

# one, part of one, exactly one, one and a bit, and two and a bit batches
# of SPRAY_BATCH samples, then the edges of FD_BATCH (the default of
# calculus.fill_jets)
COUNTS = (1, 15, 16, 17, 33)
EDGES = (FD_BATCH - 1, FD_BATCH, FD_BATCH + 1)
CATALOGUE = [(name, n) for name in ("general_berwald", "funk_parallel",
                                    "klein", "berwald_classic")
             for n in (2, 3)]
RADIAL = ("1", "exp(r)", "1+r*r")  # the corpus's radial factors


def _points(n, count=max(EDGES), r_min=0.0):
    return [(at.x, at.y) for at in tangent_samples(n, count, seed=13,
                                                   radius=0.5, r_min=r_min)]


def _fresh(points):
    return [TangentSample(x, y) for x, y in points]


def _bits(v):
    v = getattr(v, "table", v)
    return v.shape, np.asarray(v).tobytes()


def _first_read(read, samples):
    """``read`` at the first sample of a per-sample loop over ``samples``
    (and nowhere else), so what the others hold was filled."""
    map_samples(lambda at: read(at) if at is samples[0] else None, samples)


def _assert_filled(read, key, points, ref, counts):
    """A first ``read`` in a loop puts under ``key`` on each sample of every
    count a list whose entries equal ``ref(point)``'s bit for bit."""
    refs = [[_bits(v) for v in ref(p)] for p in points[:max(counts)]]
    for count in counts:
        samples = _fresh(points[:count])
        _first_read(read, samples)
        for at, want in zip(samples, refs):
            assert [_bits(v) for v in at.jets[key]] == want


def _pq_model(f, n):
    factor = sphsym.RadialFactor(compile_scalar(f, ("r",)), name=f)
    pq = sphsym.parallel_pq(factor, compile_scalar("r*s/10", ("r", "s")))
    return factor, pq, sphsym.spray_model_from_pq(pq, n)


def _spray_only(name, n):
    ent = catalogue.entry(name, n=n)
    return MetricModel(n, domain=ent.model.domain,
                       spray_override=ent.spray_cf, name=name + " spray")


@pytest.mark.parametrize("kind,name,n", [
    *(("spray_cf", name, n) for name, n in CATALOGUE
      if name != "berwald_classic"),
    *(("pq", f, n) for f in RADIAL for n in (2, 3))])
def test_spray_only_spray_jets_fill_as_their_samples_own(kind, name, n):
    # a spray-only model's spray partials held in a loop are those of each
    # sample's own spray jets, its batch of one, bit for bit
    m = _spray_only(name, n) if kind == "spray_cf" else _pq_model(name, n)[2]
    orders = [o for o in geometry._SPRAY_ORDERS if o[1] <= 2]

    def ref(p):
        jets = geometry.spray_jets(m, TangentSample(*p), 1, 2)
        return [np.array([j.dense(*o) for j in jets]) for o in orders]

    _assert_filled(lambda at: geometry.berwald_connection(m, at),
                   ("spray_partials", m, 1, 2, "ad"), _points(m.n, r_min=0.1),
                   ref, COUNTS + EDGES)


def test_a_loop_keeps_spray_partials_not_spray_jets():
    # a tensors pass in a loop leaves on each sample the rows of the spray
    # partials its ops read, and no spray jet
    m = catalogue.entry("general_berwald", n=3).model
    samples = _fresh(_points(3, 20))
    map_samples(lambda at: cli._pass(m, at, "ad"), samples)
    for at in samples:
        assert ("spray_partials", m, 1, 3, "ad") in at.jets
        assert not [key for key in at.jets if key[0] is m and key[-1] == "ad"]


def test_the_last_sample_of_a_loop_of_one_more_than_a_fill_is_a_batch():
    # a loop of FD_BATCH + 1 samples fills its last sample as a part of
    # one: it holds the rows of a batch of one and no spray jet, and its
    # tensors are those of the sample read alone, bit for bit
    m = catalogue.entry("general_berwald", n=3).model
    samples = _fresh(_points(3, FD_BATCH + 1))
    got = map_samples(lambda at: cli._pass(m, at, "ad")[0], samples)[-1]
    assert not [at for at in samples if (m, 1, 3, "ad") in at.jets]
    last = samples[-1]
    want = cli._pass(m, TangentSample(last.x, last.y), "ad")[0]
    assert {k: _bits(v.components) for k, v in got.items()} \
        == {k: _bits(v.components) for k, v in want.items()}


@pytest.mark.parametrize("name,n", CATALOGUE)
def test_spray_values_fill_as_each_scales_own_spray(name, n):
    m = catalogue.entry(name, n=n).model

    def ref(p):
        x, y = p
        return [np.array([[float(c) for c in geometry._spray_scalars(
            m, x, tuple(lam * v for v in y))]
            for lam in (1.0,) + HOMOGENEITY_SCALES])]

    _assert_filled(
        lambda at: geometry.spray_coefficients(m, at),
        (m, 0, 0, "values"), _points(n), ref, COUNTS + EDGES)
    at = TangentSample(*_points(n, 1)[0])
    assert _bits(geometry.spray_coefficients(m, at).components) \
        == _bits(ref((at.x, at.y))[0][0])


@pytest.mark.parametrize("name,n", CATALOGUE)
def test_energy_and_F_jets_fill_as_their_samples_own(name, n):
    m = catalogue.entry(name, n=n).model

    def ops(at, scheme="ad"):
        g = geometry.metric_tensor(m, at, scheme)
        geometry.hilbert_form(m, at, scheme)
        geometry.angular_metric(m, at, g, scheme)

    points = _points(n)
    for f, ky in ((m.energy, 2), (m.F, 1), (m.F, 2)):
        _assert_filled(
            ops, (f, 0, ky, "ad"),
            points, lambda p: [eval_jet(f, TangentSample(*p), (0, ky))],
            COUNTS + EDGES)
    # under fd the ops hold FD jets, each the sample's own, under keys of
    # their own
    for f, ky in ((m.energy, 2), (m.F, 1), (m.F, 2)):
        _assert_filled(
            lambda at: ops(at, "fd"), (f, 0, ky, "fd"), points,
            lambda p: [jet_of(f, p, (0, ky), scheme="fd")], (1, 17))


def _forms():
    funk = catalogue.entry("funk_parallel", n=3, a=(0.5, 0.1, 0.0))
    out = [funk.parallel_family(c=1.0, c_mu=(0.0, 0.2)),
           compile_form(["x2*x3", "sin(x1)", "1+x1*x1"], 3),
           compile_form(["exp(x2)", "x1/(2+x2)"], 2)]
    return out + [_pq_model(f, 3)[0].one_form(3) for f in RADIAL]


@pytest.mark.parametrize("omega", _forms(), ids=lambda o: o.name)
def test_form_jets_fill_as_their_samples_own(omega):
    beta = omega.beta()
    assert omega.beta() is beta
    points = _points(omega.n, r_min=0.1)
    # homogeneity_residual reads delta_beta's (1, 1) jet
    reads = {0: lambda at: eval_jet(beta, at, (0, 1)),
             1: lambda at: forms.homogeneity_residual(omega, at)}
    for kx in (0, 1):
        _assert_filled(
            reads[kx], (beta, kx, 1, "ad"), points,
            lambda p: [eval_jet(beta, TangentSample(*p), (kx, 1))],
            COUNTS + EDGES)
    _assert_filled(
        lambda at: omega.jacobian(at.x, at), (omega.b, 1, 0, "ad"), points,
        lambda p: calculus.jet_of_many(omega.b, (p[0],), (1,)),
        COUNTS + EDGES)
    samples = _fresh(points[:17])
    for got, at in zip(map_samples(lambda at: omega.jacobian(at.x, at),
                                   samples), samples):
        assert _bits(got) == _bits(omega.jacobian(at.x))


@pytest.mark.parametrize("f", RADIAL)
def test_expansion_and_radial_derivative_rows_equal_each_points(f):
    factor, pq, _ = _pq_model(f, 3)

    def ref(p):  # the expansion at float (r, s), as one point alone
        r, s, u = sphsym._rsu(*p)
        res1, res2, _ = sphsym.sss_residuals(factor, pq, (r, s))
        return [np.array([u * res1 * xi + res2 * yi for xi, yi in zip(*p)])]

    key = (factor, pq, "expansion")
    _assert_filled(
        lambda at: calculus.sample_rows(at, key, lambda xs, ys: [
            sphsym._delta_beta_expansion(factor, pq, xs, ys)]),
        key, _points(3, r_min=0.1), ref, COUNTS + EDGES)
    rs = np.linspace(0.1, 0.9, 65)
    assert _bits(factor.d(rs)) \
        == _bits(np.array([factor.d(r) for r in rs.tolist()]))



def test_a_failing_batch_runs_once_and_each_sample_takes_its_own():
    # the batch of 20 rows raises: each of its samples takes its own
    # one-row result and holds it, so the 20-row batch runs once and a
    # second read computes nothing
    samples = tangent_samples(2, 20, seed=3)
    calls = []

    def rows(xs, ys):
        calls.append(len(xs[0]))
        if len(xs[0]) > 1:
            raise SingularDenominator("forced")
        return [xs[0] + ys[1]]

    def read(at):
        return calculus.sample_rows(at, "key", rows)[0]

    got = map_samples(read, samples)
    assert calls == [20] + [1] * 20
    assert [at.jets["key"] for at in samples] == [[g] for g in got]
    assert got == [at.x[0] + at.y[1] for at in samples]
    assert map_samples(read, samples) == got
    assert calls == [20] + [1] * 20


def test_map_samples_lends_its_list_only_while_it_walks_it():
    samples = tangent_samples(2, 3, seed=3)
    seen = []
    map_samples(lambda at: seen.append(at.batch), samples)
    assert all(batch is samples for batch in seen)
    assert [at.batch for at in samples] == [None] * 3

    def fail(at):
        raise FinslerCheckError("forced")

    with pytest.raises(FinslerCheckError, match="forced at the sample "):
        map_samples(fail, samples)
    assert [at.batch for at in samples] == [None] * 3


def test_ops_outside_a_loop_hold_what_a_loop_of_one_would():
    # ops called outside map_samples read as a loop of one: they hold on
    # their own sample, under the keys a loop fills, what they read and
    # compute, without the energy series, and no other sample holds
    # anything; spray_jets, a library read, keeps nothing
    m = catalogue.entry("funk_parallel", n=3).model
    omega = _forms()[1]
    beta = omega.beta()
    samples = tangent_samples(3, 3, seed=3, radius=0.5)
    at = samples[0]
    g = geometry.metric_tensor(m, at)
    geometry.hilbert_form(m, at)
    geometry.angular_metric(m, at, g)
    geometry.spray_coefficients(m, at)
    forms.homogeneity_residual(omega, at)
    forms.delta_beta(m, omega, at)
    omega.jacobian(at.x, at)
    keys = [(m.energy, 0, 2, "ad"), ("metric_tensor", m, "ad"),
            (m.F, 0, 1, "ad"), (m.F, 0, 2, "ad"), (m, 0, 0, "values"),
            (beta, 1, 1, "ad"), ("homogeneity_residual", omega, "ad"),
            ("spray_partials", m, 1, 2, "ad"),
            ("delta_derivative", m, beta, "ad"), (omega.b, 1, 0, "ad")]
    assert list(at.jets) == keys
    geometry.berwald_curvature(m, at)
    geometry.spray_jets(m, at, 1, 3)
    keys += [("spray_partials", m, 1, 3, "ad"), ("Berwald curvature", m, "ad")]
    assert list(at.jets) == keys
    assert all(at.jets[key] is not None for key in keys)
    # a held row keeps no series, as a filled sample's does not
    assert all(getattr(v, "series", None) is None
               for key in keys for v in at.jets[key])
    assert not any(other.jets for other in samples[1:])


def _calls_by_caller(names):
    """Each src/ call of a function in ``names``, as the set of enclosing
    function names per called name."""
    out = {name: set() for name in names}
    src = Path(finslercheck.__file__).parent
    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(path.read_text())
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Call):
                    f = node.func
                    name = getattr(f, "id", getattr(f, "attr", None))
                    if name in out:
                        out[name].add(f"{path.stem}.{fn.name}")
    return out


def test_fills_start_only_at_a_first_read():
    # what an op reads is stated once, by the op: no command fills its
    # samples ahead of its loop
    assert _calls_by_caller(("fill_jets",)) == {
        "fill_jets": {"calculus.held"}}
