"""The library's records are named tuples: immutable, iterated in field
order and equal to the plain tuple of their values.  The integration
meshes are plain classes whose length is the number of mesh points."""

import importlib.util
import itertools
import pathlib

import pytest

from halphen import bianchi, dh, frobenius, gauss_manin, qseries, ramanujan, rk

RECORDS = [
    dh.DHState(1, 2, 3),
    dh.darboux_condition_residual((1, 2, 3)),
    bianchi.SELF_DUAL,
    bianchi.MetricCoeffs(1.0, 2.0, 3.0),
    bianchi.OmegaAState(omega=(1, 2, 3), a=(4, 5, 6)),
    bianchi.TodHitchinParams(p=0.25, q=0.5),
    bianchi.connection_one_form((1.0, 2.0, 3.0), (0.1, 0.2, 0.3)),
    frobenius.PotentialJet(1, 2, 3, 4),
    frobenius.GammaJet(1, 2, 3, 4),
    gauss_manin.gm_matrix((1, 2, 3)),
    qseries.ThetaCharacteristics(0, 0, 1j),
    ramanujan.EisensteinState(1, 2, 3),
]


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_records_are_immutable_tuples(record):
    values = tuple(getattr(record, name) for name in record._fields)
    assert tuple(record) == values and record == values
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    with pytest.raises(AttributeError):
        record.extra = None  # a subclass without __slots__ = () would allow this


def test_records_coerce_and_default():
    assert all(type(v) is complex for v in qseries.ThetaCharacteristics(0, 1, 1j))
    assert bianchi.TodHitchinParams(0.25, 0.5)[2:] == (1.0,)


def test_meshes_are_sized_by_their_points():
    traj = dh.dh_integrate(dh.dh_theta_solution(1.2j), 1.2j, 1.5j, tol=1e-8)
    flow = bianchi.omega_theta_flow((1.0, 0.5, 0.25), 0.7, 1.0, tol=1e-8)
    assert len(traj) == len(traj.ts) == len(traj.states) > 3
    assert len(flow) == len(flow.ts) == len(flow.states) > 3
    assert all(type(y) is tuple for y in traj.states + flow.states)
    assert traj.at(1.2j) is traj.states[0]  # the mesh state itself, not a copy
    assert flow.at(0.7) is flow.states[0]
    assert {len(y) for y in traj.states} == {3} and {len(y) for y in flow.states} == {6}
    assert flow.states[0] == (1.0, 0.5, 0.25, *bianchi.theta_A_solution(0.7))  # (*Omega, *A)
    for mesh in (traj, flow):
        with pytest.raises(AttributeError):
            mesh.extra = None
    assert flow.omegas is flow.states  # the benchmark's name, read-only
    with pytest.raises(AttributeError):
        flow.omegas = []


def load_bench_module(name):
    """A module of the benchmark, bench/<name>.py, loaded from its file."""
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / (name + ".py")
    spec = importlib.util.spec_from_file_location("bench_" + name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_bindings_resolve():
    # the benchmark's tracer patches these (owner, attribute) pairs in place
    tracer = load_bench_module("tracer")
    bindings = [b for _, group in tracer.library_patches() for b in group]
    assert bindings
    for owner, attr in bindings:
        assert callable(getattr(owner, attr)), (owner, attr)
    assert "at" in vars(rk.RkSolution)


def test_numeric_flow_oracles_pass():
    # the benchmark's numeric-flow oracles read the meshes: the DH flow's
    # states and the Omega flow's omegas, at() included
    workloads = load_bench_module("workloads")
    verdicts = [(name, run()) for name, run in itertools.islice(workloads.numeric_flow(1), 60)]
    assert [v for v in verdicts if v[1] != workloads.OK] == []
