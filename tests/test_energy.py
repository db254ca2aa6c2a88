import math
from dataclasses import replace

import numpy as np
import pytest

from kinkband import MaterialParams
from kinkband.energy import (_assemble, _field_at_points, curvature_scale,
                             dissipation_increment, total_energy)
from kinkband.evolution import State, initial_state
from kinkband.kinematics import SlipSystem
from kinkband.mesh import build_dofmap, build_structured_mesh
from kinkband.optimizer import gradient_check
from rotations import aligned_slip, law_at, random_rotation
from test_optimizer import coordinate_oracle

DOMAIN_AREA = 42.0 * 75.0


def _random_state(mesh, rng, amp=0.1, gamma_amp=0.3):
    st = initial_state(mesh)
    st.q[0] = st.a1 + amp * rng.standard_normal(mesh.n_nodes)
    st.q[1] = st.a2 + amp * rng.standard_normal(mesh.n_nodes)
    st.q[2] = gamma_amp * rng.standard_normal(mesh.n_nodes)
    return st


# ---------------------------------------------------------------------------
# pointwise densities


def test_elastic_density_identity(params, slip):
    # |I|^p = 2^{p/2} and det I = 1, so only the transverse term survives
    elastic, _, penalty, _ = law_at(np.eye(2)[None], params, slip)
    assert penalty is None
    assert elastic[0] == pytest.approx(params.aniso, rel=1e-13)


def test_elastic_density_rotation_equals_identity(params, slip):
    rng = np.random.default_rng(31)
    R = np.array([random_rotation(rng) for _ in range(20)])
    assert law_at(R, params, slip)[0] == pytest.approx(params.aniso, rel=1e-10)


def test_elastic_density_frozen_value(slip):
    # independent scalar oracle, computed by direct arithmetic
    p4 = MaterialParams(C=600.0, D=200.0, aniso=100.0, p=4.0)
    Fe = np.diag([1.0, 0.9])
    frob2 = 1.0 + 0.81
    expected = (600.0 * (frob2 ** 2 - 4.0 - 2.0 * math.log(0.9))
                + 200.0 * (0.9 - 1.0) ** 2 + 100.0 * 1.0)
    assert expected == pytest.approx(-205.90738121060846, rel=1e-12)
    assert law_at(Fe[None], p4, slip)[0][0] == pytest.approx(expected, rel=1e-12)


def test_frame_indifference(params, slip):
    rng = np.random.default_rng(32)
    Fes, Rs = [], []
    for _ in range(100):
        Fe = np.eye(2) + 0.4 * rng.standard_normal((2, 2))
        if np.linalg.det(Fe) <= 0.1:
            continue
        Fes.append(Fe)
        Rs.append(random_rotation(rng))
    Fe = np.array(Fes)
    w0 = law_at(Fe, params, slip)[0]
    assert law_at(np.array(Rs) @ Fe, params, slip)[0] == pytest.approx(w0, rel=1e-10)


def test_compression_blowup_and_penalty(params, slip):
    # along diag(1, t) the density grows without bound as t -> 0 ...
    ts = np.logspace(-1, -7, 13)
    vals = law_at(np.array([np.diag([1.0, t]) for t in ts]), params, slip)[0]
    assert np.all(np.diff(vals) > 0)
    # ... until the penalty branch takes over below det_floor
    elastic, _, penalty, _ = law_at(np.diag([1.0, 1e-9])[None], params, slip)
    assert elastic[0] == 0.0
    assert penalty[0] == params.det_penalty


def test_coercivity_witness(params, slip):
    # density >= C |Fe|^p - c0 with c0 = C 2^{p/2} + C^2 / D on the smooth branch
    c0 = params.C * 2.0 ** (params.p / 2.0) + params.C ** 2 / params.D
    rng = np.random.default_rng(33)
    Fe = np.array([rng.uniform(-3, 3, size=(2, 2)) for _ in range(300)])
    Fe = Fe[np.linalg.det(Fe) > params.det_floor]
    frob = np.sqrt(np.sum(Fe * Fe, axis=(1, 2)))
    assert np.all(law_at(Fe, params, slip)[0]
                  >= params.C * frob ** params.p - c0 - 1e-9)


def test_hardening_density_examples(slip):
    params = MaterialParams(beta=0.02, r=2.0)
    F = np.broadcast_to(np.eye(2), (3, 2, 2))
    hardening = law_at(F, params, slip, gam=[0.0, 1.0, 0.5])[1]
    assert hardening == pytest.approx([0.04, 0.06, 0.045])


@pytest.mark.parametrize("slip", [
    aligned_slip(),
    SlipSystem(s=np.array([-np.sin(0.7), np.cos(0.7)]))],
    ids=["default", "rotated"])
def test_material_law_derivatives_match_central_differences(params, slip):
    # d(elastic + hardening) / d(Y00, Y01, Y10, Y11, gamma) at admissible points
    rng = np.random.default_rng(37)
    F = np.eye(2) + 0.3 * rng.standard_normal((80, 2, 2))
    F = F[np.linalg.det(F) > 0.2][:50]
    assert len(F) == 50
    x = np.concatenate([F.reshape(-1, 4), 0.5 * rng.standard_normal((50, 1))], axis=1)

    def density(x):
        elastic, hardening, penalty, _ = law_at(x[:, :4].reshape(-1, 2, 2), params,
                                                slip, gam=x[:, 4])
        assert penalty is None
        return elastic + hardening

    derivs = np.array(law_at(F, params, slip, gam=x[:, 4], derivatives=True)[3]).T
    h = 1e-6
    for k in range(5):
        e = np.zeros(5)
        e[k] = h
        fd = (density(x + e) - density(x - e)) / (2.0 * h)
        assert np.abs(fd - derivs[:, k]).max() <= 1e-8 * np.abs(derivs).max()


def test_material_law_penalty_point(params, slip):
    # the elastic part of every derivative vanishes at a penalty point; the
    # admissible point in the same call keeps its own values
    F = np.array([np.eye(2) + 0.1, np.diag([1.0, 1e-9])])
    gam = np.array([0.2, 0.3])
    elastic, _, penalty, derivs = law_at(F, params, slip, gam=gam, derivatives=True)
    alone = law_at(F[:1], params, slip, gam=gam[:1], derivatives=True)
    assert elastic[1] == 0.0 and elastic[0] == alone[0][0]
    assert list(penalty) == [0.0, params.det_penalty]
    assert [d[1] for d in derivs[:4]] == [0.0] * 4
    assert [d[0] for d in derivs] == [d[0] for d in alone[3]]
    # r = 2: the hardening slope is 2 beta gamma
    assert derivs[4][1] == pytest.approx(2.0 * params.beta * 0.3, rel=1e-14)


def test_slip_gradient_density_examples(slip):
    # eps_grad |grad gamma|^2 over the domain: 0 for a constant slip field,
    # eps_grad * (0.03^2 + 0.04^2) * Lx * Ly for 0.03 x + 0.04 y
    params = MaterialParams(eps_grad=500.0)
    mesh = build_structured_mesh(42, 75, 5, 8)
    st = initial_state(mesh)
    st.q[2] = np.full(mesh.n_nodes, 0.3)
    assert total_energy(st, mesh, params, slip).slip_gradient == 0.0
    st.q[2] = 0.03 * mesh.nodes[:, 0] + 0.04 * mesh.nodes[:, 1]
    assert total_energy(st, mesh, params, slip).slip_gradient == pytest.approx(
        500.0 * 0.0025 * DOMAIN_AREA, rel=1e-12)


# ---------------------------------------------------------------------------
# assembled energy


def test_total_energy_identity_closed_form(slip):
    # constant integrand (aniso + beta * 2) times the domain area
    params = MaterialParams(p=4.0)
    mesh = build_structured_mesh(42, 75, 5, 8)
    breakdown = total_energy(initial_state(mesh), mesh, params, slip)
    assert breakdown.total == pytest.approx(315126.0, rel=1e-10)
    assert breakdown.elastic == pytest.approx(100.0 * DOMAIN_AREA, rel=1e-10)
    assert breakdown.hardening == pytest.approx(0.04 * DOMAIN_AREA, rel=1e-10)
    assert breakdown.slip_gradient == 0.0
    assert breakdown.penalty == 0.0


def test_total_energy_uniform_compression(params, slip):
    mesh = build_structured_mesh(42, 75, 6, 10)
    st = initial_state(mesh)
    st.q[1] = 0.99 * st.a2
    breakdown = total_energy(st, mesh, params, slip)
    # independent oracle by direct arithmetic: W(diag(1, 0.99)) + beta 2^{r/2}
    assert params.r == 2.0
    density = (params.C * ((1.0 + 0.99 ** 2) ** (params.p / 2.0)
                           - 2.0 ** (params.p / 2.0) - 2.0 * math.log(0.99))
               + params.D * (0.99 - 1.0) ** 2 + params.aniso + 2.0 * params.beta)
    assert breakdown.total == pytest.approx(density * DOMAIN_AREA, rel=1e-10)


def test_total_energy_penalty_branch(params, slip):
    mesh = build_structured_mesh(42, 75, 3, 4)
    st = initial_state(mesh)
    st.q[1] = 1e-9 * st.a2          # det grad_y = 1e-9 <= det_floor everywhere
    breakdown = total_energy(st, mesh, params, slip)
    assert breakdown.penalty > 0
    assert breakdown.penalty == pytest.approx(params.det_penalty * DOMAIN_AREA,
                                              rel=1e-10)


def test_breakdown_additivity(params, slip, mesh_4x6):
    rng = np.random.default_rng(34)
    st = _random_state(mesh_4x6, rng)
    bd = total_energy(st, mesh_4x6, params, slip)
    parts = bd.elastic + bd.hardening + bd.slip_gradient + bd.penalty
    assert bd.total == pytest.approx(parts, rel=1e-10)


def test_total_energy_dimension_mismatch(params, slip, mesh_4x6):
    st = State(np.zeros((3, mesh_4x6.n_nodes + 1)))
    with pytest.raises(ValueError):
        total_energy(st, mesh_4x6, params, slip)


def test_energy_deterministic(params, slip, mesh_4x6):
    rng = np.random.default_rng(35)
    st = _random_state(mesh_4x6, rng)
    t1 = total_energy(st, mesh_4x6, params, slip).total
    t2 = total_energy(st, mesh_4x6, params, slip).total
    assert t1 == t2


# ---------------------------------------------------------------------------
# dissipation


def _smoothed(gamma_prev, gamma, mesh, params, slip):
    """The smoothed dissipation that a step minimizes and records:
    ``_assemble``'s second result at slip ``gamma``."""
    q = initial_state(mesh).q
    q[2] = gamma
    return _assemble(mesh, q, params, slip,
                     gam_prev=_field_at_points(mesh, gamma_prev))[1]


def test_dissipation_equal_fields_floor(params, slip, mesh_4x6):
    g = np.full(mesh_4x6.n_nodes, 0.37)
    expected = params.sigma * params.delta * DOMAIN_AREA
    assert _smoothed(g, g, mesh_4x6, params, slip) == pytest.approx(
        expected, rel=1e-12)


def test_dissipation_unsmoothed_constant_field(params, mesh_4x6):
    # the record's variation is the raw l1 dissipation, whatever delta is
    c = -0.42
    g1 = np.zeros(mesh_4x6.n_nodes)
    g2 = np.full(mesh_4x6.n_nodes, c)
    for delta in (params.delta, 1.0):
        assert dissipation_increment(
            g1, g2, mesh_4x6, replace(params, delta=delta)) == pytest.approx(
                params.sigma * abs(c) * DOMAIN_AREA, rel=1e-12)


def test_dissipation_symmetric_and_bounded_below(params, slip, mesh_4x6):
    rng = np.random.default_rng(36)
    g1 = rng.standard_normal(mesh_4x6.n_nodes)
    g2 = rng.standard_normal(mesh_4x6.n_nodes)
    d12 = _smoothed(g1, g2, mesh_4x6, params, slip)
    d21 = _smoothed(g2, g1, mesh_4x6, params, slip)
    assert d12 == d21
    assert d12 >= params.sigma * params.delta * DOMAIN_AREA


def test_dissipation_monotone_in_gap(params, slip, mesh_4x6):
    rng = np.random.default_rng(37)
    g1 = rng.standard_normal(mesh_4x6.n_nodes)
    step = np.abs(rng.standard_normal(mesh_4x6.n_nodes))
    values = [_smoothed(g1, g1 + s * step, mesh_4x6, params, slip)
              for s in (0.0, 0.5, 1.0, 2.0)]
    assert all(v2 > v1 for v1, v2 in zip(values, values[1:]))


def test_dissipation_smoothing_converges(slip, mesh_4x6):
    rng = np.random.default_rng(38)
    g1 = rng.standard_normal(mesh_4x6.n_nodes)
    g2 = rng.standard_normal(mesh_4x6.n_nodes)
    base = dissipation_increment(g1, g2, mesh_4x6, MaterialParams())
    gaps = []
    for delta in (1e-3, 1e-5, 1e-7):
        pd = MaterialParams(delta=delta)
        d = _smoothed(g1, g2, mesh_4x6, pd, slip)
        assert d >= base
        # sqrt(delta^2 + s^2) <= delta + |s| gives a linear-in-delta bound
        assert d - base <= pd.sigma * delta * DOMAIN_AREA + 1e-12
        gaps.append(d - base)
    assert gaps[0] > gaps[1] > gaps[2]


def test_dissipation_against_dense_quadrature(params, slip):
    # degree-5 rule on each triangle as an independent integration oracle;
    # the difference field keeps one sign per element so the smoothed
    # integrand has no interior kink
    mesh = build_structured_mesh(1, 1, 1, 1)
    rng = np.random.default_rng(39)
    g1 = rng.standard_normal(mesh.n_nodes)
    g2 = g1 + rng.uniform(0.2, 1.0, size=mesh.n_nodes)
    d3 = _smoothed(g1, g2, mesh, params, slip)

    w_c = 9.0 / 40.0
    a1 = (6.0 - math.sqrt(15.0)) / 21.0
    a2 = (6.0 + math.sqrt(15.0)) / 21.0
    w1 = (155.0 - math.sqrt(15.0)) / 1200.0
    w2 = (155.0 + math.sqrt(15.0)) / 1200.0
    pts = [(1 / 3, 1 / 3, 1 / 3)]
    wts = [w_c]
    for a, w in ((a1, w1), (a2, w2)):
        pts += [(a, a, 1 - 2 * a), (a, 1 - 2 * a, a), (1 - 2 * a, a, a)]
        wts += [w, w, w]
    pts = np.array(pts)
    wts = np.array(wts)

    diff = (g2 - g1)[mesh.corners.T] @ pts.T
    vals = np.sqrt(params.delta ** 2 + diff ** 2)
    d7 = params.sigma * float(mesh.element_area @ (vals @ wts))
    assert d3 == pytest.approx(d7, rel=1e-3)


def test_dissipation_dimension_mismatch(params, mesh_4x6):
    with pytest.raises(ValueError):
        dissipation_increment(np.zeros(3), np.zeros(mesh_4x6.n_nodes),
                              mesh_4x6, params)


# ---------------------------------------------------------------------------
# gradients


def _packed_gradient(state, mesh, dofmap, params, slip, gamma_prev=None):
    """The gradient of I (+ D^delta) over the free DOF vector."""
    gam_prev = (None if gamma_prev is None
                else _field_at_points(mesh, gamma_prev))
    _, _, grads = _assemble(mesh, state.q, params, slip,
                            gam_prev=gam_prev, need_grad=True)
    return dofmap.pack(grads)


def _packed_objective(mesh, dofmap, params, slip, template, b_prev):
    gam_prev = _field_at_points(mesh, b_prev)

    def fun(x):
        bd, diss, _ = _assemble(mesh, dofmap.unpack(x, template.q), params,
                                slip, gam_prev=gam_prev)
        return bd.total + diss
    return fun


def test_analytic_gradient_matches_fd(params, slip, mesh_4x6, dofmap_4x6):
    rng = np.random.default_rng(40)
    for _ in range(4):
        st = _random_state(mesh_4x6, rng)
        # separated slip history keeps the FD oracle out of the smoothing zone
        b_prev = st.b - 0.05 - 0.3 * np.abs(rng.standard_normal(mesh_4x6.n_nodes))
        fun = _packed_objective(mesh_4x6, dofmap_4x6, params, slip, st, b_prev)

        def grad(x):
            probe = State(dofmap_4x6.unpack(x, st.q))
            return _packed_gradient(probe, mesh_4x6, dofmap_4x6,
                                    params, slip, gamma_prev=b_prev)

        x = dofmap_4x6.pack(st.q)
        assert gradient_check(coordinate_oracle(fun, x), grad, x, 1e-6) < 1e-5


def test_identity_state_gradient_zero(params, slip, mesh_4x6, dofmap_4x6):
    st = initial_state(mesh_4x6)
    g = _packed_gradient(st, mesh_4x6, dofmap_4x6, params, slip)
    assert np.max(np.abs(g)) < 1e-9
    # central differences agree: the state is a critical point
    fun = _packed_objective(mesh_4x6, dofmap_4x6, params, slip, st,
                            np.zeros(mesh_4x6.n_nodes))
    x = dofmap_4x6.pack(st.q)
    h = 1e-6
    for i in range(0, len(x), 7):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        assert abs(fun(xp) - fun(xm)) / (2 * h) < 1e-4


def test_uniform_slip_shift_kills_gradient_term(slip, mesh_4x6, dofmap_4x6):
    # with grad gamma = 0 the b-block gradient must not depend on eps_grad
    st = initial_state(mesh_4x6)
    st.q[2] = np.full(mesh_4x6.n_nodes, 0.2)
    b_prev = np.zeros(mesh_4x6.n_nodes)
    g_eps = _packed_gradient(st, mesh_4x6, dofmap_4x6,
                             MaterialParams(eps_grad=500.0), slip,
                             gamma_prev=b_prev)
    small = MaterialParams()
    small.eps_grad = 1e-12
    g_no = _packed_gradient(st, mesh_4x6, dofmap_4x6, small, slip,
                            gamma_prev=b_prev)
    np.testing.assert_allclose(g_eps, g_no, atol=1e-9)
    # the beta and dissipation contributions are the lumped nodal masses
    # times their pointwise derivatives
    base = MaterialParams(beta=0.02)
    zero_beta = MaterialParams()
    zero_beta.beta = 0.0
    gb = _packed_gradient(st, mesh_4x6, dofmap_4x6, base, slip,
                          gamma_prev=b_prev)
    g0 = _packed_gradient(st, mesh_4x6, dofmap_4x6, zero_beta, slip,
                          gamma_prev=b_prev)
    diff = (gb - g0)[dofmap_4x6.free >= 2 * mesh_4x6.n_nodes]
    # d/dgamma of beta (2 + gamma^2) = 2 beta gamma, integrated against hats
    lumped = np.bincount(mesh_4x6.corners.T.ravel(),
                         weights=np.repeat(mesh_4x6.element_area / 3.0, 3),
                         minlength=mesh_4x6.n_nodes)
    np.testing.assert_allclose(diff, 2.0 * 0.02 * 0.2 * lumped, rtol=1e-10)


def test_penalty_branch_gradient_is_zero(params, slip, mesh_4x6, dofmap_4x6):
    st = initial_state(mesh_4x6)
    st.q[1] = 1e-9 * st.a2
    g = _packed_gradient(st, mesh_4x6, dofmap_4x6, params, slip)
    # the whole mesh sits in the penalty branch: elastic contribution gone,
    # remaining gradient comes from the slip terms only (zero here)
    assert np.max(np.abs(g)) < 1e-12


# ---------------------------------------------------------------------------
# L-BFGS curvature scale


@pytest.mark.parametrize("nx, ny", [(10, 18), (20, 36), (34, 61)])
def test_curvature_scale_is_one_for_default_material(nx, ny):
    # sigma/delta = 100 is below the stored-energy curvature k ~ 1615, so
    # the default problem runs the unscaled L-BFGS
    mesh = build_structured_mesh(42.0, 75.0, nx, ny)
    h = curvature_scale(mesh, build_dofmap(mesh), MaterialParams())
    assert (h == 1.0).all()


def test_curvature_scale_slip_suppressed():
    mesh = build_structured_mesh(42.0, 75.0, 10, 18)
    dofmap = build_dofmap(mesh)
    h = curvature_scale(mesh, dofmap, MaterialParams(sigma=1000.0))
    slip_dofs = dofmap.free >= 2 * mesh.n_nodes
    assert len(h) == len(dofmap.free)
    assert (h[~slip_dofs] == 1.0).all()
    assert h[slip_dofs].min() > 4e4


def test_curvature_scale_is_the_curvature_ratio(mesh_4x6, dofmap_4x6, slip):
    # h_i is the dissipation over the stored-energy second derivative in
    # slip DOF i at the reference state, here from central differences of
    # the analytic gradient at a step far below delta
    params = MaterialParams(sigma=1000.0)
    st = initial_state(mesh_4x6)
    zero = np.zeros(mesh_4x6.n_nodes)
    t = 1e-9
    h = curvature_scale(mesh_4x6, dofmap_4x6, params)[
        dofmap_4x6.free >= 2 * mesh_4x6.n_nodes]
    for i in (0, 7, 12, mesh_4x6.n_nodes - 1):
        e = np.zeros(mesh_4x6.n_nodes)
        e[i] = t

        def curvature(gam_prev):
            gp = _assemble(mesh_4x6, np.array((st.a1, st.a2, e)), params,
                           slip, gam_prev=gam_prev, need_grad=True)[2][2]
            gm = _assemble(mesh_4x6, np.array((st.a1, st.a2, -e)), params,
                           slip, gam_prev=gam_prev, need_grad=True)[2][2]
            return (gp[i] - gm[i]) / (2.0 * t)

        stored = curvature(None)
        dissipation = curvature(_field_at_points(mesh_4x6, zero)) - stored
        assert h[i] == pytest.approx(dissipation / stored, rel=1e-5)
