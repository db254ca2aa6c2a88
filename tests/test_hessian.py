"""The stored energy's second derivatives: pointwise against differences of
the material law's first-derivative rows, assembled over the free DOFs
against differences of the assembled gradient and against the frozen first
version (tests/seed_hessian.py), and the block-Cholesky certificate against
the eigenvalues of the dense matrix and against that version's verdicts."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from seed_hessian import seed_certified, seed_hessian_rows

from kinkband import energy
from kinkband.energy import _certified, hessian_rows, material_law
from kinkband.evolution import (LoadProgram, _make_objective,
                                apply_boundary_conditions, initial_state,
                                lift_state)
from kinkband.kinematics import SlipSystem
from kinkband.mesh import build_dofmap, build_structured_mesh
from rotations import aligned_slip

SLIPS = {"default": aligned_slip(),
         "rotated": SlipSystem(s=np.array([-0.6, 0.8]))}


def _law_in_frame(v, params, slip, derivatives):
    """``material_law`` at frame variables v = (a0, a1, n0, n1, gamma), rows
    of points: grad y = a (x) s + n (x) m, so a = grad y s, n = grad y m."""
    a, n, gam = v[:, :2], v[:, 2:4], v[:, 4]
    Y = a[:, :, None] * slip.s + n[:, :, None] * slip.m
    return material_law(Y[:, 0, 0], Y[:, 0, 1], Y[:, 1, 0], Y[:, 1, 1], gam,
                        params, slip, derivatives=derivatives)


@pytest.mark.parametrize("slip_name", sorted(SLIPS))
def test_pointwise_second_derivatives_match_differences_of_the_rows(params,
                                                                   slip_name):
    slip = SLIPS[slip_name]
    rng = np.random.default_rng(41)
    # frames near the reference one, a = s and n = m, with slips of both signs
    v = np.concatenate([np.concatenate([slip.s, slip.m])
                        + 0.3 * rng.standard_normal((60, 4)),
                        0.5 * rng.standard_normal((60, 1))], axis=1)
    elastic, _, penalty, derivs = _law_in_frame(v, params, slip, 2)
    assert penalty is None
    rows, jac = derivs[:5], derivs[5:].reshape(5, 5, -1)
    assert np.array_equal(rows, _law_in_frame(v, params, slip, 1)[3])
    h = 1e-6
    for k in range(5):
        e = np.zeros(5)
        e[k] = h
        fd = (_law_in_frame(v + e, params, slip, 1)[3]
              - _law_in_frame(v - e, params, slip, 1)[3]) / (2.0 * h)
        assert np.abs(fd - jac[:, k]).max() <= 1e-8 * np.abs(jac).max()
    assert np.array_equal(jac, jac.transpose(1, 0, 2))


def test_pointwise_second_derivatives_at_a_penalty_point(params, slip):
    # only the hardening curvature is left; the admissible point in the same
    # call keeps its own values
    v = np.array([[0.1, 1.1, 0.9, 0.2, 0.3],      # det Fe = 0.97
                  [1e-9, 0.0, 0.0, 1.0, 0.4]])    # det Fe = -1e-9
    jac = _law_in_frame(v, params, slip, 2)[3][5:].reshape(5, 5, -1)
    alone = _law_in_frame(v[:1], params, slip, 2)[3][5:].reshape(5, 5, -1)
    assert np.array_equal(jac[:, :, 0], alone[:, :, 0])
    # r = 2: the hardening density is beta (2 + gamma^2)
    curvature = np.zeros((5, 5))
    curvature[4, 4] = 2.0 * params.beta
    assert np.allclose(jac[:, :, 1], curvature, rtol=1e-14, atol=0.0)


def dense_hessian(mesh, dofmap, q, params, slip):
    """The rows of ``hessian_rows`` as one dense matrix over the free DOFs,
    in the packed order; also the full block matrix."""
    lay = dofmap.row_blocks
    m = lay.size
    full = np.zeros((lay.count * m, lay.count * m))
    for j, (diag, coupling) in enumerate(hessian_rows(mesh, dofmap, q, params,
                                                      slip)):
        rows = slice(j * m, (j + 1) * m)
        full[rows, rows] = diag
        if coupling is not None:
            before = slice((j - 1) * m, j * m)
            full[rows, before] = coupling
            full[before, rows] = coupling.T
    at = lay.row[dofmap.free] * m + lay.pos[dofmap.free]
    return full[np.ix_(at, at)], full


def _strained_slipped(mesh, dofmap, program):
    """A visibly strained, slipped, admissible state at t = 10 s."""
    state = apply_boundary_conditions(initial_state(mesh), mesh, dofmap,
                                      program, 10.0)
    rng = np.random.default_rng(3)
    x = dofmap.pack(state.q) \
        + 0.3 * rng.standard_normal(len(dofmap.free))
    return state, x


def _difference_columns(fun_grad, x, h=1e-6):
    cols = np.empty((len(x), len(x)))
    for k in range(len(x)):
        e = np.zeros(len(x))
        e[k] = h
        cols[:, k] = (fun_grad(x + e)[1] - fun_grad(x - e)[1]) / (2.0 * h)
    return cols


@pytest.mark.parametrize("slip_name", sorted(SLIPS))
def test_assembled_hessian_matches_differences_of_the_gradient(
        params, mesh_4x6, dofmap_4x6, slip_name):
    slip = SLIPS[slip_name]
    program = LoadProgram(speed=0.18, Ly=75.0)
    state, x = _strained_slipped(mesh_4x6, dofmap_4x6, program)
    # no dissipation: the Hessian is the stored energy's alone
    fun_grad = _make_objective(mesh_4x6, dofmap_4x6, params, slip, state, None)
    assert fun_grad.last[1] is None
    fun_grad(x)
    assert fun_grad.last[1][0].penalty == 0.0
    q = dofmap_4x6.unpack(x, state.q)
    H, full = dense_hessian(mesh_4x6, dofmap_4x6, q, params, slip)
    scale = np.abs(H).max()
    assert np.abs(_difference_columns(fun_grad, x) - H).max() <= 1e-7 * scale
    assert np.abs(H - H.T).max() <= 1e-14 * scale
    # the fixed entries carry the identity and nothing else
    lay = dofmap_4x6.row_blocks
    fixed = lay.row[~lay.free] * lay.size + lay.pos[~lay.free]
    assert np.array_equal(full[fixed], np.eye(len(full))[fixed])


def test_a_hessian_without_the_slip_gradient_fails_the_difference_test(
        params, slip, mesh_4x6, dofmap_4x6):
    # negative control: the stored energy's slip-gradient term is
    # eps_grad int |grad gamma|^2, so eps_grad = 0 drops exactly that term
    program = LoadProgram(speed=0.18, Ly=75.0)
    state, x = _strained_slipped(mesh_4x6, dofmap_4x6, program)
    fun_grad = _make_objective(mesh_4x6, dofmap_4x6, params, slip, state, None)
    q = dofmap_4x6.unpack(x, state.q)
    H, _ = dense_hessian(mesh_4x6, dofmap_4x6, q, replace(params, eps_grad=0.0),
                         slip)
    err = np.abs(_difference_columns(fun_grad, x) - H).max()
    assert err > 1e-3 * np.abs(H).max()


@pytest.mark.parametrize("nx,ny,slip_name,verdicts", [
    # the smallest layouts: one band (two rows, one pair factored), one
    # cell column (every node lateral, so a1 has no free DOF), and both
    pytest.param(1, 1, "default", None, id="1-1-None"),
    pytest.param(3, 1, "default", None, id="3-1-None"),
    pytest.param(1, 4, "default", None, id="1-4-None"),
    pytest.param(4, 6, "default", None, id="4-6-None"),
    pytest.param(10, 18, "default", (True, False), id="10-18-verdicts1"),
    pytest.param(10, 18, "rotated", (True, False), id="10-18-rotated")])
def test_block_cholesky_agrees_with_the_eigenvalues(params, nx, ny, slip_name,
                                                    verdicts):
    # the homogeneous lift of steps 9 and 10 of the K = 20 program; on 10x18
    # the stored energy loses stability between them (at step 9.6 for the
    # default slip system)
    slip = SLIPS[slip_name]
    mesh = build_structured_mesh(42.0, 75.0, nx, ny)
    dofmap = build_dofmap(mesh)
    program = LoadProgram(speed=0.18, Ly=75.0)
    found = []
    for k in (9, 10):
        lifted = lift_state(initial_state(mesh), mesh, program, 0.0, 5.0 * k)
        q = lifted.q
        H, _ = dense_hessian(mesh, dofmap, q, params, slip)
        lowest = np.linalg.eigvalsh(H)[0]
        found.append(_certified(mesh, dofmap, params, slip, q))
        assert found[-1] == (lowest > 0.0)
        assert abs(lowest) > 1e-9 * np.abs(H).max()     # a clear verdict
    if verdicts is not None:
        assert tuple(found) == verdicts


def _copied(rows):
    """The blocks of a ``hessian_rows`` generator, each copied as it comes
    (a yielded block is valid only until the next is asked for)."""
    return [(d.copy(), None if b is None else b.copy()) for d, b in rows]


def _rows_agree(rows, reference, rel=1e-13):
    """Whether every D_j and B_j of ``rows`` is within ``rel`` of the largest
    entry of ``reference`` of its counterpart there."""
    scale = max(np.abs(d).max() for d, _ in reference)
    return len(rows) == len(reference) and all(
        (b is None) == (b_ref is None)
        and np.abs(d - d_ref).max() <= rel * scale
        and (b is None or np.abs(b - b_ref).max() <= rel * scale)
        for (d, b), (d_ref, b_ref) in zip(rows, reference))


def _assert_matches_the_seed(mesh, dofmap, q, params, slip):
    """Row blocks within 1e-13 of the largest entry, and equal verdicts;
    returns the verdict."""
    rows = _copied(hessian_rows(mesh, dofmap, q, params, slip))
    assert _rows_agree(rows, list(seed_hessian_rows(mesh, dofmap, q, params,
                                                    slip)))
    verdict = _certified(mesh, dofmap, params, slip, q)
    assert verdict == seed_certified(mesh, dofmap, params, slip, q)
    return verdict


@pytest.mark.parametrize("nx,ny,K,steps,verdicts", [
    (4, 6, 20, (9, 10), None), (10, 18, 20, (9, 10), (True, False)),
    # certified at step 16, not at 17, where the lowest eigenvalue of the
    # Hessian over the free DOFs is -0.255
    (20, 36, 76, (16, 17), (True, False)),
    # the default mesh, nine chunks: its onset is at step 11.2
    (34, 61, 76, (11, 12), (True, False))])
def test_rows_and_verdicts_match_the_seed_at_homogeneous_lifts(
        params, slip, nx, ny, K, steps, verdicts):
    mesh = build_structured_mesh(42.0, 75.0, nx, ny)
    dofmap = build_dofmap(mesh)
    program = LoadProgram(speed=0.18, Ly=75.0)
    times = np.linspace(0.0, 100.0, K + 1)
    found = []
    for k in steps:
        lifted = lift_state(initial_state(mesh), mesh, program, 0.0,
                            float(times[k]))
        q = lifted.q
        found.append(_assert_matches_the_seed(mesh, dofmap, q, params, slip))
    if verdicts is not None:
        assert tuple(found) == verdicts


def _onset_strain(params, slip, nx, ny, bisections=20):
    """The nominal strain at which the stored energy of the homogeneous
    state loses stability (c = 0), by bisecting ``_certified`` in t on
    (0, 100) s: the homogeneous lift of the initial state to t, with the
    fixed entries of the boundary data at t, as a step builds it."""
    mesh = build_structured_mesh(42.0, 75.0, nx, ny)
    dofmap = build_dofmap(mesh)
    program = LoadProgram(speed=0.18, Ly=75.0)

    def certified(t):
        lifted = lift_state(initial_state(mesh), mesh, program, 0.0, t)
        q = apply_boundary_conditions(lifted, mesh, dofmap, program, t).q
        return _certified(mesh, dofmap, params, slip, q)

    stable, unstable = 0.0, 100.0
    assert certified(stable) and not certified(unstable)
    for _ in range(bisections):
        t = 0.5 * (stable + unstable)
        stable, unstable = (t, unstable) if certified(t) else (stable, t)
    assert unstable - stable <= 1e-4
    return program.speed * unstable / program.Ly


def test_the_homogeneous_states_onset_falls_toward_the_box_estimate(params,
                                                                   slip):
    # t_c = 47.89 s on 10x18 and 22.29 s on 20x36 (steps 9.6 of K = 20 and
    # 16.9 of K = 76); the continuum estimate in the 42 x 75 mm box is 2.36%
    coarse = _onset_strain(params, slip, 10, 18)
    fine = _onset_strain(params, slip, 20, 36)
    assert abs(coarse - 0.11494) <= 1e-4
    assert abs(fine - 0.05349) <= 1e-4
    assert coarse > fine > 0.0236


@pytest.mark.parametrize("slip_name", sorted(SLIPS))
@pytest.mark.parametrize("nx,ny,chunk", [
    pytest.param(nx, ny, chunk,
                 id=f"{nx}-{ny}" + ("" if chunk == "default" else f"-{chunk}"))
    for nx, ny in ((4, 6), (10, 18), (20, 36))
    for chunk in ("chunk_per_band", "default", "one_chunk")])
def test_rows_and_verdicts_match_the_seed_at_strained_slipped_states(
        params, monkeypatch, nx, ny, chunk, slip_name):
    # chunks of one band each, the default (4x6 and 10x18 in one chunk, 20x36
    # in three, whose last rows' diagonal blocks span two chunks), and the
    # whole mesh in one chunk
    mesh = build_structured_mesh(42.0, 75.0, nx, ny)
    dofmap = build_dofmap(mesh)
    size = {"chunk_per_band": 2 * nx, "default": energy._HESSIAN_CHUNK,
            "one_chunk": mesh.n_triangles}[chunk]
    monkeypatch.setattr(energy, "_HESSIAN_CHUNK", size)
    formed, element_hessians = [], energy._element_hessians

    def recorded(mesh, q, params, slip, part):
        formed.append(part)
        return element_hessians(mesh, q, params, slip, part)

    monkeypatch.setattr(energy, "_element_hessians", recorded)
    state, x = _strained_slipped(mesh, dofmap, LoadProgram(speed=0.18,
                                                            Ly=75.0))
    q = dofmap.unpack(x, state.q)
    _assert_matches_the_seed(mesh, dofmap, q, params, SLIPS[slip_name])
    # the rows' first pass took the elements in ceil(n_tri / size) slices
    first = formed[:-(-mesh.n_triangles // size)]
    assert [p.start for p in first] == [0] + [p.stop for p in first[:-1]]
    assert first[-1].stop == mesh.n_triangles


def _with_one_discarded_entry_kept(mesh, dofmap, upper):
    """A copy of ``dofmap`` whose ``row_blocks`` keep one entry of one
    element that belongs in the discarded bin: an upper coupling between
    free DOFs (``upper``), else an entry of a fixed row.  It is sent where
    the layout's formula puts it when nothing is discarded."""
    lay = dofmap.row_blocks
    m = lay.size
    at = (mesh.corners[None]
          + mesh.n_nodes * np.arange(3)[:, None, None]).reshape(9, -1)
    up, pos, free = lay.row[at] - lay.band, lay.pos[at], lay.free[at]
    if upper:
        pick = (up[:, None] == 0) & (up == 1) & free[:, None] & free
    else:
        pick = (up[:, None] == up) & ~free[:, None] & free
    a, b, e = (int(i[0]) for i in np.nonzero(pick))
    pattern = lay.pattern[lay.kind].copy()      # one row per element
    assert pattern[e, 9 * a + b] == 2 * m * m   # discarded so far
    pattern[e, 9 * a + b] = (((up[a, e] + up[b, e]) * m + pos[a, e]) * m
                             + pos[b, e] + (up[a, e] & up[b, e]))
    tampered = replace(dofmap)
    tampered.__dict__["row_blocks"] = lay._replace(
        kind=np.arange(len(pattern)), pattern=pattern)
    return tampered


@pytest.mark.parametrize("upper", [True, False])
def test_a_kept_upper_coupling_or_fixed_entry_fails_the_seed_comparison(
        params, slip, mesh_4x6, dofmap_4x6, monkeypatch, upper):
    # negative control: the comparison catches one misrouted element entry,
    # with the mesh in one chunk (the default at 4x6) and in one per band
    state, x = _strained_slipped(mesh_4x6, dofmap_4x6,
                                 LoadProgram(speed=0.18, Ly=75.0))
    q = dofmap_4x6.unpack(x, state.q)
    reference = list(seed_hessian_rows(mesh_4x6, dofmap_4x6, q, params, slip))
    tampered = _with_one_discarded_entry_kept(mesh_4x6, dofmap_4x6, upper)
    for size in (energy._HESSIAN_CHUNK, 8):
        monkeypatch.setattr(energy, "_HESSIAN_CHUNK", size)
        assert _rows_agree(_copied(hessian_rows(mesh_4x6, dofmap_4x6, q,
                                                params, slip)), reference)
        assert not _rows_agree(_copied(hessian_rows(mesh_4x6, tampered, q,
                                                    params, slip)), reference)


def test_a_mesh_not_numbered_band_by_band_is_refused(params, slip, mesh_4x6):
    # the chunks are element slices: an element out of band order could
    # fall in another chunk than its band's and be misplaced, so such a
    # mesh is refused
    perm = np.random.default_rng(7).permutation(mesh_4x6.n_triangles)
    shuffled = replace(mesh_4x6, corners=mesh_4x6.corners[:, perm],
                       element_area=mesh_4x6.element_area[perm],
                       grads=mesh_4x6.grads[:, :, perm])
    dofmap = build_dofmap(shuffled)
    lifted = lift_state(initial_state(shuffled), shuffled,
                        LoadProgram(speed=0.18, Ly=75.0), 0.0, 45.0)
    q = lifted.q
    with pytest.raises(ValueError, match="band by band"):
        _certified(shuffled, dofmap, params, slip, q)


def _first_certificate_peak(params, slip, nx, ny, t):
    """The traced memory peak of the first certificate on a fresh problem,
    at the homogeneous lift to time t, so it includes the row layout and
    the element bins that the call builds."""
    mesh = build_structured_mesh(42.0, 75.0, nx, ny)
    dofmap = build_dofmap(mesh)
    lifted = lift_state(initial_state(mesh), mesh,
                        LoadProgram(speed=0.18, Ly=75.0), 0.0, t)
    q = lifted.q
    tracemalloc.start()
    try:
        assert _certified(mesh, dofmap, params, slip, q)    # every row factored
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_certificate_at_20x36_peaks_under_2_mb(params, slip):
    # three chunks, step 16 of the K = 76 program
    assert _first_certificate_peak(params, slip, 20, 36,
                                   100.0 * 16 / 76) <= 2.0 * 2 ** 20


def test_a_certificate_at_10x18_peaks_under_1_mb(params, slip):
    # one chunk, step 9 of the K = 20 program
    assert _first_certificate_peak(params, slip, 10, 18, 45.0) <= 2 ** 20
