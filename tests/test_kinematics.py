import numpy as np
import pytest

from kinkband.energy import element_grad_y
from kinkband.kinematics import SlipSystem
from kinkband.mesh import build_structured_mesh
from oracles import elastic_strain, inverse_plastic, plastic_distortion
from rotations import aligned_slip


def test_slip_system_validation():
    SlipSystem(s=[0, 1])
    with pytest.raises(ValueError):
        SlipSystem(s=[0, 2])
    # not a finite 2-vector: a unit-norm test alone accepts the first,
    # builds m = (1, nan) from the second and raises IndexError on the third
    for s in ([0, 1, 0], [np.nan, 1.0], [[0, 1]]):
        with pytest.raises(ValueError, match="unit 2-vector"):
            SlipSystem(s=s)
    with pytest.raises(TypeError):
        SlipSystem(s=[0, 1], m=[1, 0])


def test_normal_is_the_glide_direction_turned_clockwise():
    m = aligned_slip().m
    assert m.tolist() == [1.0, 0.0]
    assert not np.signbit(m).any()
    assert SlipSystem(s=[-0.6, 0.8]).m.tolist() == [0.8, 0.6]


def test_plastic_distortion_examples(slip):
    np.testing.assert_allclose(plastic_distortion(0.0, slip), np.eye(2))
    Fp = plastic_distortion(0.5, slip)
    np.testing.assert_allclose(Fp, [[1.0, 0.0], [0.5, 1.0]])
    assert np.linalg.det(Fp) == pytest.approx(1.0, abs=1e-15)
    assert np.sum(Fp * Fp) == pytest.approx(2.25)


def test_inverse_plastic_examples(slip):
    np.testing.assert_allclose(inverse_plastic(0.0, slip), np.eye(2))
    np.testing.assert_allclose(inverse_plastic(0.5, slip),
                               [[1.0, 0.0], [-0.5, 1.0]])


def test_unimodularity_and_inverse(slip):
    rng = np.random.default_rng(21)
    for gamma in rng.uniform(-2, 2, size=200):
        Fp = plastic_distortion(gamma, slip)
        assert abs(np.linalg.det(Fp) - 1.0) < 1e-14
        P = inverse_plastic(gamma, slip)
        assert np.max(np.abs(P @ Fp - np.eye(2))) < 1e-14


def test_slip_composition(slip):
    # s (x) m is nilpotent, so Fp(g1) Fp(g2) = Fp(g1 + g2)
    rng = np.random.default_rng(22)
    for g1, g2 in rng.uniform(-2, 2, size=(100, 2)):
        lhs = plastic_distortion(g1, slip) @ plastic_distortion(g2, slip)
        np.testing.assert_allclose(lhs, plastic_distortion(g1 + g2, slip),
                                   atol=1e-14)


def test_elastic_strain_examples(slip):
    np.testing.assert_allclose(elastic_strain(np.eye(2), 0.0, slip), np.eye(2))
    grad_y = np.diag([1.0, 0.9])
    Fe = elastic_strain(grad_y, 0.0, slip)
    np.testing.assert_allclose(Fe, grad_y)
    assert np.linalg.det(Fe) == pytest.approx(0.9)
    Fe = elastic_strain(np.eye(2), 0.3, slip)
    np.testing.assert_allclose(Fe, [[1.0, 0.0], [-0.3, 1.0]])


def test_det_elastic_equals_det_grad(slip):
    rng = np.random.default_rng(23)
    for _ in range(200):
        grad_y = np.eye(2) + 0.5 * rng.standard_normal((2, 2))
        gamma = rng.uniform(-2, 2)
        Fe = elastic_strain(grad_y, gamma, slip)
        assert abs(np.linalg.det(Fe) - np.linalg.det(grad_y)) < 1e-12


def test_plastic_gradient_norm_equals_slip_gradient(slip):
    # |s (x) m (x) grad_gamma| = |grad_gamma| for unit s, m; this is the
    # equivalence used by the slip-gradient energy term.
    rng = np.random.default_rng(24)
    for _ in range(50):
        gg = rng.standard_normal(2)
        tensor = np.einsum("i,j,k->ijk", slip.s, slip.m, gg)
        assert np.linalg.norm(tensor) == pytest.approx(np.linalg.norm(gg),
                                                       rel=1e-13)


def test_gradient_of_field_examples():
    # rows of element_grad_y are the element gradients of a1 and a2, exact
    # for affine fields on every element
    mesh = build_structured_mesh(2.0, 3.0, 3, 4)
    x, y = mesh.nodes.T
    for vals, grad, atol in ((x, [1.0, 0.0], 1e-13),
                             (np.full(mesh.n_nodes, 7.5), [0.0, 0.0], 1e-13),
                             (3.0 * x - 2.0 * y, [3.0, -2.0], 1e-12)):
        y00, y01, y10, y11, _ = element_grad_y(mesh, np.array((vals, vals)))
        np.testing.assert_allclose(np.column_stack([y00, y01, y10, y11]),
                                   np.tile(grad * 2, (mesh.n_triangles, 1)),
                                   atol=atol)
