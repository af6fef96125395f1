"""Quaternion scalar algebra tests."""
import math

import numpy as np
import pytest

from qeeg.errors import ValidationError
from qeeg.quaternion import I, J, K, ONE, Quaternion


def rand_quaternion(rng, scale=1.0):
    return Quaternion(*(scale * rng.standard_normal(4)))


def test_basis_multiplication_table():
    # all 16 products of (1, i, j, k) must be exact
    basis = {"1": ONE, "i": I, "j": J, "k": K}
    minus = lambda q: -q
    expected = {
        ("1", "1"): ONE, ("1", "i"): I, ("1", "j"): J, ("1", "k"): K,
        ("i", "1"): I, ("i", "i"): -ONE, ("i", "j"): K, ("i", "k"): -J,
        ("j", "1"): J, ("j", "i"): -K, ("j", "j"): -ONE, ("j", "k"): I,
        ("k", "1"): K, ("k", "i"): J, ("k", "j"): -I, ("k", "k"): -ONE,
    }
    for (lhs, rhs), want in expected.items():
        assert basis[lhs] * basis[rhs] == want, f"{lhs}*{rhs}"


def test_ij_equals_k_and_anticommutes():
    assert I * J == K
    assert J * I == -K
    assert I * J != J * I


def test_identity_element():
    rng = np.random.default_rng(7)
    for _ in range(20):
        q = rand_quaternion(rng)
        assert q * ONE == q
        assert ONE * q == q


def test_one_plus_i_times_one_plus_j():
    # (1 + i)(1 + j) = 1 + j + i + ij = 1 + i + j + k
    got = Quaternion(1, 1, 0, 0) * Quaternion(1, 0, 1, 0)
    assert got == Quaternion(1, 1, 1, 1)


def test_conjugate_examples():
    q = Quaternion(1, 2, 3, 4)
    assert q.conjugate() == Quaternion(1, -2, -3, -4)
    assert q.conjugate().conjugate() == q
    real = Quaternion(2.5, 0, 0, 0)
    assert real.conjugate() == real


def test_norm_examples():
    assert math.isclose(Quaternion(1, 2, 3, 4).norm(), math.sqrt(30), rel_tol=1e-15)
    assert Quaternion().norm() == 0.0


def test_norm_multiplicative():
    rng = np.random.default_rng(11)
    for _ in range(500):
        a, b = rand_quaternion(rng), rand_quaternion(rng)
        assert math.isclose((a * b).norm(), a.norm() * b.norm(), rel_tol=1e-12)


def test_associativity():
    rng = np.random.default_rng(13)
    for _ in range(500):
        a, b, c = (rand_quaternion(rng) for _ in range(3))
        lhs = (a * b) * c
        rhs = a * (b * c)
        assert (lhs - rhs).norm() <= 1e-12 * max(1.0, lhs.norm())


def test_conjugation_antihomomorphism():
    rng = np.random.default_rng(17)
    for _ in range(500):
        a, b = rand_quaternion(rng), rand_quaternion(rng)
        lhs = (a * b).conjugate()
        rhs = b.conjugate() * a.conjugate()
        assert (lhs - rhs).norm() <= 1e-12 * max(1.0, lhs.norm())


def test_pure_predicate():
    assert Quaternion(0, 1, 2, 3).is_pure
    assert not Quaternion(1e-300, 1, 2, 3).is_pure


def test_checked_rejects_nonfinite():
    with pytest.raises(ValidationError):
        Quaternion.checked(float("nan"), 0, 0, 0)
    with pytest.raises(ValidationError):
        Quaternion.checked(0, float("inf"), 0, 0)


def test_serialization_roundtrip():
    q = Quaternion(0.5, -1.25, 3.0, -4.75)
    assert q.to_list() == [0.5, -1.25, 3.0, -4.75]
