from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

from limhodge.exactlin import (
    ConsistencyError, Matrix, Subspace, rref, rank, kernel, image, solve,
    quotient, inverse, is_positive_definite, determinant, rat_to_str,
    rat_from_str, hstack, vstack, block_diag,
)


def M(rows):
    return Matrix.from_rows([[Q(x) for x in r] for r in rows])


def test_rref_proportional_rows():
    r, piv = rref(M([[1, 2], [2, 4]]))
    assert piv == (0,)
    assert r == M([[1, 2], [0, 0]])


def test_rref_identity():
    i3 = Matrix.identity(3)
    r, piv = rref(i3)
    assert r == i3 and piv == (0, 1, 2)


def test_rref_permutation():
    r, piv = rref(M([[0, 1], [1, 0]]))
    assert r == Matrix.identity(2)
    assert piv == (0, 1)


def test_kernel_examples():
    k = kernel(M([[1, 1]]))
    assert k.dim == 1
    assert k.contains_vector([Q(1), Q(-1)])
    assert kernel(Matrix.zero(2, 2)).dim == 2
    assert kernel(Matrix.identity(2)).dim == 0


def test_quotient_examples():
    full2 = Subspace.full(2)
    d, p, s = quotient(full2, Subspace(2, [[1, 1]]))
    assert d == 1
    assert (p * s) == Matrix.identity(1)
    v = Subspace(3, [[1, 2, 3]])
    d, _, _ = quotient(v, v)
    assert d == 0
    d, p, s = quotient(Subspace.full(3),
                       Subspace(3, [[1, -1, 0], [0, 1, -1]]))
    assert d == 1


def test_quotient_not_subspace():
    with pytest.raises(ValueError):
        quotient(Subspace(3, [[1, 0, 0]]), Subspace(3, [[0, 1, 0]]))


def test_quotient_projection_kernel_is_by():
    sub = Subspace.full(3)
    by = Subspace(3, [[1, -1, 0], [0, 1, -1]])
    d, p, s = quotient(sub, by)
    assert d == 1
    for row in by.basis.to_lists():
        assert all(x == 0 for x in p.matvec(row))
    assert kernel(p).dim == 2


def test_positive_definite_examples():
    assert is_positive_definite(M([[2, 1], [1, 2]]))
    assert not is_positive_definite(M([[1, 0], [0, -1]]))
    assert not is_positive_definite(M([[0]]))


def test_positive_definite_non_symmetric():
    with pytest.raises(ValueError):
        is_positive_definite(M([[1, 2], [0, 1]]))


def test_serialization_round_trip():
    vals = [Q(3), Q(-7, 2), Q(0), Q(22, 7)]
    for v in vals:
        assert rat_from_str(rat_to_str(v)) == v
    assert rat_to_str(Q(3)) == "3"
    assert rat_to_str(Q(-1, 2)) == "-1/2"
    m = M([[1, Q(1, 2)], [-3, 0]])
    assert Matrix.from_json(m.to_json()) == m


rationals = st.builds(Q, st.integers(-8, 8), st.integers(1, 4))


def small_matrix(rows, cols):
    return st.lists(
        st.lists(rationals, min_size=cols, max_size=cols),
        min_size=rows, max_size=rows,
    ).map(lambda a: Matrix(rows, cols, a))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_kernel_and_rank_nullity(r, c, data):
    m = data.draw(small_matrix(r, c))
    k = kernel(m)
    for row in k.basis.to_lists():
        assert all(x == 0 for x in m.matvec(row))
    assert rank(m) + k.dim == c


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_rref_idempotent_and_row_permutation_rank(r, c, data):
    m = data.draw(small_matrix(r, c))
    rr, piv = rref(m)
    rr2, piv2 = rref(rr)
    assert rr2 == rr and piv2 == piv
    rev = Matrix.from_rows(list(reversed(m.to_lists())), cols=c)
    assert rank(rev) == rank(m)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.data())
def test_ata_plus_identity_positive_definite(r, c, data):
    a = data.draw(small_matrix(r, c))
    g = a.transpose() * a + Matrix.identity(c)
    assert is_positive_definite(g)


def dense_matvec(m, v):
    """The dense product, as the kernel computed it before it skipped
    zeros; kept as the reference for the sparse kernel."""
    return [sum((m.a[i][j] * Q(v[j]) for j in range(m.cols)), Q(0))
            for i in range(m.rows)]


def half_zero_matrix(rows, cols):
    """Random rational matrices with at least half of the entries 0."""
    n = rows * cols
    return st.tuples(
        st.lists(rationals, min_size=n, max_size=n),
        st.sets(st.integers(0, n - 1), min_size=(n + 1) // 2),
    ).map(lambda t: Matrix(rows, cols, [
        [Q(0) if i * cols + j in t[1] else t[0][i * cols + j]
         for j in range(cols)] for i in range(rows)]))


# Mixes int and Fraction entries; about a third of them are 0.
mixed_entries = st.one_of(st.just(0), st.integers(-5, 5), rationals)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 5), st.integers(1, 6), st.data())
def test_sparse_matvec_matches_dense(r, c, data):
    m = data.draw(half_zero_matrix(r, c))
    v = data.draw(st.lists(mixed_entries, min_size=c, max_size=c).filter(
        lambda v: sum(x != 0 for x in v) >= min(c, 2)))
    out = m.matvec(v)
    assert out == dense_matvec(m, v)
    assert all(type(x) is Q for x in out)


def test_matvec_rejects_wrong_length():
    m = M([[1, 0, 2], [0, 3, 0]])
    for v in ([1, 1], [1, 1, 1, 1]):
        with pytest.raises(ConsistencyError):
            m.matvec(v)


def test_negative_identity_not_positive_definite():
    assert not is_positive_definite(Matrix.identity(3).scale(-1))


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 4), st.data())
def test_quotient_contracts(n, data):
    m = data.draw(small_matrix(n, n))
    by = image(m)
    sub = Subspace.full(n)
    d, p, s = quotient(sub, by)
    assert d == n - by.dim
    assert (p * s) == Matrix.identity(d)
    for row in by.basis.to_lists():
        assert all(x == 0 for x in p.matvec(row))


def test_solve_and_inverse():
    m = M([[2, 1], [1, 1]])
    x = solve(m, [Q(3), Q(2)])
    assert m.matvec(x) == [Q(3), Q(2)]
    assert m * inverse(m) == Matrix.identity(2)
    assert solve(M([[1, 1], [1, 1]]), [Q(0), Q(1)]) is None


def test_determinant():
    assert determinant(M([[2, 1], [1, 2]])) == 3
    assert determinant(M([[0, 1], [1, 0]])) == -1
    assert determinant(Matrix.zero(2, 2)) == 0


def test_stacking():
    a = Matrix.identity(2)
    b = Matrix.zero(2, 1)
    assert hstack([a, b]).cols == 3
    assert vstack([a, Matrix.zero(1, 2)]).rows == 3
    d = block_diag([a, Matrix.identity(1)])
    assert d == Matrix.identity(3)


def test_subspace_operations():
    u = Subspace(3, [[1, 0, 0], [0, 1, 0]])
    v = Subspace(3, [[0, 1, 0], [0, 0, 1]])
    w = u.intersect(v)
    assert w.dim == 1 and w.contains_vector([0, 1, 0])
    assert u.sum(v).dim == 3
    m = M([[1, 0, 0], [0, 0, 0]])
    assert u.image_under(m).dim == 1
    pre = Subspace.full(3).preimage_under(m, Subspace.zero(2))
    assert pre.dim == 2
