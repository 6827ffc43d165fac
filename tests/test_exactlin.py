from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

from limhodge.exactlin import (
    ConsistencyError, Echelon, Matrix, Subspace, rref, rank, kernel, image,
    solve, quotient, inverse, is_positive_definite, determinant, rat_to_str,
    rat_from_str, hstack, vstack, block_diag, kron,
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
    # an int has a numerator and a denominator too
    assert rat_to_str(3) == "3"
    assert rat_to_str(-4) == "-4"
    assert rat_to_str(Q(-7, 2)) == "-7/2"
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
    x = solve(m, M([[3], [2]]))
    assert m * x == M([[3], [2]])
    assert m * inverse(m) == Matrix.identity(2)
    assert solve(M([[1, 1], [1, 1]]), M([[0], [1]])) is None


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


# The dense eliminations exactlin used before its one Echelon engine,
# kept as references: every result must match them exactly.

def ref_rref(m):
    """Dense Gauss-Jordan, first nonzero row of each column as pivot."""
    a = [list(row) for row in m.a]
    n_rows, n_cols = m.rows, m.cols
    pivots = []
    piv_r = 0
    for piv_c in range(n_cols):
        for i_row in range(piv_r, n_rows):
            if a[i_row][piv_c] != 0:
                break
        else:
            continue
        if i_row != piv_r:
            a[piv_r], a[i_row] = a[i_row], a[piv_r]
        fp = a[piv_r][piv_c]
        if fp != 1:
            a[piv_r] = [x / fp for x in a[piv_r]]
        for r in range(n_rows):
            if r == piv_r:
                continue
            fr = a[r][piv_c]
            if fr == 0:
                continue
            a[r] = [x - y * fr for x, y in zip(a[r], a[piv_r])]
        pivots.append(piv_c)
        piv_r += 1
        if piv_r == n_rows:
            break
    return a, tuple(pivots)


def ref_rank(rows, n):
    return len(ref_rref(Matrix(len(rows), n, rows))[1])


def ref_basis(rows, n):
    """RREF basis rows of the span of rows in Q^n."""
    a, piv = ref_rref(Matrix(len(rows), n, rows))
    return a[:len(piv)]


def ref_kernel(m):
    a, pivots = ref_rref(m)
    rows = []
    for fc in (c for c in range(m.cols) if c not in pivots):
        v = [Q(0)] * m.cols
        v[fc] = Q(1)
        for i, pc in enumerate(pivots):
            v[pc] = -a[i][fc]
        rows.append(v)
    return ref_basis(rows, m.cols)


def ref_determinant(m):
    """Gaussian elimination with row swaps."""
    n = m.rows
    a = [list(row) for row in m.a]
    det = Q(1)
    for c in range(n):
        for r in range(c, n):
            if a[r][c] != 0:
                break
        else:
            return Q(0)
        if r != c:
            a[c], a[r] = a[r], a[c]
            det = -det
        det *= a[c][c]
        p = a[c][c]
        for r2 in range(c + 1, n):
            f = a[r2][c] / p
            if f == 0:
                continue
            a[r2] = [x - f * y for x, y in zip(a[r2], a[c])]
    return det


def ref_positive_definite(sym):
    """LDL without pivoting: positive definite iff every pivot > 0."""
    n = sym.rows
    a = [list(row) for row in sym.a]
    for k in range(n):
        p = a[k][k]
        if p <= 0:
            return False
        for i in range(k + 1, n):
            f = a[i][k] / p
            for j in range(k, n):
                a[i][j] -= f * a[k][j]
    return True


def ref_quotient(sub, by):
    """Basis completion by one rank computation per candidate row."""
    n = sub.ambient_dim
    cur = by.basis.to_lists()
    c_rows, d_rows = [], []
    for candidates, picked in ((sub.basis.to_lists(), c_rows),
                               (Matrix.identity(n).to_lists(), d_rows)):
        for row in candidates:
            if ref_rank(cur + [row], n) > len(cur):
                picked.append(row)
                cur = cur + [row]
    q = len(c_rows)
    m_basis = Matrix(n, n, cur).transpose()
    a, _ = ref_rref(hstack([m_basis, Matrix.identity(n)]))
    m_inv = [row[n:] for row in a]
    proj = Matrix(q, n, m_inv[by.dim:by.dim + q])
    section = Matrix(q, n, c_rows).transpose()
    return q, proj, section


def ref_preimage(sub, m, target):
    """{x : m·x ∈ target} within sub, from the kernel of
    [m·B1ᵀ | −B2ᵀ]; the intersection is the preimage under 1."""
    b1t = sub.basis.transpose()
    k = ref_kernel(hstack([m * b1t, -target.basis.transpose()]))
    return ref_basis([b1t.matvec(row[:sub.dim]) for row in k],
                     sub.ambient_dim)


@st.composite
def row_lists(draw, n, max_rows=4):
    """Rows in Q^n, often dependent: 0 to 2 extra rows are
    combinations of earlier ones."""
    rows = draw(st.lists(st.lists(mixed_entries, min_size=n, max_size=n),
                         max_size=max_rows))
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        i, j = (draw(st.integers(0, len(rows) - 1)) for _ in range(2))
        c = draw(rationals)
        rows.append([Q(x) + c * y for x, y in zip(rows[i], rows[j])])
    return rows


@st.composite
def incidence_rows(draw, n, max_rows=4):
    """Rows like those of the signed block-incidence matrices of the E1
    differentials: mostly 0, else ±1 or ±2, and 0 to 3 extra rows the
    sum or difference of two earlier ones, so that entries cancel to
    exactly 0."""
    entry = st.sampled_from([0] * 6 + [1, -1, 2, -2])
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                         max_size=max_rows))
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        i, j = (draw(st.integers(0, len(rows) - 1)) for _ in range(2))
        sign = draw(st.sampled_from([1, -1]))
        rows.append([x + sign * y for x, y in zip(rows[i], rows[j])])
    return rows


def any_rows(n, max_rows=4):
    """Dense rational rows or sparse incidence-like integer rows."""
    return st.one_of(row_lists(n, max_rows), incidence_rows(n, max_rows))


def is_fraction_matrix(m):
    return all(type(x) is Q for row in m.a for x in row)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 5), st.data())
def test_rref_and_rank_match_reference(c, data):
    rows = data.draw(any_rows(c, max_rows=5))
    m = Matrix(len(rows), c, rows)
    r, piv = rref(m)
    ref_a, ref_piv = ref_rref(m)
    assert (r.to_lists(), piv) == (ref_a, ref_piv)
    assert is_fraction_matrix(r)
    assert rank(m) == len(ref_piv)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 5), st.data())
def test_determinant_matches_reference(n, data):
    rows = data.draw(any_rows(n, max_rows=n).filter(lambda r: len(r) >= n))
    m = Matrix(n, n, rows[:n])
    det = determinant(m)
    assert det == ref_determinant(m) and type(det) is Q


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 4), st.data())
def test_positive_definite_matches_reference(n, data):
    b = Matrix(n, n, data.draw(st.lists(
        st.lists(mixed_entries, min_size=n, max_size=n),
        min_size=n, max_size=n)))
    shift = data.draw(st.integers(-2, 2))
    if data.draw(st.booleans()):
        sym = b.transpose() * b + Matrix.identity(n).scale(shift)
    else:
        sym = b + b.transpose()
    assert is_positive_definite(sym) == ref_positive_definite(sym)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 5), st.data())
def test_quotient_matches_reference(n, data):
    r1, r2 = data.draw(any_rows(n)), data.draw(any_rows(n))
    by = Subspace(n, r2)
    for sub in (Subspace(n, r1 + r2), Subspace.full(n), by):
        d, proj, section = quotient(sub, by)
        ref_d, ref_proj, ref_section = ref_quotient(sub, by)
        assert (d, proj, section) == (ref_d, ref_proj, ref_section)
        assert (proj * by.basis.transpose()).is_zero()
        assert is_fraction_matrix(proj) and is_fraction_matrix(section)


def ref_solve(m, b):
    """The solution with free variables 0, read off the dense RREF of
    [m | b]; None if a pivot lies in b."""
    a, pivots = ref_rref(hstack([m, b]))
    if pivots and pivots[-1] >= m.cols:
        return None
    x = [[Q(0)] * b.cols for _ in range(m.cols)]
    for i, pc in enumerate(pivots):
        x[pc] = a[i][m.cols:]
    return x


# Entries that make the pivots 1, -1, 2 and 1/3 occur: an Echelon keeps
# integral entries as int inside and must still hand out Fractions.
pivot_entries = st.sampled_from([0, 0, 0, 1, -1, 2, Q(1, 3)])


def pivot_rows(rows, cols):
    return st.lists(st.lists(pivot_entries, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


def test_echelon_pivots_are_fractions():
    rows = [[Q(1, 3), 1, 0, 2], [0, -1, 1, 0], [0, 0, 2, 1], [1, 1, 1, 1]]
    ech = Echelon(4)
    pivots = [ech.add(row) for row in rows]
    assert pivots == [Q(1, 3), -1, 2, Q(-9, 2)]
    assert all(type(f) is Q for f in pivots)
    assert is_fraction_matrix(ech.reduced())


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 2), st.data())
def test_integer_first_elimination_matches_reference(r, c, k, data):
    m = Matrix(r, c, data.draw(pivot_rows(r, c)))
    b = Matrix(r, k, data.draw(pivot_rows(r, k)))
    r_m, piv = rref(m)
    assert (r_m.to_lists(), piv) == ref_rref(m)
    assert kernel(m).basis.to_lists() == ref_kernel(m)
    assert image(m).basis.to_lists() == ref_basis(m.transpose().to_lists(),
                                                  r)
    x = solve(m, b)
    assert (None if x is None else x.to_lists()) == ref_solve(m, b)
    sub = Subspace(c, m.to_lists() + data.draw(pivot_rows(2, c)))
    by = Subspace(c, m.to_lists())
    d, proj, section = quotient(sub, by)
    assert (d, proj, section) == ref_quotient(sub, by)
    values = [r_m, kernel(m).basis, image(m).basis, proj, section]
    if x is not None:
        values.append(x)
    if r == c:
        det = determinant(m)
        assert det == ref_determinant(m) and type(det) is Q
        sym = m + m.transpose()
        assert is_positive_definite(sym) == ref_positive_definite(sym)
        gram = m.transpose() * m + Matrix.identity(c)
        assert is_positive_definite(gram) == ref_positive_definite(gram)
    assert all(is_fraction_matrix(v) for v in values)
    # the pivot values, whether a row is added or inserted as a residual
    added, inserted = Echelon(c), Echelon(c)
    for row, sparse in zip(m.to_lists(), m.nz):
        f = added.add(row)
        g = inserted.insert(inserted.residual(sparse))
        assert f == g and type(f) is Q and type(g) is Q
    assert added.reduced() == inserted.reduced() == Matrix.from_sparse(
        c, r_m.nz[:len(piv)])


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 5), st.integers(0, 4), st.data())
def test_subspace_operations_match_reference(n, mr, data):
    r1, r2 = data.draw(any_rows(n)), data.draw(any_rows(n))
    u, v = Subspace(n, r1), Subspace(n, r2)
    assert u.basis.to_lists() == ref_basis(r1, n)
    assert u.intersect(v).basis.to_lists() == ref_preimage(
        u, Matrix.identity(n), v)
    assert u.contains(v) == (ref_rank(u.basis.to_lists()
                                      + v.basis.to_lists(), n) == u.dim)
    m = Matrix(mr, n, data.draw(st.lists(
        st.lists(mixed_entries, min_size=n, max_size=n),
        min_size=mr, max_size=mr)))
    target = Subspace(mr, data.draw(any_rows(mr)))
    assert (u.preimage_under(m, target).basis.to_lists()
            == ref_preimage(u, m, target))
    w = u.sum(v).basis.row(0) if u.sum(v).dim else [Q(0)] * n
    assert u.contains_vector(w) == (ref_rank(u.basis.to_lists() + [w], n)
                                    == u.dim)
    if u.contains_vector(w):
        coords = u.coords(w)
        assert [sum((c * row[j] for c, row in zip(coords, u.basis.a)), Q(0))
                for j in range(n)] == w


def test_zero_dim_subspaces():
    for n in (0, 1, 3):
        zero, full = Subspace.zero(n), Subspace.full(n)
        assert zero.intersect(full) == zero == full.intersect(zero)
        assert full.contains(zero) and zero.contains(zero)
        assert quotient(full, zero)[0] == n and quotient(zero, zero)[0] == 0
        pre = full.preimage_under(Matrix(0, n), Subspace.zero(0))
        assert pre == full


def test_subspace_basis_is_fractions_for_int_rows():
    s = Subspace(3, [[2, 4, 0], [1, 2, 1], [0, 0, 3]])
    assert s.basis.to_lists() == [[1, 2, 0], [0, 0, 1]]
    assert is_fraction_matrix(s.basis)


def test_subspace_rejects_wrong_row_length():
    for rows in ([[1, 0]], [[1, 0, 0], [1, 0, 0, 0]]):
        with pytest.raises(ConsistencyError, match="length"):
            Subspace(3, rows)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3),
       st.integers(0, 3), st.data())
def test_kron_matches_definition(r1, c1, r2, c2, data):
    a = Matrix(r1, c1, data.draw(st.lists(
        st.lists(mixed_entries, min_size=c1, max_size=c1),
        min_size=r1, max_size=r1)))
    b = Matrix(r2, c2, data.draw(any_rows(c2, max_rows=r2).filter(
        lambda rows: len(rows) == r2)))
    k = kron(a, b)
    assert (k.rows, k.cols) == (r1 * r2, c1 * c2)
    assert k.to_lists() == [[a.a[i][j] * b.a[p][q] for j in range(c1)
                    for q in range(c2)]
                   for i in range(r1) for p in range(r2)]
    assert is_fraction_matrix(k)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 3), st.data())
def test_solve_with_matrix_right_side_solves_by_columns(rows, cols, k, data):
    """Each column of the answer is the answer for that column alone;
    None as soon as one column has no solution."""
    m = Matrix(rows, cols, data.draw(any_rows(cols, max_rows=rows).filter(
        lambda r: len(r) == rows)))
    b = Matrix(rows, k, data.draw(st.lists(
        st.lists(mixed_entries, min_size=k, max_size=k),
        min_size=rows, max_size=rows)))
    by_column = [solve(m, b.columns(j, j + 1)) for j in range(k)]
    x = solve(m, b)
    if any(col is None for col in by_column):
        assert x is None
    else:
        assert (x.rows, x.cols) == (cols, k)
        assert x.to_lists() == [[col[i, 0] for col in by_column]
                                for i in range(cols)]
        assert m * x == b


# Sparse Matrix operations against dense reference formulas on the
# entry lists. Entries are mostly 0 and often cancel to exactly 0, so
# a result that stores a 0 fails `==` with the reference.
sparse_entries = st.sampled_from([0, 0, 0, 0, 1, -1, 2, Q(-1, 2)])


def dense_rows(rows, cols):
    return st.lists(st.lists(sparse_entries, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


def zeros(rows, cols):
    return [[0] * cols for _ in range(rows)]


def assert_matches(m, ref, cols):
    """m holds exactly the dense rows ref: no stored 0, Fractions only."""
    assert (m.rows, m.cols) == (len(ref), cols)
    assert m.to_lists() == ref
    assert m == Matrix(len(ref), cols, ref)
    assert all(x != 0 for row in m.nz for x in row.values())
    assert all(type(m[i, j]) is Q for i in range(m.rows)
               for j in range(m.cols))
    assert is_fraction_matrix(m)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4), st.data())
def test_sparse_arithmetic_matches_dense(r, k, c, data):
    a, b = data.draw(dense_rows(r, k)), data.draw(dense_rows(k, c))
    a2 = data.draw(dense_rows(r, k))
    ma, mb, ma2 = Matrix(r, k, a), Matrix(k, c, b), Matrix(r, k, a2)
    assert_matches(ma * mb, [[sum((a[i][l] * b[l][j] for l in range(k)),
                                  Q(0)) for j in range(c)]
                             for i in range(r)], c)
    assert_matches(ma + ma2, [[x + y for x, y in zip(u, v)]
                              for u, v in zip(a, a2)], k)
    assert_matches(ma - ma2, [[x - y for x, y in zip(u, v)]
                              for u, v in zip(a, a2)], k)
    neg = Matrix(r, k, [[-x for x in row] for row in a])
    assert_matches(ma + neg, zeros(r, k), k)
    assert_matches(ma - ma, zeros(r, k), k)
    assert (ma + neg).is_zero() and (ma - ma).is_zero()
    for f in (0, -1, Q(2, 3)):
        assert_matches(ma.scale(f), [[f * x for x in row] for row in a], k)
    # `*` is only the matrix product; `scale` is the scalar product
    with pytest.raises(TypeError):
        Matrix.identity(2) * 2
    with pytest.raises(TypeError):
        Q(2, 3) * ma
    assert_matches(ma.transpose(), [[a[i][j] for i in range(r)]
                                    for j in range(k)], r)
    v = data.draw(st.lists(sparse_entries, min_size=k, max_size=k))
    out = ma.matvec(v)
    assert out == [sum((x * y for x, y in zip(row, v)), Q(0)) for row in a]
    assert all(type(x) is Q for x in out)
    assert ma.is_zero() == all(x == 0 for row in a for x in row)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3),
       st.integers(0, 3), st.data())
def test_sparse_kron_and_stacks_match_dense(r1, c1, r2, c2, data):
    a, b = data.draw(dense_rows(r1, c1)), data.draw(dense_rows(r2, c2))
    ma, mb = Matrix(r1, c1, a), Matrix(r2, c2, b)
    assert_matches(kron(ma, mb), [[a[i][j] * b[p][q] for j in range(c1)
                                   for q in range(c2)]
                                  for i in range(r1) for p in range(r2)],
                   c1 * c2)
    assert_matches(block_diag([ma, mb]),
                   [row + [0] * c2 for row in a]
                   + [[0] * c1 + row for row in b], c1 + c2)
    side = data.draw(dense_rows(r1, c2))
    assert_matches(hstack([ma, Matrix(r1, c2, side)]),
                   [u + v for u, v in zip(a, side)], c1 + c2)
    below = data.draw(dense_rows(r2, c1))
    assert_matches(vstack([ma, Matrix(r2, c1, below)]), a + below, c1)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 4), st.integers(0, 4), st.data())
def test_sparse_json_equality_and_hash_match_dense(r, c, data):
    a = data.draw(dense_rows(r, c))
    m = Matrix(r, c, a)
    assert m.to_json() == [[rat_to_str(Q(x)) for x in row] for row in a]
    assert_matches(Matrix.from_json(m.to_json(), c), a, c)
    # The same entries written in another order, with writes of 0 over
    # nonzero entries: equal, with the same hash.
    other = Matrix.zero(r, c)
    cells = [(i, j) for i in range(r) for j in range(c)]
    for i, j in reversed(cells):
        other[i, j] = 1
    for i, j in data.draw(st.permutations(cells)):
        other[i, j] = a[i][j]
    assert_matches(other, a, c)
    assert hash(other) == hash(m)
    if cells:
        i, j = data.draw(st.sampled_from(cells))
        other[i, j] = a[i][j] + 1
        assert other != m


def test_dense_view_is_read_only():
    m = Matrix.identity(2)
    assert m.a == ((1, 0), (0, 1))
    with pytest.raises(TypeError):
        m.a[0][1] = Q(5)
    assert m == Matrix.identity(2)


# Entries of up to about 40 bits, as a change of basis of a stratum's
# cohomology produces them, mostly 0 so that rows are sparse; pivots are
# rarely 1 or -1.
tall_entries = st.one_of(
    st.just(0), st.just(0), st.just(0),
    st.integers(-2 ** 40, 2 ** 40),
    st.builds(Q, st.integers(-2 ** 40, 2 ** 40), st.integers(1, 2 ** 40)))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 6), st.integers(0, 6), st.data())
def test_forward_rank_equals_rref_pivot_count(r, c, data):
    """rank eliminates forward only; rref reduces fully. Rows are drawn,
    then some repeated, some made a combination of two earlier ones, and
    some all zero."""
    rows = data.draw(st.lists(st.lists(tall_entries, min_size=c,
                                       max_size=c), min_size=r, max_size=r))
    for _ in range(data.draw(st.integers(0, 3)) if rows else 0):
        i, j = (data.draw(st.integers(0, len(rows) - 1)) for _ in range(2))
        f = data.draw(tall_entries)
        kind = data.draw(st.sampled_from(["repeat", "combine", "zero"]))
        rows.append(list(rows[i]) if kind == "repeat" else [0] * c
                    if kind == "zero" else
                    [Q(x) + f * y for x, y in zip(rows[i], rows[j])])
    m = Matrix(len(rows), c, rows) if rows else Matrix(0, c)
    assert rank(m) == len(rref(m)[1]) == rank(m.transpose())


def test_forward_rank_of_empty_shapes():
    for n in range(4):
        assert rank(Matrix(0, n)) == rank(Matrix(n, 0)) == 0
        assert rank(Matrix(n, n)) == 0


def test_rank_is_one_function_everywhere():
    """The tracer binds `rank` by name in every module that imports it,
    so each module must import exactlin's, not a copy."""
    from limhodge import cli, exactlin, homalg, limitpage, strata
    assert exactlin.rank is limitpage.rank is cli.rank is homalg.rank \
        is strata.rank
