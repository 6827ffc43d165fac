"""Exact rational linear algebra: dense matrices over Q, echelon forms,
kernels, quotients, and exact positive definiteness.

All arithmetic uses fractions.Fraction; no floating point anywhere.
"""

from fractions import Fraction

Q = Fraction


class ConsistencyError(AssertionError):
    """A broken internal invariant, such as mismatched shapes. It is
    raised explicitly, so unlike `assert` it survives `python -O`."""


def rat_to_str(x):
    """Serialize a rational as "p/q", omitting "/q" when q == 1."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return "%d/%d" % (x.numerator, x.denominator)


def rat_from_str(s):
    return Fraction(s)


class Matrix:
    """Dense row-major matrix of Fractions."""

    __slots__ = ("rows", "cols", "a")

    def __init__(self, rows, cols, entries=None):
        self.rows = rows
        self.cols = cols
        if entries is None:
            self.a = [[Q(0)] * cols for _ in range(rows)]
        else:
            assert len(entries) == rows
            self.a = [[Q(x) for x in row] for row in entries]
            for row in self.a:
                assert len(row) == cols

    @classmethod
    def _raw(cls, rows, cols, a):
        """Internal: wrap an entry table that is already Fractions."""
        m = cls.__new__(cls)
        m.rows = rows
        m.cols = cols
        m.a = a
        return m

    @classmethod
    def identity(cls, n):
        m = cls(n, n)
        for i in range(n):
            m.a[i][i] = Q(1)
        return m

    @classmethod
    def zero(cls, rows, cols):
        return cls(rows, cols)

    @classmethod
    def from_rows(cls, rows_list, cols=None):
        if not rows_list:
            assert cols is not None
            return cls(0, cols)
        return cls(len(rows_list), len(rows_list[0]), rows_list)

    def copy(self):
        return Matrix(self.rows, self.cols, self.a)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.rows, self.cols, self.a) == (other.rows, other.cols, other.a)

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(tuple(r) for r in self.a)))

    def __repr__(self):
        return "Matrix(%d, %d, %r)" % (self.rows, self.cols,
                                       [[str(x) for x in r] for r in self.a])

    def __getitem__(self, ij):
        i, j = ij
        return self.a[i][j]

    def __setitem__(self, ij, v):
        i, j = ij
        self.a[i][j] = Q(v)

    def row(self, i):
        return list(self.a[i])

    def col(self, j):
        return [self.a[i][j] for i in range(self.rows)]

    def transpose(self):
        return Matrix._raw(self.cols, self.rows,
                           [[self.a[i][j] for i in range(self.rows)]
                            for j in range(self.cols)])

    def __add__(self, other):
        assert (self.rows, self.cols) == (other.rows, other.cols)
        return Matrix._raw(self.rows, self.cols,
                           [[self.a[i][j] + other.a[i][j]
                             for j in range(self.cols)]
                            for i in range(self.rows)])

    def __sub__(self, other):
        assert (self.rows, self.cols) == (other.rows, other.cols)
        return Matrix._raw(self.rows, self.cols,
                           [[self.a[i][j] - other.a[i][j]
                             for j in range(self.cols)]
                            for i in range(self.rows)])

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        c = Q(c)
        return Matrix._raw(self.rows, self.cols,
                           [[c * x for x in row] for row in self.a])

    def __mul__(self, other):
        if isinstance(other, Matrix):
            assert self.cols == other.rows, (self.cols, other.rows)
            other_nz = [[(j, v) for j, v in enumerate(row) if v != 0]
                        for row in other.a]
            zero = Q(0)
            out = [[zero] * other.cols for _ in range(self.rows)]
            for i, row in enumerate(self.a):
                oi = out[i]
                for k, x in enumerate(row):
                    if x == 0:
                        continue
                    for j, y in other_nz[k]:
                        oi[j] = oi[j] + x * y
            return Matrix._raw(self.rows, other.cols, out)
        return self.scale(other)

    def __rmul__(self, c):
        return self.scale(c)

    def matvec(self, v):
        if len(v) != self.cols:
            raise ConsistencyError("matvec: vector of length %d for a "
                                   "%dx%d matrix"
                                   % (len(v), self.rows, self.cols))
        nz = [(j, Q(x)) for j, x in enumerate(v) if x != 0]
        out = []
        for row in self.a:
            s = Q(0)
            for j, x in nz:
                y = row[j]
                if y:
                    s += y * x
            out.append(s)
        return out

    def is_zero(self):
        return all(x == 0 for row in self.a for x in row)

    def to_lists(self):
        return [list(r) for r in self.a]

    def to_json(self):
        return [[rat_to_str(x) for x in row] for row in self.a]

    @classmethod
    def from_json(cls, data, cols=0):
        """Matrix from rows of rational strings; `cols` is the width of
        the empty list, which has no row to take it from."""
        if not data:
            return cls(0, cols)
        # Rows are not checked here: a ragged table from a file is an
        # input error, which the strata loader reports with its path.
        return cls._raw(len(data), len(data[0]),
                        [[rat_from_str(x) for x in row] for row in data])


def block_diag(blocks):
    rows = sum(b.rows for b in blocks)
    cols = sum(b.cols for b in blocks)
    m = Matrix(rows, cols)
    i0 = j0 = 0
    for b in blocks:
        for i in range(b.rows):
            for j in range(b.cols):
                m.a[i0 + i][j0 + j] = b.a[i][j]
        i0 += b.rows
        j0 += b.cols
    return m


def hstack(blocks):
    rows = blocks[0].rows
    assert all(b.rows == rows for b in blocks)
    m = Matrix(rows, sum(b.cols for b in blocks))
    j0 = 0
    for b in blocks:
        for i in range(rows):
            for j in range(b.cols):
                m.a[i][j0 + j] = b.a[i][j]
        j0 += b.cols
    return m


def vstack(blocks):
    cols = blocks[0].cols
    assert all(b.cols == cols for b in blocks)
    return Matrix.from_rows([row for b in blocks for row in b.to_lists()],
                            cols=cols)


def rref(m):
    """Reduced row echelon form with first-nonzero pivoting.

    Returns (R, pivots) with pivots the tuple of pivot column indices.
    Fully deterministic: in each column the first nonzero row (in order)
    becomes the pivot.
    """
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
    return Matrix._raw(n_rows, n_cols, a), tuple(pivots)


def rank(m):
    return len(rref(m)[1])


class Subspace:
    """A subspace of Q^ambient_dim, stored as an RREF row basis.

    The RREF basis makes equality of subspaces literal equality of
    matrices.
    """

    __slots__ = ("ambient_dim", "basis")

    def __init__(self, ambient_dim, basis_rows):
        self.ambient_dim = ambient_dim
        m = Matrix.from_rows(basis_rows, cols=ambient_dim)
        assert m.cols == ambient_dim
        r, piv = rref(m)
        self.basis = Matrix.from_rows(r.to_lists()[:len(piv)],
                                      cols=ambient_dim)

    @classmethod
    def full(cls, n):
        return cls(n, Matrix.identity(n).to_lists())

    @classmethod
    def zero(cls, n):
        return cls(n, [])

    @property
    def dim(self):
        return self.basis.rows

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return (self.ambient_dim == other.ambient_dim
                and self.basis == other.basis)

    def __repr__(self):
        return "Subspace(dim %d of Q^%d)" % (self.dim, self.ambient_dim)

    def contains_vector(self, v):
        assert len(v) == self.ambient_dim
        m = Matrix.from_rows(self.basis.to_lists() + [[Q(x) for x in v]],
                             cols=self.ambient_dim)
        return rank(m) == self.dim

    def contains(self, other):
        assert self.ambient_dim == other.ambient_dim
        m = Matrix.from_rows(self.basis.to_lists() + other.basis.to_lists(),
                             cols=self.ambient_dim)
        return rank(m) == self.dim

    def coords(self, v):
        """Coefficients of v in the RREF basis; error if v not in self."""
        c = solve(self.basis.transpose(), v)
        assert c is not None, "vector not in subspace"
        return c

    def sum(self, other):
        assert self.ambient_dim == other.ambient_dim
        return Subspace(self.ambient_dim,
                        self.basis.to_lists() + other.basis.to_lists())

    def intersect(self, other):
        assert self.ambient_dim == other.ambient_dim
        # x = a·B1 = b·B2: solve [B1ᵀ | −B2ᵀ] nullspace.
        b1t = self.basis.transpose()
        b2t = other.basis.transpose()
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(self.ambient_dim)
        k = kernel(hstack([b1t, -b2t]))
        rows = []
        for krow in k.basis.to_lists():
            a_part = krow[:self.dim]
            rows.append(self.basis.transpose().matvec(a_part))
        return Subspace(self.ambient_dim, rows)

    def image_under(self, m):
        """Image of this subspace under the linear map with matrix m."""
        assert m.cols == self.ambient_dim
        return Subspace(m.rows, [m.matvec(row) for row in self.basis.to_lists()])

    def preimage_under(self, m, target):
        """{x : m·x ∈ target} intersected with self."""
        assert m.cols == self.ambient_dim
        assert m.rows == target.ambient_dim
        # Solve over self's coordinates: m·B1ᵀ·a ∈ target.
        comp = m * self.basis.transpose()
        if target.dim == 0:
            k = kernel(comp)
            rows = [self.basis.transpose().matvec(a)
                    for a in k.basis.to_lists()]
            return Subspace(self.ambient_dim, rows)
        # comp·a = B2ᵀ·b for some b.
        big = hstack([comp, -target.basis.transpose()])
        k = kernel(big)
        rows = []
        for krow in k.basis.to_lists():
            a = krow[:self.dim]
            rows.append(self.basis.transpose().matvec(a))
        return Subspace(self.ambient_dim, rows)


def kernel(m):
    """Subspace {x : m·x = 0} of Q^cols."""
    r, pivots = rref(m)
    free = [c for c in range(m.cols) if c not in pivots]
    rows = []
    for fc in free:
        v = [Q(0)] * m.cols
        v[fc] = Q(1)
        for i, pc in enumerate(pivots):
            v[pc] = -r.a[i][fc]
        rows.append(v)
    return Subspace(m.cols, rows)


def image(m):
    """Column space of m as a Subspace of Q^rows."""
    return Subspace(m.rows, m.transpose().to_lists())


def solve(m, b):
    """One solution x of m·x = b, or None if inconsistent."""
    assert m.rows == len(b)
    aug = hstack([m, Matrix(m.rows, 1, [[x] for x in b])])
    r, pivots = rref(aug)
    if m.cols in pivots:
        return None
    x = [Q(0)] * m.cols
    for i, pc in enumerate(pivots):
        x[pc] = r.a[i][m.cols]
    return x


def quotient(sub, by):
    """Quotient sub/by with explicit projection and section.

    Returns (dim, projection, section): projection is dim×ambient with
    kernel containing `by` (and equal to `by` within `sub`), section is
    ambient×dim with projection∘section = identity.
    """
    assert sub.ambient_dim == by.ambient_dim
    if not sub.contains(by):
        raise ValueError("not a subspace")
    n = sub.ambient_dim
    b_rows = by.basis.to_lists()
    # Complete by-basis to a basis of sub.
    c_rows = []
    cur = Matrix.from_rows(b_rows, cols=n)
    cur_rank = by.dim
    for row in sub.basis.to_lists():
        cand = Matrix.from_rows(cur.to_lists() + [row], cols=n)
        if rank(cand) > cur_rank:
            c_rows.append(row)
            cur = cand
            cur_rank += 1
    # Complete to a basis of the ambient space.
    d_rows = []
    for j in range(n):
        e = [Q(0)] * n
        e[j] = Q(1)
        cand = Matrix.from_rows(cur.to_lists() + [e], cols=n)
        if rank(cand) > cur_rank:
            d_rows.append(e)
            cur = cand
            cur_rank += 1
    assert cur_rank == n
    q = len(c_rows)
    # Change of basis: columns of M are the basis vectors b, c, d.
    m_basis = Matrix.from_rows(b_rows + c_rows + d_rows, cols=n).transpose()
    m_inv = inverse(m_basis)
    # Projection picks the c-coordinates.
    proj = Matrix.from_rows(m_inv.to_lists()[by.dim:by.dim + q], cols=n)
    section = Matrix.from_rows(c_rows, cols=n).transpose()
    assert (proj * section) == Matrix.identity(q)
    return q, proj, section


def inverse(m):
    assert m.rows == m.cols
    n = m.rows
    r, pivots = rref(hstack([m, Matrix.identity(n)]))
    assert pivots == tuple(range(n)), "matrix not invertible"
    return Matrix.from_rows([row[n:] for row in r.to_lists()], cols=n)


def is_positive_definite(sym):
    """Exact positive definiteness of a rational symmetric matrix.

    Decided by LDL pivots all > 0, cross-checked by Sylvester leading
    principal minors when nonsingular.
    """
    if sym.rows != sym.cols:
        raise ValueError("matrix not square")
    n = sym.rows
    for i in range(n):
        for j in range(i + 1, n):
            if sym.a[i][j] != sym.a[j][i]:
                raise ValueError("matrix not symmetric")
    if n == 0:
        return True
    # LDL without pivoting: positive definite iff every leading pivot > 0.
    a = [list(row) for row in sym.a]
    pivots_ok = True
    for k in range(n):
        p = a[k][k]
        if p <= 0:
            pivots_ok = False
            break
        for i in range(k + 1, n):
            f = a[i][k] / p
            for j in range(k, n):
                a[i][j] -= f * a[k][j]
    if pivots_ok:
        # Cross-check via Sylvester: all leading principal minors > 0.
        for k in range(1, n + 1):
            mk = Matrix.from_rows([row[:k] for row in sym.to_lists()[:k]],
                                  cols=k)
            assert determinant(mk) > 0
    return pivots_ok


def determinant(m):
    assert m.rows == m.cols
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
