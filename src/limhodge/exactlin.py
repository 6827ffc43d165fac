"""Exact rational linear algebra: dense matrices over Q, echelon forms,
kernels, quotients, and exact positive definiteness.

All elimination runs through one engine, `Echelon`, an incremental
reduced row basis. All arithmetic uses fractions.Fraction; no floating
point anywhere.
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
            if self.cols != other.rows:
                raise ConsistencyError("%dx%d times %dx%d matrix" % (
                    self.rows, self.cols, other.rows, other.cols))
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


class Echelon:
    """The one elimination engine: a growing basis of a row space, kept
    reduced. Rows stay in the order they were added; each is 0 before
    its pivot, 1 at it and 0 at every other row's pivot, so in pivot
    order they are the unique RREF of their span."""

    __slots__ = ("rows", "pivots")

    def __init__(self, rows=()):
        self.rows = []
        self.pivots = []
        for v in rows:
            self.add(v)

    def residual(self, v):
        """v minus its component in the span: 0 at every pivot, and 0
        everywhere exactly when v lies in the span."""
        w = [Q(x) for x in v]
        for row, p in zip(self.rows, self.pivots):
            f = w[p]
            if f:
                w = [x - f * y for x, y in zip(w, row)]
        return w

    def add(self, v):
        """Add v to the span. Returns the first nonzero entry of its
        residual (the new pivot value before scaling), or 0 if v is
        already in the span."""
        w = self.residual(v)
        for p, f in enumerate(w):
            if f:
                break
        else:
            return Q(0)
        if f != 1:
            w = [x / f for x in w]
        for i, row in enumerate(self.rows):
            g = row[p]
            if g:
                self.rows[i] = [x - g * y for x, y in zip(row, w)]
        self.rows.append(w)
        self.pivots.append(p)
        return f

    def reduced(self):
        """Put the rows in pivot order and return (rows, pivots): the
        RREF basis of the span."""
        order = sorted(range(len(self.pivots)), key=self.pivots.__getitem__)
        self.rows = [self.rows[i] for i in order]
        self.pivots = [self.pivots[i] for i in order]
        return self.rows, self.pivots


def rref(m):
    """Reduced row echelon form: (R, pivots) with R the m.rows x m.cols
    RREF (zero rows last) and pivots the tuple of pivot columns."""
    rows, pivots = Echelon(m.a).reduced()
    zeros = [[Q(0)] * m.cols for _ in range(m.rows - len(rows))]
    return Matrix._raw(m.rows, m.cols, rows + zeros), tuple(pivots)


def rank(m):
    return len(Echelon(m.a).pivots)


class Subspace:
    """A subspace of Q^ambient_dim, stored as an RREF row basis.

    The RREF basis makes equality of subspaces literal equality of
    matrices.
    """

    __slots__ = ("ambient_dim", "basis", "_echelon")

    def __init__(self, ambient_dim, basis_rows):
        for i, row in enumerate(basis_rows):
            if len(row) != ambient_dim:
                raise ConsistencyError("Subspace: row %d has length %d "
                                       "in Q^%d" % (i, len(row), ambient_dim))
        self.ambient_dim = ambient_dim
        self._echelon = Echelon(basis_rows)
        rows, _ = self._echelon.reduced()
        self.basis = Matrix._raw(len(rows), ambient_dim, rows)

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
        return not any(self._echelon.residual(v))

    def contains(self, other):
        assert self.ambient_dim == other.ambient_dim
        return not any(any(self._echelon.residual(row))
                       for row in other.basis.a)

    def coords(self, v):
        """Coefficients of v in the RREF basis; error if v not in self."""
        if not self.contains_vector(v):
            raise ConsistencyError("vector not in subspace")
        return [Q(v[p]) for p in self._echelon.pivots]

    def sum(self, other):
        assert self.ambient_dim == other.ambient_dim
        return Subspace(self.ambient_dim,
                        self.basis.to_lists() + other.basis.to_lists())

    def intersect(self, other):
        return self.preimage_under(Matrix.identity(self.ambient_dim), other)

    def image_under(self, m):
        """Image of this subspace under the linear map with matrix m."""
        assert m.cols == self.ambient_dim
        return Subspace(m.rows, [m.matvec(row) for row in self.basis.to_lists()])

    def preimage_under(self, m, target):
        """{x : m·x ∈ target} intersected with self."""
        assert m.cols == self.ambient_dim
        assert m.rows == target.ambient_dim
        # Solve over self's coordinates: m·B1ᵀ·a = B2ᵀ·b for some b.
        b1t = self.basis.transpose()
        k = kernel(hstack([m * b1t, -target.basis.transpose()]))
        return Subspace(self.ambient_dim,
                        [b1t.matvec(krow[:self.dim]) for krow in k.basis.a])


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
    # Complete the by-basis to a basis of sub, then of the ambient space.
    ech = Echelon(b_rows)
    c_rows = [row for row in sub.basis.to_lists() if ech.add(row)]
    d_rows = [e for e in Matrix.identity(n).to_lists() if ech.add(e)]
    q = len(c_rows)
    # Change of basis: columns of M are the basis vectors b, c, d.
    m_basis = Matrix.from_rows(b_rows + c_rows + d_rows, cols=n).transpose()
    m_inv = inverse(m_basis)
    # Projection picks the c-coordinates.
    proj = Matrix.from_rows(m_inv.to_lists()[by.dim:by.dim + q], cols=n)
    section = Matrix.from_rows(c_rows, cols=n).transpose()
    if proj * section != Matrix.identity(q):
        raise ConsistencyError("quotient: projection∘section is not 1")
    return q, proj, section


def inverse(m):
    if m.rows != m.cols:
        raise ConsistencyError("inverse: %dx%d matrix" % (m.rows, m.cols))
    n = m.rows
    r, pivots = rref(hstack([m, Matrix.identity(n)]))
    if pivots != tuple(range(n)):
        raise ConsistencyError("inverse: matrix not invertible")
    return Matrix.from_rows([row[n:] for row in r.to_lists()], cols=n)


def is_positive_definite(sym):
    """Exact positive definiteness of a rational symmetric matrix.

    Its rows go into an Echelon in order: positive definite iff row k
    takes pivot k with a value > 0, the value being the Schur complement
    D_k/D_{k-1}. A positive verdict is cross-checked by Sylvester, D_k > 0.
    """
    if sym.rows != sym.cols:
        raise ValueError("matrix not square")
    n = sym.rows
    for i in range(n):
        for j in range(i + 1, n):
            if sym.a[i][j] != sym.a[j][i]:
                raise ValueError("matrix not symmetric")
    ech = Echelon()
    for k, row in enumerate(sym.a):
        if ech.add(row) <= 0 or ech.pivots[k] != k:
            return False
    for k in range(1, n + 1):
        minor = Matrix._raw(k, k, [row[:k] for row in sym.a[:k]])
        if determinant(minor) <= 0:
            raise ConsistencyError("Sylvester: leading minor %d is not "
                                   "positive" % k)
    return True


def determinant(m):
    """The product of the pivot values of the rows, added in order to
    an Echelon, times the sign of the order the pivots arrived in."""
    assert m.rows == m.cols
    ech = Echelon()
    det = Q(1)
    for row in m.a:
        f = ech.add(row)
        if not f:
            return Q(0)
        det *= f
    piv = ech.pivots
    inversions = sum(p > q for i, p in enumerate(piv) for q in piv[i + 1:])
    return -det if inversions % 2 else det
