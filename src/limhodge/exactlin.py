"""Exact rational linear algebra: dense matrices over Q, echelon forms,
kernels, quotients, and exact positive definiteness.

All elimination runs through one engine, `Echelon`, an incremental
reduced row basis with sparse rows: a row keeps only its nonzero
entries, so a reduction step costs in the entries it touches, not in
the width. `quotient` reads its projection off one such reduction and
forms no inverse. All arithmetic uses fractions.Fraction; no floating
point anywhere.
"""

import operator
from fractions import Fraction

Q = Fraction


class ConsistencyError(AssertionError):
    """A broken internal invariant, such as mismatched shapes. It is
    raised explicitly, so unlike `assert` it survives `python -O`."""


def _require(ok, message, *args):
    """Raise ConsistencyError(message % args) unless ok."""
    if not ok:
        raise ConsistencyError(message % args)


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
            _require(len(entries) == rows and all(
                len(row) == cols for row in entries),
                "Matrix: entries are not %dx%d", rows, cols)
            self.a = [[Q(x) for x in row] for row in entries]

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
            _require(cols is not None, "Matrix.from_rows: no rows, no width")
            return cls(0, cols)
        return cls(len(rows_list), len(rows_list[0]), rows_list)

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

    def transpose(self):
        return Matrix._raw(self.cols, self.rows,
                           [[self.a[i][j] for i in range(self.rows)]
                            for j in range(self.cols)])

    def _entrywise(self, other, op):
        _require((self.rows, self.cols) == (other.rows, other.cols),
                 "%dx%d and %dx%d matrix: shapes differ", self.rows, self.cols,
                 other.rows, other.cols)
        return Matrix._raw(self.rows, self.cols,
                           [[op(x, y) for x, y in zip(r, s)]
                            for r, s in zip(self.a, other.a)])

    def __add__(self, other):
        return self._entrywise(other, operator.add)

    def __sub__(self, other):
        return self._entrywise(other, operator.sub)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        c = Q(c)
        return Matrix._raw(self.rows, self.cols,
                           [[c * x for x in row] for row in self.a])

    def __mul__(self, other):
        if isinstance(other, Matrix):
            _require(self.cols == other.rows, "%dx%d times %dx%d matrix",
                     self.rows, self.cols, other.rows, other.cols)
            other_nz = [[(j, v) for j, v in enumerate(row) if v]
                        for row in other.a]
            zero = Q(0)
            out = [[zero] * other.cols for _ in range(self.rows)]
            for i, row in enumerate(self.a):
                oi = out[i]
                for k, x in enumerate(row):
                    if not x:
                        continue
                    for j, y in other_nz[k]:
                        oi[j] = oi[j] + x * y
            return Matrix._raw(self.rows, other.cols, out)
        return self.scale(other)

    def __rmul__(self, c):
        return self.scale(c)

    def matvec(self, v):
        _require(len(v) == self.cols, "matvec: vector of length %d for a "
                 "%dx%d matrix", len(v), self.rows, self.cols)
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


def kron(a, b):
    """Kronecker product: the entry (i*b.rows + k, j*b.cols + l) is
    a[i][j] * b[k][l]. Zero entries of either factor are skipped."""
    m = Matrix(a.rows * b.rows, a.cols * b.cols)
    b_nz = [[(l, y) for l, y in enumerate(row) if y] for row in b.a]
    for i, row in enumerate(a.a):
        for j, x in enumerate(row):
            if not x:
                continue
            for k, nz in enumerate(b_nz):
                out = m.a[i * b.rows + k]
                for l, y in nz:
                    out[j * b.cols + l] = x * y
    return m


def hstack(blocks):
    rows = blocks[0].rows
    _require(all(b.rows == rows for b in blocks),
             "hstack: blocks of different heights")
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
    _require(all(b.cols == cols for b in blocks),
             "vstack: blocks of different widths")
    return Matrix.from_rows([row for b in blocks for row in b.to_lists()],
                            cols=cols)


class Echelon:
    """The one elimination engine: a growing basis of a row space in
    Q^width, kept reduced. Each row is 0 before its pivot, 1 at it and
    0 at every other row's pivot, so in pivot order the rows are the
    unique RREF of their span.

    Rows are sparse: `rows` maps each pivot, in the order the rows came
    in until `reduced` sorts them, to a dict of the row's nonzero
    entries right of the pivot (the 1 at the pivot is implied). An
    entry becomes a Fraction once, when its row enters."""

    __slots__ = ("width", "rows")

    def __init__(self, width, rows=()):
        self.width = width
        self.rows = {}
        for v in rows:
            self.add(v)

    def residual(self, v):
        """v minus its component in the span, as a dict of its nonzero
        entries: none at a pivot, and none at all exactly when v lies in
        the span. The rows are reduced, so v[p] is the factor of the row
        of every pivot p."""
        _require(len(v) == self.width, "Echelon: a row of length %d in Q^%d",
                 len(v), self.width)
        w = {j: x if type(x) is Q else Q(x) for j, x in enumerate(v) if x}
        rows = self.rows
        for p in [p for p in w if p in rows]:
            _sub_scaled(w, w.pop(p), rows[p])
        return w

    def add(self, v):
        """Add v to the span. Returns the first nonzero entry of its
        residual (the new pivot value before scaling), or 0 if v is
        already in the span."""
        return self.insert(self.residual(v))

    def insert(self, w):
        """`add` for a residual as `residual` returns it, which the
        engine then owns."""
        if not w:
            return Q(0)
        p = min(w)
        f = w.pop(p)
        if f != 1:
            w = {j: x / f for j, x in w.items()}
        for row in self.rows.values():
            g = row.pop(p, None)
            if g is not None:
                _sub_scaled(row, g, w)
        self.rows[p] = w
        return f

    def reduced(self):
        """Sort the rows by pivot and return (rows, pivots): the RREF
        basis of the span, as dense rows of Fractions."""
        self.rows = dict(sorted(self.rows.items()))
        zero, one = Q(0), Q(1)
        dense = []
        for p, row in self.rows.items():
            d = [zero] * self.width
            d[p] = one
            for j, x in row.items():
                d[j] = x
            dense.append(d)
        return dense, list(self.rows)


def _sub_scaled(w, f, row):
    """w -= f * row on sparse rows, dropping the entries that cancel."""
    for j, y in row.items():
        x = w.get(j)
        if x is None:
            w[j] = -f * y
        else:
            x -= f * y
            if x:
                w[j] = x
            else:
                del w[j]


def rref(m):
    """Reduced row echelon form: (R, pivots) with R the m.rows x m.cols
    RREF (zero rows last) and pivots the tuple of pivot columns."""
    rows, pivots = Echelon(m.cols, m.a).reduced()
    zeros = [[Q(0)] * m.cols for _ in range(m.rows - len(rows))]
    return Matrix._raw(m.rows, m.cols, rows + zeros), tuple(pivots)


def rank(m):
    return len(Echelon(m.cols, m.a).rows)


class Subspace:
    """A subspace of Q^ambient_dim, stored as an RREF row basis.

    The RREF basis makes equality of subspaces literal equality of
    matrices.
    """

    __slots__ = ("ambient_dim", "basis", "_echelon")

    def __init__(self, ambient_dim, basis_rows):
        self.ambient_dim = ambient_dim
        self._echelon = Echelon(ambient_dim, basis_rows)
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

    def _require_same_ambient(self, other):
        _require(self.ambient_dim == other.ambient_dim,
                 "subspaces of Q^%d and Q^%d", self.ambient_dim,
                 other.ambient_dim)

    def contains_vector(self, v):
        return not self._echelon.residual(v)

    def contains(self, other):
        self._require_same_ambient(other)
        return not any(self._echelon.residual(row) for row in other.basis.a)

    def coords(self, v):
        """Coefficients of v in the RREF basis; error if v not in self."""
        _require(self.contains_vector(v), "vector not in subspace")
        return [Q(v[p]) for p in self._echelon.rows]

    def sum(self, other):
        self._require_same_ambient(other)
        return Subspace(self.ambient_dim,
                        self.basis.to_lists() + other.basis.to_lists())

    def intersect(self, other):
        return self.preimage_under(Matrix.identity(self.ambient_dim), other)

    def image_under(self, m):
        """Image of this subspace under the linear map with matrix m."""
        _require(m.cols == self.ambient_dim, "image of Q^%d under a %dx%d "
                 "matrix", self.ambient_dim, m.rows, m.cols)
        return Subspace(m.rows, [m.matvec(row) for row in self.basis.to_lists()])

    def preimage_under(self, m, target):
        """{x : m·x ∈ target} intersected with self."""
        _require((m.rows, m.cols) == (target.ambient_dim, self.ambient_dim),
                 "preimage in Q^%d of Q^%d under a %dx%d matrix",
                 self.ambient_dim, target.ambient_dim, m.rows, m.cols)
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
    """One solution x of m·x = b, or None if inconsistent. The right
    side b is a vector, or a Matrix whose columns are right sides: then
    x is a Matrix, and None if any column is inconsistent. Free
    variables are 0."""
    vector = not isinstance(b, Matrix)
    if vector:
        b = Matrix(len(b), 1, [[x] for x in b])
    _require(m.rows == b.rows, "solve: %dx%d matrix, right side of "
             "length %d", m.rows, m.cols, b.rows)
    r, pivots = rref(hstack([m, b]))
    if pivots and pivots[-1] >= m.cols:
        return None
    x = Matrix(m.cols, b.cols)
    for i, pc in enumerate(pivots):
        x.a[pc] = r.a[i][m.cols:]
    return [row[0] for row in x.a] if vector else x


def quotient(sub, by):
    """Quotient sub/by with explicit projection and section.

    Returns (dim, projection, section): projection is dim×ambient with
    kernel containing `by` (and equal to `by` within `sub`), section is
    ambient×dim with projection∘section = identity.

    The by-basis b is completed by the rows c of sub's basis, then by
    the unit vectors d, that extend the span. The projection, the
    c-block of [b c d]⁻¹, sends b and d to 0 and c_i to e_i. So each
    basis vector enters one Echelon followed by its image in q more
    columns, and the rows reduce to (1 | projectionᵀ).
    """
    by._require_same_ambient(sub)
    if not sub.contains(by):
        raise ValueError("not a subspace")
    n = sub.ambient_dim
    q = sub.dim - by.dim
    zero = Q(0)
    no_image = [zero] * q
    ech = Echelon(n + q)

    def extends(v, image):
        """Add (v | image) if v is not in the span of the rows so far;
        no pivot lies past column n, so the first n columns decide."""
        w = ech.residual(v + image)
        if min(w, default=n) >= n:
            return False
        ech.insert(w)
        return True

    for row in by.basis.a:
        extends(row, no_image)
    # Rows of sub after the q-th c do not extend the span; their image
    # is 0.
    images = Matrix.identity(q).a + [no_image]
    c_rows = []
    for row in sub.basis.a:
        if extends(row, images[len(c_rows)]):
            c_rows.append(row)
    for e in Matrix.identity(n).a:
        extends(e, no_image)
    proj = Matrix._raw(q, n, [[ech.rows[p].get(n + i, zero) for p in range(n)]
                              for i in range(q)])
    section = Matrix._raw(q, n, c_rows).transpose()
    _require(proj * section == Matrix.identity(q),
             "quotient: projection∘section is not 1")
    return q, proj, section


def inverse(m):
    _require(m.rows == m.cols, "inverse: %dx%d matrix", m.rows, m.cols)
    n = m.rows
    r, pivots = rref(hstack([m, Matrix.identity(n)]))
    _require(pivots == tuple(range(n)), "inverse: matrix not invertible")
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
    ech = Echelon(n)
    for k, row in enumerate(sym.a):
        # Rows 0..k-1 took pivots 0..k-1; is k the pivot of row k?
        if ech.add(row) <= 0 or k not in ech.rows:
            return False
    for k in range(1, n + 1):
        minor = Matrix._raw(k, k, [row[:k] for row in sym.a[:k]])
        _require(determinant(minor) > 0,
                 "Sylvester: leading minor %d is not positive", k)
    return True


def determinant(m):
    """The product of the pivot values of the rows, added in order to
    an Echelon, times the sign of the order the pivots arrived in."""
    _require(m.rows == m.cols, "determinant: %dx%d matrix", m.rows, m.cols)
    ech = Echelon(m.cols)
    det = Q(1)
    for row in m.a:
        f = ech.add(row)
        if not f:
            return Q(0)
        det *= f
    piv = list(ech.rows)
    inversions = sum(p > q for i, p in enumerate(piv) for q in piv[i + 1:])
    return -det if inversions % 2 else det
