"""Exact rational linear algebra: sparse matrices over Q, echelon forms,
kernels, quotients, and exact positive definiteness.

A matrix keeps each row as a dict of its nonzero entries, and so does
the one elimination engine, `Echelon`, an incremental reduced row
basis. So a product, a sum, a stack or a reduction step costs in the
entries it touches, not in the width. `quotient` reads its projection
off one such reduction of the subspace's basis, with no inverse and no
completion of the basis. All arithmetic is exact, with no floating
point anywhere.
Inside an `Echelon`, rows are integer-first: an integral entry is an
int, any other a fractions.Fraction, as nearly every pivot is 1 or -1.
Every entry and pivot value it hands out is a Fraction. `rank` needs no
basis: it eliminates the same integer-first rows forward only.
"""

from fractions import Fraction

Q = Fraction
ZERO, ONE = Q(0), Q(1)


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


# The strings of 1 and -1, the most common entries of input tables
# after "0", and the constants they parse to.
_UNITS = {"1": ONE, "-1": -ONE}


def rat_from_str(s):
    """The rational of a string such as "-3/4"; s is a str."""
    return _UNITS.get(s) or Fraction(s)


def _sparse(v):
    """The sparse row of the dense vector v: {index: Fraction} of its
    nonzero entries."""
    out = {}
    for j, x in enumerate(v):
        if type(x) is not Q:
            x = Q(x)
        if x:
            out[j] = x
    return out


def _dense(row, width, zero=ZERO):
    out = [zero] * width
    for j, x in row.items():
        out[j] = x
    return out


def _axpy(w, f, row, shift=0):
    """w += f * row on sparse rows, the columns of row moved right by
    shift; an entry that cancels is dropped. A factor of 1 or -1, the
    common case, multiplies nothing."""
    one, minus_one = f == 1, f == -1
    for j, y in row.items():
        j += shift
        x = w.get(j)
        if x is None:
            w[j] = y if one else -y if minus_one else f * y
        else:
            x = x + y if one else x - y if minus_one else x + f * y
            if x:
                w[j] = x
            else:
                del w[j]


class Matrix:
    """Row-major matrix over Q with sparse rows: `nz[i]` is the dict
    {column: Fraction} of the nonzero entries of row i. No entry is
    ever stored as 0, so equal matrices have equal rows; every writer
    drops the entries that cancel."""

    __slots__ = ("rows", "cols", "nz")

    def __init__(self, rows, cols, entries=None):
        """The zero matrix, or the one of the dense rows `entries`."""
        self.rows = rows
        self.cols = cols
        if entries is None:
            self.nz = [{} for _ in range(rows)]
        else:
            _require(len(entries) == rows and all(
                len(row) == cols for row in entries),
                "Matrix: entries are not %dx%d", rows, cols)
            self.nz = [_sparse(row) for row in entries]

    @classmethod
    def from_sparse(cls, cols, nz):
        """The matrix of width cols with the sparse rows nz: dicts of
        nonzero Fractions, which the matrix then owns."""
        m = cls.__new__(cls)
        m.rows = len(nz)
        m.cols = cols
        m.nz = nz
        return m

    @classmethod
    def identity(cls, n):
        return cls.from_sparse(n, [{i: ONE} for i in range(n)])

    @classmethod
    def zero(cls, rows, cols):
        return cls(rows, cols)

    @classmethod
    def from_rows(cls, rows_list, cols=None):
        if not rows_list:
            _require(cols is not None, "Matrix.from_rows: no rows, no width")
            return cls(0, cols)
        return cls(len(rows_list), len(rows_list[0]), rows_list)

    @property
    def a(self):
        """A dense read-only view: a tuple of tuples, built per read."""
        return tuple(tuple(row) for row in self.to_lists())

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.rows, self.cols, self.nz) == (other.rows, other.cols,
                                                   other.nz)

    def __hash__(self):
        return hash((self.rows, self.cols,
                     tuple(frozenset(r.items()) for r in self.nz)))

    def __repr__(self):
        return "Matrix(%d, %d, %r)" % (self.rows, self.cols,
                                       [[str(x) for x in r]
                                        for r in self.to_lists()])

    def _cell(self, ij):
        i, j = ij
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError("entry (%d,%d) of a %dx%d matrix"
                             % (i, j, self.rows, self.cols))
        return self.nz[i], j

    def __getitem__(self, ij):
        row, j = self._cell(ij)
        return row.get(j, ZERO)

    def __setitem__(self, ij, v):
        row, j = self._cell(ij)
        v = Q(v)
        if v:
            row[j] = v
        else:
            row.pop(j, None)

    def add_block(self, i0, j0, block, coeff=1):
        """Add coeff * block, coeff an int or Fraction, to the entries
        from (i0, j0) on."""
        _require(i0 + block.rows <= self.rows and j0 + block.cols
                 <= self.cols, "a %dx%d block at (%d,%d) of a %dx%d matrix",
                 block.rows, block.cols, i0, j0, self.rows, self.cols)
        if coeff:
            for i, brow in enumerate(block.nz):
                _axpy(self.nz[i0 + i], coeff, brow, j0)

    def columns(self, lo, hi):
        """The submatrix of the columns lo, ..., hi - 1."""
        return Matrix.from_sparse(hi - lo, [
            {j - lo: x for j, x in row.items() if lo <= j < hi}
            for row in self.nz])

    def row(self, i):
        return _dense(self.nz[i], self.cols)

    def transpose(self):
        out = [{} for _ in range(self.cols)]
        for i, row in enumerate(self.nz):
            for j, x in row.items():
                out[j][i] = x
        return Matrix.from_sparse(self.rows, out)

    def _plus(self, other, c):
        _require((self.rows, self.cols) == (other.rows, other.cols),
                 "%dx%d and %dx%d matrix: shapes differ", self.rows, self.cols,
                 other.rows, other.cols)
        out = [dict(row) for row in self.nz]
        for row, orow in zip(out, other.nz):
            _axpy(row, c, orow)
        return Matrix.from_sparse(self.cols, out)

    def __add__(self, other):
        return self._plus(other, ONE)

    def __sub__(self, other):
        return self._plus(other, -ONE)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        c = Q(c)
        return Matrix.from_sparse(self.cols, [
            {j: c * x for j, x in row.items()} if c else {}
            for row in self.nz])

    def __mul__(self, other):
        if isinstance(other, Matrix):
            _require(self.cols == other.rows, "%dx%d times %dx%d matrix",
                     self.rows, self.cols, other.rows, other.cols)
            onz = other.nz
            out = []
            for row in self.nz:
                acc = {}
                for k, x in row.items():
                    _axpy(acc, x, onz[k])
                out.append(acc)
            return Matrix.from_sparse(other.cols, out)
        return NotImplemented

    def matvec(self, v):
        _require(len(v) == self.cols, "matvec: vector of length %d for a "
                 "%dx%d matrix", len(v), self.rows, self.cols)
        x = _sparse(v)
        out = []
        for row in self.nz:
            s = ZERO
            for j, y in row.items():
                xj = x.get(j)
                if xj is not None:
                    s += y * xj
            out.append(s)
        return out

    def is_zero(self):
        return not any(self.nz)

    def to_lists(self):
        return [_dense(row, self.cols) for row in self.nz]

    def to_json(self):
        return [_dense({j: rat_to_str(x) for j, x in row.items()},
                       self.cols, "0") for row in self.nz]

    @classmethod
    def from_json(cls, data, cols=0):
        """Matrix from rows of rational strings; `cols` is the width of
        the empty list, which has no row to take it from. A ragged
        table from a file is an input error, which the strata loader
        reports with its path before it gets here."""
        if not data:
            return cls(0, cols)
        _require(all(len(row) == len(data[0]) for row in data),
                 "Matrix.from_json: ragged rows")
        # Most entries are "0", as rat_to_str writes 0, and most others
        # 1 or -1: skip their parse.
        return cls.from_sparse(len(data[0]), [
            {j: q for j, x in enumerate(row)
             if x != "0" and (q := _UNITS.get(x) or Q(x))}
            for row in data])


def block_diag(blocks):
    nz = []
    j0 = 0
    for b in blocks:
        nz += [{j0 + j: x for j, x in row.items()} for row in b.nz]
        j0 += b.cols
    return Matrix.from_sparse(j0, nz)


def kron(a, b):
    """Kronecker product: the entry (i*b.rows + k, j*b.cols + l) is
    a[i, j] * b[k, l]. Only products of nonzero entries are formed, and
    none with a factor 1, as in a Kronecker product with an identity."""
    return Matrix.from_sparse(a.cols * b.cols, [
        {j * b.cols + l: y if x == 1 else x if y == 1 else x * y
         for j, x in row.items() for l, y in brow.items()}
        for row in a.nz for brow in b.nz])


def hstack(blocks):
    rows = blocks[0].rows
    _require(all(b.rows == rows for b in blocks),
             "hstack: blocks of different heights")
    nz = [{} for _ in range(rows)]
    j0 = 0
    for b in blocks:
        for row, brow in zip(nz, b.nz):
            row.update((j0 + j, x) for j, x in brow.items())
        j0 += b.cols
    return Matrix.from_sparse(j0, nz)


def vstack(blocks):
    cols = blocks[0].cols
    _require(all(b.cols == cols for b in blocks),
             "vstack: blocks of different widths")
    return Matrix.from_sparse(cols, [dict(row) for b in blocks
                                     for row in b.nz])


def _int_first(x):
    """x, an int or a Fraction, as an int if it is integral."""
    return x.numerator if x.denominator == 1 else x


class Echelon:
    """The one elimination engine: a growing basis of a row space in
    Q^width, kept reduced. Each row is 0 before its pivot, 1 at it and
    0 at every other row's pivot, so in pivot order the rows are the
    unique RREF of their span.

    Rows are sparse: `rows` maps each pivot, in the order the rows came
    in until `reduced` sorts them, to a dict of the row's nonzero
    entries right of the pivot (the 1 at the pivot is implied).
    `Echelon(width, rows)` starts from sparse rows, such as a matrix's
    `nz`. Entries are integer-first: `residual` turns integral ones
    into ints, and with a pivot of 1 or -1 a reduction step stays in
    int arithmetic. What the engine hands out is a Fraction."""

    __slots__ = ("width", "rows")

    def __init__(self, width, rows=()):
        self.width = width
        self.rows = {}
        for w in rows:
            self.insert(self.residual(w))

    def residual(self, w):
        """The sparse row w minus its component in the span, as a new
        dict of its nonzero entries: none at a pivot, and none at all
        exactly when w lies in the span. The rows are reduced, so w[p]
        is the factor of the row of every pivot p."""
        w = {j: _int_first(x) for j, x in w.items()}
        rows = self.rows
        for p in [p for p in w if p in rows]:
            _axpy(w, -w.pop(p), rows[p])
        return w

    def add(self, v):
        """Add the dense vector v to the span. Returns the first nonzero
        entry of its residual (the new pivot value before scaling) as a
        Fraction, or 0 if v is already in the span."""
        _require(len(v) == self.width, "Echelon: a row of length %d in Q^%d",
                 len(v), self.width)
        return self.insert(self.residual(_sparse(v)))

    def insert(self, w):
        """Add a residual, as `residual` returns it, which the engine
        then owns; returns its pivot value before scaling as a Fraction,
        or 0."""
        if not w:
            return ZERO
        p = min(w)
        f = w.pop(p)
        if f == -1:
            w = {j: -x for j, x in w.items()}
        elif f != 1:
            f = Q(f)
            w = {j: _int_first(x / f) for j, x in w.items()}
        for row in self.rows.values():
            g = row.pop(p, None)
            if g is not None:
                _axpy(row, -g, w)
        self.rows[p] = w
        return Q(f)

    def reduced(self):
        """Sort the rows by pivot and return them as a Matrix: the RREF
        basis of the span."""
        self.rows = dict(sorted(self.rows.items()))
        return Matrix.from_sparse(self.width, [
            {p: ONE, **{j: Q(x) for j, x in row.items()}}
            for p, row in self.rows.items()])


def rref(m):
    """Reduced row echelon form: (R, pivots) with R the m.rows x m.cols
    RREF (zero rows last) and pivots the tuple of pivot columns."""
    ech = Echelon(m.cols, m.nz)
    rows = ech.reduced().nz
    rows += [{} for _ in range(m.rows - len(rows))]
    return Matrix.from_sparse(m.cols, rows), tuple(ech.rows)


def rank(m):
    """The rank of m by forward elimination: each integer-first row is
    reduced only at the pivots it meets, and a pivot row, scaled to a
    leading 1, is never cleared from the others."""
    rows = {}
    for row in m.nz:
        w = {j: _int_first(x) for j, x in row.items()}
        while w:
            p = min(w)
            r = rows.get(p)
            if r is None:
                f = w.pop(p)
                if f == -1:
                    w = {j: -x for j, x in w.items()}
                elif f != 1:
                    f = Q(f)
                    w = {j: _int_first(x / f) for j, x in w.items()}
                rows[p] = w
                break
            _axpy(w, -w.pop(p), r)
    return len(rows)


class Subspace:
    """A subspace of Q^ambient_dim, stored as an RREF row basis.

    The RREF basis makes equality of subspaces literal equality of
    matrices.
    """

    __slots__ = ("ambient_dim", "basis", "_echelon")

    def __init__(self, ambient_dim, basis_rows):
        """The span of the dense vectors basis_rows."""
        ech = Echelon(ambient_dim)
        for v in basis_rows:
            ech.add(v)
        self._take(ech)

    @classmethod
    def span(cls, ambient_dim, rows):
        """The span of sparse rows, such as a matrix's `nz`."""
        s = cls.__new__(cls)
        s._take(Echelon(ambient_dim, rows))
        return s

    def _take(self, ech):
        self.ambient_dim = ech.width
        self._echelon = ech
        self.basis = ech.reduced()

    @classmethod
    def full(cls, n):
        return cls.span(n, Matrix.identity(n).nz)

    @classmethod
    def zero(cls, n):
        return cls.span(n, [])

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
        _require(len(v) == self.ambient_dim, "a vector of length %d in "
                 "Q^%d", len(v), self.ambient_dim)
        return not self._echelon.residual(_sparse(v))

    def contains(self, other):
        self._require_same_ambient(other)
        return not any(self._echelon.residual(row) for row in other.basis.nz)

    def coords(self, v):
        """Coefficients of v in the RREF basis; error if v not in self."""
        _require(self.contains_vector(v), "vector not in subspace")
        return [Q(v[p]) for p in self._echelon.rows]

    def sum(self, other):
        self._require_same_ambient(other)
        return Subspace.span(self.ambient_dim,
                             self.basis.nz + other.basis.nz)

    def intersect(self, other):
        return self.preimage_under(Matrix.identity(self.ambient_dim), other)

    def image_under(self, m):
        """Image of this subspace under the linear map with matrix m."""
        _require(m.cols == self.ambient_dim, "image of Q^%d under a %dx%d "
                 "matrix", self.ambient_dim, m.rows, m.cols)
        return Subspace.span(m.rows, (self.basis * m.transpose()).nz)

    def preimage_under(self, m, target):
        """{x : m·x ∈ target} intersected with self."""
        _require((m.rows, m.cols) == (target.ambient_dim, self.ambient_dim),
                 "preimage in Q^%d of Q^%d under a %dx%d matrix",
                 self.ambient_dim, target.ambient_dim, m.rows, m.cols)
        # Solve over self's coordinates: m·B1ᵀ·a = B2ᵀ·b for some b.
        k = kernel(hstack([m * self.basis.transpose(),
                           -target.basis.transpose()]))
        coords = k.basis.columns(0, self.dim)
        return Subspace.span(self.ambient_dim, (coords * self.basis).nz)


def kernel(m):
    """Subspace {x : m·x = 0} of Q^cols: per free column c of the RREF
    of m with its columns reversed, the vector with 1 at c and minus
    column c at the pivots. Read back in column order, each is 0 before
    c and at every other free column, so they are already an RREF."""
    last = m.cols - 1
    r, pivots = rref(Matrix.from_sparse(m.cols, [
        {last - c: x for c, x in row.items()} for row in m.nz]))
    pivot_set = set(pivots)
    free = {last - c: {last - c: ONE} for c in range(m.cols)
            if c not in pivot_set}
    for pc, row in zip(pivots, r.nz):
        for c, x in row.items():
            if c != pc:
                free[last - c][last - pc] = -x
    return Subspace.span(m.cols, list(free.values()))


def image(m):
    """Column space of m as a Subspace of Q^rows."""
    return Subspace.span(m.rows, m.transpose().nz)


def solve(m, b):
    """One solution x of m·x = b, the columns of the Matrix b being
    right sides, or None if any column is inconsistent. Free variables
    are 0."""
    _require(m.rows == b.rows, "solve: %dx%d matrix, right side of "
             "%d rows", m.rows, m.cols, b.rows)
    r, pivots = rref(hstack([m, b]))
    if pivots and pivots[-1] >= m.cols:
        return None
    x = Matrix(m.cols, b.cols)
    for pc, row in zip(pivots, r.columns(m.cols, r.cols).nz):
        x.nz[pc] = row
    return x


def quotient(sub, by):
    """Quotient sub/by with explicit projection and section.

    Returns (dim, projection, section): projection is dim×ambient with
    kernel containing `by` (and equal to `by` within `sub`), section is
    ambient×dim with projection∘section = identity.

    The by-basis b is completed by the rows c of sub's basis, then by
    the unit vectors d: each e_k, k ascending, that extends the span.
    The projection, the c-block of [b c d]⁻¹, sends b and d to 0 and
    c_i to e_i. A unit vector e_k is taken exactly when k is the last
    nonzero position of no vector of sub, so d needs no reduction: b
    and c enter one Echelon with their columns reversed, which makes
    its pivots those last positions, and c_i is tagged with e_i in q
    more columns. Reduced, the row of pivot k is e_k plus a combination
    of d, so its tag is column k of the projection; every other column
    is that of a vector of d, and 0.
    """
    by._require_same_ambient(sub)
    if not sub.contains(by):
        raise ValueError("not a subspace")
    n = sub.ambient_dim
    q = sub.dim - by.dim
    last = n - 1

    def flip(row):
        return {last - j: x for j, x in row.items()}

    ech = Echelon(n + q, [flip(row) for row in by.basis.nz])
    c_rows = []
    for row in sub.basis.nz:
        if len(c_rows) == q:
            break
        w = ech.residual({**flip(row), n + len(c_rows): ONE})
        # no pivot lies past column n, so the first n columns decide
        if min(w) < n:
            ech.insert(w)
            c_rows.append(row)
    proj = [{} for _ in range(q)]
    for p, row in ech.rows.items():
        for j, x in row.items():
            if j >= n:
                proj[j - n][last - p] = Q(x)
    proj = Matrix.from_sparse(n, proj)
    section = Matrix.from_sparse(n, c_rows).transpose()
    _require(proj * section == Matrix.identity(q),
             "quotient: projection∘section is not 1")
    return q, proj, section


def inverse(m):
    _require(m.rows == m.cols, "inverse: %dx%d matrix", m.rows, m.cols)
    n = m.rows
    r, pivots = rref(hstack([m, Matrix.identity(n)]))
    _require(pivots == tuple(range(n)), "inverse: matrix not invertible")
    return r.columns(n, 2 * n)


def is_positive_definite(sym):
    """Exact positive definiteness of a rational symmetric matrix.

    Its rows go into an Echelon in order: positive definite iff row k
    takes pivot k with a value > 0, the value being the Schur complement
    D_k/D_{k-1}. A positive verdict is cross-checked by Sylvester, D_k > 0.
    """
    if sym.rows != sym.cols:
        raise ValueError("matrix not square")
    if sym != sym.transpose():
        raise ValueError("matrix not symmetric")
    ech = Echelon(sym.cols)
    for k, row in enumerate(sym.nz):
        # Rows 0..k-1 took pivots 0..k-1; is k the pivot of row k?
        if ech.insert(ech.residual(row)) <= 0 or k not in ech.rows:
            return False
    n = sym.rows
    for k in range(1, n + 1):
        minor = Matrix.from_sparse(n, sym.nz[:k]).columns(0, k)
        _require(determinant(minor) > 0,
                 "Sylvester: leading minor %d is not positive", k)
    return True


def determinant(m):
    """The product of the pivot values of the rows, added in order to
    an Echelon, times the sign of the order the pivots arrived in."""
    _require(m.rows == m.cols, "determinant: %dx%d matrix", m.rows, m.cols)
    ech = Echelon(m.cols)
    det = ONE
    for row in m.nz:
        f = ech.insert(ech.residual(row))
        if not f:
            return ZERO
        det *= f
    piv = list(ech.rows)
    inversions = sum(p > q for i, p in enumerate(piv) for q in piv[i + 1:])
    return -det if inversions % 2 else det
