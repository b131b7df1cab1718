"""Exact 2x2 integer linear algebra: matrices, sublattices, intertwiners.

Everything is arbitrary-precision (Python ints). Lattices of finite index
in Z^2 are kept in a canonical Hermite form so that lattice equality is
plain equality of the (a, b, d) triple. No decision or verification
forms a matrix power (see commensurability), so none is offered. A wrong
argument (a singular basis, a determinant other than +-1, traces that
differ) raises ValueError.
"""

from math import gcd
from operator import index as _as_int

from .errors import NotHyperbolic

__all__ = [
    "Mat2",
    "HyperbolicMatrix",
    "Lattice2",
    "mat_mul",
    "hnf",
    "lattice_image",
    "intertwiner_lattice",
]


class Mat2:
    """2x2 integer matrix with row-major entries (a, b; c, d)."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        self.a = _as_int(a)
        self.b = _as_int(b)
        self.c = _as_int(c)
        self.d = _as_int(d)

    @classmethod
    def identity(cls):
        return cls(1, 0, 0, 1)

    def entries(self):
        return (self.a, self.b, self.c, self.d)

    def det(self):
        return self.a * self.d - self.b * self.c

    def trace(self):
        return self.a + self.d

    def inverse(self):
        """Exact inverse; defined only for det = +-1."""
        det = self.det()
        if det == 1:
            return Mat2(self.d, -self.b, -self.c, self.a)
        if det == -1:
            return Mat2(-self.d, self.b, self.c, -self.a)
        raise ValueError(f"determinant {det} is not +-1")

    def __neg__(self):
        return Mat2(-self.a, -self.b, -self.c, -self.d)

    def __eq__(self, other):
        if not isinstance(other, Mat2):
            return NotImplemented
        return self.entries() == other.entries()

    def __hash__(self):
        return hash(self.entries())

    def __repr__(self):
        return f"Mat2({self.a}, {self.b}, {self.c}, {self.d})"


class HyperbolicMatrix(Mat2):
    """Mat2 restricted to det = 1 and trace > 2.

    mat_mul returns a plain Mat2; rewrap with from_mat when the result
    is known to stay hyperbolic.
    """

    __slots__ = ()

    def __init__(self, a, b, c, d):
        super().__init__(a, b, c, d)
        if self.det() != 1:
            raise NotHyperbolic(f"determinant is {self.det()}, need 1")
        if self.trace() <= 2:
            raise NotHyperbolic(f"trace {self.trace()} is not > 2")

    @classmethod
    def from_mat(cls, m):
        return cls(m.a, m.b, m.c, m.d)

    def __repr__(self):
        return f"HyperbolicMatrix({self.a}, {self.b}, {self.c}, {self.d})"


def mat_mul(x, y):
    """Product of two 2x2 integer matrices."""
    return Mat2(
        x.a * y.a + x.b * y.c,
        x.a * y.b + x.b * y.d,
        x.c * y.a + x.d * y.c,
        x.c * y.b + x.d * y.d,
    )


class Lattice2:
    """Finite-index sublattice of Z^2 in canonical Hermite form.

    Canonical basis columns are (a, 0) and (b, d) with a >= 1, d >= 1,
    0 <= b < a; index = a*d. Two Lattice2 values are equal as lattices
    iff their triples are equal.
    """

    __slots__ = ("a", "b", "d", "index")

    def __init__(self, a, b, d):
        a = _as_int(a)
        b = _as_int(b)
        d = _as_int(d)
        if a < 1 or d < 1:
            raise ValueError(f"diagonal entries must be positive, got a={a}, d={d}")
        if not 0 <= b < a:
            raise ValueError(f"offset b={b} outside [0, {a})")
        self.a = a
        self.b = b
        self.d = d
        self.index = a * d

    def basis(self):
        """Canonical basis as a Mat2 whose columns are (a,0) and (b,d)."""
        return Mat2(self.a, self.b, 0, self.d)

    def __eq__(self, other):
        if not isinstance(other, Lattice2):
            return NotImplemented
        return (self.a, self.b, self.d) == (other.a, other.b, other.d)

    def __hash__(self):
        return hash((self.a, self.b, self.d))

    def __repr__(self):
        return f"Lattice2(a={self.a}, b={self.b}, d={self.d})"


def _xgcd(x, y):
    """Extended gcd: returns (g, s, t) with g = s*x + t*y, g >= 0."""
    s, next_s = 1, 0
    t, next_t = 0, 1
    while y:
        q = x // y
        x, y = y, x - q * y
        s, next_s = next_s, s - q * next_s
        t, next_t = next_t, t - q * next_t
    if x < 0:
        return -x, -s, -t
    return x, s, t


def hnf(basis):
    """Canonical form of the lattice spanned by the columns of basis.

    The index of the result equals |det basis|. Raises ValueError when
    det = 0.
    """
    det = basis.det()
    if det == 0:
        raise ValueError(f"{basis!r} has determinant 0")
    # columns u = (basis.a, basis.c), v = (basis.b, basis.d)
    g, s, t = _xgcd(basis.c, basis.d)
    # combine columns so the second has bottom entry g and the first bottom 0
    w2x = s * basis.a + t * basis.b
    a = abs(det) // g
    d = g
    b = w2x % a
    return Lattice2(a, b, d)


def lattice_image(u, lat):
    """Image of a lattice under a unimodular matrix u (det = +-1)."""
    if u.det() not in (1, -1):
        raise ValueError(f"determinant {u.det()} is not +-1")
    return hnf(mat_mul(u, lat.basis()))


def _column_kernel(rows):
    """Saturated integer kernel basis of an integer matrix given by rows.

    Column-reduces with unimodular transforms; the transform columns
    over the zeroed-out columns form a basis of the integer kernel,
    and every integer kernel vector is an integer combination of it.
    """
    ncols = len(rows[0])
    cols = [[row[j] for row in rows] for j in range(ncols)]
    trans = [[1 if i == j else 0 for i in range(ncols)] for j in range(ncols)]
    pivot = 0
    for i in range(len(rows)):
        jpiv = None
        for j in range(pivot, ncols):
            if cols[j][i] != 0:
                jpiv = j
                break
        if jpiv is None:
            continue
        for j in range(jpiv + 1, ncols):
            if cols[j][i] == 0:
                continue
            p, q = cols[jpiv][i], cols[j][i]
            g, s, t = _xgcd(p, q)
            pg, qg = p // g, q // g
            cp, cj = cols[jpiv], cols[j]
            tp, tj = trans[jpiv], trans[j]
            cols[jpiv] = [s * cp[k] + t * cj[k] for k in range(len(cp))]
            cols[j] = [pg * cj[k] - qg * cp[k] for k in range(len(cp))]
            trans[jpiv] = [s * tp[k] + t * tj[k] for k in range(ncols)]
            trans[j] = [pg * tj[k] - qg * tp[k] for k in range(ncols)]
        cols[pivot], cols[jpiv] = cols[jpiv], cols[pivot]
        trans[pivot], trans[jpiv] = trans[jpiv], trans[pivot]
        pivot += 1
    kernel = []
    for j in range(pivot, ncols):
        assert all(e == 0 for e in cols[j])
        kernel.append(trans[j])
    return kernel


def intertwiner_lattice(a, b):
    """Basis (K1, K2) of the integer solutions P of a*P = P*b.

    a and b must share one trace t and one determinant delta, with
    t^2 - 4 delta not a square (two hyperbolic matrices of one trace,
    or the pair that commensurability._input_size_pair forms). Then the
    solutions form a rank-2 lattice. Differing traces raise
    ValueError: for two such irreducible characteristic polynomials
    the only solution is 0. So does any other pair whose solutions do
    not have rank 2. The returned basis is saturated: every
    integer solution is an integer combination of K1 and K2.
    """
    if a.trace() != b.trace():
        raise ValueError(f"traces {a.trace()} and {b.trace()} differ")
    # flatten P = (p, q; r, s); rows are the entries of a*P - P*b
    rows = [
        (a.a - b.a, -b.c, a.b, 0),
        (-b.b, a.a - b.d, 0, a.b),
        (a.c, 0, a.d - b.a, -b.c),
        (0, a.c, -b.b, a.d - b.d),
    ]
    kernel = _column_kernel(rows)
    if len(kernel) != 2:
        raise ValueError(
            f"kernel rank {len(kernel)}, expected 2; determinants differ"
            " or t^2 - 4 det is a square?"
        )
    mats = []
    for vec in kernel:
        g = gcd(*vec)
        if g > 1:  # columns of a unimodular transform are already primitive
            vec = [e // g for e in vec]
        mats.append(Mat2(*vec))
    return tuple(mats)
