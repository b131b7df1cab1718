"""Exact 2x2 integer linear algebra: matrices, sublattices, intertwiners.

Everything is arbitrary-precision (Python ints). Lattices of finite index
in Z^2 are kept in the canonical Hermite form that hnf returns, so that
lattice equality is plain equality of the (a, b, d) triple. No decision or
verification forms a matrix power but the square M M that commensurability
takes of an input of trace < -2 (see conjugacy and commensurability), so
none is offered. A wrong argument (a singular basis, a determinant other
than +-1, unequal traces or determinants) raises ValueError.
"""

from fractions import Fraction
from math import gcd
from operator import attrgetter, index as _as_int

from .errors import NotHyperbolic

__all__ = [
    "Mat2",
    "HyperbolicMatrix",
    "Lattice2",
    "mat_mul",
    "hnf",
    "intertwiner_lattice",
]


class _Record:
    """Base of the package's plain records: a constructor, field-wise
    ==, hash and repr Name(field=value, ...) over the names in _fields,
    which each subclass lists in declaration order beside its
    __slots__. The constructor binds every field, by position or by
    name, with no default; a record that validates or coerces checks
    its arguments first and passes them on. Equal only to an instance
    of the same class. A record that must not be hashed sets
    __hash__ = None; one compared by identity takes object's __eq__ and
    __hash__ back."""

    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls):
        # the field values in one C call: a tuple, or a lone field's value
        cls._get_fields = attrgetter(*cls._fields)

    def __init__(self, *args, **kwargs):
        names, cls = self._fields, self.__class__.__qualname__
        if len(args) > len(names):
            raise TypeError(f"{cls}() takes {len(names)} fields, got {len(args)}")
        for name, value in zip(names, args):
            setattr(self, name, value)
        for name in names[len(args):]:
            if name not in kwargs:
                raise TypeError(f"{cls}() missing field {name!r}")
            setattr(self, name, kwargs.pop(name))
        if kwargs:
            name = next(iter(kwargs))
            kind = "repeated" if name in names else "unknown"
            raise TypeError(f"{cls}() got {kind} field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        get = self._get_fields
        return get(self) == get(other)

    def __hash__(self):
        return hash(self._get_fields(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={_repr(getattr(self, name))}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


def _int_text(value):
    """str(value), or its sign and size past the int/str digit limit."""
    try:
        return str(value)
    except ValueError:
        return f"{'a negative' if value < 0 else 'an'} integer of {value.bit_length()} bits"


def _repr(value):
    """repr(value), with each int in it, alone, in a Fraction or in nested
    tuples, given by _int_text, so that no record's repr raises at the
    digit limit."""
    if isinstance(value, int):
        return _int_text(value)
    if isinstance(value, Fraction):
        return f"Fraction({_int_text(value.numerator)}, {_int_text(value.denominator)})"
    if isinstance(value, tuple):
        items = ", ".join(map(_repr, value))
        return f"({items},)" if len(value) == 1 else f"({items})"
    return repr(value)


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
        raise ValueError(f"determinant {_int_text(det)} is not +-1")

    def __eq__(self, other):
        if not isinstance(other, Mat2):
            return NotImplemented
        return self.entries() == other.entries()

    def __hash__(self):
        return hash(self.entries())

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(map(_int_text, self.entries()))})"


class HyperbolicMatrix(Mat2):
    """Mat2 restricted to det = 1 and trace > 2.

    mat_mul returns a plain Mat2; rewrap with from_mat when the result
    is known to stay hyperbolic.
    """

    __slots__ = ()

    def __init__(self, a, b, c, d):
        super().__init__(a, b, c, d)
        if self.det() != 1:
            raise NotHyperbolic(f"determinant is {_int_text(self.det())}, need 1")
        if self.trace() <= 2:
            raise NotHyperbolic(f"trace {_int_text(self.trace())} is not > 2")

    @classmethod
    def from_mat(cls, m):
        return cls(m.a, m.b, m.c, m.d)


def mat_mul(x, y):
    """Product of two 2x2 integer matrices."""
    return Mat2(
        x.a * y.a + x.b * y.c,
        x.a * y.b + x.b * y.d,
        x.c * y.a + x.d * y.c,
        x.c * y.b + x.d * y.d,
    )


class Lattice2(_Record):
    """Finite-index sublattice of Z^2 in canonical Hermite form, as hnf
    returns it: basis columns (a, 0) and (b, d) with a >= 1, d >= 1 and
    0 <= b < a, so two canonical values are equal as lattices iff their
    triples are. Nothing checks a decoded triple but verify, against hnf.
    """

    __slots__ = _fields = ("a", "b", "d")


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

    The result's a*d equals |det basis|. Raises ValueError when det = 0.
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


def _congruence_basis(alpha, beta, m):
    """Basis of the integer (x, y) with alpha x + beta y = 0 mod m, m >= 1.

    With g = u alpha + v beta = gcd(alpha, beta), the columns (u, v) and
    (-beta/g, alpha/g) form a unimodular basis on which the form reads
    g x'; so x' must be a multiple of n = m / gcd(g, m), and y' is free.
    """
    g, u, v = _xgcd(alpha, beta)
    if g == 0:
        return (1, 0), (0, 1)
    n = m // gcd(g, m)
    return (n * u, n * v), (-beta // g, alpha // g)


def intertwiner_lattice(a, b):
    """Basis (K1, K2) of the integer solutions P of a*P = P*b.

    a and b must share one trace and one determinant, and a.c must not
    be 0, as holds when t^2 - 4 det is not a square; any other pair
    raises ValueError. The solutions form a rank-2 lattice, and the
    basis is saturated: every integer solution is an integer
    combination of K1 and K2.

    With P = (p, q; r, s) and c = a.c, the bottom row of a*P = P*b reads
    c p = (b.a - a.d) r + b.c s and c q = b.b r + (b.d - a.d) s. So P is
    an integer solution of the bottom row exactly when (r, s) meets two
    congruences mod |c|; the second is solved in the first one's basis.
    Those solutions have rank 2 and hold every solution of a*P = P*b.
    One trace and one determinant give one characteristic polynomial,
    and a is not scalar, so the rational solutions of a*P = P*b have
    dimension 2 too (a's centraliser when b is similar to a, two columns
    in the kernel of a - b when b is scalar): the bottom row's lattice is
    the solution lattice. Differing determinants leave the polynomials at
    most one shared root, so the solutions have rank at most 1.
    """
    if a.trace() != b.trace():
        raise ValueError(f"traces {_int_text(a.trace())} and {_int_text(b.trace())} differ")
    c = a.c
    if c == 0:
        raise ValueError("a has lower-left entry 0, so t^2 - 4 det is a square")
    if a.det() != b.det():
        raise ValueError(f"determinants {_int_text(a.det())} and {_int_text(b.det())} differ")
    alpha, beta = b.a - a.d, b.c  # c p = alpha r + beta s
    gamma, delta = b.b, b.d - a.d  # c q = gamma r + delta s
    m = abs(c)
    e1, e2 = _congruence_basis(alpha, beta, m)
    mats = []
    # the second congruence in e1, e2 coordinates, its coefficients
    # reduced mod m so that their Euclid runs at the size of c
    for x, y in _congruence_basis(
        (gamma * e1[0] + delta * e1[1]) % m, (gamma * e2[0] + delta * e2[1]) % m, m
    ):
        r, s = x * e1[0] + y * e2[0], x * e1[1] + y * e2[1]
        mats.append(Mat2((alpha * r + beta * s) // c, (gamma * r + delta * s) // c, r, s))
    return tuple(mats)
