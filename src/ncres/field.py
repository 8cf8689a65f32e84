"""Exact coefficient arithmetic.

Everything downstream (linear algebra, Groebner bases, syzygies) is exact.
Over the rationals we use gmpy2.mpq when available; otherwise an element
is a Python int when it is integral and a fractions.Fraction when it is
not, because int arithmetic runs in C while every Fraction operation runs
in Python with a gcd.  An int and a Fraction of equal value compare and
hash alike, so callers never see the difference.  The gmpy2 path keeps
mpq throughout; it is optional.  Without gmpy2 the tests still run its
code (_mpq_rationals) with Fraction as the backend type.
Over GF(p) elements are plain ints reduced mod p.  A Field object bundles
the operations as plain callables so hot loops can bind them to locals
instead of dispatching through methods.
"""

from __future__ import annotations

from fractions import Fraction
from operator import index

try:
    from gmpy2 import mpq as _ratio
except ImportError:  # gmpy2 is optional (the `gmpy2` extra)
    _ratio = Fraction


class Field:
    """A coefficient field presented as a bag of operations.

    Elements are opaque to callers: rationals are mpq under gmpy2, and
    otherwise an int when integral and a Fraction when not (`zero` is the
    int 0, `one` the Fraction 1); GF(p) elements are ints in [0, p).
    `zero` and `one` are constants; `add`, `sub`, `mul`, `neg`, `inv` are
    binary/unary callables; `from_int` embeds an integer; `from_ratio`
    embeds a pair (num, den) of ints with den > 0; `to_str` renders an
    element for output.
    """

    __slots__ = (
        "name", "char", "zero", "one",
        "add", "sub", "mul", "neg", "inv",
        "from_int", "from_ratio", "to_str",
    )

    def __init__(self, name, char, zero, one, add, sub, mul, neg, inv,
                 from_int, from_ratio, to_str):
        self.name = name
        self.char = char
        self.zero = zero
        self.one = one
        self.add = add
        self.sub = sub
        self.mul = mul
        self.neg = neg
        self.inv = inv
        self.from_int = from_int
        self.from_ratio = from_ratio
        self.to_str = to_str

    def __repr__(self):
        return f"Field({self.name})"

    def __eq__(self, other):
        return isinstance(other, Field) and self.name == other.name

    def __hash__(self):
        return hash(self.name)


def _ratio_str(c) -> str:
    num, den = c.numerator, c.denominator
    return str(num) if den == 1 else f"{num}/{den}"


def rationals() -> Field:
    if _ratio is not Fraction:
        return _mpq_rationals()
    # Each result is demoted to an int when integral, checked inline
    # because these run in every reduction loop.  `one` stays a Fraction:
    # the type of `rationals().one` names the backend.

    def add(a, b):
        r = a + b
        return r if r.__class__ is int else \
            (r.numerator if r.denominator == 1 else r)

    def sub(a, b):
        r = a - b
        return r if r.__class__ is int else \
            (r.numerator if r.denominator == 1 else r)

    def mul(a, b):
        r = a * b
        return r if r.__class__ is int else \
            (r.numerator if r.denominator == 1 else r)

    def neg(a):
        r = -a
        return r if r.__class__ is int else \
            (r.numerator if r.denominator == 1 else r)

    def inv(a):
        if a.__class__ is int:
            return a if a == 1 or a == -1 else Fraction(1, a)
        r = 1 / a
        return r.numerator if r.denominator == 1 else r

    def from_ratio(num, den):
        q, rem = divmod(num, den)
        return q if rem == 0 else Fraction(num, den)

    return Field("Q", 0, 0, Fraction(1), add, sub, mul, neg, inv,
                 index, from_ratio, _ratio_str)


def _mpq_rationals() -> Field:
    def add(a, b):
        return a + b

    def sub(a, b):
        return a - b

    def mul(a, b):
        return a * b

    def neg(a):
        return -a

    def inv(a):
        return 1 / a

    def from_ratio(num, den):
        return _ratio(num) / den

    return Field("Q", 0, _ratio(0), _ratio(1), add, sub, mul, neg, inv,
                 _ratio, from_ratio, _ratio_str)


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Miller-Rabin with the prime bases up to 41 is exact below this bound
# (Sorenson and Webster, Math. Comp. 86, 2017).
MAX_MODULUS = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for 0 <= n < MAX_MODULUS."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_field(p: int) -> Field:
    if p >= MAX_MODULUS:
        raise ValueError(f"modulus must be below {MAX_MODULUS}")
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")

    def add(a, b):
        return (a + b) % p

    def sub(a, b):
        return (a - b) % p

    def mul(a, b):
        return (a * b) % p

    def neg(a):
        return (-a) % p

    def inv(a):
        return pow(a, p - 2, p)

    def from_int(n):
        return n % p

    def from_ratio(num, den):
        return (num * pow(den, p - 2, p)) % p

    return Field(f"F{p}", p, 0, 1 % p, add, sub, mul, neg, inv,
                 from_int, from_ratio, str)
