"""Sparse integer Laurent polynomials in one variable v.

Coefficients are Python ints (exact, unbounded); zero coefficients are never
stored, so equality of the coefficient dicts is equality of polynomials.

>>> p = LaurentPoly.v() + LaurentPoly.const(2)
>>> print(p * p)
4 + 4*v + v^2
>>> print(p.bar())
v^-1 + 2
"""

from __future__ import annotations


class LaurentPoly:
    """Immutable-by-convention sparse Laurent polynomial."""

    __slots__ = ("c",)

    def __init__(self, coeffs=None):
        self.c = {k: v for k, v in (coeffs or {}).items() if v}

    # -- constructors ---------------------------------------------------

    @classmethod
    def const(cls, n: int) -> "LaurentPoly":
        return cls({0: n})

    @classmethod
    def v(cls, exp: int = 1, coeff: int = 1) -> "LaurentPoly":
        return cls({exp: coeff})

    # -- ring structure ---------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self.c)
        for k, v in other.c.items():
            n = out.get(k, 0) + v
            if n:
                out[k] = n
            else:
                out.pop(k, None)
        return _clean(out)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self.c)
        for k, v in other.c.items():
            n = out.get(k, 0) - v
            if n:
                out[k] = n
            else:
                out.pop(k, None)
        return _clean(out)

    def __neg__(self) -> "LaurentPoly":
        return _clean({k: -v for k, v in self.c.items()})

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        out: dict[int, int] = {}
        for k1, v1 in self.c.items():
            for k2, v2 in other.c.items():
                k = k1 + k2
                n = out.get(k, 0) + v1 * v2
                if n:
                    out[k] = n
                else:
                    out.pop(k, None)
        return _clean(out)

    def scale(self, n: int) -> "LaurentPoly":
        if n == 0:
            return LaurentPoly()
        return _clean({k: n * v for k, v in self.c.items()})

    def shift(self, exp: int) -> "LaurentPoly":
        """Multiply by v^exp."""
        return _clean({k + exp: v for k, v in self.c.items()})

    # -- queries --------------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, LaurentPoly) and self.c == other.c

    def __hash__(self):
        return hash(frozenset(self.c.items()))

    def __bool__(self):
        return bool(self.c)

    def bar(self) -> "LaurentPoly":
        """The involution v -> v^{-1}."""
        return _clean({-k: v for k, v in self.c.items()})

    def at_one(self) -> int:
        """Evaluate at v = 1."""
        return sum(self.c.values())

    def __str__(self):
        if not self.c:
            return "0"
        bits = []
        for k in sorted(self.c):
            v = self.c[k]
            if k == 0:
                bits.append(f"{v}")
            elif k == 1:
                bits.append("v" if v == 1 else f"{v}*v")
            else:
                bits.append(f"v^{k}" if v == 1 else f"{v}*v^{k}")
        return " + ".join(bits).replace("+ -", "- ")

    def __repr__(self):
        return f"LaurentPoly({self.c!r})"

    # -- wire format ----------------------------------------------------------

    def serialize(self) -> str:
        """Canonical text form ``c*v^k`` joined by ``+`` (exact round-trip)."""
        if not self.c:
            return "0"
        return "+".join(f"{self.c[k]}*v^{k}" for k in sorted(self.c))

    @classmethod
    def deserialize(cls, s: str) -> "LaurentPoly":
        s = s.strip()
        if s == "0":
            return cls()
        out = {}
        for term in s.split("+"):
            coeff, _, exp = term.partition("*v^")
            if not exp:
                raise ValueError(f"bad Laurent term {term!r}")
            out[int(exp)] = out.get(int(exp), 0) + int(coeff)
        return cls(out)


def _clean(coeffs: dict) -> LaurentPoly:
    """Wrap a coefficient dict that holds no zero, as is: the constructor
    for results of the ring operations, which never store one."""
    out = object.__new__(LaurentPoly)
    out.c = coeffs
    return out


ZERO = LaurentPoly()
ONE = LaurentPoly.const(1)
V = LaurentPoly.v()
VINV = LaurentPoly.v(-1)
