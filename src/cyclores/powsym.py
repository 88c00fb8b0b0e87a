"""p-th power residue symbols, recorded as exponents modulo p.

The symbol of alpha at a prime ideal q_K above q is the unique p-th root
of unity congruent to alpha^((N(q_K)-1)/p) mod q_K, N(q_K) = q^f.  We
work with its exponent e in [0, p): the multiplicative value is zeta^e,
so e = 0 is the trivial symbol (written "= 1" in multiplicative
notation), and symbols compose additively,
symbol(a*b) = symbol(a) + symbol(b) mod p.

Every symbol is one power map on a residue-field value (see
``resfield``: an int at f = 1, a length-f tuple beyond) followed by a
lookup of the result among the powers of w; ``residue_symbol`` does
both, and ``symbol`` feeds it the residue of an element of Z[zeta].

The symbol depends on the choice of ideal above q (equivalently on the
root w), so the ideal is always an explicit argument.  Symbols beyond
residue degree 1 are supported for f <= 4 with q^f below 2^128; larger
fields are rejected rather than silently mishandled.
"""

from __future__ import annotations

from .cycint import CycInt, InternalError
from .resfield import Q_MAX, PrimeIdealRep, _fpow, residue

__all__ = [
    "NotCoprimeError",
    "UnsupportedIdealError",
    "symbol",
    "residue_symbol",
    "zeta_symbol",
]


class NotCoprimeError(ValueError):
    """The element reduces to zero modulo the ideal."""


class UnsupportedIdealError(ValueError):
    """Symbol computation is limited to f <= 4 with q^f < 2^128."""


def _check_supported(ideal: PrimeIdealRep) -> None:
    if ideal.f > 4 or ideal.q**ideal.f >= Q_MAX:
        raise UnsupportedIdealError(
            f"residue degree f={ideal.f} over q={ideal.q} is out of the supported range"
        )


def symbol(a: CycInt, ideal: PrimeIdealRep) -> int:
    """Exponent e with a^((q^f-1)/p) = w^e modulo the ideal."""
    return residue_symbol(ideal, residue(a, ideal))


def residue_symbol(ideal: PrimeIdealRep, r: int | tuple[int, ...]) -> int:
    """Symbol exponent of any element whose residue at the ideal is r."""
    _check_supported(ideal)
    q, f = ideal.q, ideal.f
    if not (r if f == 1 else any(r)):
        raise NotCoprimeError("element is not coprime to the ideal")
    if f == 1:
        r = pow(r, ideal.euler_exponent, q)
    else:
        r = _fpow(r, ideal.euler_exponent, ideal.field_modulus, q, f)
    e = ideal._dlog.get(r)
    if e is None:
        raise InternalError("symbol value is not a power of w; broken ideal data")
    return e


def zeta_symbol(ideal: PrimeIdealRep) -> int:
    """Symbol exponent of zeta itself: (q^f - 1)/p reduced mod p."""
    _check_supported(ideal)
    return ideal.euler_exponent % ideal.ctx.p
