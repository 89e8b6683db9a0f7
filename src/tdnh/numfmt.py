"""The number format of tdnh's outputs: Python's ``'%.17g'``, byte for byte.

``fmt`` formats one float (the report).  ``csv_chunks`` yields the CSV text
of a float array a block of rows at a time, computing the digits in numpy:

* the 17-digit integer D and the decimal exponent X of each value come from
  y = |x| * 10**(16 - X) in double-double arithmetic (Dekker's exact
  product against a hi + lo table of powers of ten), with X first guessed
  by log10 and then moved until floor(y) lies in [10**16, 10**17);
* D is y rounded to the nearest integer, which is proven only where y's
  fraction is more than ``_MARGIN`` from 1/2 (y's error is below 1e-14);
* the text is gathered from each value's digit and constant bytes through
  one table of byte positions per (sign, exponent class, significant
  digits), with zero as its own class; the NUL bytes that pad each field
  to a fixed width are then dropped.

Every nonzero value that path cannot prove -- nan, +-inf, |x| outside
[1e-270, 1e270], and any y within the margin of a tie -- is formatted by
``'%.17g' % x`` itself: the fast path plus exact fallback of Loitsch's
Grisu3 (PLDI 2010).
"""

from __future__ import annotations

import functools
from typing import Iterator

import numpy as np

__all__ = ["NUMBER", "fmt", "csv_chunks"]

NUMBER = "%.17g"

_CHUNK_ROWS = 256
_MIN, _MAX = 1e-270, 1e270          # the fast path's magnitudes
_P_LO, _P_HI = -256, 290            # 16 - X over those magnitudes, with room for X's guess
_MARGIN = 1e-9
_SPLIT = 134217729.0                # 2**27 + 1, Dekker's splitter

# A value's source bytes, 32 per value, written as 32-bit words:
# words 0-3 hold digits 1-16 and word 4 digit 0 (four-digit groups by
# table lookup), word 5 the three exponent digits, words 6-7 the constants
# and the separator; byte 30 is NUL, which pads every field to _WIDTH.
_SOURCE = 32
_D0, _EXP = 16, 20
_DIGITS = [_D0, *range(16)]         # source byte of digit i
_MINUS, _DOT, _E, _PLUS, _ZERO, _SEP, _NUL = range(24, 31)
_CONSTANTS = b"-.e+0"
_WIDTH = 25                         # longest field: "-1.2345678901234567e-300" plus separator
_FIXED = range(-4, 17)              # exponents that %g writes without an exponent
_ZERO_CLASS = len(_FIXED) + 4       # after the fixed classes and the four exponent classes
_X_MAX = 400                        # bound on |X| of the class and exponent tables


def fmt(x: float) -> str:
    return NUMBER % float(x)


def _split(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    t = v * _SPLIT
    hi = t - (t - v)
    return hi, v - hi


@functools.cache
def _powers() -> tuple[np.ndarray, ...]:
    """10**p for p in [_P_LO, _P_HI] as hi + lo, each correctly rounded
    (Python's int / int division is), with hi pre-split for the exact product."""
    hi, lo = [], []
    for p in range(_P_LO, _P_HI + 1):
        num, den = (10 ** p, 1) if p >= 0 else (1, 10 ** -p)
        h = num / den
        m, d = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * d - m * den) / (den * d))
    hi, lo = np.array(hi), np.array(lo)
    return (hi, *_split(hi), lo)


def _template(cls: int, sig: int) -> list[int]:
    """Source byte positions of one positive value's field with ``sig``
    significant digits, separator included."""
    out = []
    if cls == _ZERO_CLASS:
        out.append(_ZERO)
    elif cls < len(_FIXED):
        x = _FIXED[cls]
        if x >= 0:
            out += _DIGITS[:x + 1]
            if sig > x + 1:
                out += [_DOT, *_DIGITS[x + 1:sig]]
        else:
            out += [_ZERO, _DOT] + [_ZERO] * (-x - 1) + _DIGITS[:sig]
    else:
        negative_exp, three = divmod(cls - len(_FIXED), 2)
        out.append(_D0)
        if sig > 1:
            out += [_DOT, *_DIGITS[1:sig]]
        out += [_E, _MINUS if negative_exp else _PLUS]
        out += range(_EXP + 1 - three, _EXP + 3)
    return out + [_SEP]


def _words(count: int, width: int) -> np.ndarray:
    """The 32-bit words of 0 .. count - 1 in ASCII, zero-padded to ``width``
    digits and NUL-padded to four bytes."""
    text = np.zeros((count, 4), np.uint8)
    text[:, :width] = np.arange(count)[:, None] // 10 ** np.arange(width - 1, -1, -1) % 10
    text[:, :width] += ord("0")
    return text.view(np.uint32).ravel()


@functools.cache
def _tables() -> tuple[np.ndarray, ...]:
    """Lookup tables: the byte positions of every field (NUL-padded to
    _WIDTH) by key, the key's class part by X, and the words and trailing
    zero counts of four-digit groups, leading digits and exponents."""
    classes = np.array([_FIXED.index(x) if x in _FIXED
                        else len(_FIXED) + 2 * (x < 0) + (abs(x) >= 100)
                        for x in range(-_X_MAX, _X_MAX + 1)])
    positions = np.full((2, _ZERO_CLASS + 1, 18, _WIDTH), _NUL, np.intp)
    for cls in range(_ZERO_CLASS + 1):
        for sig in range(18):
            t = _template(cls, sig)
            positions[0, cls, sig, :len(t)] = t
    positions[1, ..., 0] = _MINUS
    positions[1, ..., 1:] = positions[0, ..., :-1]
    groups = np.arange(10000)
    return (positions.reshape(-1, _WIDTH), classes * 18,
            _words(10000, 4),
            sum((groups % 10 ** k == 0).astype(np.int64) for k in range(1, 5)),
            _words(10, 1), _words(_X_MAX + 1, 3))


def _scaled(a: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """floor(y) as int64 and y's fraction, for y = a * 10**(16 - x)."""
    hi, hi_h, hi_l, lo = (t[16 - _P_LO - x] for t in _powers())
    a_h, a_l = _split(a)
    prod = a * hi
    err = ((a_h * hi_h - prod) + a_h * hi_l + a_l * hi_h) + a_l * hi_l
    whole = np.floor(prod)
    rest = (prod - whole) + (err + a * lo)
    carry = np.floor(rest)
    return whole.astype(np.int64) + carry.astype(np.int64), rest - carry


def _off_range(d: np.ndarray, frac: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where y = d + frac lies below or above [10**16, 10**17).  A y within
    the margin below 10**16 counts as in range: it rounds up to 10**16,
    and 10 y rounds up to 10**17 at the exponent below, the same digits."""
    low = (d < 10 ** 16 - 1) | ((d == 10 ** 16 - 1) & (frac < 1 - _MARGIN))
    return low, d >= 10 ** 17


def _digits(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(D, X, proven) for positive magnitudes a in [_MIN, _MAX]: a rounds to
    D * 10**(X - 16) with 10**16 <= D < 10**17 wherever proven."""
    x = np.floor(np.log10(a)).astype(np.int64)
    d, frac = _scaled(a, x)
    for _ in range(2):
        low, high = _off_range(d, frac)
        moved = np.flatnonzero(low | high)
        if not moved.size:
            break
        x[moved] += high[moved].astype(np.int64) - low[moved]
        d[moved], frac[moved] = _scaled(a[moved], x[moved])
    # only a tie's neighbourhood is in doubt: near an integer, y rounds the
    # same way whichever side of it y lies
    low, high = _off_range(d, frac)
    proven = (np.abs(frac - 0.5) > _MARGIN) & ~low & ~high
    d += frac > 0.5
    top = d == 10 ** 17   # carried to the digits that the next exponent gives
    d[top] = 10 ** 16
    x += top
    d[~proven] = 10 ** 16   # in range for the digit tables; the oracle formats these
    return d, x, proven


def _fields(values: np.ndarray, src: np.ndarray) -> np.ndarray:
    """Each value's text and separator, NUL-padded: bytes (n, _WIDTH).
    ``src`` is the (n, _SOURCE) source buffer, constants already written."""
    n = values.size
    a = np.abs(values)
    fast = (a >= _MIN) & (a <= _MAX)   # False on nan
    d = np.full(n, 10 ** 16, np.int64)
    x = np.zeros(n, np.int64)
    d[fast], x[fast], proven = _digits(a[fast])
    fast[fast] = proven

    positions, class_keys, group_words, group_zeros, lead_words, exp_words = _tables()
    upper, lower = np.divmod(d, 10 ** 8)
    lead, upper = np.divmod(upper, 10 ** 8)
    groups = (*np.divmod(upper, 10 ** 4), *np.divmod(lower, 10 ** 4))
    words = src.view(np.uint32)
    for w, g in enumerate(groups):
        words[:, w] = group_words.take(g)
    words[:, _D0 // 4] = lead_words.take(lead)
    words[:, _EXP // 4] = exp_words.take(np.abs(x))
    zeros = np.zeros(n, np.int64)
    for k, g in enumerate(groups[::-1]):   # trailing zeros, while the later groups are 0
        zeros += group_zeros.take(g) * (zeros == 4 * k)
    sig = 17 - zeros

    key = class_keys.take(x + _X_MAX) + sig
    key[values == 0] = _ZERO_CLASS * 18
    key += np.signbit(values) * ((_ZERO_CLASS + 1) * 18)
    index = positions.take(key, axis=0)
    index += (np.arange(n) * _SOURCE)[:, None]
    out = src.ravel().take(index)

    for i in np.flatnonzero(~fast & (values != 0)):
        text = np.frombuffer(fmt(values[i]).encode(), np.uint8)
        out[i] = 0
        out[i, :text.size] = text
        out[i, text.size] = src[i, _SEP]
    return out


def csv_chunks(series: np.ndarray) -> Iterator[str]:
    """The CSV lines of a 2-D array, ``'%.17g'`` fields joined by ``,``,
    as text of up to ``_CHUNK_ROWS`` lines each."""
    series = np.asarray(series, dtype=float)
    src = np.zeros((min(_CHUNK_ROWS, series.shape[0]), series.shape[1], _SOURCE), np.uint8)
    src[..., _MINUS:_SEP] = np.frombuffer(_CONSTANTS, np.uint8)
    src[..., _SEP] = ord(",")
    src[:, -1, _SEP] = ord("\n")
    src = src.reshape(-1, _SOURCE)
    for start in range(0, series.shape[0], _CHUNK_ROWS):
        values = series[start:start + _CHUNK_ROWS].ravel()
        text = _fields(values, src[:values.size]).tobytes().translate(None, b"\0")
        yield text.decode("ascii")
