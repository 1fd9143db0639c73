"""C printf's "%.12g" and "%.2f" of float arrays, byte for byte, in numpy.

emit writes every CSV row through csv_blocks, and svg the polyline
through f2_points.  Each cell is built as 64-bit words of ASCII bytes,
NUL where a byte is unused, and the cells are joined by deleting the
NULs; csv_blocks builds every block of a curve in one bytearray, so one
bytearray.translate drops a block's NULs, with no copy of the words.
Digits come four at a time from a table of the 10,000 four-digit groups.
A value's digits are rint of the value scaled by a power of ten.  A cell
that this cannot be shown to round as C does (nan, inf, a magnitude the
scaling cannot reach, or a value within TIE_GUARD of a rounding tie)
holds the printf template itself, and bytes formatting fills it in.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

#: A scaled value whose fraction lies this close to 0.5 may round either
#: way after the scaling's roundings (error below 2.3e-4), so C decides.
TIE_GUARD = 1e-3

_U64 = np.uint64
#: DIGITS[v]: the four ASCII digits of v, leading zeros included, in the
#: low bytes of a word.
_BYTES = np.zeros((10, 10, 10, 10, 8), np.uint8)
for _place in range(4):
    _BYTES[..., _place] = np.arange(48, 58).reshape((10,) + (1,) * (3 - _place))
DIGITS = _BYTES.view(_U64).reshape(10_000)
#: TRAILING0[v]: trailing zero digits of v written with four, 4 for 0.
TRAILING0 = sum((np.arange(10_000) % 10**k == 0).astype(np.int8) for k in range(1, 5))
#: POW10[k] = 10.0**k, parsed from decimal literals, so correctly rounded.
POW10 = np.array([f"1e{k}" for k in range(309)]).astype(float)
#: LOW[k] keeps the low k bytes of a word.
LOW = np.array([(1 << 8 * k) - 1 for k in range(9)], _U64)
#: POINT[k] is "." at byte k; POINT[4] is no point.
POINT = np.array([ord(".") << 8 * k for k in range(4)] + [0], _U64)
#: CUT[w] keeps the first w of twelve digits written as three groups.
CUT = LOW[np.clip(np.arange(13)[:, None] - (0, 4, 8), 0, 4)]
#: HEADS[5 * negative + z]: the sign, then for d = -z < 0 "0." and z - 1 zeros.
HEADS = np.array([int.from_bytes(sign + (b"0." + b"0" * (z - 1) if z else b""),
                                 "little")
                  for sign in (b"", b"-") for z in range(5)], _U64)
#: EXPONENTS[d + 330] spells "e-05", "e+100" and the like.
_D = np.arange(-330, 330)
EXPONENTS = (_U64(ord("e"))
             | np.where(_D < 0, _U64(ord("-")), _U64(ord("+"))) << _U64(8)
             | DIGITS[np.abs(_D)] >> np.where(np.abs(_D) < 100, _U64(16), _U64(8))
             << _U64(16))
#: Bytes of words a CSV row takes: seven cells of five words.
ROW_BYTES = 7 * 5 * 8
#: byte 6 of a CSV cell's last word: a comma, or a newline ending a row
CSV_SEPARATORS = np.array([ord(",")] * 6 + [ord("\n")], _U64) << _U64(48)
#: "." at byte 4 of a polyline coordinate, then the comma after an x and
#: the space after a y at byte 7
F2_SEPARATORS = np.array([ord(".") << 32 | ord(",") << 56,
                          ord(".") << 32 | ord(" ") << 56], _U64)


def _join(raw: "bytes | bytearray", template: bytes, values: np.ndarray,
          slow: np.ndarray) -> "bytes | bytearray":
    """The words' bytes `raw` without their NULs.  A slow cell's words hold
    `template`, which bytes formatting fills with its value."""
    text = raw.translate(None, b"\0")
    return text % tuple(values[slow].tolist()) if slow.any() else text


#: Rows formatted together.  A block's words take 140 kB, in one buffer
#: per curve; streaming the 20k-row reference curve peaks near 0.66 MB.
_BLOCK_ROWS = 512


def csv_blocks(columns: tuple[np.ndarray, ...]) -> Iterator[bytearray]:
    """'%.12g' CSV lines of seven equally long float columns, a block of
    _BLOCK_ROWS rows at a time, each yielded before the next is formatted.
    Every block's words go into one buffer, allocated before the first."""
    rows = len(columns[0])
    buffer = bytearray(ROW_BYTES * min(rows, _BLOCK_ROWS))
    for start in range(0, rows, _BLOCK_ROWS):
        block = np.stack([c[start:start + _BLOCK_ROWS] for c in columns], axis=1)
        yield g12_rows(block, buffer)


def g12_rows(block: np.ndarray, buffer: bytearray) -> bytearray:
    """'%.12g' CSV lines of a (rows, 7) float block.

    The cells' words are written into `buffer`, ROW_BYTES a row, and its
    bytes past the block's words are zeroed, so that deleting the NULs of
    the whole buffer leaves the block's text: one buffer of the largest
    block serves every block of a curve.
    """
    x = block.ravel()
    with np.errstate(all="ignore"):
        d, groups, slow = _decimal(x)
    words = np.frombuffer(buffer, _U64).reshape(-1, 5)
    words[x.size:] = 0
    words = _g12_words(x, d, groups, words[:x.size])
    words[slow] = (int.from_bytes(b"%.12g", "little"), 0, 0, 0, 0)
    words.reshape(block.shape + (5,))[..., 4] |= CSV_SEPARATORS
    return _join(buffer, b"%.12g", x, slow)


def _decimal(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(d, groups, slow): each cell's decimal exponent, its twelve digits
    as three four-digit groups, and whether '%.12g' must write it.

    A finite cell with |x| >= 1e-296 takes d from log10, corrected against
    x * 10**(11 - d): the correctly rounded power and the product (or
    quotient) make two roundings.  rint of that value gives C's twelve
    digits unless it lies within TIE_GUARD of a half.  Zero is the digits
    0 at exponent 0.
    """
    a = np.abs(x)
    zero = a == 0
    fast = (a >= 1e-296) & np.isfinite(a)
    a = np.where(fast, a, 1.0)
    d = np.floor(np.log10(a)).astype(np.intp)

    def scaled(d: np.ndarray) -> np.ndarray:
        return a * POW10[np.maximum(11 - d, 0)] / POW10[np.maximum(d - 11, 0)]

    s = scaled(d)
    low, high = s < 1e11, s >= 1e12
    if low.any() or high.any():
        d = d - low + high
        s = scaled(d)
    n = np.rint(s)
    slow = ~(fast | zero) | (np.abs(np.abs(s - n) - 0.5) < TIE_GUARD)
    carry = n == 1e12
    d += carry
    n = np.where(zero, 0.0, np.where(carry, 1e11, n))
    # n is an integer below 1e12: no quotient rounds across an integer
    hi, upper = np.floor(n / 1e8), np.floor(n / 1e4)
    groups = np.empty((x.size, 3), np.intp)
    groups[:, 0], groups[:, 1], groups[:, 2] = hi, upper - hi * 1e4, n - upper * 1e4
    return d, groups, slow


def _g12_words(x: np.ndarray, d: np.ndarray, groups: np.ndarray,
               words: np.ndarray) -> np.ndarray:
    """Five words per cell, written into `words` (cells, 5): sign and
    leading "0.000", three four-digit groups with the point inserted, and
    the exponent."""
    hi, mid, lo = groups.T
    trailing = np.where(lo != 0, TRAILING0[lo],
                        4 + np.where(mid != 0, TRAILING0[mid], 4 + TRAILING0[hi]))
    kept = 12 - trailing
    # %g: fixed notation for -4 <= d < 12, with the point after digit d;
    # otherwise the point after the first digit and an exponent
    sci = (d < -4) | (d >= 12)
    point = np.where(sci, 0, d)
    words[:, 0] = HEADS.take(5 * np.signbit(x) + np.maximum(-point, 0))
    # digits written: the significant ones, and the integer part in full
    digits = DIGITS.take(groups)
    digits &= CUT.take(np.maximum(kept, point + 1), axis=0)
    words[:, 1:4] = digits
    # the point goes before digit point + 1, when there is such a digit:
    # byte (point + 1) % 4 of group (point + 1) // 4
    has_point = (kept > point + 1) & (point >= 0)
    at = point + 1
    slot = 5 * np.arange(x.size) + 1 + np.where(has_point, at >> 2, 0)
    byte = np.where(has_point, at & 3, 4)
    group, keep = words.ravel().take(slot), LOW.take(byte)
    words.ravel()[slot] = (group & keep) | (group & ~keep) << _U64(8) | POINT.take(byte)
    words[:, 4] = np.where(sci, EXPONENTS[d + 330], _U64(0))
    return words


def f2_points(xs: np.ndarray, ys: np.ndarray) -> str:
    """'%.2f,%.2f' of each point (x, y), the points joined by spaces.

    A coordinate v in [0, 10000) is rint(100 v) hundredths, one word each:
    up to four digits, the point, two digits, the separator.  The others,
    and any v whose 100 v lies within TIE_GUARD of a half, go through
    '%.2f' itself.
    """
    v = np.stack((xs, ys), axis=1).ravel()
    with np.errstate(all="ignore"):
        hundred = v * 100
        cents = np.rint(hundred)
        slow = (np.signbit(v) | ~(cents < 1e6)
                | (np.abs(np.abs(hundred - cents) - 0.5) < TIE_GUARD))
    cents[slow] = 0
    whole = np.floor(cents / 100)
    whole, cents = whole.astype(np.intp), (cents - 100 * whole).astype(np.intp)
    leading = (whole < 10).astype(np.intp) + (whole < 100) + (whole < 1000)
    words = (DIGITS.take(whole) & ~LOW.take(leading)
             | DIGITS.take(cents) >> _U64(16) << _U64(40))
    words.reshape(-1, 2)[:] |= F2_SEPARATORS
    words[slow] = int.from_bytes(b"%.2f", "little") | (words[slow] & _U64(0xFF << 56))
    return _join(words.tobytes(), b"%.2f", v, slow)[:-1].decode("ascii")
