"""C printf's "%.12g" and "%.2f" of float arrays, byte for byte, in numpy.

emit writes every CSV row through csv_blocks, and svg the polyline
through f2_points.  Each cell is built as 64-bit words of ASCII bytes,
NUL where a byte is unused, and the cells are joined by deleting the
NULs; csv_blocks builds every block of a curve in one bytearray, so one
translate drops a block's NULs.
Digits come four at a time from a table of the 10,000 four-digit groups.
A value's digits are rint of the value scaled by a power of ten.  A slow
cell, one that this cannot be shown to round as C does (nan, inf, a
magnitude the scaling cannot reach, or a value within TIE_GUARD of a
rounding tie), is written as its own '%.12g' text, NUL-padded into its
three words.

A '%.12g' cell takes three words, 24 bytes; the longest cell,
"-1.23456789012e-100,", takes 20.  Bytes 4 to 19 hold the sixteen digits,
four groups from the table, of an integer that spells the cell's twelve
digits with a zero where the point goes: the digits n become
n + 9 q floor(n / q), q the power of ten below the point, times 100 in
exponent notation to leave bytes 18 to 22 to the exponent.  Three words
from a table keyed by the cell's notation, sign and count of trailing
zero digits are XORed over the digits: they write the sign, "0." and
the point, clear every digit the cell does not print, and end the cell
with a comma, which g12_rows turns into a newline at the end of a row.
The exponent is ORed in last.  A sweep's frames share their energy
column, so run_sweep formats its cells once (column_words) and
csv_blocks copies their words into every block of every frame.
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

# Each cell's decimal exponent d picks a row of the tables below, at
# _ROW0 + d; _ZERO is the row of zeros and of the slow cells, whose
# words _g12_words then overwrites.
_ROW0, _ZERO = 330, 659
_D = np.arange(_ZERO + 1) - _ROW0
#: x * _MUL[row], the correctly rounded 10**(11 - d), brings x's twelve
#: digits before the point.
_MUL = np.array([f"1e{k}" for k in np.clip(11 - _D, -298, 308)]).astype(float)
# fixed notation for -4 <= d < 12, exponent notation otherwise
_FIXED = (_D >= -4) & (_D < 12)
#: Per row: q, the power of ten below the digits before the point (all
#: twelve follow it for d < 0, one leads it in exponent notation); the
#: digits' integer n * scale + floor(n / q) * spread, that spreads in the
#: point's zero and moves exponent notation two places left; and the
#: row's first key into _XOR, 34 times its notation: d + 4 in fixed
#: notation, 16 in exponent notation.
_ROWS = np.zeros(_ZERO + 1, [("q", float), ("scale", float), ("spread", float),
                             ("key", np.intp)])
_ROWS["q"] = POW10[12 - np.where(_FIXED, np.maximum(_D + 1, 0), 1)]
_ROWS["scale"] = np.where(_FIXED, 1.0, 100.0)
_ROWS["key"] = 34 * np.where(_FIXED, _D + 4, 16)
_ROWS[_ZERO] = (1.0, 0.0, 0.0, 34 * 4)
_ROWS["spread"] = 9 * _ROWS["q"] * _ROWS["scale"]
#: _EXP[row]: "e-05", "e+100" and the like at bytes 18 to 22 of a cell.
_A = np.abs(_D)
_EXP = np.where(_FIXED, _U64(0),
                (_U64(ord("e"))
                 | np.where(_D < 0, _U64(ord("-")), _U64(ord("+"))) << _U64(8)
                 | DIGITS[np.minimum(_A, 9999)]
                 >> np.where(_A < 100, _U64(16), _U64(8)) << _U64(16)) << _U64(16))
_EXP[_ZERO] = 0
#: The digits' integer divided into four groups, at bytes 4-7, 8-11,
#: 12-15 and 16-19 of a cell.  _LAST_ZEROS[group] + _AFTER is the count
#: of trailing zero digits if that group is the last nonzero one: the
#: least over the groups counts the cell's, 16 when all are zero.
_SPLIT = np.array([[1e12], [1e8], [1e4], [1.0]])
_LAST_ZEROS = TRAILING0.copy()
_LAST_ZEROS[0] = 16
_AFTER = np.array([[12], [8], [4], [0]], np.int8)


def _xor_table() -> np.ndarray:
    """The words XORed over a cell's three, one row per notation, sign
    and count of trailing zeros among its sixteen digits.

    Bytes 0-3 and 20-23 of a cell hold NUL, bytes 4-19 its digits.  The
    row keeps the digits the cell prints, turns the point's zero into
    ".", writes the sign (and "0." for |x| < 1) just before the first
    digit printed, clears every other digit, and ends the cell with a
    comma.
    """
    small = np.int16
    notation = np.arange(17, dtype=small)[:, None, None, None]
    negative = np.arange(2, dtype=small)[:, None, None]
    last = 15 - np.arange(17, dtype=small)[:, None]   # the last nonzero digit
    byte = np.arange(24, dtype=small)
    char = byte - 4
    d = notation - 4
    fixed_small, sci = d < 0, notation == 16
    first = np.where(sci, 1, np.where(fixed_small, 5 + d, 3))
    point = np.where(fixed_small, -1, np.where(sci, 2, 4 + d))   # the point's zero
    shown = (char >= first) & (char <= np.where(last > point, last, point - 1))
    sign = negative * small(ord("-"))
    want = np.where(char == first - 1, np.where(fixed_small, small(ord(".")), sign), 0)
    want = np.where(fixed_small & (char == first - 2), ord("0"), want)
    want = np.where(fixed_small & (char == first - 3), sign, want)
    want = np.where(byte == 23, ord(","), want)
    held = ((byte >= 4) & (byte < 20)) * small(ord("0"))
    # a digit shown stays, but the point's zero becomes "."
    xor = np.where(shown, (char == point) * small(ord(".") ^ ord("0")), want ^ held)
    return xor.astype(np.uint8).reshape(-1, 24).view(_U64)


#: _XOR[key of the row + 17 * sign + trailing zeros]: a cell's XORed words.
_XOR = _xor_table()
#: "." at byte 4 of a polyline coordinate, then the comma after an x and
#: the space after a y at byte 7
F2_SEPARATORS = np.array([ord(".") << 32 | ord(",") << 56,
                          ord(".") << 32 | ord(" ") << 56], _U64)


#: Rows formatted together.  A block's words take 86 kB, in one buffer
#: per curve; streaming the 20k-row reference curve peaks near 0.6 MB.
_BLOCK_ROWS = 512
#: Turns the comma at byte 7 of a cell's last word into a newline.
_NEWLINE = _U64((ord(",") ^ ord("\n")) << 56)


def column_words(column: np.ndarray) -> np.ndarray:
    """The words of the '%.12g' cells of one column, for csv_blocks to
    take as the first column of every block.  The cells are formatted as
    many at a time as a block holds."""
    words = np.empty((len(column), 3), _U64)
    for start in range(0, len(column), 7 * _BLOCK_ROWS):
        part = slice(start, start + 7 * _BLOCK_ROWS)
        _g12_words(column[part], words[part])
    return words


def csv_blocks(columns: tuple[np.ndarray, ...],
               first: "np.ndarray | None" = None) -> Iterator[bytes]:
    """'%.12g' CSV lines of seven equally long float columns, a block of
    _BLOCK_ROWS rows at a time, each yielded before the next is formatted.
    Every block's values and words go into one array and one buffer,
    allocated before the first.  `first`, from column_words(columns[0]),
    holds the first column's cells already formatted, and no block
    formats them again."""
    rows = len(columns[0])
    given = 0 if first is None else 1
    block = np.empty((min(rows, _BLOCK_ROWS), 7 - given))
    buffer = bytearray(7 * 24 * len(block))
    for start in range(0, rows, _BLOCK_ROWS):
        part = slice(start, min(start + _BLOCK_ROWS, rows))
        values = np.stack([c[part] for c in columns[given:]], axis=1,
                          out=block[:part.stop - start])
        yield g12_rows(values, buffer, None if first is None else first[part])


def g12_rows(block: np.ndarray, buffer: bytearray,
             first: "np.ndarray | None" = None) -> bytes:
    """'%.12g' CSV lines of a (rows, 7) float block, or of a (rows, 6)
    block after a first column given as its words.

    The cells' words are written into `buffer`, 7 * 24 bytes a row, and
    its bytes past the block's words are zeroed, so that deleting the
    NULs of the whole buffer leaves the block's text: one buffer of the
    largest block serves every block of a curve.
    """
    rows = len(block)
    words = np.frombuffer(buffer, _U64).reshape(-1, 7, 3)
    words[rows:] = 0
    words = words[:rows]
    if first is None:
        _g12_words(block.ravel(), words.reshape(-1, 3))
    else:
        rest = np.empty((rows, 6, 3), _U64)
        _g12_words(block.ravel(), rest.reshape(-1, 3))
        np.concatenate((first[:, None], rest), axis=1, out=words)
    words[:, 6, 2] ^= _NEWLINE
    # bytes.translate is faster than bytearray.translate, even with the copy
    return bytes(buffer).translate(None, b"\0")


def _decimal(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(row, n, slow): each cell's row of the tables (_ROW0 plus its
    decimal exponent, or _ZERO for a zero or slow cell), its twelve
    digits as an integer, and whether '%.12g' must write it.

    A finite cell with 1e-296 <= |x| <= 1e308 takes its exponent d from
    log10, corrected against x * 10**(11 - d): the correctly rounded
    power and the product make two roundings.  rint of that value gives
    C's twelve digits unless it lies within TIE_GUARD of a half.
    """
    a = np.abs(x)
    zero = a == 0
    near = np.fmax(np.fmin(a, 1e308), 1e-296)
    # log10 + _ROW0 is positive, so the cast floors it
    row = (np.log10(near) + _ROW0).astype(np.intp)
    s = near * _MUL.take(row)
    if s.min() < 1e11 or s.max() >= 1e12:
        row += s >= 1e12
        row -= s < 1e11
        s = near * _MUL.take(row)
    n = np.rint(s)
    carry = n == 1e12
    row += carry
    n[carry] = 1e11
    special = (np.abs(s - n) > 0.5 - TIE_GUARD) | (near != a)
    return np.where(special, _ZERO, row), n, special ^ zero


def _g12_words(x: np.ndarray, words: np.ndarray) -> None:
    """Write the three words of each '%.12g' cell of the 1-d x into the
    rows of `words`, of shape (x.size, 3).  A slow cell's words hold its
    own '%.12g' text, at most 19 bytes, NULs, and the comma at byte 23."""
    with np.errstate(all="ignore"):
        row, n, slow = _decimal(x)
    rows = _ROWS.take(row)
    digits = n * rows["scale"] + np.floor(n / rows["q"]) * rows["spread"]
    key = rows["key"] + 17 * np.signbit(x)
    # each array goes once used: a block's arrays set a sweep's peak memory
    del rows
    # the quotients are positive, so the cast floors them
    groups = (digits / _SPLIT).astype(np.intp)
    groups[1:] -= 10_000 * groups[:-1]
    quarters = DIGITS.take(groups)
    quarters[::2] <<= _U64(32)
    key += (_LAST_ZEROS.take(groups) + _AFTER).min(axis=0)
    del groups
    xor = _XOR.take(key, axis=0)
    np.bitwise_xor(quarters[0], xor[:, 0], out=words[:, 0])
    quarters[1] |= quarters[2]
    np.bitwise_xor(quarters[1], xor[:, 1], out=words[:, 1])
    quarters[3] ^= xor[:, 2]
    np.bitwise_or(quarters[3], _EXP.take(row), out=words[:, 2])
    if slow.any():
        text = b"".join((b"%.12g" % v).ljust(23, b"\0") + b"," for v in x[slow].tolist())
        words[slow] = np.frombuffer(text, _U64).reshape(-1, 3)


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
    text = words.tobytes().translate(None, b"\0")
    if slow.any():
        text %= tuple(v[slow].tolist())
    return text[:-1].decode("ascii")
