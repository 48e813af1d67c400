"""CSV text of a float64 table, each value printed as "%.17g" prints it.

csv_text(table) returns the bytes "%.17g" would give value by value, with
no Python call per value on the fast path.  For each value x:

- k = floor(log10|x|) is estimated, and 10^(16-k) is looked up as a pair
  of doubles (hi, lo) with hi + lo = 10^(16-k) to about 2^-106, both
  built from exact integer ratios for the exponents a table needs;
- V = |x| 10^(16-k) is formed as p + t, where p + e = |x| hi exactly by
  Dekker's TwoProduct (Veltkamp splitting, no fused multiply-add) and
  t = e + |x| lo, so V is known to about 1e-15 and n17 = p + rint(t)
  is the correctly rounded 17-digit integer of |x|;
- n17's digits come from int32 divisions, and each value is laid out by %g's
  rules: fixed notation for -4 <= k < 17, otherwise d.ddd with an
  exponent of at least two digits, trailing zeros stripped;
- each cell is one row of a byte matrix, with a zero in every byte it does
  not print, and the text is the matrix's bytes with the zeros deleted
  (one bytes.translate: the zeros are the mask, and none is built).

The table is printed in blocks of whole rows, about _BLOCK values each,
so the temporaries (some 200 bytes a value) stay a few MB however long
the table is.

A value the fast path cannot settle is printed by "%.17g" itself: zero,
nan, inf, |x| outside [1e-250, 1e250], a V whose fraction lies within
1e-6 of 1/2 (a tie or near tie, whose rounding the error of V could
flip), and a V outside [1e16, 1e17) after rounding (log10 missed the
decade near a power of ten, or n17 rounded up to 10^17).  It is called
once per distinct bit pattern, so a column of zeros costs one call.
"""

import functools

import numpy as np

_LO, _HI = 1e-250, 1e250  # the magnitudes the fast path prints
_TIE = 1e-6  # a fraction of V this close to 1/2 goes to "%.17g"
_BLOCK = 1 << 14  # values printed at a time
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitting constant
# the columns of a cell's row, in order: the sign, the lead "0.000" of a
# fixed cell below 1, digit j at column 6 + 2j with a point after each but
# the last, the exponent "e+ddd" and the separator
_ROW = b"-0.000" + b"0." * 16 + b"0e+000,"
_WIDTH = len(_ROW)
_DIGITS, _POINTS = slice(6, 39, 2), slice(7, 38, 2)
_E = _ROW.index(b"e")  # then the exponent's sign and its three digits
# the shape of a cell: k + 4 for a fixed cell of decade k in [-4, 16], else
# _EXP2 or _EXP3 for two or three exponent digits.  There is one row
# template per shape, count of significant digits (1 to 17) and sign
_EXP2, _EXP3 = 21, 22


@functools.cache
def _pow10(s):
    # 10^s as (hi, lo): hi the double nearest 10^s, lo the double nearest
    # 10^s - hi, each a correctly rounded quotient of exact integers
    p, q = (10 ** s, 1) if s >= 0 else (1, 10 ** -s)
    hi = p / q
    num, den = hi.as_integer_ratio()
    return hi, (p * den - num * q) / (q * den)


@functools.cache
def _templates():
    # row (shape * 17 + sig - 1) * 2 + negative: _ROW's bytes where the
    # cell prints them, "0" in each printed digit column, else 0
    shape, r = np.divmod(np.arange((_EXP3 + 1) * 34)[:, None], 34)
    sig, neg = r // 2 + 1, r % 2
    k = shape - 4
    fixed = shape < _EXP2
    # digits before the point: all of a fixed cell's integer part, one of
    # an exponent cell's, none of a fixed cell below 1 (its point is lead)
    point = np.where(fixed, np.where(k >= 0, k + 1, 0), 1)
    keep = np.zeros((len(shape), _WIDTH), dtype=bool)
    keep[:, :1] = neg
    keep[:, 1:6] = np.arange(5) < np.where(fixed & (k < 0), 1 - k, 0)
    # every digit from the last significant one on is 0, so a digit column
    # the cell does not print stays 0 when the digit is added to it
    keep[:, _DIGITS] = np.arange(17) < np.maximum(sig, point)
    keep[:, _POINTS] = np.arange(16) == np.where(sig > point, point - 1, -1)
    keep[:, _E:_E + 5] = ~fixed
    keep[:, _E + 2:_E + 3] = shape == _EXP3
    keep[:, -1] = True
    return np.where(keep, np.frombuffer(_ROW, dtype=np.uint8), 0).astype(np.uint8)


def csv_text(table):
    """The CSV lines of a 2-D table: its values as float64, each printed as
    "%.17g" prints it, joined by commas, each row ending in a newline."""
    x = np.asarray(table, dtype=np.float64)
    if x.size == 0:
        return ""
    step = max(1, _BLOCK // x.shape[1])
    return b"".join(_block_text(x[i:i + step]) for i in range(0, len(x), step)).decode("ascii")


def _block_text(x):
    # the CSV bytes of the 2-D float64 table x
    n_rows, n_cols = x.shape
    x = x.ravel()
    a = np.abs(x)
    fast = (a >= _LO) & (a <= _HI)
    a[~fast] = 1.0
    k = np.floor(np.log10(a)).astype(np.intp)
    k_max = int(k.max())
    hi, lo = np.array([_pow10(16 - j) for j in range(k_max, int(k.min()) - 1, -1)]).T
    hi, lo = hi[k_max - k], lo[k_max - k]
    # V = a hi + a lo = p + t, where p + err = a hi exactly, and its
    # correctly rounded integer n17 = p + rint(t) has 17 digits
    p = a * hi
    c = a * _SPLIT
    ah = c - (c - a)
    al = a - ah
    c = hi * _SPLIT
    bh = c - (c - hi)
    bl = hi - bh
    err = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    t = err + a * lo
    floor_t = np.floor(t)
    p64 = p.astype(np.int64)
    n17 = p64 + np.rint(t).astype(np.int64)
    fast &= ((p64 + floor_t.astype(np.int64) >= 10 ** 16) & (n17 < 10 ** 17)
             & (np.abs(t - floor_t - 0.5) > _TIE))
    slow = np.flatnonzero(~fast)
    n17[slow] = 10 ** 16
    k[slow] = 0
    # the 17 digits, one row each: the first, then 8 from each int32 half
    # of the rest, both halves a digit at a time
    digits = np.empty((17, len(x)), dtype=np.uint8)
    digits[0] = n17 // 10 ** 16
    rest = n17 - digits[0] * np.int64(10 ** 16)
    half = np.empty((2, len(x)), dtype=np.int32)
    half[0] = rest // 10 ** 8
    half[1] = rest - half[0] * np.int64(10 ** 8)
    rows = digits[1:].reshape(2, 8, -1)
    for j in range(7, -1, -1):
        q = half // 10
        rows[:, j] = half - q * 10
        half = q
    # significant digits: up to the last nonzero one (the first never is 0)
    sig = np.maximum.reduce((digits != 0) * np.arange(1, 18, dtype=np.uint8)[:, None])
    shape = np.where((k >= -4) & (k < 17), k + 4, np.where(np.abs(k) < 100, _EXP2, _EXP3))
    cells = np.take(_templates(), (shape * 17 + sig - 1) * 2 + np.signbit(x), axis=0)
    cells[:, _DIGITS] += digits.T
    # exponent cells: "+" becomes "-" for a negative exponent, and the
    # digits go into their "0"s (a hundreds digit of 0 into a 0 byte)
    sci = np.flatnonzero(shape >= _EXP2)
    if len(sci):
        e = k[sci]
        m = np.abs(e)
        cells[sci, _E + 1:_E + 5] += np.stack(
            [2 * (e < 0), m // 100, m // 10 % 10, m % 10], axis=1).astype(np.uint8)
    if len(slow):
        # "%.17g" once per distinct bit pattern (the zeros of a column, say)
        bits, back = np.unique(x[slow].view(np.uint64), return_inverse=True)
        text = b"".join((b"%.17g" % v).ljust(_WIDTH - 1, b"\0")
                        for v in bits.view(np.float64).tolist())
        cells[slow, :-1] = np.frombuffer(text, dtype=np.uint8).reshape(-1, _WIDTH - 1)[back]
    cells.reshape(n_rows, n_cols, _WIDTH)[:, -1, -1] = 10
    return cells.tobytes().translate(None, b"\0")
