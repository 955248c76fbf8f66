"""Grid text files: the grid CSV files, one "outer,inner,w" line per grid
point with every number written as Python's "%.17g" writes it, and the grid
JSON files, json's text of the fields with the "values" matrix in json's
float text (repr's shortest round-trip digits, NaN, Infinity). Both value
texts come from one vectorized formatter with two digit rules.

Importing this module is left to the first grid write (the write_csv and
write_json of WignerGrid and Tomogram), so that no other command compiles it
at start-up.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .outfile import output_file

# Grid values as text. Zeros and every finite 1e-270 < |v| < 1 (all W values,
# nearly all tomogram values) take an exact vectorized route; numpy runs no
# fused multiply-add, so each step below is a chain of IEEE-rounded
# operations (u = 2^-53). The scaled value, shared by both digit rules:
#   X = floor(log10|v|) is guessed by np.log10 and made exact against the
#     least double >= 10^X (and 10^(X + 1));
#   S = |v| 10^k, k = 16 - X, lies in [1e16, 1e17). With hi = fl(10^k) and
#     lo = fl(10^k - hi), |10^k - hi - lo| <= u^2 10^k. Dekker's product
#     (Numer. Math. 18, 224 (1971): Veltkamp halves, exact partial products)
#     gives |v| hi = p + e exactly, |e| <= u p. With r = fl(e + fl(|v| lo)),
#     |S - p - r| <= u^2 S + u |v lo| + u |e + fl(|v| lo)| <= 4 u^2 (1 + u) S,
#     below 2^-47 for S < 1e17;
#   p > 2^53 is an integer, so S = m + f + err with the int64
#     m = p + floor(r), f = r - floor(r) in [0, 1) (both exact) and
#     |err| < 2^-47.
# "%.17g" (CSV): N = m + (f > 1/2) is S rounded to 17 digits unless f is
#   within err of 1/2.
# Shortest round-trip digits (JSON; Steele & White, PLDI 1990; Adams,
#   PLDI 2018): a decimal reads back as v if it lies within v's half-gap,
#   h = 2^(E - 54) 10^k in S's units for |v| = F 2^E, F in [1/2, 1) (1/2 ulp;
#   h is 0.55 to 11.2, so 17 digits always round-trip). For k' = 16, 15, ...
#   the k'-digit candidates round S to a multiple of U = 10^(17 - k'); with
#   b = m mod U, the one below S is b + f away and the one above (U - b) - f.
#   The nearer round-trips if its distance is below h. A k'-digit candidate is
#   also a (k' + 1)-digit one, so round-tripping is monotone in k': the
#   shortest k' that round-trips gives repr's digits (the nearest string of
#   that length). h = ldexp(hi, E - 54) is within u h < 2^-49 of the true
#   half-gap, and a distance below 16 is an exact integer and f, added once
#   (error below 2^-49), so each comparison is right unless the distance lies
#   within 2^-46 of h or of the other candidate's.
# Python's own text is taken for values off the route (non-finite ones
# included), for possible ties (f within 1e-9 of 1/2; for the shortest
# digits also a distance within 1e-9 of h or two candidates within 1e-9 of
# each other at a length the value reached, where repr's choice is set by
# the exact value or by round-half-even) and for the shortest digits of a
# power-of-two mantissa (F = 1/2), whose lower half-gap is h/2.
# N = 1e17 carries into X + 1. N's digits come from a 10^4-entry ASCII table.
# A value's text goes into four little-endian 8-byte words, NUL where the
# text has nothing:
#   sign | "0." and -X - 1 zeros (X = -1..-4) | d0 | "." (X <= -5)
#   d1..d8 | d9..d16, trailing zeros blanked | "e-XX" or "e-XXX" (X <= -5),
#   then "\n" in a CSV line; a zero's last word is "\n" in CSV, ".0" in JSON
# (repr's "0.0"). A block of grid rows is one array of such whole lines, or
# of JSON value lines with their indent and separators, and one
# bytes.translate drops its NULs.

# Values formatted per block of whole grid rows (at least one row). Each
# value takes a few hundred bytes of scratch, so a block stays in a core's
# cache; blocks of 8192 values and more measured slower.
_BLOCK_VALUES = 4096
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitting constant for 53-bit floats
_E8 = 10**8
_E16 = 10**16
_WORD = np.dtype("<i8")
# json's text of the non-finite floats, keyed by their repr
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _words(text: bytes) -> np.ndarray:
    """text read as little-endian int64 words, 8 bytes each."""
    return np.frombuffer(text, _WORD)


def _word(text: bytes) -> int:
    """text (at most 8 ASCII bytes), NUL-padded, as one little-endian word."""
    return int.from_bytes(text.ljust(8, b"\0"), "little")


@lru_cache(maxsize=1)
def _digit_table() -> np.ndarray:
    """(20000,) words whose low 4 bytes are ASCII: entry g < 10^4 holds g's
    four digits, entry 10^4 + g the same with trailing zeros as NULs (none
    left for g = 0)."""
    scale = np.array([1000, 100, 10, 1], np.int16)
    g = np.arange(10000, dtype=np.int16)[:, None]
    table = np.zeros((2, 10000, 8), np.uint8)
    table[:, :, :4] = g // scale % 10 + ord("0")
    table[1, :, :4][g % (10 * scale) == 0] = 0
    return _words(table.tobytes())


@lru_cache(maxsize=2)
def _affix_table(json: bool) -> np.ndarray:
    """(300, 2) words, row -X for a value of decimal exponent X: bytes 1-5 of
    the first word ("0." and -X - 1 zeros, X = -1..-4), and the last word
    ("e-XX" or "e-XXX" for X <= -5, then "\n" unless json). Row 0, for the
    zeros, holds only the last word's "\n", or ".0" if json."""
    e = np.arange(300)
    digits = _digit_table()[e].view(np.uint8).reshape(-1, 8)
    table = np.zeros((e.size, 16), np.uint8)
    fixed = (e >= 1) & (e <= 4)
    table[fixed, 1:3] = (ord("0"), ord("."))
    table[fixed, 3:6] = np.where(np.arange(3) < e[fixed, None] - 1, ord("0"), 0)
    table[e >= 5, 8:10] = (ord("e"), ord("-"))
    two = (e >= 5) & (e < 100)
    table[two, 10:12] = digits[two, 2:4]
    table[e >= 100, 10:13] = digits[e >= 100, 1:4]
    if json:
        table[0, 8:10] = (ord("."), ord("0"))
    else:
        table[:, 15] = ord("\n")
    return _words(table.tobytes()).reshape(-1, 2)


@lru_cache(maxsize=None)
def _decade(x: int) -> tuple:
    """For x <= 0: the least double >= 10^x, then 10^(16 - x) as hi + lo
    (hi = fl(10^(16 - x)), lo = fl(10^(16 - x) - hi)) with hi's Veltkamp
    halves, all from exact integer arithmetic."""
    least = 1 / 10**-x  # int / int is correctly rounded
    num, den = least.as_integer_ratio()
    if num * 10**-x < den:
        least = math.nextafter(least, 1.0)
    big = 10 ** (16 - x)
    hi = float(big)
    t = _SPLIT * hi
    hi_high = t - (t - hi)
    return least, hi, hi_high, hi - hi_high, float(big - int(hi))


def _scaled(v: np.ndarray) -> tuple:
    """The step both digit rules share (see the module comment): for each
    v, whether it is on the route (fast), |v| (0.5 off the route), X, the
    int64 m and the fraction f of S = |v| 10^(16 - X), and hi = fl(10^(16 - X))."""
    a = np.abs(v)
    fast = (a > 1e-270) & (a < 1.0)
    a = np.where(fast, a, 0.5)
    x = np.floor(np.log10(a)).astype(np.int64)
    x0 = int(x.min()) - 1
    decades = np.array([_decade(j) for j in range(x0, int(x.max()) + 2)]).T.copy()
    x -= a < decades[0].take(x - x0)
    x += a >= decades[0].take(x + 1 - x0)
    _, hi, hi_high, hi_low, lo = decades.take(x - x0, axis=1)
    p = a * hi
    t = _SPLIT * a
    a_high = t - (t - a)
    a_low = a - a_high
    e = a_low * hi_low - (((p - a_high * hi_high) - a_low * hi_high) - a_high * hi_low)
    r = e + a * lo
    whole = np.floor(r)
    return fast, a, x, p.astype(np.int64) + whole.astype(np.int64), r - whole, hi


def _fill(v, n, x, zero, slow, out, json: bool) -> None:
    """Write the text of each v with 17-digit N = n (a zero's n is ignored)
    and decimal exponent x into the 4 words out[i], Python's own text where
    slow: "%.17g" and "\n", or json's float text if json."""
    carry = n == 10 * _E16
    x += carry
    n[carry] = _E16
    n[zero] = 0
    lead, rest = np.divmod(n, _E16)
    high, low = np.divmod(rest, _E8)
    # Digit groups from the last; the last nonzero one and the zero ones
    # after it lose their trailing zeros.
    table = _digit_table()
    tail = np.ones(v.shape, bool)
    for col, half in ((2, low), (1, high)):
        left, right = np.divmod(half, 10**4)
        word = table.take(right + 10000 * tail)
        tail &= right == 0
        word = table.take(left + 10000 * tail) | word << 32
        tail &= left == 0
        out[:, col] = word
    affix = _affix_table(json).take(np.where(zero, 0, -x), axis=0)
    out[:, 0] = (
        affix[:, 0]
        | np.where(np.signbit(v), ord("-"), 0)
        | (lead + ord("0")) << 48
        | np.where((x <= -5) & (rest != 0), ord(".") << 56, 0)
    )
    out[:, 3] = affix[:, 1]
    idx = np.flatnonzero(slow)
    if idx.size:
        if json:
            text = [_NON_FINITE.get(t, t).ljust(32, "\0") for t in map(repr, v[idx].tolist())]
        else:
            text = [("%.17g" % f).ljust(31, "\0") + "\n" for f in v[idx].tolist()]
        out[idx] = _words("".join(text).encode()).reshape(-1, 4)


def format_values(v: np.ndarray, out: np.ndarray) -> None:
    """Write "%.17g" % v[i] and "\n" into the 4 words (32 bytes) out[i],
    NUL-padded; out is an (N, 4) array of little-endian int64."""
    fast, _, x, m, f, _ = _scaled(v)
    zero = v == 0.0
    slow = ~(fast | zero) | (np.abs(f - 0.5) < 1e-9)
    _fill(v, m + (f > 0.5), x, zero, slow, out, json=False)


def format_shortest(v: np.ndarray, out: np.ndarray) -> None:
    """Write json's text of v[i] (repr's shortest round-trip digits; NaN,
    Infinity, -Infinity) into the 4 words (32 bytes) out[i], NUL-padded;
    out is an (N, 4) array of little-endian int64."""
    fast, a, x, m, f, hi = _scaled(v)
    mantissa, exponent = np.frexp(a)
    half_gap = np.ldexp(hi, exponent - 54)
    zero = v == 0.0
    slow = ~zero & (~fast | (mantissa == 0.5) | (np.abs(f - 0.5) < 1e-9))
    n = m + (f > 0.5)  # 17 digits, which always round-trip
    live = np.flatnonzero(~(slow | zero))
    for digits in range(16, 0, -1):
        unit = 10 ** (17 - digits)
        lead, rest = np.divmod(m[live], unit)
        frac = f[live]
        below = rest + frac  # from S down to the candidate below it
        above = (unit - rest) - frac  # and up to the one above
        up = above < below
        miss = np.minimum(above, below) - half_gap[live]
        ok = miss < 0
        slow[live[(np.abs(miss) < 1e-9) | (ok & (np.abs(above - below) < 1e-9))]] = True
        live = live[ok]
        if not live.size:
            break
        n[live] = (lead[ok] + up[ok]) * unit
    _fill(v, n, x, zero, slow, out, json=True)


def _text_words(axis) -> np.ndarray:
    """The "%.17g" text of each axis value and a comma, one NUL-padded row of
    words each."""
    text = ["%.17g," % v for v in axis.tolist()]
    width = -(-max(map(len, text), default=0) // 8) * 8
    packed = "".join([t.ljust(width, "\0") for t in text]).encode()
    return _words(packed).reshape(len(text), width // 8)


def write_grid_csv(path, header: str, outer, inner, values, outer_first: bool) -> None:
    """Write values[i, j] as one CSV line per grid point, outer axis slowest:
    "outer,inner,w" if outer_first, else "inner,outer,w".

    Every number is written as "%.17g" writes it. Each axis value is formatted
    once; the values go by blocks of whole grid rows, about _BLOCK_VALUES
    values each, formatted (format_values) into lines of whole words whose
    NUL padding is dropped on the way out.
    """
    outer_words, inner_words = _text_words(outer), _text_words(inner)
    rows = min(len(outer), len(values)) if len(inner) else 0
    step = max(1, _BLOCK_VALUES // max(1, len(inner_words)))
    wo, wi = outer_words.shape[1], inner_words.shape[1]
    width = wo + wi + 4
    o0, i0 = (0, wo) if outer_first else (wi, 0)
    lines = np.zeros((min(rows, step), len(inner_words), width), _WORD)
    lines[:, :, i0 : i0 + wi] = inner_words
    with output_file(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        for start in range(0, rows, step):
            block = lines[: min(rows - start, step)]
            block[:, :, o0 : o0 + wo] = outer_words[start : start + len(block), None]
            row_values = np.asarray(values[start : start + len(block)], dtype=float)
            format_values(row_values.reshape(-1), block.reshape(-1, width)[:, -4:])
            fh.write(block.tobytes().translate(None, b"\0"))


def write_grid_json(path, fields: dict, values: np.ndarray) -> None:
    """Write the JSON file json.dump({**fields, "values": values.tolist()},
    indent=1, sort_keys=True) and a newline would write, values a non-empty
    2-D float array.

    json encodes the fields, with null at "values"; the values matrix goes
    in its place, every value in json's float text, by blocks of whole rows
    of about _BLOCK_VALUES values, formatted (format_shortest) into lines of
    whole words whose NUL padding is dropped on the way out.
    """
    import json  # loaded by JSON writes alone

    # Strings escape their newlines, so only the top-level key can start a
    # line with a one-space indent.
    key = '\n "values": '
    head, tail = json.dumps({**fields, "values": None}, indent=1, sort_keys=True).split(
        key + "null"
    )
    rows, columns = values.shape
    step = max(1, _BLOCK_VALUES // columns)
    # Per value: the separator and indent before it, its text, and the end
    # of its row after the row's last value.
    lines = np.zeros((min(rows, step), columns, 6), _WORD)
    lines[:, :, 0] = _word(b",\n   ")
    lines[:, 0, 0] = _word(b"  [\n   ")
    lines[:, -1, 5] = _word(b"\n  ],\n")
    with output_file(path, "wb") as fh:
        fh.write((head + key + "[\n").encode())
        for start in range(0, rows, step):
            block = lines[: min(rows - start, step)]
            if start + len(block) == rows:
                block[-1, -1, 5] = _word(b"\n  ]\n ]")
            row_values = np.asarray(values[start : start + len(block)], dtype=float)
            format_shortest(row_values.reshape(-1), block.reshape(-1, 6)[:, 1:5])
            fh.write(block.tobytes().translate(None, b"\0"))
        fh.write((tail + "\n").encode())
