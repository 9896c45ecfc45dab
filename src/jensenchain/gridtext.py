"""JSON text, both ways: documents in, with grids decoded to float64 bit for bit as json.loads
would, and reports out, each number at 17 significant digits as %.17g prints it.

loads(text) is json.loads, except that NaN, Infinity and -Infinity are
refused (ValidationError) and that every array of equal-length, non-empty
rows of numbers not nested in another array becomes one read-only 2-D
float64 array, bit for bit np.array(json.loads(text), dtype=float).
Objects and strings go through json's Python scanner, so that every array
reaches the grid reader (a document nested too deeply for it is read
again, whole, by the C scanner):

- an array whose text is shorter than QUAD_BATCH_VALUES characters holds
  less than one block of values, so the C scanner reads it whole and a
  grid is converted at once;
- a longer grid is cut into blocks of rows by characters, so no row is
  visited from Python, and decode_rows turns the text of each block into
  float64 directly: the grid never exists as Python floats.  A block runs
  to the first "]" past the characters of QUAD_BATCH_VALUES values, at
  the first row's (then the last block's) characters per value; inside
  the grid that "]" ends a row.  A block that runs past the grid holds
  what follows it in an object, a quote or a brace, which decode_rows
  refuses before any other work; it is cut again at the grid's end, as is
  a block with no "]" after it.  A row wider than a block is its own
  block, read in pieces of about a block's characters cut at commas;
- any other long array, and any block decode_rows declines, is read again
  by the C scanner from the array's opening bracket: that gives the same
  list, or raises the same error, as json.loads.

decode_rows(s, start, stop) takes a text = s[start:stop] such as
'[1.5, 0], [-2e-3, 7]': one or more rows of JSON numbers, each in
brackets, separated by commas, with any JSON whitespace around the tokens.
It returns the 2-D float64 array equal to
np.array(json.loads("[" + text + "]"), dtype=float), or None when the text
is anything else, or when json.loads would give a value np.array cannot
convert (an integer beyond the largest double) or would raise (an integer
past the int digit limit).  A caller that gets None reads the text again
with json itself, which gives the list or the error.

A text whose rows are laid out byte for byte as its first row, and every
token as the row's first token (the same length, the decimal point in the
same column, digits everywhere else, no sign or exponent, at most 15
digits), as json.dumps or %.17g prints an identity or a permutation matrix,
is read first through a (rows, row length) view of its bytes: one
comparison checks every byte against the first row's template, each
significand w is built a digit column at a time, and the value is
w / 10**frac_len, exact operands under one rounding as in Clinger's path
below.  The first row alone decides that any other text takes the general
path.

The general path is array-at-a-time over the bytes of the text:

- a byte-class table gives the token bounds (maximal runs of number
  characters), the commas and the brackets; every gap between two tokens
  must hold exactly one comma, and the brackets must pair up around rows
  of equal width w, with "]" "," "[" at each row break;
- the '.', 'e'/'E' and sign bytes of each token fix its parts, which are
  checked against the JSON number grammar;
- the integer, fraction and exponent digits are read eight at a time from
  unaligned 64-bit words (SWAR: D. Lemire, "Number parsing at a gigabyte
  per second", Softw. Pract. Exp. 51(8), 2021);
- each value w * 10**q (w below 10**19) is then, in this order: zero;
  float(w) * 10**q or float(w) / 10**-q when w <= 2**53 and |q| <= 22,
  where both operands are exact so the one rounding is correct (W. D.
  Clinger, "How to read floating point numbers accurately", PLDI 1990);
  or the Eisel-Lemire algorithm on the 128-bit product of w and the
  leading 64 bits of 5**q (Lemire, above; as fast_float's compute_float,
  with the rare products whose rounding needs the next 64 bits of 5**q
  left to the next tier);
- the few tokens left, such as those of more than 19 significant digits,
  go to float() (or float(int()) for an integer token, as json gives an
  int), which rounds correctly.

A value that json gives as the int 0 is +0.0, also when written "-0";
"-0.0" and "-0e0" are floats and stay -0.0.

render_json(obj) is the JSON text of a report: one item a line, nested two
spaces a level, keys and other strings escaped to ASCII as json escapes
them, each number as f"{v:.17g}" prints it and a 2-D float64 array (a
generated grid) through encode_rows.  A report holding inf or nan raises
NumericError, since JSON cannot carry it.

encode_rows(values, indent) takes a 2-D float64 array and returns the JSON
text of its list of rows, one number a line, nested at indent as
render_json nests lists, each number as f"{v:.17g}" prints it.  The
work is array-at-a-time, a block of rows of at most QUAD_BATCH_VALUES
numbers at a time (one row where a row is wider), as fixed-precision
printing in U. Adams, "Ryu revisited: printf floating point conversion",
OOPSLA 2019:

- a normal double m * 2**e with X = floor(log10 |v|) and k = 16 - X in
  [0, 27] has the 17 digits D = round-half-even(m * 5**k * 2**(e + k)),
  exact from one 64 x 64 -> 128-bit product (5**27 < 2**64); the rounding
  is decided from the bits shifted out, and X is corrected once where D
  falls outside [10**16, 10**17);
- D is expanded to ASCII digits eight at a time in 64-bit words (SWAR,
  the inverse of the decoder's digit reader);
- the %g layout is laid into fixed byte slots of one cell per number:
  sign, "0." and leading zeros, the digits with the decimal point shifted
  in, the exponent "e-XX", the separator; fixed notation for -4 <= X < 17
  with trailing zeros dropped, exponent form otherwise;
- a slot that a number does not fill holds a NUL byte, so one deletion of
  every NUL from the block's cells compresses them into the text;
- every other value (+-0, subnormals, |v| >= 1e17 or below 1e-11, inf and
  nan, a shift of more than 64 bits) is printed by f"{v:.17g}" itself.
"""

import functools
import json
import re
from json.encoder import encode_basestring_ascii

import numpy as np

from .errors import NumericError, ValidationError
from .measures import freeze
from .numerics import QUAD_BATCH_VALUES

_U64 = np.uint64
_PAD = b" " * 8

# byte classes: the low bit marks a number character, _BAD any byte outside a grid
_WS, _DIGIT, _COMMA, _DOT, _BRACKET, _MARK, _BAD = 0, 1, 2, 3, 4, 5, 8
_CLASS = bytearray([_BAD]) * 256
for _chars, _code in ((b" \t\n\r", _WS), (b"0123456789", _DIGIT), (b",", _COMMA),
                      (b".", _DOT), (b"[]", _BRACKET), (b"eE+-", _MARK)):
    for _c in _chars:
        _CLASS[_c] = _code
_CLASS = bytes(_CLASS)
_MINUS, _PLUS, _OPEN, _CLOSE, _ZERO = b"-+[]0"
_ALL = _U64(0xFFFFFFFFFFFFFFFF)
_ZEROS = _U64(0x3030303030303030)
_POW10 = np.array([10**k for k in range(20)], dtype=_U64)
_POW10_F = np.array([10.0**k for k in range(23)])  # exact doubles
_LONGEST = 19  # significant digits that always fit a uint64
# below 10**15 < 2**53 the digits w of a token and 10**frac_len are exact doubles, so
# w / 10**frac_len rounds once, correctly (Clinger's fast path)
_EXACT_DIGITS = 15
_JSON_SPACE = b" \t\n\r"
# "[", whitespace, the integer and fraction digits of the first token, its separator
_FIRST_TOKEN = re.compile(rb"\[([ \t\n\r]*)([0-9]+)(\.[0-9]+)?(,[ \t\n\r]*)?")
_ROW_GAP = re.compile(rb",[ \t\n\r]*\[")
# the largest byte ^ template under each template byte: 9 under a "0" (a digit), 0 elsewhere
_DIGIT_LIMIT = bytes(9 if c == _ZERO else 0 for c in range(256))
_Q_MIN, _Q_MAX = -342, 308  # beyond these, w * 10**q rounds to 0 or to inf


@functools.cache
def _pow5_high():
    """The leading 64 bits of 5**q, truncated, for q in [_Q_MIN, _Q_MAX] (about 1 ms)."""
    high = []
    for q in range(_Q_MIN, 0):
        p5 = 5**-q
        high.append((1 << (p5.bit_length() + 63)) // p5)
    p5 = 1
    for _ in range(_Q_MAX + 1):
        bits = p5.bit_length()
        high.append(p5 << (64 - bits) if bits <= 64 else p5 >> (bits - 64))
        p5 *= 5
    return np.array(high, dtype=_U64)


def _word(words, last, ends, at, count):
    """The 8-byte words ending at each position at, for runs of count <= 8 bytes before it.

    last is words[ends], the word ending at each token's end; a run inside it is
    shifted out of it, and only the other runs are gathered.
    """
    back = ends - at
    far = np.flatnonzero(back + count > 8)
    if far.size == at.size:
        return words[at]
    word = last << (back.astype(_U64) << _U64(3))  # 0 where back is 8 or more
    if far.size:
        word[far] = words[at[far]]
    return word


def _last_digits(words, buf, last, ends, at, count):
    """The values of the last min(count, 8) digits before each position at; 0 where count is 0.

    Runs of one digit each, as the integer parts of most decimals, are read byte by byte.
    """
    if (count == 1).all():
        return (buf[at - 1] - _ZERO).astype(_U64)
    return _eight(_word(words, last, ends, at, np.minimum(count, 8)), count)


def _eight(word, count):
    """The values of the last min(count, 8) digits in each word; 0 where count is 0."""
    keep = np.minimum(count, 8).astype(_U64)
    np.subtract(_U64(8), keep, out=keep)
    keep <<= _U64(3)  # the bits before the digits
    np.left_shift(_ALL, keep, out=keep)
    v = word & keep
    keep &= _ZEROS
    v -= keep  # one digit value per byte, first digit lowest
    np.right_shift(v, _U64(8), out=keep)
    v *= _U64(10)
    v += keep  # two-digit values in bytes 0, 2, 4 and 6
    np.right_shift(v, _U64(16), out=keep)
    keep &= _U64(0x000000FF000000FF)
    keep *= _U64(0x0000271000000001)
    v &= _U64(0x000000FF000000FF)
    v *= _U64(0x000F424000000064)
    v += keep
    v >>= _U64(32)
    return v


def _more_digits(words, ends, count, value):
    """Add to value, the last eight of count <= 24 digits before each end, the digits 9 to 24
    from the end; return the value of digits 17 to 24."""
    top = np.zeros_like(value)
    for shift in (8, 16):
        more = np.flatnonzero(count > shift)
        if not more.size:
            break
        if more.size == count.size:
            more = slice(None)
        part = _eight(words[ends[more] - shift], count[more] - shift)
        if shift == 16:
            top[more] = part
        part *= _POW10[shift]
        value[more] += part
    return top


def _mul128(a, b):
    """(high, low) 64-bit halves of the products a * b of uint64 arrays; b is overwritten."""
    mask = _U64(0xFFFFFFFF)
    a0, a1, b0 = a & mask, a >> _U64(32), b & mask
    b >>= _U64(32)
    low = a0 * b0  # the four partial products, then the middle column
    a0 *= b
    b0 *= a1
    a1 *= b
    high = a1
    mid = low >> _U64(32)
    high += a0 >> _U64(32)
    high += b0 >> _U64(32)
    a0 &= mask
    b0 &= mask
    mid += a0
    mid += b0
    high += mid >> _U64(32)
    low &= mask
    mid <<= _U64(32)
    low |= mid
    return high, low


def _eisel_lemire(w, q):
    """(float64 bit patterns of w * 10**q, mask of those left undecided), for 0 < w < 2**64
    and q in [_Q_MIN, _Q_MAX]."""
    bits = np.frexp(w.astype(float))[1].astype(_U64)  # the bit length, or one more after rounding
    bits -= (w >> (bits - _U64(1))) == 0
    lz = _U64(64) - bits
    w = w << lz
    high, low = _mul128(w, _pow5_high()[q - _Q_MIN])
    undecided = (high & _U64(0x1FF)) == _U64(0x1FF)  # the next 64 bits of 5**q could carry in
    upper = high >> _U64(63)
    shift = upper + _U64(9)
    mant = high >> shift
    # the biased binary exponent; (217706 * q) >> 16 is floor(q * log2(10)) over this q range
    power2 = ((217706 * q) >> 16) + 63 + upper.astype(np.int64) - lz.astype(np.int64) + 1023
    near = np.flatnonzero((q >= -4) & (q <= 23))  # 5**q fits 64 bits: w * 10**q may be a tie
    if near.size:
        m, h = mant[near], high[near]
        halfway = (low[near] <= 1) & ((m & _U64(3)) == 1) & ((m << shift[near]) == h)
        mant[near[halfway]] &= ~_U64(1)  # exactly between two doubles: round to even
    sub = power2 <= 0
    if sub.any():
        # subnormal: shift the extra bits out, then round
        out = (1 - power2[sub]).astype(_U64)
        m = mant[sub] >> np.minimum(out, _U64(63))
        m[out >= 64] = 0
        mant[sub] = m
        power2[sub] = 1  # 0 after the binade step below, unless the rounding reaches 2**52
    mant += mant & _U64(1)
    mant >>= _U64(1)
    # a carry to 2**53 moves to the next binade, and a subnormal rounded up to 2**52 is
    # the smallest normal
    power2 += (mant >> _U64(52)).astype(np.int64) - 1
    mant &= _U64((1 << 52) - 1)
    inf = np.flatnonzero(power2 >= 0x7FF)
    mant[inf] = 0
    power2[inf] = 0x7FF
    return (power2.astype(_U64) << _U64(52)) | mant, undecided


def _tokens(buf, cls):
    """(starts, ends, rows, width) of the number tokens of buf, if buf is rows of single
    tokens separated as JSON arrays; None otherwise."""
    num = (cls & 1).view(bool)
    # buf[0] and buf[-1] are brackets, so the edges pair up
    edges = np.flatnonzero(num[1:] != num[:-1]).astype(np.int32) + 1
    starts, ends = edges[0::2], edges[1::2]
    # every token but the last is followed by one comma, inside its row or after its row
    commas = np.flatnonzero(cls == _COMMA)
    if not (commas.size + 1 == starts.size
            and (ends[:-1] <= commas).all() and (commas < starts[1:]).all()):
        return None
    brackets = np.flatnonzero(cls == _BRACKET)
    opens, closes = brackets[0::2], brackets[1::2]
    rows = opens.size
    width = starts.size // rows if rows else 0
    if not (width and starts.size == rows * width and closes.size == rows
            and (buf[opens] == _OPEN).all() and (buf[closes] == _CLOSE).all()):
        return None
    # each row's tokens lie inside its brackets, and each row break holds "]" "," "["
    first, last = starts[::width], ends[width - 1 :: width]
    gap = commas[width - 1 :: width]
    if not ((opens < first).all() and (last <= closes).all()
            and (closes[:-1] < gap).all() and (gap < opens[1:]).all()):
        return None
    return starts, ends, rows, width


def _positions(at, starts, ends):
    """The position in at lying in each token, or -1; None if a token holds two."""
    if at.size == starts.size and (starts < at).all() and (at < ends).all():
        return at  # one in every token, as the dots of a grid of decimals
    where = np.full(starts.size, -1, dtype=np.int32)
    who = _owner(at, starts)
    if who.size > 1 and not (who[1:] != who[:-1]).all():
        return None
    where[who] = at
    return where


def _owner(at, starts):
    """For sorted positions inside tokens, the index of the token holding each."""
    return np.searchsorted(starts, at, side="right") - 1


def _parts(buf, cls, starts, ends):
    """The digit runs of each token, checked against the JSON number grammar
    -? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?, as
    (int_end, int_len, mant_end, frac_len, exp_len, exp_neg, neg, is_float); None if a
    token breaks it.  The fraction digits end at mant_end, the exponent digits at ends."""
    ntok = starts.size
    neg = np.zeros(ntok, dtype=bool)
    exp_neg = np.zeros(ntok, dtype=bool)
    exp_len = np.zeros(ntok, dtype=np.int32)
    exp = np.full(ntok, -1, dtype=np.int32)  # the position of the e or E, or -1
    mark = cls == _MARK
    if mark.any():
        mark_at = np.flatnonzero(mark)
        marks = buf[mark_at]
        after_e = (buf[mark_at - 1] | 0x20) == ord("e")
        at_start = (cls[mark_at - 1] & 1) == 0
        minus = marks == _MINUS
        if not np.where(minus, at_start | after_e, (marks != _PLUS) | after_e).all():
            return None
        neg[_owner(mark_at[minus & at_start], starts)] = True
        is_exp = (marks | 0x20) == ord("e")
        exp = _positions(mark_at[is_exp], starts, ends)
        if exp is None:
            return None
        signed = mark_at[~is_exp & after_e]  # the sign of an exponent
        exp_owner = _owner(signed, starts)
        exp_neg[exp_owner] = buf[signed] == _MINUS
        exp_len = np.where(exp >= 0, ends - exp - 1, 0)
        exp_len[exp_owner] -= 1
    has_exp = exp >= 0
    dot = _positions(np.flatnonzero(cls == _DOT), starts, ends)
    if dot is None:
        return None
    has_dot = dot >= 0
    first = starts + neg
    mant_end = np.where(has_exp, exp, ends)
    int_end = np.where(has_dot, dot, mant_end)
    int_len = int_end - first
    frac_len = np.where(has_dot, mant_end - dot - 1, 0)
    multi = np.flatnonzero(int_len > 1)
    if not (
        (int_len >= 1).all()
        and (buf[first[multi]] != _ZERO).all()
        and (frac_len >= has_dot).all()
        and (exp_len >= has_exp).all()
        and (~(has_dot & has_exp) | (dot < exp)).all()
    ):
        return None
    return int_end, int_len, mant_end, frac_len, exp_len, exp_neg, neg, has_dot | has_exp


def _values(words, buf, ends, int_end, int_len, mant_end, frac_len, exp_len, exp_neg, neg,
            is_float):
    """(float64 bit patterns of the tokens, indices of those left to float())."""
    last = words[ends]
    int_val = _last_digits(words, buf, last, ends, int_end, int_len)
    frac_val = _last_digits(words, buf, last, ends, mant_end, frac_len)
    # a token of at most eight integer and eight fraction digits, all zero, is a zero
    live = (int_val != 0) | (frac_val != 0) | (int_len > 8) | (frac_len > 8)
    bits = np.zeros(ends.size, dtype=_U64)
    bits[neg & (is_float | live)] = _U64(1 << 63)  # json gives "-0" as the int 0
    live = np.flatnonzero(live)
    if live.size == ends.size:
        live = slice(None)
    else:
        last, ends, int_end, int_len, mant_end, frac_len, exp_len, exp_neg, int_val, frac_val = (
            a[live] for a in (last, ends, int_end, int_len, mant_end, frac_len, exp_len,
                              exp_neg, int_val, frac_val)
        )
    _more_digits(words, int_end, np.minimum(int_len, 24), int_val)
    frac_top = _more_digits(words, mant_end, np.minimum(frac_len, 24), frac_val)
    zero_int = (int_len == 1) & (int_val == 0)
    short = ~zero_int & (int_len + frac_len <= _LONGEST)
    int_val *= _POW10[np.where(short, frac_len, 0)]
    int_val += frac_val
    w = frac_val
    np.copyto(w, int_val, where=short)
    del int_val
    fits = short | (zero_int & ((frac_len <= _LONGEST) | ((frac_len <= 24) & (frac_top < 1000))))
    del frac_top
    slow = ~fits | (exp_len > 8)
    q = -frac_len
    if exp_len.any():
        e_val = _eight(last, exp_len).astype(np.int32)
        q += np.where(exp_neg, -e_val, e_val)
    del last

    out = np.zeros(w.size, dtype=_U64)
    zero = (w == 0) & ~slow
    exact = ~slow & ~zero & (w <= _U64(1 << 53)) & (q >= -22) & (q <= 22)
    if exact.any():
        idx = np.flatnonzero(exact)
        m, qq = w[idx].astype(float), q[idx]
        up = qq >= 0
        val = np.where(up, m * _POW10_F[np.where(up, qq, 0)], m / _POW10_F[np.where(up, 0, -qq)])
        out[idx] = val.view(_U64)
    el = ~slow & ~zero & ~exact
    slow |= el & ((q < _Q_MIN) | (q > _Q_MAX))
    el &= ~slow
    if el.any():
        idx = np.flatnonzero(el)
        el_bits, undecided = _eisel_lemire(w[idx], q[idx])
        out[idx] = el_bits
        slow[idx[undecided]] = True
    bits[live] |= out
    return bits, np.arange(bits.size)[live][slow]


def _uniform(raw):
    """The rows of raw as a 2-D float64 array if every row is laid out byte for byte as the
    first one, with every token laid out as its first token: an unsigned integer or decimal
    of at most _EXACT_DIGITS digits.  None otherwise, decided from the first row alone where
    that row breaks the layout."""
    first = _FIRST_TOKEN.match(raw)
    if first is None:
        return None
    lead, whole, frac, sep = first.groups(b"")
    int_len, frac_len = len(whole), max(len(frac) - 1, 0)
    if int_len + frac_len > _EXACT_DIGITS:
        return None
    size = len(whole) + len(frac)
    close = raw.find(b"]", first.end())
    body_end = close
    while raw[body_end - 1] in _JSON_SPACE:
        body_end -= 1
    cell = size + len(sep)
    width, rest = divmod(body_end - 1 - len(lead) + len(sep), cell)
    if rest or (width > 1) != bool(sep):
        return None
    if close + 1 == len(raw):
        gap = b""
    else:
        gap = _ROW_GAP.match(raw, close + 1)
        if gap is None:
            return None
        gap = gap[0][:-1]  # "," and the whitespace before the next row's "["
    stride = close + 1 + len(gap)
    rows, rest = divmod(len(raw) + len(gap), stride)
    if rest:
        return None
    token = b"0" * int_len + (b"." + b"0" * frac_len if frac_len else b"")
    template = b"[" + lead + sep.join([token] * width) + raw[body_end : close + 1] + gap
    # byte ^ template is the digit's value, at most 9, in a digit column, and 0 in any other
    limit = np.frombuffer(template.translate(_DIGIT_LIMIT), dtype=np.uint8)
    template = np.frombuffer(template, dtype=np.uint8)
    head = np.frombuffer(raw, dtype=np.uint8, count=close + 1)
    if not (head ^ template[: close + 1] <= limit[: close + 1]).all():
        return None
    digits = np.frombuffer(raw + gap, dtype=np.uint8).reshape(rows, stride) ^ template
    if not (digits <= limit).all():
        return None
    cells = np.lib.stride_tricks.as_strided(
        digits[:, 1 + len(lead) :], shape=(rows, width, size), strides=(stride, cell, 1),
        writeable=False,
    )
    if int_len > 1 and not cells[..., 0].all():  # a leading zero, as in "01.5"
        return None
    columns = [c for c in range(size) if c != int_len]
    value = cells[..., columns[0]].astype(float)
    for c in columns[1:]:
        value *= 10.0
        value += cells[..., c]
    if frac_len:
        value /= _POW10_F[frac_len]
    return value


def decode_rows(s, start, stop):
    """s[start:stop], rows of JSON numbers, as a 2-D float64 array; None if it is not (see
    the module doc)."""
    try:
        raw = s[start:stop].encode("ascii")
    except UnicodeEncodeError:
        return None
    # positions are int32
    if not 3 <= len(raw) < 2**31 or raw[0] != _OPEN or raw[-1] != _CLOSE:
        return None
    uniform = _uniform(raw)
    if uniform is not None:
        return uniform
    cls = np.frombuffer(raw.translate(_CLASS), dtype=np.uint8)
    if cls.max() >= _BAD:
        return None
    padded = np.frombuffer(_PAD + raw + _PAD, dtype=np.uint8)
    del raw
    buf = padded[8:-8]
    found = _tokens(buf, cls)
    if found is None:
        return None
    starts, ends, rows, width = found
    parts = _parts(buf, cls, starts, ends)
    if parts is None:
        return None
    del cls
    words = np.ndarray((buf.size + 1,), dtype="<u8", buffer=padded, strides=(1,))
    bits, slow = _values(words, buf, ends, *parts)  # words[k] is buf[k-8:k]
    values = bits.view(np.float64)
    is_float = parts[-1]
    for j in slow.tolist():
        token = s[start + starts[j] : start + ends[j]]
        try:
            values[j] = float(token) if is_float[j] else float(int(token))
        except (OverflowError, ValueError):  # beyond a double, or past the int digit limit
            return None
    return values.reshape(rows, width)


# ---------------------------------------------------------------------------
# documents


def _refuse_constant(name):
    raise ValidationError(f"non-finite number {name} (values must be finite)")


class _GridDecoder(json.JSONDecoder):
    """json.JSONDecoder whose arrays go through _parse_array (see the module doc)."""

    def __init__(self):
        super().__init__(parse_constant=_refuse_constant)
        self._c_scan = json.scanner.c_make_scanner(self)
        self.parse_array = self._parse_array
        self.scan_once = json.scanner.py_make_scanner(self)

    def decode(self, s):
        if s.startswith("\ufeff"):  # as json.loads, which JSONDecoder.decode leaves to it
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", s, 0)
        return super().decode(s)

    def raw_decode(self, s, idx=0):
        try:
            return super().raw_decode(s, idx)
        except RecursionError:
            # the Python scanner spends more stack per nested object than the C scanner
            try:
                return self._c_scan(s, idx)
            except StopIteration as err:
                raise json.JSONDecodeError("Expecting value", s, err.value) from None

    def _parse_array(self, s_and_end, scan_once):
        s, end = s_and_end
        start = end - 1  # the opening bracket
        head = s[start : start + QUAD_BATCH_VALUES]
        try:
            value, stop = self._c_scan(head, 0)
        except (json.JSONDecodeError, StopIteration):  # longer than the head, or malformed
            found = _read_grid(s, end)
            if found is None:
                return self._c_scan(s, start)
            value, stop = found
        else:
            value, stop = _number_block(value, head[:stop]), start + stop
        if type(value) is np.ndarray:
            freeze(value)  # the one place a decoded grid is made read-only
        return value, stop


# the end of a grid: its last row's "]", whitespace, and the grid's own "]"
_GRID_END = re.compile(r"\][ \t\n\r]*\]")


def _read_grid(s, end):
    """(2-D float64 array, end) of the array whose body starts at s[end], read a block at a
    time; None if it is not a grid of numbers."""
    ws = json.decoder.WHITESPACE.match
    pos = ws(s, end).end()
    first_close = s.find("]", pos)
    if not s.startswith("[", pos) or first_close < 0:
        return None
    width = s.count(",", pos, first_close) + 1
    if width > QUAD_BATCH_VALUES:
        # decoded in pieces of about a block of characters
        piece, chars = (first_close - pos) * QUAD_BATCH_VALUES // width, 1
        decode = functools.partial(_wide_row, chars=piece)
    else:
        piece, chars = 0, (first_close + 1 - pos) * -(-QUAD_BATCH_VALUES // width)
        decode = decode_rows
    blocks = []
    while True:
        stop = s.find("]", pos + chars - 1) + 1
        block = decode(s, pos, stop) if stop else None
        if block is None:
            grid_end = _GRID_END.search(s, pos, stop or len(s))
            if grid_end is None:
                return None
            stop = grid_end.start() + 1
            block = decode(s, pos, stop)
            if block is None:
                return None
        if blocks and block.shape[1] != blocks[0].shape[1]:
            return None
        blocks.append(block)
        if not piece:
            chars = (stop - pos) * QUAD_BATCH_VALUES // block.size + 1
        after = ws(s, stop).end()
        if s.startswith("]", after):
            return np.concatenate(blocks), after + 1
        if not s.startswith(",", after):
            return None
        pos = ws(s, after + 1).end()


def _wide_row(s, start, stop, chars):
    """The row s[start:stop] as a 1 x width float64 array, decoded a piece of at most about
    chars characters at a time, each cut at a comma; None if it is not a row of numbers."""
    if not s.startswith("[", start):
        return None
    pieces, first = [], start + 1
    while True:
        cut = s.rfind(",", first, first + chars) if first + chars < stop - 1 else -1
        text = "[" + s[first : cut if cut >= 0 else stop - 1] + "]"
        piece = decode_rows(text, 0, len(text))
        if piece is None:
            return None
        pieces.append(piece)
        if cut < 0:
            return np.concatenate(pieces, axis=1)
        # past the whitespace after the cut, so that a piece of a uniform row lays out as the row
        first = json.decoder.WHITESPACE.match(s, cut + 1).end()


def _number_block(value, text):
    """value, read from text, as a 2-D float64 array if it is non-empty rows of numbers, else
    value itself.  np.array would also take true, false, null and numeric strings, so text is
    searched for their letters: no JSON number holds a quote, t, f or n."""
    if (not (value and type(value[0]) is list and value[0])
            or '"' in text or "t" in text or "f" in text or "n" in text):
        return value
    try:
        block = np.array(value, dtype=float)
    except (ValueError, TypeError, OverflowError):  # ragged, a nested object, or beyond a double
        return value
    return block if block.ndim == 2 else value  # rows of equal-length rows are 3-D


loads = _GridDecoder().decode


# ---------------------------------------------------------------------------
# encoding

_POW5 = np.array([5**k for k in range(28)], dtype=_U64)  # 5**27 < 2**64
_K_MAX = _U64(27)
_E8, _E16, _E17 = _U64(10**8), _U64(10**16), _U64(10**17)
_NORMAL_MIN, _NORMAL_MAX = _U64(0x0010000000000000), _U64(0x7FEFFFFFFFFFFFFF)  # as bits
_POINT_CHAR = _U64(ord("."))


def _text_words(text, size=0):
    """text as little-endian uint64 words, NUL-padded to at least size words."""
    raw = text.encode("ascii")
    raw = raw.ljust(max(size * 8, -(-len(raw) // 8) * 8), b"\0")
    return np.frombuffer(raw, dtype="<u8")


def _layout_tables():
    """For X = -11 .. 16 (index X + 11): the word of the "0." and leading zeros, after the
    sign's byte; the digits ahead of a decimal point among the 17 (all 17 where the lead
    holds the point); the digits kept even when they are trailing zeros; and the exponent
    word.  Fixed notation for X >= -4, exponent form below."""
    lead, point, keep, exponent = [], [], [], []
    for x in range(-11, 17):
        fraction = -4 <= x < 0  # "0." and -X-1 zeros, then all 17 digits after the point
        lead.append(_text_words("\0" + ("0." + "0" * (-x - 1) if fraction else ""), 1))
        point.append(17 if fraction else max(x, 0) + 1)
        keep.append(0 if fraction else max(x, 0) + 1)
        exponent.append(_text_words(f"e-{-x:02d}" if x < -4 else "", 1))
    return (np.concatenate(lead), np.array(point), np.array(keep), np.concatenate(exponent))


_LEAD, _POINT, _KEEP, _EXPONENT = _layout_tables()


def _digit_bytes(x):
    """The eight decimal digits of each x < 10**8 as the bytes of a word, the first digit
    lowest: the inverse of _eight, less the ASCII zeros.  x is overwritten."""
    hi = x // _U64(10000)
    x -= hi * _U64(10000)
    x <<= _U64(32)
    x |= hi  # four-digit halves in 32-bit lanes, the leading one low
    np.multiply(x, _U64(5243), out=hi)  # / 100 in each lane
    hi >>= _U64(19)
    hi &= _U64(0x0000007F0000007F)
    x -= hi * _U64(100)
    x <<= _U64(16)
    x |= hi  # two-digit quarters in 16-bit lanes
    np.multiply(x, _U64(103), out=hi)  # / 10 in each lane
    hi >>= _U64(10)
    hi &= _U64(0x000F000F000F000F)
    x -= hi * _U64(10)
    x <<= _U64(8)
    x |= hi
    return x


def _scaled(v, k):
    """(round-half-even(|v| * 10**k), mask of k in [0, 27]) for float64 v.

    For v = m * 2**e, one 128-bit product m * 2**(left + 1) * 5**k, shifted right by right
    bits (left - right = e + k), gives twice the value with its half bit lowest; the bits
    shifted out of it decide the ties.  It is exact where v is normal and right is at most
    64, as it is where 10**16 <= the result < 10**17; a larger right gives 0.
    """
    bits = v.view(_U64)
    ok = k.view(_U64) <= _K_MAX
    k = np.minimum(k.view(_U64), _K_MAX).view(np.int64)
    shift = ((bits >> _U64(52)) & _U64(0x7FF)).view(np.int64)
    shift += k
    shift -= 1075
    left = np.maximum(shift, 0)
    right = np.subtract(left, shift, out=shift).view(_U64)
    left += 1
    m = bits & _U64((1 << 52) - 1)
    m |= _U64(1 << 52)
    m <<= left.view(_U64)
    del left
    hi, lo = _mul128(m, _POW5[k])
    del m, k
    out = _U64(64) - right  # 64 or more shifts give 0
    twice = lo >> right
    del right
    hi <<= out
    twice |= hi
    del hi
    sticky = np.left_shift(lo, out, out=lo)  # the bits below the half bit
    del out
    sticky |= _U64(0) - sticky
    sticky >>= _U64(63)
    d = twice >> _U64(1)
    sticky |= d
    twice &= sticky
    twice &= _U64(1)
    d += twice
    return d, ok


def _first_bytes(count8):
    """For 8 * count, count in [1, 17]: masks of the bytes of the digit words H and L
    (digits 2-9 and 10-17) that lie among the first count digits."""
    return ~(_ALL << (count8 - _U64(8))), _ALL >> (_U64(136) - count8)


def _number_words(v):
    """The four words of each number of v (1-D float64) as %.17g prints it, NUL bytes between
    the characters: the sign and the "0.000" of fixed notation below 1 in bytes 0-5, the
    digits with the decimal point shifted in from byte 6 to 23, and the exponent in the low
    half of the fourth word.  Temporaries are freed or overwritten as soon as they are spent,
    so the memory a block needs stays a few arrays of its size."""
    bits = v.view(_U64)
    # X or one less: log10 is off by far less than the margin, and an X one too high could
    # let D round up to exactly 10**16 from 16 digits
    x = np.log10(np.clip(bits & _U64((1 << 63) - 1), _NORMAL_MIN, _NORMAL_MAX).view(float))
    x -= 1e-12
    k = np.floor(x, out=x).astype(np.int64)
    del x
    np.subtract(16, k, out=k)
    d, ok = _scaled(v, k)  # subnormals, zeros, inf and nan have k outside [0, 27]
    up = np.flatnonzero(ok & (d >= _E17))
    if up.size:  # X is one more: x was one low, or D rounded up to 10**17
        k[up] -= 1
        d[up], ok[up] = _scaled(v[up], k[up])
    ok &= d >= _E16
    ok &= d < _E17
    at = np.minimum(k.view(_U64), _K_MAX, out=k.view(_U64)).view(np.int64)
    np.subtract(27, at, out=at)  # X + 11

    top = d // _E16
    d -= top * _E16
    high = d // _E8
    d -= high * _E8
    high = _digit_bytes(high)
    low = _digit_bytes(d)
    # significant digits, through the last nonzero one: the byte of the top bit of the 16 low
    # digit bytes; a digit's top bit is bit 3 of its byte or lower, so the rounding of the
    # float conversion cannot reach the next byte
    f = low.astype(float)
    f *= 2.0**64
    f += high.astype(float)
    sig8 = np.frexp(f)[1].astype(np.int64)
    del f
    sig8 += 15
    sig8 &= -8
    point8 = _POINT[at]
    point8 <<= 3
    keep8 = _KEEP[at]
    keep8 <<= 3
    np.maximum(keep8, sig8, out=keep8)
    keep_h, keep_l = _first_bytes(keep8.view(_U64))
    del keep8
    high |= _ZEROS
    high &= keep_h
    low |= _ZEROS
    low &= keep_l
    del keep_h, keep_l
    head_h, head_l = _first_bytes(point8.view(_U64))
    head_h &= high
    head_l &= low
    high ^= head_h  # the tails, a byte further up to make room for the point
    low ^= head_l
    # the point's bit offset from byte 0 of the number, 256 more (past the three words)
    # where no digit follows it
    dot = point8 - sig8
    del sig8
    dot >>= 63
    dot <<= 8
    dot += point8
    dot += 48 + 256
    del point8
    dot = dot.view(_U64)

    first = _LEAD[at]
    first |= (bits >> _U64(63)) * _U64(ord("-"))
    top |= _U64(0x30)
    top <<= _U64(48)
    first |= top
    del top
    first |= head_h << _U64(56)
    first |= _POINT_CHAR << dot
    second = np.right_shift(head_h, _U64(8), out=head_h)
    second |= high
    del high
    second |= head_l << _U64(56)
    dot -= _U64(64)
    second |= _POINT_CHAR << dot
    third = np.right_shift(head_l, _U64(8), out=head_l)
    third |= low
    del low
    dot -= _U64(64)
    third |= _POINT_CHAR << dot
    words = [first, second, third, _EXPONENT[at]]

    slow = np.flatnonzero(~ok)
    if slow.size:
        text = b"".join(f"{t:.17g}".encode("ascii").ljust(24, b"\0") for t in v[slow].tolist())
        fallback = np.frombuffer(text, dtype="<u8").reshape(-1, 3)
        for w in range(3):
            words[w][slow] = fallback[:, w]
        words[3][slow] = 0
    return words


def encode_rows(values, indent):
    """values, a 2-D float64 array, as the JSON text of its list of rows at indent (see the
    module doc); inf and nan are printed as %.17g prints them."""
    rows, cols = values.shape
    outer, pad, inner = ("  " * (indent + j) for j in range(3))
    if not rows:
        return "[]"
    if not cols:
        return "[\n" + ",\n".join([pad + "[]"] * rows) + f"\n{outer}]"
    sep = _text_words(f"\0\0\0\0,\n{inner}")  # after the exponent's half word
    brk = _text_words(f"\n{pad}],\n{pad}[\n{inner}")
    end = _text_words(f"\n{pad}]", brk.size)
    width = 3 + sep.size
    step = max(1, QUAD_BATCH_VALUES // cols)
    out = [f"[\n{pad}[\n{inner}"]
    for start in range(0, rows, step):
        block = values[start : start + step]
        n = block.shape[0]
        text = bytearray(n * (cols * width + brk.size) * 8)
        words = np.frombuffer(text, dtype="<u8").reshape(n, -1)
        cells = words[:, : cols * width].reshape(n, cols, width)
        cells[..., 3:] = sep
        for w, word in enumerate(_number_words(np.ravel(block))):
            cells[..., w] |= word.reshape(n, cols)
        cells[:, -1, 3] &= _U64(0xFFFFFFFF)  # the last number of a row is followed by brk
        cells[:, -1, 4:] = 0
        words[:, cols * width :] = brk
        if start + n == rows:
            words[-1, cols * width :] = end
        out.append(text.translate(None, b"\0").decode("ascii"))
    out.append(f"\n{outer}]")
    return "".join(out)


# ---------------------------------------------------------------------------
# reports


def _finite(text: str) -> str:
    """text, numbers printed by %.17g, unless one of them is inf or nan."""
    if "n" in text:  # %.17g prints an n only in inf, -inf and nan
        bad = next(tok for tok in text.replace(",", " ").split() if "n" in tok)
        raise NumericError(f"report holds the non-finite number {bad}, which JSON cannot carry")
    return text


def _render(obj, out, indent):
    if isinstance(obj, (dict, list, tuple)):
        is_dict = isinstance(obj, dict)
        brackets = "{}" if is_dict else "[]"
        if not obj:
            out.append(brackets)
            return
        pad, sep = "  " * indent, brackets[0]
        for item in obj.items() if is_dict else obj:
            out.append(f"{sep}\n{pad}  ")
            if is_dict:
                out.append(encode_basestring_ascii(str(item[0])) + ": ")
                item = item[1]
            _render(item, out, indent + 1)
            sep = ","
        out.append(f"\n{pad}{brackets[1]}")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_finite(f"{float(obj):.17g}"))
    elif obj is None:
        out.append("null")
    elif isinstance(obj, np.ndarray) and obj.ndim == 2 and obj.dtype == np.float64:
        # a generated grid: every row at once, the bytes of the list-of-rows branch above
        out.append(_finite(encode_rows(obj, indent)))
    else:
        out.append(encode_basestring_ascii(str(obj)))


def render_json(obj) -> str:
    """obj as JSON, numbers at 17 significant digits; NumericError on inf or nan."""
    out = []
    _render(obj, out, 0)
    return "".join(out)
