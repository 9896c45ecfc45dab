"""JSON text, both ways: documents in, with grids decoded to float64 bit for bit as json.loads
would, and reports out, each number at 17 significant digits as %.17g prints it.

loads(data) is json.loads, except that NaN, Infinity and -Infinity are
refused (ValidationError) and that every array of equal-length, non-empty
rows of ints and floats that is the document or an object's value, at any
depth json reads but not inside another array, becomes one read-only 2-D
float64 array, bit for bit np.array(json.loads(text), dtype=float).  data
is a str, or the bytes of a file, read as a file opened in text mode reads
them: UTF-8, with "\r\n" and "\r" read as "\n".  load(fh) is loads on the
bytes of the binary file fh, which it reads a block at a time.

Every document goes through one reader, a window on its UTF-8 bytes (a
str's encoded with "surrogatepass") that reads on as far as it is asked to
(and _READ_SIZE bytes further, or a quarter of what it holds if that is
more, so that a long text is read in linear time) and forgets what it is
told to; bytes in memory are their own window, which forgets nothing.  Each
grid of more than QUAD_BATCH_VALUES bytes that opens the document or
follows a ":" is read by the grid reader below, which forgets the bytes
before each block of rows, so the window holds about a block of the grid's
bytes (a row, where a row is wider).  Only the text between those grids is
kept, and becomes a str, with a stand-in at each grid's place: the JSON
string of U+FDD0 (a noncharacter) and the grid's index.  One
json.JSONDecoder, json's C scanner, reads that text, and one walk over the
objects it gives, with a stack of its own (json reads objects nested almost
as deep as Python's recursion limit), makes each short grid at an object's
value or alone an array and puts each grid read from the bytes in place of
its stand-in there.  The text path reads the whole document instead, where:

- the text between the grids holds U+FDD0, raw or escaped (in either case
  of its hex digits), so that a stand-in could not be told from it;
- a ":" before a grid was in a string, where the stand-in's quote ends the
  string early and the text is malformed;
- a stand-in is left that the walk does not meet, one in an array (not one
  that a later duplicate key replaced, which a search of the value tells);
- a long array after a ":" is not a grid (its bytes are gone);
- any other error.

The text path scans a str itself, and a file read again from its start,
whole, decoded from UTF-8 as above, with the same decoder and the same walk,
so every value and every message is json's: lone surrogates and line and
column numbers too.  So a document's bytes are never held whole, unless it
holds no long grid; on the text path each long array is held as Python
floats, about 32 bytes a value, until the walk converts it.

The grid reader cuts a grid into blocks of rows by characters, so no row is
visited from Python, and decode_rows turns the bytes of each block into
float64 directly: the grid never exists as Python floats.  A block runs to
the first "]" past the characters of QUAD_BATCH_VALUES values, at the
first row's (then the last block's) characters per value; inside the grid
that "]" ends a row.  A block that runs past the grid holds what follows it
in an object, a quote or a brace, which decode_rows refuses before any
tier but the uniform one (whose template refuses it, most often by the
block's length alone); it is cut again at the grid's end, as is a block
with no "]" after it.  A row wider than a block is its own block, read in
pieces of about a block's characters cut at commas.  Each block is written
into one float64 array that owns its data, sized first for a square grid
(or the rows the bytes left hold at the first row's length) and grown or
shrunk in place, so that a grid is never held beside its blocks.  Any other
long array, and any block decode_rows declines, sends the document to the
text path, which gives the same list, or raises the same error, as json.loads.

decode_rows(s, start, stop) takes the bytes of a text = s[start:stop] such as
b'[1.5, 0], [-2e-3, 7]': one or more rows of JSON numbers, each in
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
w / 10**frac_len: both operands are exact doubles, so the one rounding of
the division is correct (W. D. Clinger, "How to read floating point
numbers accurately", PLDI 1990).  The first row alone decides that any
other text takes the next tier.

A sparse text, whose tokens are all one zero token, "0" or "0.0" as its
first token writes it, but at most _ARRAY_MIN that hold a nonzero digit (a
convex combination of a few permutation matrices, printed by json.dumps
with its default or compact separators, or one number a line as generate
prints it), is read at the cost of its nonzero tokens: one comparison of
the bytes with "1" to "9" finds their digits, each token is bounded by the
separators within 24 bytes of its first nonzero digit, and with the zero
token put back in their place the text must equal, byte for byte, the
zero template of its own uniform layout (as above), which also gives each
token its row and column.  The tokens must match the JSON number grammar
and are read by float() (an integer token of at most 24 digits reads as
float(int()) does).  The tier declines, and the general path reads the
text, where the first token is not a zero followed by its separator, where
the text holds more than one nonzero digit in eight of its first
_SPARSE_HEAD bytes (these decide a dense text from its first bytes), where
it holds more than _ARRAY_MIN nonzero tokens (decided before any work per
token where its runs of nonzero digits more than 24 bytes apart, each in a
token of its own, count that many), or where the template does not match,
as it does not where a token runs past the 24 bytes on either side of its
first nonzero digit.

The general path is array-at-a-time over the bytes of the text:

- bytes: four byte searches say whether the text holds a sign or an
  exponent mark at all.  A text with neither, whose first row is laid out
  as json.dumps prints a grid (", " after its first token and "], [" after
  the row, with no space before either) and which holds no "/", goes to
  the comma locator below.  Every other text, and one the locator
  declines, must leave nothing when every byte a grid may hold is deleted;
- tokens in json.dumps's layout (the comma locator): one location of the
  commas gives each token's end and the next token's start, the first
  row's commas give the width w, and one gather each checks the " " after
  every comma and the "]" before and "[" after every w-th one, a row
  break.  The commas and their spaces must then be all the bytes below
  ".", and the brackets of the rows all those above "9", so every other
  byte is a digit or "." (the text holds no "/");
- tokens in any other layout: the token bounds are the edges of the
  maximal runs of number characters, and the brackets must pair up around
  rows of equal width w.  Every gap between two tokens must hold exactly
  one comma.  Where each in-row token is followed at once by "," and each
  row's "]" too, as generate prints a grid (and json.dumps one with signs
  or exponents), every gap holds a comma there, so the commas are counted,
  not located; in any other layout they are located, with "]" "," "[" at
  each row break;
- zeros: a token of exactly the three bytes "0.0" (the zero of a grid the
  sparse tier declines) is +0.0, and its dot leaves the dot mask; a text
  of nothing else is returned then.  Only the other tokens go on,
  compacted, through the steps below, so every refusal and every float()
  fallback is theirs.  Each step counts the tokens it covers first: one
  that covers every token runs on the arrays themselves, with no index,
  gather or scatter, and one that covers none is skipped;
- grammar: the '.', 'e'/'E' and sign bytes of each token fix its parts,
  which are checked against the JSON number grammar.  A text with no sign
  or exponent byte skips their bookkeeping.  Where there are as many dots
  as tokens and each token has one second after its sign (a grid of
  decimals below 10 in magnitude, such as 1 + u v^T), the dots are looked
  up there, not located;
- SWAR digits: the fraction and any longer integer digits are read eight
  at a time from the three words of the 24 bytes that end at each run,
  fetched in one gather (D. Lemire, "Number parsing at a gigabyte per
  second", Softw. Pract. Exp. 51(8), 2021); a one-digit integer part is
  read from its byte;
- zero or quotient: each value w / 10**f (w below 10**19) is a zero where w
  is 0, and otherwise, for f in [0, 22] (10**f an exact double), the guess
  float(w) / 10**f moved to the nearest double by its exact residual in
  64-bit integers (Clinger's AlgorithmR, above).  Undecided are a residual
  rounded across a half, a result below its guess's binade or at its bottom
  with the value below it, and a value of 2**(53 - f) or more (16 or more
  digits, at most 4 after the point), whose residual has no 64-bit form;
- float(): the few tokens left, those of more than 19 significant digits,
  with f outside [0, 22] (a large exponent, or more than 22 fraction
  digits) or undecided, go to float() (or float(int()) for an integer
  token, as json gives an int), which rounds correctly; so do all of them
  where fewer than _ARRAY_MIN are left, too few to pay for the array calls
  of the steps above.

A value that json gives as the int 0 is +0.0, also when written "-0";
"-0.0" and "-0e0" are floats and stay -0.0.

render_json(obj) is the JSON text of a report: one item a line, nested two
spaces a level, keys and other strings escaped to ASCII as json escapes
them, each number as f"{v:.17g}" prints it and a 2-D float64 array (a
generated grid) through encode_rows.  A report holding inf or nan raises
NumericError, since JSON cannot carry it.

encode_rows(values, indent) takes a 2-D float64 array and returns the JSON
text of its list of rows, one number a line, nested at indent as
render_json nests lists, each number as f"{v:.17g}" prints it; render_json
joins a grid's text, a part a block, once with the rest of the report.  The
work is array-at-a-time, a block of rows of at most QUAD_BATCH_VALUES
numbers at a time (one row where a row is wider), as fixed-precision
printing in U. Adams, "Ryu revisited: printf floating point conversion",
OOPSLA 2019:

- log10 gives X = floor(log10 |v|), or one less.  A normal double with
  k = 16 - X in [0, 22] has the 17 digits D = round-half-even(|v| * 10**k):
  10**k is an exact double, and Dekker's exact product of two doubles
  split in halves (Veltkamp's split; no fused multiply-add) gives
  |v| * 10**k = p + e exactly, p the rounded product, an even integer
  above 2**53, so D = p + rint(e).  X is corrected once where D falls
  outside [10**16, 10**17);
- D is expanded to ASCII digits eight at a time in 64-bit words (SWAR,
  the inverse of the decoder's digit reader);
- a number takes three words, 24 bytes: the sign, the "0." and leading
  zeros of fixed notation below 1, the digits with the decimal point
  shifted in and trailing zeros dropped (fixed notation for -4 <= X < 17),
  or in exponent form the digits 4 bytes down and the exponent "e-XX"
  after them.  Every byte that does not come from a digit (the lead, the
  point, the "0" under each digit printed) is read from a table by X and
  the count of significant digits; a byte that a number does not fill
  holds a NUL;
- a block's cells, the three words of each number and the separator's,
  lie in one buffer that serves every block, with the separators and row
  breaks written once; one deletion of every NUL compresses a block into
  its text.  A separator of up to 8 bytes, at indent 0 or 1 (as generate
  prints its grids), takes one word, so the deletion reads 32 bytes a
  number;
- zeros print "0" and "-0"; every other value (subnormals, |v| >= 1e17 or
  below 1e-6, inf and nan) is printed by f"{v:.17g}" itself.
"""

import functools
import io
import itertools
import json
import re
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

import numpy as np

from .errors import NumericError, ValidationError
from .measures import freeze
from .numerics import QUAD_BATCH_VALUES

_U64 = np.uint64
_PAD = b" " * 24  # around a block's bytes, so that a window of 24 bytes ending in it is read
_WINDOW = 2 * len(_PAD) + 1  # a byte and the 24 on each side of it

# the bytes of a grid's text: deleting them leaves nothing of a text that holds no other
_GRID_BYTES = b" \t\n\r0123456789,.[]eE+-"
_MINUS, _PLUS, _OPEN, _CLOSE, _ZERO, _NINE, _COMMA, _DOT, _BLANK = b"-+[]09,. "
_POW10 = np.array([10**k for k in range(20)], dtype=_U64)
_POW10_F = np.array([10.0**k for k in range(23)])  # exact doubles
_POW5 = np.array([5**k for k in range(23)], dtype=np.int64)
_MANTISSA = 1 << 52  # a normal double's significand, 53 bits, is at least this
_LONGEST = 19  # significant digits that always fit a uint64
# _values costs some 150-180 us whatever the count (about 240 array calls on a block of
# 17-digit tokens) on a 2-core x86-64 machine, and float() reads a token, with its slice, in
# about 0.6 us (0.4 with 9 decimals): below this count of tokens, short of where the two
# cost the same (about 500 tokens, 1000 with 9 decimals), float() reads them
_ARRAY_MIN = 256
# below 10**15 < 2**53 the digits w of a token and 10**frac_len are exact doubles, so
# w / 10**frac_len rounds once, correctly (Clinger's fast path)
_EXACT_DIGITS = 15
_JSON_SPACE = b" \t\n\r"
# "[", whitespace, the integer and fraction digits of the first token, its separator
_FIRST_TOKEN = re.compile(rb"\[([ \t\n\r]*)([0-9]+)(\.[0-9]+)?(,[ \t\n\r]*)?")
_ROW_GAP = re.compile(rb",[ \t\n\r]*\[")
# "[", whitespace and a zero token, "0" or "0.0", ended by its separator or the row's "]"
_ZERO_FIRST = re.compile(rb"\[[ \t\n\r]*(0(?:\.0)?)[, \t\n\r\]]")
_SPARSE_HEAD = 1024  # bytes whose nonzero digits say whether a block may be sparse
# JSON numbers, each followed by a space
_JSON_NUMBERS = re.compile(rb"(?:-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)? )*")
# the largest byte ^ template under each template byte: 9 under a "0" (a digit), 0 elsewhere
_DIGIT_LIMIT = bytes(9 if c == _ZERO else 0 for c in range(256))


# the digit values, the low nibbles, of the last c bytes of a word, for c in 0..8
_DIGIT_BYTES = np.array([(-1 << 8 * (8 - c)) & 0x0F0F0F0F0F0F0F0F for c in range(9)], dtype=_U64)


def _eight(word, count):
    """The values of the last min(count, 8) digits in each word; 0 where count is 0."""
    if (count >= 8).all():
        return _combine(word & _DIGIT_BYTES[8])
    return _combine(word & _DIGIT_BYTES[np.minimum(count, 8)])


def _combine(v):
    """The eight-digit values of words v of one digit value per byte, the first digit lowest
    (Lemire, above); v is overwritten and returned."""
    v *= _U64(10 << 8 | 1)
    v >>= _U64(8)  # two-digit values in bytes 0, 2, 4 and 6
    v &= _U64(0x00FF00FF00FF00FF)
    v *= _U64(100 << 16 | 1)
    v >>= _U64(16)  # four-digit values in bytes 0-1 and 4-5
    v &= _U64(0x0000FFFF0000FFFF)
    v *= _U64(10000 << 32 | 1)
    v >>= _U64(32)
    return v


def _where(mask):
    """Count first: slice(None) where mask holds everywhere, so a tier that covers every token
    runs on the arrays themselves, with no gather or scatter; None where it holds nowhere, so
    the tier is skipped; the indices where it holds otherwise."""
    count = np.count_nonzero(mask)
    if count == mask.size:
        return slice(None)
    return np.flatnonzero(mask) if count else None


def _windows(padded, size):
    """The view of padded, _PAD + text + _PAD as uint8, whose entry k holds the size <= 24
    bytes of text before its byte k: one gather of these costs about what one gather of
    unaligned uint64 words does, whatever the size."""
    return np.ndarray((padded.size - 2 * len(_PAD) + 1,), dtype=f"V{size}", buffer=padded,
                      offset=len(_PAD) - size, strides=(1,))


def _digits(padded, ends, count):
    """(value, top) of the last count <= 24 digits before each end: value is that of the
    digits (mod 2**64 past 19 digits), top that of the digits 17 to 24 from the end, None
    where no token has more than 16.  The three words of 24 bytes are read in one gather."""
    words = _windows(padded, 24)[ends].view("<u8").reshape(-1, 3)
    value = _eight(words[:, 2], count)
    top = None
    most = count.max()
    if most > 8:
        part = _eight(words[:, 1], np.maximum(count - 8, 0))
        part *= _U64(10**8)
        value += part
    if most > 16:
        top = _eight(words[:, 0], np.maximum(count - 16, 0))
        value += top * _U64(10**16)
    return value, top


def _quotient(w, f):
    """(float64 bit patterns of w / 10**f, mask of those left undecided), for 0 < w < 2**64
    and 0 <= f <= 22, where 10**f and 5**f are exact doubles: a guess corrected by its exact
    residual, as Clinger's AlgorithmR (above).

    - The guess y = float(w) / 10**f, two roundings, lies within two ulps of w / 10**f.
    - With y = m * 2**e, m of 53 bits, and s = -e - f, w / 10**f - y is r / 5**f ulps of y,
      r = w * 2**s - m * 5**f.  |r| < 3 * 5**f < 2**63, so uint64 arithmetic, which wraps,
      gives r exactly: a shift past 63 bits gives 0, which is w * 2**s mod 2**64.
    - y moves by k = rint(r / 5**f) ulps, and r by -k * 5**f.  Left undecided are a quotient
      rounded across a half (|2 r| > 5**f, never equal: 5**f is odd) and an m + k below
      2**52, or at 2**52 with the value below it, where the ulp halves.
    - A negative shift, which w < 2**64 confines to f <= 4, is a shift past 63 bits as
      uint64: r is then -m * 5**f, and m + k, about 0, is undecided.
    - No move leaves y's binade upward: a value that rounds up to 2**j lies within a relative
      2**-54 of it, so w lies as near 2**j * 10**f, a double, and float(w) is that double."""
    y = w.astype(float)
    y /= _POW10_F[f]
    bits = y.view(_U64)
    shift = np.subtract(1023 + 52, f)  # s = -e - f, e the biased exponent less 1023 + 52
    shift -= (bits >> _U64(52)).view(np.int64)
    m = bits & _U64(_MANTISSA - 1)
    m |= _U64(_MANTISSA)
    p5 = _POW5[f]
    r = w << shift.view(_U64)
    r -= m * p5.view(_U64)
    r = r.view(np.int64)
    k = np.rint(r / p5).astype(np.int64)
    r -= k * p5
    r += r  # 2 r
    undecided = np.abs(r) > p5
    m = m.view(np.int64)
    m += k
    undecided |= m < _MANTISSA + (r < 0)
    bits += k.view(_U64)
    return bits, undecided


def _tokens(buf, plus):
    """(starts, ends, rows, width, num) of the number tokens of buf, a text of grid bytes, if
    buf is rows of single tokens separated as JSON arrays; None otherwise.  num marks the
    number characters; plus says whether buf holds a "+"."""
    # among the bytes of a grid, the number characters are "+" and the bytes above ",",
    # less the brackets: "-", ".", the digits, "E" and "e"
    bracket = np.bitwise_or(buf, 6) == 0x5F
    num = buf > _COMMA
    num ^= bracket
    if plus:
        num |= buf == _PLUS
    # buf[0] and buf[-1] are brackets, so the edges pair up
    edges = np.flatnonzero(num[1:] != num[:-1])
    edges += 1
    starts, ends = edges[0::2], edges[1::2]
    brackets = np.flatnonzero(bracket)
    del bracket
    opens, closes = brackets[0::2], brackets[1::2]
    rows = opens.size
    width = starts.size // rows if rows else 0
    if not (width and starts.size == rows * width and closes.size == rows
            and (buf[opens] == _OPEN).all() and (buf[closes] == _CLOSE).all()):
        return None
    # each row's tokens lie inside its brackets
    if not ((opens < starts[::width]).all() and (ends[width - 1 :: width] <= closes).all()):
        return None
    # every token but the last is followed by one comma, inside its row or after its row:
    # where each in-row token is followed at once by a comma and each row's "]" too, every
    # gap holds a comma, so a count of one comma a gap leaves room for no other
    gap = closes[:-1] + 1
    if ((buf[ends].reshape(rows, width)[:, :-1] == _COMMA).all()
            and (buf[gap] == _COMMA).all()):
        commas = np.count_nonzero(buf == _COMMA)
        return (starts, ends, rows, width, num) if commas + 1 == starts.size else None
    commas = np.flatnonzero(buf == _COMMA)
    if not (commas.size + 1 == starts.size
            and (ends[:-1] <= commas).all() and (commas < starts[1:]).all()):
        return None
    # each row break holds "]" "," "["
    gap = commas[width - 1 :: width]
    if not ((closes[:-1] < gap).all() and (gap < opens[1:]).all()):
        return None
    return starts, ends, rows, width, num


def _dumps_head(raw):
    """The offset of raw's first "]" if its first row is laid out as json.dumps prints a grid
    (", " after the first token, "], [" after the row, no space before either) and raw holds
    no "/", the one byte from "." to "9" that no number holds; else -1."""
    close = raw.find(b"]")
    comma = raw.find(b",", 0, close)
    if comma >= 0 and not (raw[comma - 1] != _BLANK and raw[comma + 1] == _BLANK):
        return -1
    if close + 1 < len(raw) and not (raw[close - 1] != _BLANK
                                     and raw.startswith(b", [", close + 1)):
        return -1
    return -1 if b"/" in raw else close


def _located(buf, close):
    """(starts, ends, rows, width, None) of the number tokens of buf, whose first row ends at
    close, if buf is rows laid out as json.dumps prints a grid of unsigned numbers: ", "
    between two tokens of a row, "], [" between two rows, and every other byte one of "." to
    "9" (the caller has found no "/"); None otherwise.  The commas are located, and the
    separator bytes beside them are checked by one gather each; then counts of the bytes
    below "." and above "9" say that no other byte is a separator."""
    commas = np.flatnonzero(buf == _COMMA)
    width = int(np.searchsorted(commas, close)) + 1
    # where the tokens are not rows of width, there are as many row breaks as rows, so more
    # brackets than the count below allows
    rows = (commas.size + 1) // width
    breaks = commas[width - 1 :: width]  # "], [" around each
    # buf ends in "]", so a space after each comma puts each "[" read below inside buf
    if not ((buf[commas + 1] == _BLANK).all() and (buf[breaks - 1] == _CLOSE).all()
            and (buf[breaks + 2] == _OPEN).all()):
        return None
    # the commas and the spaces after them are all the bytes below ".", the brackets of the
    # rows all those above "9"
    if not (np.count_nonzero(buf < _DOT) == 2 * commas.size
            and np.count_nonzero(buf > _NINE) == 2 * rows):
        return None
    starts = np.empty(commas.size + 1, dtype=np.intp)
    starts[0] = 1
    np.add(commas, 2, out=starts[1:])
    starts[width::width] += 1
    ends = np.empty_like(starts)
    ends[:-1] = commas
    ends[width - 1 :: width] -= 1
    ends[-1] = buf.size - 1
    return starts, ends, rows, width, None


def _positions(at, starts, ends):
    """The position in at lying in each token, or -1; None if a token holds two."""
    if at.size == starts.size and (starts < at).all() and (at < ends).all():
        return at  # one in every token, as the dots of a grid of decimals
    where = np.full(starts.size, -1, dtype=np.intp)
    who = _owner(at, starts)
    if who.size > 1 and not (who[1:] != who[:-1]).all():
        return None
    where[who] = at
    return where


def _owner(at, starts):
    """For sorted positions inside tokens, the index of the token holding each."""
    return np.searchsorted(starts, at, side="right") - 1


def _parts(buf, padded, num, starts, ends, dot, mark):
    """The digit runs of each token, checked against the JSON number grammar
    -? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?, as
    (int_end, int_len, mant_end, frac_len, exp_len, exp_neg, neg, is_float); None if a
    token breaks it.  buf is the text in padded, _PAD + text + _PAD as uint8; dot and mark
    mark the dots and the sign and exponent bytes of these tokens, mark is None where the
    block holds none; so are exp_len, exp_neg and neg then.
    The fraction digits end at mant_end, the exponent digits at ends."""
    ntok = starts.size
    neg = exp_len = exp_neg = None
    has_exp = exp = None
    if mark is not None and mark.any():
        neg = np.zeros(ntok, dtype=bool)
        exp_neg = np.zeros(ntok, dtype=bool)
        mark_at = np.flatnonzero(mark)
        marks = buf[mark_at]
        after_e = (buf[mark_at - 1] | 0x20) == ord("e")
        at_start = ~num[mark_at - 1]
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
        has_exp = exp >= 0
        exp_len = np.where(has_exp, ends - exp - 1, 0)
        exp_len[exp_owner] -= 1
    first = starts if neg is None else starts + neg
    # as many dots as tokens, each second after its sign, as in a grid of decimals below 10:
    # every token holds one there, and no other; otherwise the dots are located.  The byte
    # after a lone "-" may lie past the text, so it is read from padded
    every_dot = (np.count_nonzero(dot) == ntok
                 and (padded[first + (len(_PAD) + 1)] == _DOT).all())
    if every_dot:
        dot = first + 1
    else:
        dot_at = np.flatnonzero(dot)
        dot = _positions(dot_at, starts, ends)
        if dot is None:
            return None
        every_dot = dot is dot_at
    mant_end = ends if exp is None else np.where(has_exp, exp, ends)
    if every_dot:  # the dots end the integer parts
        has_dot, int_end = True, dot
        frac_len = mant_end - dot
        frac_len -= 1
        is_float = np.ones(ntok, dtype=bool)
    else:
        has_dot = dot >= 0
        int_end = np.where(has_dot, dot, mant_end)
        frac_len = np.where(has_dot, mant_end - dot - 1, 0)
        is_float = has_dot if exp is None else has_dot | has_exp
    int_len = int_end - first
    if not (int_len.min() >= 1 and (frac_len >= has_dot).all()):
        return None
    if int_len.max() > 1:
        multi = np.flatnonzero(int_len > 1)
        if not (buf[first[multi]] != _ZERO).all():
            return None
    # with no dot, dot is -1 and lies before any exponent mark
    if exp is not None and not ((exp_len >= has_exp).all() and (~has_exp | (dot < exp)).all()):
        return None
    return int_end, int_len, mant_end, frac_len, exp_len, exp_neg, neg, is_float


def _values(padded, ends, int_end, int_len, mant_end, frac_len, exp_len, exp_neg, neg,
            is_float):
    """(float64 bit patterns of the tokens, indices of those left to float()), for the
    tokens of the text in padded, _PAD + text + _PAD as uint8; exp_len, exp_neg and neg are
    None where no token has an exponent or a sign."""
    if ends.size < _ARRAY_MIN:
        return np.zeros(ends.size, dtype=_U64), np.arange(ends.size)
    if int_len.max() == 1:  # one digit each, read from its byte
        int_val = padded[int_end + (len(_PAD) - 1)].astype(_U64)
        int_val -= _U64(_ZERO)
    else:
        int_val = _digits(padded, int_end, np.minimum(int_len, 24))[0]
    frac_val, frac_top = _digits(padded, mant_end, np.minimum(frac_len, 24))
    short = int_len + frac_len <= _LONGEST
    # w is int_val * 10**frac_len + frac_val where that has at most _LONGEST digits, and
    # frac_val, the significant digits, where the integer part is 0
    if short.all():
        w = int_val
        w *= _POW10[frac_len]
        w += frac_val
        fits = short
    else:
        zero_int = (int_len == 1) & (int_val == 0)
        if short.any():
            int_val *= _POW10[np.where(short, frac_len, 0)]
            int_val += frac_val
            np.copyto(frac_val, int_val, where=short)
        w = frac_val
        fits = frac_len <= _LONGEST
        if frac_top is not None:
            fits |= (frac_len <= 24) & (frac_top < 1000)
        fits &= zero_int
        fits |= short
    del int_val, frac_val, frac_top
    slow = ~fits
    f = frac_len  # each value is w / 10**f
    if exp_len is not None:
        slow |= exp_len > 8
        exps = _where(exp_len != 0)
        if exps is not None:
            e_val = _eight(_windows(padded, 8)[ends[exps]].view("<u8"), exp_len[exps])
            e_val = e_val.view(np.int64)
            f = f.copy()
            f[exps] += np.where(exp_neg[exps], e_val, -e_val)
    slow |= (f < 0) | (f >= _POW10_F.size)  # where 10**f is an exact double

    nonzero = w != 0
    idx = _where(nonzero & ~slow)
    if isinstance(idx, slice):
        bits, undecided = _quotient(w, f)
        slow |= undecided
    else:
        bits = np.zeros(w.size, dtype=_U64)
        if idx is not None:
            bits[idx], undecided = _quotient(w[idx], f[idx])
            slow[idx[undecided]] = True
    if neg is not None and neg.any():  # a zero is negative only as a float: json gives "-0" as 0
        np.bitwise_or(bits, _U64(1 << 63), out=bits, where=neg & (is_float | nonzero))
    return bits, np.flatnonzero(slow)


@functools.lru_cache(maxsize=4)
def _row_template(lead, int_len, frac_len, sep, width, tail):
    """(template, limit) of a uniform row layout, as read-only uint8 arrays: the row's bytes
    with every digit "0", and the largest byte ^ template in each column.  Built once per
    layout, as every block of a grid repeats it."""
    token = b"0" * int_len + (b"." + b"0" * frac_len if frac_len else b"")
    template = b"[" + lead + sep.join([token] * width) + tail
    # byte ^ template is the digit's value, at most 9, in a digit column, and 0 in any other
    limit = np.frombuffer(template.translate(_DIGIT_LIMIT), dtype=np.uint8)
    return np.frombuffer(template, dtype=np.uint8), limit


class _Layout(NamedTuple):
    """A uniform row layout, as a text's first row shows it."""

    template: np.ndarray  # a row's bytes and the gap after it, every digit "0" (uint8)
    limit: np.ndarray  # the largest byte ^ template in each column
    rows: int
    gap: bytes  # between two rows: "," and the whitespace before the next "["
    first: int  # the offset of a row's first token
    cell: int  # the bytes of a token and its separator
    width: int
    int_len: int
    frac_len: int


def _layout(raw):
    """The layout of raw's rows if each is laid out byte for byte as its first row, with
    every token as the first token (an unsigned integer or decimal), as far as the first row
    and raw's length show it; None where they break it.  The bytes themselves are the
    caller's to compare with the template."""
    first = _FIRST_TOKEN.match(raw)
    if first is None:
        return None
    lead, whole, frac, sep = first.groups(b"")
    int_len, frac_len = len(whole), max(len(frac) - 1, 0)
    close = raw.find(b"]", first.end())
    body_end = close
    while raw[body_end - 1] in _JSON_SPACE:
        body_end -= 1
    cell = len(whole) + len(frac) + len(sep)
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
    rows, rest = divmod(len(raw) + len(gap), close + 1 + len(gap))
    if rest:
        return None
    template, limit = _row_template(lead, int_len, frac_len, sep, width,
                                    raw[body_end : close + 1] + gap)
    return _Layout(template, limit, rows, gap, 1 + len(lead), cell, width, int_len, frac_len)


def _uniform(raw):
    """The rows of raw as a 2-D float64 array if every row is laid out byte for byte as the
    first one, with every token laid out as its first token: an unsigned integer or decimal
    of at most _EXACT_DIGITS digits.  None otherwise, decided from the first row alone where
    that row breaks the layout."""
    layout = _layout(raw)
    if layout is None or layout.int_len + layout.frac_len > _EXACT_DIGITS:
        return None
    template, limit, rows, gap, first, cell, width, int_len, frac_len = layout
    row_end = template.size - len(gap)
    head = np.frombuffer(raw, dtype=np.uint8, count=row_end)
    if not (head ^ template[:row_end] <= limit[:row_end]).all():
        return None
    digits = np.frombuffer(raw + gap, dtype=np.uint8).reshape(rows, template.size) ^ template
    if not (digits <= limit).all():
        return None
    size = int_len + (frac_len + 1 if frac_len else 0)
    cells = np.lib.stride_tricks.as_strided(
        digits[:, first:], shape=(rows, width, size), strides=(template.size, cell, 1),
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


def _sparse(raw):
    """The rows of raw as a 2-D float64 array if they are laid out uniformly (see _layout)
    with every token the zero token that the first token writes, "0" or "0.0", but at most
    _ARRAY_MIN that hold a nonzero digit, each a JSON number; None where the tier declines
    (see the module doc), a token that breaks the grammar included: the general path then
    reads the text, and refuses it."""
    zero = _ZERO_FIRST.match(raw)
    # a dense block has, most often, a nonzero first token, or more than one nonzero digit
    # in eight bytes of its head
    if zero is None:
        return None
    head = raw[:_SPARSE_HEAD]
    if 8 * (len(head) - len(head.translate(None, b"123456789"))) > len(head):
        return None
    runs = _digit_runs(raw)
    if runs is None:
        return None
    bounds = _nonzero_tokens(raw, runs)
    if bounds is None:
        return None
    zero = zero[1]
    # raw cut at each token's bounds: the text between the tokens, then each token
    cuts = [0, *bounds.ravel().tolist(), len(raw)]
    parts = [raw[a:b] for a, b in zip(cuts[:-1], cuts[1:])]
    tokens = parts[1::2]
    rebuilt = zero.join(parts[0::2])  # each nonzero token put back to the zero token
    layout = _layout(rebuilt)
    if layout is None or not (layout.template.tobytes() * layout.rows).startswith(rebuilt):
        return None
    if not _JSON_NUMBERS.fullmatch(b" ".join([*tokens, b""])):
        return None
    # each token's offset once the tokens before it are put back to the zero token: a zero
    # token's place in the template, between two separators
    shrink = bounds[:, 1] - bounds[:, 0]
    shrink -= len(zero)
    at = bounds[:, 0] - np.cumsum(shrink)
    at += shrink
    row, at = np.divmod(at, layout.template.size)
    at -= layout.first
    at //= layout.cell
    values = np.zeros((layout.rows, layout.width))
    # float() reads an integer token as float(int()) does, as json gives an int: it has a
    # nonzero digit first, so it is not "-0", and at most 24 digits, so it is neither beyond
    # a double nor past the int digit limit
    values[row, at] = [float(t) for t in tokens]
    return values


def _digit_runs(raw):
    """The offsets of the first digit of each run of nonzero digits of raw, None where they
    show more than _ARRAY_MIN tokens (see _nonzero_tokens): before any work per run."""
    nonzero = np.subtract(np.frombuffer(raw, dtype=np.uint8), ord("1"), dtype=np.uint8) < 9
    # a token read whole has at most 24 nonzero digits: above this, more tokens or a long one
    if np.count_nonzero(nonzero) > 24 * _ARRAY_MIN:
        return None
    at = np.flatnonzero(nonzero[1:] > nonzero[:-1])
    at += 1
    # the runs of a token read whole start within 24 bytes of its first one, so runs further
    # apart lie in different tokens
    if at.size > _ARRAY_MIN and np.count_nonzero(np.diff(at) > len(_PAD)) >= _ARRAY_MIN:
        return None
    return at


def _nonzero_tokens(raw, at):
    """The (start, end) rows, as an integer array, of the tokens of raw that hold a nonzero
    digit, given at, the first digit of each run of nonzero digits; raw opens with "[" and
    ends with "]".  A token runs from its first nonzero digit back and on to the nearest
    separators, the bytes below "+", "," and the brackets (a byte that no number holds may
    lie in a token: the grammar refuses it there).  A token with no separator within 24
    bytes of its first nonzero digit on a side is cut short there, so the number bytes left
    beside its place refuse the block's template.  None where there are more than
    _ARRAY_MIN of them."""
    # the 24 bytes on each side of each such digit, in one gather of windows
    padded = np.frombuffer(_PAD + raw + _PAD, dtype=np.uint8)
    near = np.ndarray((len(raw),), dtype=f"V{_WINDOW}", buffer=padded, strides=(1,))
    near = near[at].view(np.uint8).reshape(at.size, _WINDOW)
    del padded
    number = near >= _PLUS
    number &= near != _COMMA
    near |= 6
    number &= near != 0x5F  # "[" and "]" (and "Y" and "_", which no grid holds)
    starts = at - np.argmin(number[:, 23::-1], axis=1)
    first = np.flatnonzero(np.diff(starts, prepend=-1))  # the first run of each token
    if first.size > _ARRAY_MIN:
        return None
    bounds = np.empty((first.size, 2), dtype=np.intp)
    bounds[:, 0] = starts[first]
    bounds[:, 1] = at[first] + np.argmin(number[first, 25:], axis=1) + 1
    return bounds


def decode_rows(s, start, stop):
    """The bytes s[start:stop], rows of JSON numbers, as a 2-D float64 array; None if they
    are not (see the module doc)."""
    raw = s[start:stop]
    if len(raw) < 3 or raw[0] != _OPEN or raw[-1] != _CLOSE:
        return None
    decoded = _uniform(raw)
    if decoded is not None:
        return decoded
    # a block that runs past its grid holds a quote or a brace, which the uniform tier's
    # template refuses, most often by the block's length alone: no other tier sees it
    if b'"' in raw or b"}" in raw:
        return None
    decoded = _sparse(raw)
    if decoded is not None:
        return decoded
    plus = b"+" in raw
    marked = plus or b"-" in raw or b"e" in raw or b"E" in raw
    close = -1 if marked else _dumps_head(raw)  # json.dumps's layout: the comma locator
    padded = np.frombuffer(_PAD + raw + _PAD, dtype=np.uint8)
    buf = padded[len(_PAD) : -len(_PAD)]
    found = _located(buf, close) if close >= 0 else None
    if found is None and raw.translate(None, _GRID_BYTES):  # a byte that no grid holds
        return None
    del raw
    found = found or _tokens(buf, plus)
    if found is None:
        return None
    starts, ends, rows, width, num = found
    # a token of exactly the bytes "0.0" is +0.0: only the other tokens go on
    three = np.flatnonzero(ends - starts == 3)
    at = starts[three]
    zero = three[(buf[at] == _ZERO) & (buf[at + 1] == _DOT) & (buf[at + 2] == _ZERO)]
    del three, at
    if zero.size == starts.size:
        return np.zeros((rows, width))
    dot = buf == _DOT
    mark = None
    if marked:  # the sign and exponent bytes: the number characters outside "." to "9"
        mark = np.subtract(buf, _DOT) > 11
        mark &= num
    if zero.size:
        dot[starts[zero] + 1] = False  # _parts sees only the other tokens' dots
        long = np.ones(starts.size, dtype=bool)
        long[zero] = False
        long = np.flatnonzero(long)
        starts, ends = starts[long], ends[long]
    parts = _parts(buf, padded, num, starts, ends, dot, mark)
    if parts is None:
        return None
    del num, dot, mark
    bits, slow = _values(padded, ends, *parts)
    values = bits.view(np.float64)
    tokens = [s[start + a : start + b] for a, b in zip(starts[slow].tolist(), ends[slow].tolist())]
    try:
        values[slow] = [float(t) if is_float else float(int(t))
                        for t, is_float in zip(tokens, parts[-1][slow].tolist())]
    except (OverflowError, ValueError):  # beyond a double, or past the int digit limit
        return None
    if zero.size:
        values = np.zeros(rows * width)
        values[long] = bits.view(np.float64)
    return values.reshape(rows, width)


# ---------------------------------------------------------------------------
# documents


def _refuse_constant(name):
    raise ValidationError(f"non-finite number {name} (values must be finite)")


_JSON = json.JSONDecoder(parse_constant=_refuse_constant)
# a grid read from the bytes stands in the text as the JSON string of _MARK and its index
_MARK = "\ufdd0"
_MARKED = re.compile(r"\ufdd0|\\u[Ff][Dd][Dd]0").search  # the mark, raw or as an escape
_NUMBERS = {int, float}


def _decode_window(win):
    """The document in the window's file, its long grids read from its bytes a block at a
    time (see the module doc)."""
    parts, grids = [], []  # the text between the grids, and a stand-in for each grid
    at = pos = 0  # at: where the text since the last grid starts
    while True:
        # a long grid at an object's value or alone: at the start or after a ":"
        start = win.space(pos)
        if win.data.startswith(b"[", start) and win.data.startswith(b"[", win.space(start + 1)):
            win.fill(start + QUAD_BATCH_VALUES)
            # a grid ends at its first "]" "]", so one that ends within a block's bytes is
            # left to the scanner, which reads it whole, as is any array with a "]" "]" there
            if not _GRID_END.search(win.data, pos, start + QUAD_BATCH_VALUES):
                parts.append(win.data[at:start].decode("utf-8"))
                found = _read_grid(win, win.drop(start) + 1)
                if found is None:  # its bytes are gone: read the text
                    raise _Reread
                grid, at = found
                parts.append(f'"{_MARK}{len(grids)}"')
                grids.append(grid)
                pos = at
        pos = win.find(b":", pos) + 1
        if not pos:
            break
    parts.append(win.data[at:].decode("utf-8"))
    win.drop(len(win.data))  # the text is in parts now
    if grids and any(map(_MARKED, parts[::2])):  # a stand-in would not be told from the text
        raise _Reread
    return _scan("".join(parts), grids)


def _scan(text, grids=()):
    """json.loads on text, with each grid at an object's value or alone, and the grid read
    from the bytes for each stand-in there, as a read-only float64 array (see the module
    doc)."""
    if text.startswith("\ufeff"):  # as json.loads, which JSONDecoder.decode leaves to it
        raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
    root = {"": _JSON.decode(text)}
    # a stack of its own: json reads objects nested about as deep as Python recursion goes
    objects, swapped = [root], 0
    while objects:
        obj = objects.pop()
        for key, value in obj.items():
            kind = type(value)
            if kind is dict:
                objects.append(value)
            elif kind is list:
                grid = _grid(value)
                if grid is not None:
                    obj[key] = freeze(grid)
            elif kind is str and grids and value.startswith(_MARK):
                obj[key] = freeze(grids[int(value[1:])])
                swapped += 1
    # a stand-in the walk did not meet lies in an array, unless a later duplicate key took
    # its place
    if swapped < len(grids) and _holds_mark(root):
        raise _Reread
    return root[""]


def _grid(rows):
    """rows as a 2-D float64 array if they are non-empty, equal-length rows of ints and floats
    that fit a double; None otherwise."""
    if not (rows and type(rows[0]) is list and rows[0] and set(map(type, rows)) == {list}
            and _NUMBERS.issuperset(map(type, itertools.chain.from_iterable(rows)))):
        return None
    try:
        return np.array(rows, dtype=float)
    except (ValueError, OverflowError):  # ragged, or an integer beyond the largest double
        return None


def _holds_mark(value):
    """True if a string in value, at any depth, starts with _MARK."""
    values = [value]
    while values:
        value = values.pop()
        kind = type(value)
        if kind is dict:
            values.extend(value.values())
        elif kind is list:
            values.extend(value)
        elif kind is str and value.startswith(_MARK):
            return True
    return False


class _Reread(Exception):
    """A stand-in for a grid read from the bytes could not be told from the text or was not
    taken where it stood, or a long array there was not a grid: read the text."""


class _Window:
    """A binary file read forward: data holds its bytes from offset base on.  fill reads on,
    a block or more at a time, and drop forgets the bytes a reader is done with, so the
    file is never held whole unless a reader keeps it all.  Without a file, data is the
    whole text, which drop keeps."""

    def __init__(self, fh, size, data=b""):
        self.fh, self.size, self.data, self.base = fh, size, data, 0

    def fill(self, stop):
        """True if data reaches position stop, once the file is read on as far; False if the
        file ends first."""
        while len(self.data) < stop and self.fh is not None:
            # _READ_SIZE past stop, so that the bytes just past a block come with it, and at
            # least a quarter of what data holds, so that a long text is read in linear time
            chunk = self.fh.read(max(stop - len(self.data), len(self.data) // 4) + _READ_SIZE)
            if not chunk:
                break
            self.data += chunk
        return len(self.data) >= stop

    def find(self, byte, pos):
        """The position of the first byte at or after pos, the file read on as far; -1 if
        there is none."""
        while True:
            at = self.data.find(byte, pos)
            pos = max(pos, len(self.data))
            if at >= 0 or not self.fill(pos + 1):
                return at

    def space(self, pos):
        """The position of the first byte at or after pos that is not JSON whitespace, the
        file read on as far (at least len(data) at the end of the file)."""
        while self.fill(pos + 1):
            pos = _SPACE(self.data, pos).end()
            if pos < len(self.data):
                break
        return pos

    def drop(self, pos):
        """Forget the bytes before position pos; returns its new position (0, or pos itself
        where data is the whole text)."""
        if self.fh is None:
            return pos
        self.data = self.data[pos:]
        self.base += pos
        return 0

    def left(self, pos):
        """The bytes of the file from position pos on."""
        return self.size - self.base - pos


# the end of a grid: its last row's "]", whitespace, and the grid's own "]"
_GRID_END = re.compile(rb"\][ \t\n\r]*\]")
_SPACE = re.compile(rb"[ \t\n\r]*").match
_READ_SIZE = 1 << 14  # how far past what it is asked for a window reads


def _read_grid(win, end):
    """(2-D float64 array, end) of the array whose body starts at win.data[end], read a block
    at a time into one array grown in place, the window's bytes dropped up to each block;
    None if it is not a grid of numbers."""
    pos = win.space(end)
    first_close = win.find(b"]", pos)
    if not win.data.startswith(b"[", pos) or first_close < 0:
        return None
    width = win.data.count(b",", pos, first_close) + 1
    if width > QUAD_BATCH_VALUES:
        # decoded in pieces of about a block of characters
        piece, chars = (first_close - pos) * QUAD_BATCH_VALUES // width, 1
        decode = functools.partial(_wide_row, chars=piece, width=width)
    else:
        piece, chars = 0, (first_close + 1 - pos) * -(-QUAD_BATCH_VALUES // width)
        decode = decode_rows
    top = win.base + pos
    # as many rows as a square grid has, or as the bytes left hold at the first row's length
    grid, rows = np.empty((min(width, win.left(pos) // (first_close + 1 - pos)), width)), 0
    while True:
        pos = win.drop(pos)
        stop = win.find(b"]", pos + chars - 1) + 1
        s = win.data
        block = decode(s, pos, stop) if stop else None
        if block is None:
            grid_end = _GRID_END.search(s, pos, stop or len(s))
            if grid_end is None:
                return None
            stop = grid_end.start() + 1
            block = decode(s, pos, stop)
            if block is None:
                return None
        del s
        if block.shape[1] != width:
            return None
        if rows + block.shape[0] > grid.shape[0]:
            # as many rows as the bytes left hold at the rows' length so far, at most twice
            # as many as before
            more = win.left(stop) * (rows + block.shape[0]) // (win.base + stop - top)
            grid.resize((rows + block.shape[0] + min(more, grid.shape[0]), width),
                        refcheck=False)
        grid[rows : rows + block.shape[0]] = block
        rows += block.shape[0]
        if not piece:
            chars = (stop - pos) * QUAD_BATCH_VALUES // block.size + 1
        del block  # freed before the next block is decoded
        after = win.space(stop)
        if win.data.startswith(b"]", after):
            if rows < grid.shape[0]:
                grid.resize((rows, width), refcheck=False)
            return grid, after + 1
        if not win.data.startswith(b",", after):
            return None
        pos = win.space(after + 1)


def _wide_row(s, start, stop, chars, width):
    """The row s[start:stop] of width numbers as a 1 x width float64 array, decoded a piece
    of at most about chars characters at a time, each cut at a comma; None if it is not a
    row of width numbers."""
    if not s.startswith(b"[", start):
        return None
    row, done, first = np.empty((1, width)), 0, start + 1
    while True:
        cut = s.rfind(b",", first, first + chars) if first + chars < stop - 1 else -1
        text = b"[" + s[first : cut if cut >= 0 else stop - 1] + b"]"
        piece = decode_rows(text, 0, len(text))
        if piece is None or done + piece.shape[1] > width:
            return None
        row[:, done : done + piece.shape[1]] = piece
        done += piece.shape[1]
        if cut < 0:
            return row if done == width else None
        # past the whitespace after the cut, so that a piece of a uniform row lays out as the row
        first = _SPACE(s, cut + 1).end()


def load(fh):
    """The document in fh, a binary file read from its start, as loads reads its bytes (see
    the module doc), a block at a time: the file's bytes are never held whole."""
    if not fh.seekable():
        return loads(fh.read())
    size = fh.seek(0, io.SEEK_END)
    fh.seek(0)
    return _read_document(_Window(fh, size), fh)


def loads(data):
    """The document in data, JSON text as bytes (UTF-8, as a file holds it) or as a str, with
    its grids as read-only float64 arrays (see the module doc)."""
    if isinstance(data, str):
        raw = data.encode("utf-8", "surrogatepass")  # a lone surrogate fails on the bytes
        return _read_document(_Window(None, len(raw), raw), data)
    return _read_document(_Window(None, len(data), data), io.BytesIO(data))


def _read_document(win, source):
    """The document in the window, or, where that fails, scanned whole from source: a str, or
    a binary file of the window's bytes."""
    try:
        return _decode_window(win)
    except (ValueError, RecursionError, _Reread):
        pass
    del win
    if isinstance(source, str):
        return _scan(source)
    # as the text a file opened in text mode gives, so that every value and every error is
    # json's: a UnicodeDecodeError at the file's byte, a line and column after "\r\n" and
    # "\r" are read as "\n"
    source.seek(0)
    text = io.TextIOWrapper(source, encoding="utf-8")
    try:
        return _scan(text.read())
    finally:
        text.detach()  # source stays open: its owner closes it


# ---------------------------------------------------------------------------
# encoding

_K_EXACT = _U64(22)  # through 10**22, a power of ten is an exact double
_SPLIT = 2.0**27 + 1  # Veltkamp's factor: a double splits into two halves of at most 26 bits
_E8, _E16, _E17 = _U64(10**8), _U64(10**16), _U64(10**17)
_MAGNITUDE = _U64((1 << 63) - 1)
_NORMAL_MIN, _NORMAL_MAX = _U64(0x0010000000000000), _U64(0x7FEFFFFFFFFFFFFF)  # as bits


def _split(x, high, low):
    """Veltkamp's split of the doubles x into halves of at most 26 bits, high + low == x,
    written to high and low."""
    np.multiply(x, _SPLIT, out=high)
    np.subtract(high, x, out=low)
    high -= low
    np.subtract(x, high, out=low)


_POW10_HIGH, _POW10_LOW = np.empty_like(_POW10_F), np.empty_like(_POW10_F)
_split(_POW10_F, _POW10_HIGH, _POW10_LOW)


def _text_words(text, size=0):
    """text as little-endian uint64 words, NUL-padded to at least size words."""
    raw = text.encode("ascii")
    raw = raw.ljust(max(size * 8, -(-len(raw) // 8) * 8), b"\0")
    return np.frombuffer(raw, dtype="<u8")


# a number's table key: 17 * (X + 6) + its significant digits - 1, for X in [-6, 16]; the
# keys below _KEY_FIXED are those of the exponent form (X < -4)
_KEY_FIXED = 17 * 2


def _layout_tables():
    """For each key (see above): the three words of a number's 24 bytes that do not come from
    its digits (the "0." and leading zeros of fixed notation below 1, the decimal point where
    a digit follows it, and "0" in the byte of every digit printed), and the masks of the
    bytes of the digit words H and L (digits 2-9 and 10-17) that lie ahead of the point.

    The sign takes byte 0, the "0.000" bytes 1-5 and the 17 digits bytes 6 on, the digits
    after the point a byte further up; a digit is printed through the last nonzero one, and
    in fixed notation at least through the units.  In exponent form the point follows the
    first digit, and the exponent is appended after the digits are moved 4 bytes down."""
    const, exponent, head = [], [], []
    for x in range(-6, 17):
        fraction = -4 <= x < 0  # "0." and -X-1 zeros, then all 17 digits after the point
        lead = (b"\0" + (b"0." + b"0" * (-x - 1) if fraction else b"")).ljust(6, b"\0")
        point = 17 if fraction else max(x, 0) + 1
        for sig in range(1, 18):
            keep = sig if x < 0 else max(sig, x + 1)
            tail = b"." + b"0" * (keep - point) if keep > point else b""
            const.append((lead + b"0" * min(keep, point) + tail).ljust(24, b"\0"))
        exponent.append((f"e-{-x:02d}" if x < -4 else "").encode("ascii").ljust(8, b"\0") * 17)
        head += [(1 << 8 * (point - 1)) - 1] * 17
    words = np.frombuffer(b"".join(const), dtype="<u8").reshape(-1, 3)
    return (*(np.ascontiguousarray(words[:, w]) for w in range(3)),
            np.array([h & 0xFFFFFFFFFFFFFFFF for h in head], dtype=_U64),
            np.array([h >> 64 for h in head], dtype=_U64),
            np.frombuffer(b"".join(exponent), dtype="<u8"))


_CONST0, _CONST1, _CONST2, _HEAD_H, _HEAD_L, _EXPONENT = _layout_tables()


def _digit_bytes(x, hi, tmp):
    """The eight decimal digits of each x < 10**8 as the bytes of a word, the first digit
    lowest: the inverse of _eight, less the ASCII zeros.  x is overwritten; hi and tmp are
    scratch.

    Each step halves the digits of each lane: with h the lane's quotient by c,
    (x - c h) 2**b + h == x 2**b - h (c 2**b - 1)."""
    np.floor_divide(x, _U64(10000), out=hi)
    x <<= _U64(32)
    x -= np.multiply(hi, _U64((10000 << 32) - 1), out=tmp)  # four-digit halves, leading low
    np.multiply(x, _U64(5243), out=hi)  # / 100 in each 32-bit lane
    hi >>= _U64(19)
    hi &= _U64(0x0000007F0000007F)
    x <<= _U64(16)
    x -= np.multiply(hi, _U64((100 << 16) - 1), out=tmp)  # two-digit quarters
    np.multiply(x, _U64(103), out=hi)  # / 10 in each 16-bit lane
    hi >>= _U64(10)
    hi &= _U64(0x000F000F000F000F)
    x <<= _U64(8)
    x -= np.multiply(hi, _U64((10 << 8) - 1), out=tmp)


def _two_product(a, k, work):
    """round-half-even(a * 10**k) as uint64 in work[0], for doubles a and k in [0, 22] with
    a * 10**k in [2**53, 2**63); work is 6 rows of a.size words, the others scratch.

    With 10**k = H + L and a = h + l split in halves, a * 10**k is p + e exactly, p the
    rounded product and e = ((h H - p) + h L + l H) + l L computed without error
    (T. J. Dekker, "A floating-point technique for extending the available precision",
    Numer. Math. 18, 1971).  p is an even integer, so the nearest integer, ties to even, is
    p + rint(e)."""
    e, p, power_h, power_l, high, low = (row.view(float) for row in work)
    # k is in range: "clip" only spares take a copy of its output
    np.take(_POW10_F, k, out=p, mode="clip")
    p *= a
    np.take(_POW10_HIGH, k, out=power_h, mode="clip")
    np.take(_POW10_LOW, k, out=power_l, mode="clip")
    _split(a, high, low)
    np.multiply(high, power_h, out=e)
    e -= p
    e += np.multiply(high, power_l, out=high)
    e += np.multiply(low, power_h, out=power_h)
    e += np.multiply(low, power_l, out=low)
    np.rint(e, out=e)
    d, r = work[0].view(np.int64), work[2].view(np.int64)
    np.copyto(r, e, casting="unsafe")
    np.copyto(d, p, casting="unsafe")
    d += r
    return work[0]


def _scaled(a, k, work):
    """round-half-even(a * 10**k) as uint64 in work[0] (6 rows of a.size words, the others
    scratch) for doubles a >= 0, by _two_product; returns the mask of the entries with k in
    [0, 22], where that is exact for a normal a and k = 16 - X or 17 - X.  The other entries
    hold garbage: only the masked ones reach _two_product, so inf and nan are never cast to
    an integer."""
    exact = k.view(_U64) <= _K_EXACT
    near = _where(exact)
    if isinstance(near, slice):
        _two_product(a, k, work)
        return exact
    d = work[0]
    d.fill(0)
    if near is not None:
        d[near] = _two_product(a[near], k[near], np.empty((6, near.size), dtype=_U64))
    return exact


def _number_words(v, work, out):
    """The three words of each number of v (1-D float64) as %.17g prints it, NUL bytes between
    the characters (see _layout_tables), written to out: three arrays of one shape, of v.size
    words each (the word columns of a block's cells).  work is 8 rows of v.size words, all
    scratch: every step of the common path writes to a row of it, so a block allocates no
    array of its size."""
    first, second, third, a, x, k, d, high = work  # rows, renamed as their use changes
    bits = v.view(_U64)
    a = np.bitwise_and(bits, _MAGNITUDE, out=a).view(float)
    # X or one less: log10 is off by far less than the margin, and an X one too high could
    # let D round up to exactly 10**16 from 16 digits
    np.maximum(a.view(_U64), _NORMAL_MIN, out=x)
    np.minimum(x, _NORMAL_MAX, out=x)
    x = x.view(float)
    np.log10(x, out=x)
    np.subtract(16 + 1e-12, x, out=x)
    np.ceil(x, out=x)  # 16 - X, or one more
    k = k.view(np.int64)
    np.copyto(k, x, casting="unsafe")
    # subnormals, zeros, inf and nan have k outside [0, 22], as has |v| below about 1e-6
    x = x.view(_U64)
    ok = _scaled(a, k, [d, first, second, third, x, high])
    up = _where(ok & (d >= _E17))
    if up is not None:  # X is one more: x was one low, or D rounded up to 10**17
        k[up] -= 1
        a = a[up]
        redo = np.empty((6, a.size), dtype=_U64)
        ok[up] = _scaled(a, k[up], redo)
        d[up] = redo[0]
    ok &= np.subtract(d, _E16, out=x) < _E17 - _E16

    top, tmp = x, work[3]  # |v| is spent
    np.floor_divide(d, _E16, out=top)
    d -= np.multiply(top, _E16, out=tmp)
    np.floor_divide(d, _E8, out=high)
    d -= np.multiply(high, _E8, out=tmp)
    low = d
    _digit_bytes(work[6:], work[:2], work[2:4])  # low and high at once
    # the significant digits, through the last nonzero one: from the exponent of
    # 2 (L * 2**64 + H) + 1, whose top bit lies in the byte of the last nonzero digit (bit 4
    # or lower of it: a digit is at most 9, so the float's rounding cannot carry into the next
    # byte), or is bit 0 where the 16 digits after the first are all zero
    f = tmp.view(float)
    np.copyto(f, low.view(np.int64), casting="unsafe")
    f *= 2.0**65
    f += np.multiply(high.view(np.int64), 2.0, out=first.view(float))
    f += 1.0
    key = np.right_shift(f.view(_U64), _U64(55), out=tmp)  # digits + 126
    k = np.minimum(k.view(_U64), _K_EXACT, out=k.view(_U64))
    key -= np.multiply(k, _U64(17), out=k)
    key += _U64(17 * 22 - 127)
    key = key.view(np.int64)

    head_h = np.take(_HEAD_H, key, out=k, mode="clip")
    head_h &= high
    high ^= head_h  # the tail, a byte further up to make room for the point
    head_l = np.take(_HEAD_L, key, out=third, mode="clip")
    head_l &= low
    low ^= head_l
    shape = out[0].shape
    np.take(_CONST0, key, out=first, mode="clip")
    sign = np.right_shift(bits, _U64(63), out=second)
    sign *= _U64(ord("-"))
    first |= sign
    top <<= _U64(48)
    first |= top
    np.bitwise_or(first.reshape(shape),
                  np.left_shift(head_h, _U64(56), out=second).reshape(shape), out=out[0])
    np.take(_CONST1, key, out=second, mode="clip")
    second |= np.right_shift(head_h, _U64(8), out=head_h)
    second |= high
    np.bitwise_or(second.reshape(shape),
                  np.left_shift(head_l, _U64(56), out=head_h).reshape(shape), out=out[1])
    third = np.right_shift(head_l, _U64(8), out=head_l)
    third |= low
    np.bitwise_or(third.reshape(shape),
                  np.take(_CONST2, key, out=head_h, mode="clip").reshape(shape), out=out[2])

    # the exponent form: the digits 4 bytes down, from byte 6 to 2, and the exponent after them
    scientific = np.flatnonzero(ok & (key < _KEY_FIXED))
    if scientific.size:
        at = np.unravel_index(scientific, shape)
        w0, w1, w2 = (w[at] for w in out)
        out[0][at] = (w0 & _U64(0xFF)) | (w0 >> _U64(32)) | (w1 << _U64(32))
        out[1][at] = (w1 >> _U64(32)) | (w2 << _U64(32))
        out[2][at] = (w2 >> _U64(32)) | (_EXPONENT[key[scientific]] << _U64(32))
    slow = np.flatnonzero(~ok)
    if slow.size:
        zero = bits[slow] << _U64(1) == 0  # +-0, printed "0" and "-0"
        at = np.unravel_index(slow[zero], shape)
        out[0][at] = _U64(ord("0") << 8) | (bits[slow[zero]] >> _U64(63)) * _U64(ord("-"))
        out[1][at] = out[2][at] = 0
        slow = slow[~zero]
        at = np.unravel_index(slow, shape)
        text = b"".join(f"{t:.17g}".encode("ascii").ljust(24, b"\0") for t in v[slow].tolist())
        fallback = np.frombuffer(text, dtype="<u8").reshape(-1, 3)
        for w in range(3):
            out[w][at] = fallback[:, w]


def encode_rows(values, indent):
    """values, a 2-D float64 array, as the JSON text of its list of rows at indent (see the
    module doc); inf and nan are printed as %.17g prints them."""
    return "".join(_row_parts(values, indent))


def _row_parts(values, indent):
    """The text of encode_rows as a list of parts, a block of rows a part."""
    rows, cols = values.shape
    outer, pad, inner = ("  " * (indent + j) for j in range(3))
    if not rows:
        return ["[]"]
    if not cols:
        return ["[\n" + ",\n".join([pad + "[]"] * rows) + f"\n{outer}]"]
    sep = _text_words(f",\n{inner}")
    brk = _text_words(f"\n{pad}],\n{pad}[\n{inner}")
    end = _text_words(f"\n{pad}]", brk.size)
    width = 3 + sep.size
    line = cols * width + brk.size  # the words of a row
    step = min(rows, max(1, QUAD_BATCH_VALUES // cols))
    # one buffer of cells and one of scratch rows serve every block: the separators and row
    # breaks are written once
    text = bytearray(step * line * 8)
    words = np.frombuffer(text, dtype="<u8").reshape(step, line)
    cells = words[:, : cols * width].reshape(step, cols, width)
    cells[..., 3:] = sep
    cells[:, -1, 3:] = 0  # the last number of a row is followed by brk
    words[:, cols * width :] = brk
    work = np.empty(8 * step * cols, dtype=_U64)
    out = [f"[\n{pad}[\n{inner}"]
    for start in range(0, rows, step):
        block = values[start : start + step]
        n = block.shape[0]
        _number_words(np.ravel(block), work[: 8 * n * cols].reshape(8, n * cols),
                      [cells[:n, :, w] for w in range(3)])
        if start + n == rows:
            words[n - 1, cols * width :] = end
        size = n * line * 8
        out.append((text if size == len(text) else text[:size]).translate(None, b"\0")
                   .decode("ascii"))
    out.append(f"\n{outer}]")
    return out


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
        # a generated grid: every row at once, the bytes of the list-of-rows branch above,
        # joined once with the rest of the report
        out.extend(_finite(part) for part in _row_parts(obj, indent))
    else:
        out.append(encode_basestring_ascii(str(obj)))


def render_json(obj) -> str:
    """obj as JSON, numbers at 17 significant digits; NumericError on inf or nan."""
    out = []
    _render(obj, out, 0)
    return "".join(out)
