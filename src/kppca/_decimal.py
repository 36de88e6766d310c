"""Decimal text of CSV tables in whole-array numpy steps: _read_table reads
the body of a well-formed decimal table for io_datasets.load_csv, and
_write_table writes a table's cells as repr writes them for
io_datasets.save_csv.

Both need words that are little-endian and an np.longdouble of 16 bytes
whose 64-bit significand fills the low 8, which _DIGIT_PATH tells (x87
extended precision). Where it is false, _read_table
returns None, so that load_csv reads the file on its text path, and
_write_table hands every cell to repr.

The reader takes rows of ASCII cells

    [+-] digits [. digits] [(e|E) [+-] digits]   (at least one mantissa digit)

joined by ',' and ended by '\n' (or '\r\n' throughout, in a file whose
first line ends so), every row as wide as the first, and reads
each as float() does. A first pass over the file counts its rows, so that
the result is allocated once. The second reads the text into one buffer a
piece at a time: at most 128 KiB (_PIECE_BYTES) and 8,192 cells
(_PIECE_CELLS), cut after a separator, the rest carried to the next piece.
It never holds the file whole; reading it twice needs a file it can
rewind, not a pipe.

Grammar. One pass over a piece finds its non-digit bytes. Each gets a class
(separator, '+', '-', '.', exponent mark) and a bit that says whether it
directly follows the previous one, with no digit between them. A cell is
read back from its separator: the classes of the five non-digits before it
and the bits of the six up to it index a table (_cell_shapes) that says
whether the cell is in the grammar and where its sign, point and exponent
are.

Digits. A mantissa's digits, up to 23, are the 24 bytes before its end with
the point squeezed out; an exponent's, up to 8, the 8 bytes before the
separator, read only in the cells that have an exponent. Both become
integers eight digits at a time in 64-bit words (Lemire, "Number parsing
at a gigabyte per second", 2021).

Scaling. With the digits m < 10**19 and the decimal exponent k, the cell is
r = m * 10**k in np.longdouble: m is exact, 10**k is the nearest longdouble
(off by at most u 10**k, u = 2**-64, which m scales to at most one unit of
the last bit of r), and the product rounds once (half a unit), so r is
within 2 units of its last bit of the exact value v. Rounding to float64
drops the low 11 bits of r's significand, read through a uint64 view, and
rounds up past their halfway point 0x400. So v rounds to the same float64
as r unless those bits lie within 3 units of 0x400, one unit of margin
over the bound. float() reads each cell this does not certify: results near a
rounding tie (no float64 written with 17 digits or more, about 1 in 540
cells written by repr and 1 in 180 written with 7 digits, on normal and
uniform draws), more than 23 mantissa or 8 exponent digits, m >= 10**19,
results at or below the smallest normal float64 (whose r may lie in a
binade that drops more bits) and exponents outside [_K_LO, _K_HI].

A piece outside the grammar (a blank line, any other CR, quotes, spaces,
inf or nan, a non-ASCII byte, a ragged row) stops the reader, and load_csv
reads the file on its text path.
"""

import functools
import sys

import numpy as np

_DIGIT_PATH = (sys.byteorder == "little" and np.dtype(np.longdouble).itemsize == 16
               and np.finfo(np.longdouble).nmant == 63
               and np.array([1 + np.longdouble(2.0) ** -63]).view(np.uint64)[0] == 2**63 + 1)

_PIECE_BYTES = 1 << 17
_PIECE_CELLS = 1 << 13
# the buffers and temporaries of a piece, measured: 1.8 MiB on tables of
# 17-digit cells, at most 3.2 MiB on tables of short cells and on text
# outside the grammar
_READ_BYTES = 4 << 20
_PAD = 32  # bytes before a piece in its buffer, and after it: a window's reach
_K_LO, _K_HI = -327, 308  # m * 10**k is subnormal or zero below, infinite above
_SEPARATOR, _PLUS, _MINUS, _DOT, _MARK, _OTHER = range(6)
# flags of a cell shape
_SIGNED, _NEGATIVE, _EXP_SIGNED, _EXP_NEGATIVE, _HAS_POINT = 1, 2, 4, 8, 16


def _cell_shapes():
    """Tables indexed by the classes of the five non-digits before a
    separator, in base 5 with the nearest lowest: each cell shape's
    grammar, as a mask whose bit a is set when the cell is in the grammar
    with the six adjacency bits a up to the separator (bit d for the
    non-digit d back); the offsets, in non-digits back from the separator,
    of its exponent mark and of its point, each 0 for none; and its flags."""
    valid = np.zeros(5**5, dtype=np.uint64)
    off_e = np.zeros(5**5, dtype=np.int8)
    off_p = np.zeros(5**5, dtype=np.int8)
    flags = np.zeros(5**5, dtype=np.uint8)
    bit = [np.arange(64) >> d & 1 for d in range(6)]
    for sign in (None, _PLUS, _MINUS):
        for point in (False, True):
            for exp_sign in (None, False, _PLUS, _MINUS):  # False: a mark without a sign
                shape = [c for c in (sign, point and _DOT) if c]
                if exp_sign is not None:
                    shape += [_MARK] + ([exp_sign] if exp_sign else [])
                q = len(shape)
                back = {c: q - i for i, c in enumerate(shape) if c in (_DOT, _MARK)}
                at_e = back.get(_MARK, 0)
                ok = bit[q] == 1 if sign else np.ones(64, dtype=bool)  # a sign opens the cell
                if exp_sign:
                    ok &= bit[1] == 1  # right after the mark
                if exp_sign is not None:
                    ok &= bit[0] == 0  # exponent digits
                ok &= (bit[at_e] == 0) | ((bit[back[_DOT]] == 0) if point else False)  # mantissa digits
                code = sum(c * 5 ** (q - 1 - i) for i, c in enumerate(shape))
                codes = code + 5 ** (q + 1) * np.arange(5 ** max(4 - q, 0))  # the separator at q + 1, then any
                valid[codes] = sum(1 << int(a) for a in np.flatnonzero(ok))
                off_e[codes] = at_e
                off_p[codes] = back[_DOT] if point else at_e
                flags[codes] = ((_SIGNED if sign else 0) | (_NEGATIVE if sign == _MINUS else 0)
                                | (_EXP_SIGNED if exp_sign else 0)
                                | (_EXP_NEGATIVE if exp_sign == _MINUS else 0) | (_HAS_POINT if point else 0))
    return valid, off_e, off_p, flags


def _pow10_longdouble():
    # 10**k rounded to nearest-even in np.longdouble, for k in [_K_LO, _K_HI]:
    # the top 64 bits of 10**k, or of 2**s / 10**-k, and their binary exponent
    sig, exp = [], []
    for k in range(_K_LO, _K_HI + 1):
        if k >= 0:
            shift = max((10**k).bit_length() - 64, 0)
            num, den, e = 10**k, 1 << shift, shift
        else:
            shift = (10**-k).bit_length() + 63
            num, den, e = 1 << shift, 10**-k, -shift
        q, r = divmod(num, den)
        q += 2 * r > den or (2 * r == den and q & 1)
        sig.append(q)
        exp.append(e)
    return np.ldexp(np.array(sig, dtype=np.uint64).astype(np.longdouble), np.array(exp, dtype=np.int32))


class _ReaderTables:
    def __init__(self):
        self.classes = np.full(256, _OTHER, dtype=np.uint8)
        for chars, cls in ((b",\n", _SEPARATOR), (b"+", _PLUS), (b"-", _MINUS), (b".", _DOT), (b"eE", _MARK)):
            self.classes[list(chars)] = cls
        self.valid, self.off_e, self.off_p, self.flags = _cell_shapes()
        self.pow10 = _pow10_longdouble()
        # keep[b]: the three words of a 24-byte window with bytes b..23 set;
        # shifted/unshifted[(24 - digits) * 25 + 24 - fraction digits]: the
        # digit bytes of the window shifted by one (the point's slot) and not
        keep = (np.arange(24) >= np.arange(25)[:, None]).astype(np.uint8) * np.uint8(255)
        keep = np.ascontiguousarray(keep).view(np.uint64)
        self.shifted = (keep[:, None, :] & ~keep[None, :, :]).reshape(-1, 3)
        self.unshifted = (keep[:, None, :] & keep[None, :, :]).reshape(-1, 3)
        self.keep_last = keep[:, 2].copy()


@functools.cache
def _reader_tables():
    return _ReaderTables()  # built on the first read, not at import


def _eight_digits(words):
    """The values of 64-bit words of eight digit bytes (0..9 each, the first
    digit in the lowest byte), computed in place."""
    low = words >> np.uint64(8)
    words *= np.uint64(10)
    words += low  # byte pairs: 10 a + b
    mask = np.uint64(0x000000FF000000FF)
    np.right_shift(words, np.uint64(16), out=low)
    low &= mask
    low *= np.uint64(1 + (10000 << 32))
    words &= mask
    words *= np.uint64(100 + (1000000 << 32))
    words += low
    words >>= np.uint64(32)
    return words


class _DecimalReader:
    """Reads a file's cells one piece of text at a time, in buffers that
    every piece reuses."""

    def __init__(self, fh, head, out, width, crlf):
        self.fh, self.out, self.width, self.crlf = fh, out, width, crlf
        self.tables = _reader_tables()
        self.buf = np.zeros(_PAD + _PIECE_BYTES + _PAD, dtype=np.uint8)
        self.buf[_PAD - 1] = ord(",")  # ends the cell before the piece's first
        # windows that end at any offset: a 24-byte one for the mantissa's
        # digits, an 8-byte one for the exponent's
        self.window24 = np.ndarray((self.buf.size - 23,), dtype="V24", buffer=self.buf, strides=(1,))
        self.window8 = np.ndarray((self.buf.size - 7,), dtype="V8", buffer=self.buf, strides=(1,))
        self.size = len(head)  # bytes of text in the buffer, from _PAD on
        self.buf[_PAD : _PAD + self.size] = np.frombuffer(head, dtype=np.uint8)
        self.cells = 0  # cells read so far

    def fill(self):
        """Tops the buffer up from the file; returns whether the file ended."""
        view = memoryview(self.buf)[_PAD : _PAD + _PIECE_BYTES]
        while self.size < _PIECE_BYTES:
            got = self.fh.readinto(view[self.size :])
            if not got:
                return True
            self.size += got
        return False

    def read(self, ended):
        """Reads the complete cells in the buffer, up to _PIECE_CELLS of
        them, into the result, and keeps the rest of its text for the next
        piece; at the end of the file a missing last newline is added.
        Returns False when the text is outside the grammar."""
        t, buf, n = self.tables, self.buf, self.size
        if self.crlf:  # drop each CR directly before an LF
            text = buf[_PAD : _PAD + n]
            cr = np.flatnonzero(text[:-1] == ord("\r"))
            cr = cr[text[cr + 1] == ord("\n")]
            n -= cr.size
            text[:n] = np.delete(text, cr)
        if ended and buf[_PAD + n - 1] not in b",\n":
            buf[_PAD + n] = ord("\n")
            n += 1
        # a CR that ends the piece waits for its LF, which the next one brings
        waiting = self.crlf and not ended and buf[_PAD + n - 1] == ord("\r")
        text = buf[_PAD - 1 : _PAD + n - waiting]
        pos = np.flatnonzero((text - np.uint8(ord("0"))) > 9)
        pos += _PAD - 1
        byte = buf[pos]
        cls = np.take(t.classes, byte)
        if cls.max() == _OTHER:
            return False
        # shape[i]: the classes of non-digits i-4..i, nearest lowest
        code = cls.astype(np.uint16)
        shape = code.copy()
        for d in range(1, 5):
            shape[d:] += code[:-d] * np.uint16(5**d)
        sep = np.flatnonzero(cls == _SEPARATOR)[1 : _PIECE_CELLS + 1]
        if not sep.size or self.cells + sep.size > self.out.size:
            return False  # a cell longer than a piece, or more cells than rows
        shape = shape[sep - 1].astype(np.intp)
        # adjacent[5 + i]: non-digit i directly follows i-1; the 8 bytes from
        # adjacent[s] hold those of non-digits s-5..s+2, and one multiply
        # gathers the first six into bits 56..61, s-d's at 56+d
        adjacent = np.zeros(pos.size + 8, dtype=np.uint8)
        np.equal(np.diff(pos), 1, out=adjacent[6 : pos.size + 5], casting="unsafe")
        bits = np.ndarray((adjacent.size - 7,), dtype="V8", buffer=adjacent, strides=(1,))[sep]
        bits = bits.view(np.uint64)
        bits &= np.uint64(0x0000FFFFFFFFFFFF)
        bits *= np.uint64(sum(1 << (61 - 9 * j) for j in range(6)))
        bits >>= np.uint64(56)
        bits &= np.uint64(63)
        if not (np.take(t.valid, shape) >> bits & np.uint64(1)).all():
            return False
        cells = sep.size
        newline = np.flatnonzero(byte[sep] == ord("\n"))
        if not np.array_equal(newline, np.arange((self.width - 1 - self.cells) % self.width, cells, self.width)):
            return False
        end = pos[sep]
        mantissa_end = pos[sep - t.off_e[shape]]
        point = pos[sep - t.off_p[shape]]  # the mantissa's end when it has none
        flags = t.flags[shape]
        start = np.empty(cells, dtype=np.intp)
        start[0] = _PAD
        start[1:] = end[:-1] + 1
        fraction = mantissa_end - point
        fraction -= (flags & _HAS_POINT) > 0
        digits = point - start
        digits -= flags & _SIGNED
        digits += fraction
        # W1: the 24 bytes before the point's slot plus the fraction; the
        # digits before the point come from W0, W1 moved up one byte
        words = self.window24[point + fraction + 1 - 24]
        np.subtract(words.view(np.uint8), np.uint8(ord("0")), out=words.view(np.uint8))
        w1 = words.view(np.uint64)
        w0 = w1 << np.uint64(8)
        w0[1:] |= w1[:-1] >> np.uint64(56)
        which = 24 - np.minimum(digits, 24)
        which *= 25
        which += 24 - np.minimum(fraction, 24)
        w0 &= np.take(t.shifted, which, axis=0).ravel()
        w1 &= np.take(t.unshifted, which, axis=0).ravel()
        w0 |= w1
        eights = _eight_digits(w0).reshape(-1, 3)
        m = eights[:, 0] * np.uint64(10**16)
        m += eights[:, 1] * np.uint64(10**8)
        m += eights[:, 2]
        sure = (digits <= 23) & (eights[:, 0] < 1000)
        k = -fraction
        e = np.flatnonzero(mantissa_end != end)  # the cells with an exponent
        exp_digits = end[e] - mantissa_end[e]
        exp_digits -= 1 + ((flags[e] & _EXP_SIGNED) > 0)
        sure[e] &= exp_digits <= 8
        words = self.window8[end[e] - 8]
        np.subtract(words.view(np.uint8), np.uint8(ord("0")), out=words.view(np.uint8))
        exponent = words.view(np.uint64)
        exponent &= np.take(t.keep_last, 24 - exp_digits, mode="clip")
        exponent = _eight_digits(exponent).astype(np.intp)
        np.negative(exponent, out=exponent, where=(flags[e] & _EXP_NEGATIVE) > 0)
        k[e] += exponent
        k -= _K_LO
        sure &= (k >= 0) & (k <= _K_HI - _K_LO)
        r = m.astype(np.longdouble)
        r *= np.take(t.pow10, k, mode="clip")
        with np.errstate(all="ignore"):
            x = r.astype(np.float64)
        dropped = r.view(np.uint64)[::2] - np.uint64(0x400 - 2)  # r's significands, less
        dropped &= np.uint64(0x7FF)
        sure &= dropped >= 5  # the low 11 bits outside 0x400 - 2 .. 0x400 + 2
        sure &= (x > np.finfo(np.float64).smallest_normal) | (m == 0)
        np.negative(x, out=x, where=(flags & _NEGATIVE) > 0)
        out = self.out[self.cells : self.cells + cells]
        out[...] = x
        for i in np.flatnonzero(~sure).tolist():
            out[i] = float(buf[start[i] : end[i]].tobytes())
        used = int(end[-1]) + 1 - _PAD
        buf[_PAD : _PAD + n - used] = buf[_PAD + used : _PAD + n]
        self.size = n - used
        self.cells += cells
        return True


def _table_shape(fh, head):
    """The rows of the text head plus the rest of fh, a last line without
    a newline included, and the cells of its first line, or None when a
    table that wide would need more bytes than there are; reads fh to its
    end and rewinds it."""
    at = fh.tell()
    rows = commas = size = 0
    first_line, last = True, ord("\n")
    chunk = np.empty(_PIECE_BYTES, dtype=np.uint8)
    text = np.frombuffer(head, dtype=np.uint8)
    while text.size:
        newline = text == ord("\n")
        count = np.count_nonzero(newline)
        if first_line:
            eol = int(newline.argmax()) if count else text.size
            commas += np.count_nonzero(text[:eol] == ord(","))
            first_line = not count
        rows, size, last = rows + count, size + text.size, text[-1]
        text = chunk[: fh.readinto(chunk)]
    fh.seek(at)
    rows += last != ord("\n")
    return None if 2 * rows * (commas + 1) > size + 1 else (rows, commas + 1)  # 2 bytes a cell at least


def _read_table(fh, head, crlf):
    """The N x d table in the binary file fh, whose text from the first
    data row on starts with head (at most _PIECE_BYTES) and goes on at fh's
    position, its rows ended by CRLF when crlf is true; None without the
    digit path, when a piece is outside the grammar, or when there is no
    cell."""
    shape = _table_shape(fh, head) if _DIGIT_PATH else None
    if shape is None:
        return None
    table = np.empty(shape)
    reader = _DecimalReader(fh, head, table.reshape(-1), shape[1], crlf)
    while True:
        ended = reader.fill()
        if ended and not reader.size:
            break
        if not reader.read(ended):
            return None
    return table if 0 < reader.cells == table.size else None


# _write_table writes each float as repr does: the shortest decimal that
# reads back to the same float and, of several that short, the one nearest
# to it, laid out by Python's 'r' rules. It formats a chunk of cells at a
# time in whole-array steps, and hands repr each cell whose digits those
# steps cannot certify.
#
# Digits. For finite x != 0 whose scale 10**s is exact in np.longdouble
# (|s| <= 27 with a 64-bit significand, so |x| in about [1e-11, 1e43]),
# Y = |x| 10**s lies in [1e16, 1e17) up to np.log10's error, after one
# rounding of at most 2**-8 (Y < 2**57). The floats that read back as x
# fill the rounding interval around it, of half-widths spacing(x)/2 (the
# lower one halved at a power of two), which scale by 10**s the same way.
# The answer is the multiple of 10**p strictly inside the interval for the
# largest p that has one, the one nearer to Y if two are; its digits are
# that multiple over 10**p. Each comparison that settles p or the choice
# must clear the interval's edge by _SLACK, and a tie (two distances) by
# twice that, or the cell goes to repr, as do non-finite cells, cells out
# of range, and every cell on a platform where np.longdouble has fewer than
# 63 mantissa bits or words are not little-endian. An apparent tie at p = 0
# is settled exactly from x's bits where s >= 1. The steps for p = 0 and 1
# are boolean and float passes over every cell; p >= 2 runs only on cells
# with a multiple of 10 inside and Y within 11.1 of a multiple of 100.
#
# Layout. A cell's 17 digits, left-aligned, sit at bytes 7..23 of a
# 32-byte source row padded with '0'. Its text is that row shifted so the
# digits start at the cell's digit offset, except that the bytes before
# the decimal point come from the row shifted one byte less, which opens
# the point's slot; both shifts work on whole 64-bit words, the second only
# on the words before a point. Each cell's 32 bytes then go, in order, to
# its place in the output, and the next cell overwrites them past its text;
# the sign, the point, an exponent "e+dd" and the separator are set after,
# byte by byte. Shift and columns come from tables indexed by the decimal
# point decpt (x = 0.ddd * 10**decpt), the digit count nd and the sign.

_MAX_SCALE = 27  # 10**27 = 2**27 * 5**27 and 5**27 < 2**63
_SLACK = 2.0**-8 + 2.0**-40  # Y's error, and the half-widths' (< 1e-14)
_POW10 = np.array([10**k for k in range(18)], dtype=np.int64)
_POW5 = np.array([5**k for k in range(_MAX_SCALE + 1)], dtype=np.uint64)
_POW10_LD = np.multiply.accumulate(np.r_[1, np.full(_MAX_SCALE, 10)].astype(np.longdouble))
# Y = |x| * _SCALE_UP[s + 27] / _SCALE_DOWN[s + 27]: one factor is 1
_SCALE_UP = np.r_[np.ones(_MAX_SCALE, np.longdouble), _POW10_LD]
_SCALE_DOWN = np.r_[_POW10_LD[:0:-1], np.ones(_MAX_SCALE + 1, np.longdouble)]
_HALF_SCALE = np.power(10.0, np.arange(-_MAX_SCALE, _MAX_SCALE + 1)) / 2
_MANTISSA = np.uint64((1 << 52) - 1)
_LARGEST = np.float64(np.finfo(float).max).view(np.uint64)

_WIDTH = 32  # bytes of a cell's text: a 24-byte repr and its separator fit
_DEC_LO, _DEC_HI = -12, 47  # holds every decpt the digit path gives


def _layout_tables():
    # _DIGITS[g]: the four digits of g as 4 bytes. _BEFORE[:, k]: the text
    # words with bytes 0..k-1 set. _TRAILING[g]: the trailing zeros of g,
    # 4 for 0. _EXPONENT[decpt - _DEC_LO]: "e+dd" as 4 bytes. Indexed by
    # ((decpt - _DEC_LO) * 18 + nd) * 2 + lead, lead 1 for a sign: the right
    # shift that puts the digits at their offset in the text, and the
    # columns of the point, the exponent and the separator.
    g = np.arange(10000)
    digits = np.stack([g // 1000, g // 100 % 10, g // 10 % 10, g % 10], axis=1).astype(np.uint8) + ord("0")
    trailing = sum((g % 10**z == 0).astype(np.intp) for z in range(1, 5))
    col = np.arange(_WIDTH)
    before = (col < np.arange(_WIDTH + 1)[:, None]).astype(np.uint8) * np.uint8(255)
    d = np.arange(_DEC_LO, _DEC_HI)[:, None, None]
    nd = np.arange(18)[:, None]
    lead = np.arange(2) + 0 * nd  # 1 for a sign
    fixed = (d > -4) & (d <= 16)  # else d[.ddd]e+XX
    offset = np.where(fixed & (d <= 0), 1 - d, 0) + lead  # "0.000" before the digits
    point = np.where(fixed & (d > 0), d, 1) + lead
    exponent = np.where(fixed, np.maximum(nd, d + 1) + 1 + np.maximum(0, 1 - d), nd + (nd > 1)) + lead
    sep = np.where(fixed, exponent, exponent + 4)
    exponents = np.array([f"e{k - 1:+03d}".encode() for k in range(_DEC_LO, _DEC_HI)]).view(np.uint32)
    return (digits.view(np.uint32).ravel(), np.ascontiguousarray(before.view(np.uint64).T), trailing, exponents,
            (8 * (7 - offset)).astype(np.uint64).ravel(), *(a.ravel() for a in (point, exponent, sep)))


_DIGITS, _BEFORE, _TRAILING, _EXPONENT, _SHIFT, _POINT, _EXPONENT_AT, _SEP_AT = _layout_tables()

# The cells per chunk: at most _CELL_BYTES of buffers and temporaries a
# cell (measured peak: about 280), so that a chunk stays within
# _FORMAT_BYTES.
_FORMAT_BYTES = 3 << 20
_CELL_BYTES = 320
_CHUNK_CELLS = _FORMAT_BYTES // _CELL_BYTES


def _shortest_digits(ax, work):
    """Digits of the finite |x| in ax where work holds: returns (c, decpt,
    nd, certain), c the 17-digit integer whose first nd digits are x's, x =
    0.c * 10**decpt. ax must be 1.0 where work does not hold."""
    s = 16 - np.floor(np.log10(ax)).astype(np.intp)
    work &= np.abs(s) <= _MAX_SCALE
    s[~work] = 16
    ax[~work] = 1.0
    s += _MAX_SCALE
    y = ax.astype(np.longdouble)
    y *= _SCALE_UP[s]
    if s.min() < _MAX_SCALE:  # |x| >= 1e16 somewhere
        y /= _SCALE_DOWN[s]
    yi = y.astype(np.int64)
    y -= yi
    f = y.astype(np.float64)  # exact: Y >= 2**53 keeps at most 11 fraction bits
    del y
    # the half-widths from x's bits: the spacing above, and below the gap
    # to the next float down
    bits = ax.view(np.uint64)
    scale = _HALF_SCALE[s]
    hi = ((bits & ~_MANTISSA) - np.uint64(52 << 52)).view(np.float64)
    hi *= scale
    lo = ax - (bits - np.uint64(1)).view(np.float64)
    lo *= scale
    s -= _MAX_SCALE
    # p = 0: both half-widths exceed Y 2**-54 > 0.55, so the integer nearer
    # to Y is inside; a tie at .5 is settled exactly where s >= 1: Y's
    # fraction is the low t bits of m 5**s for x = m 2**-(s + t), which a
    # wrapping uint64 product holds (1 <= t <= 63) and a shift moves to the top
    certain = work & (yi >= 9 * _POW10[15])
    c = yi + (f > 0.5)
    tie = np.abs(f - 0.5) <= _SLACK
    at = np.flatnonzero(tie)
    at = at[s[at] > 0]
    m = (bits[at] & _MANTISSA) | np.uint64(1 << 52)
    shift = (bits[at] >> np.uint64(52)) + s[at].astype(np.uint64) - np.uint64(1011)  # 64 - t
    frac = (m * _POW5[s[at]]) << shift  # Y's fraction times 2**64
    half = np.uint64(1 << 63)
    c[at] = yi[at] + ((frac > half) | ((frac == half) & (yi[at] % 2 == 1)))  # to even, as repr
    tie[at] = False
    # p = 1: the multiples of 10 either side of Y, which the interval (up
    # to 2 * 11.1 wide) may both hold; the nearer one wins when inside
    q = yi // 10
    r = yi - 10 * q
    down = r.astype(np.float64)
    down += f
    up = 10.0 - down
    below_gap = down - lo  # how far inside the edge (< 0) or outside (> 0)
    above_gap = up - hi
    above = down > 5.0  # the nearer multiple is above Y
    inside_below, inside_above = below_gap < 0.0, above_gap < 0.0
    tens = inside_below | inside_above
    up10 = (above & inside_above) | ~(above | inside_below)
    near_sure = (above & (above_gap < -_SLACK)) | (~above & (below_gap < -_SLACK))
    both_sure = np.minimum(np.abs(below_gap), np.abs(above_gap)) > _SLACK
    tie = (tens & (np.abs(down - 5.0) <= _SLACK)) | (~tens & tie)
    certain &= (near_sure | both_sure) & ~tie
    c += tens * ((q + up10) * 10 - c)
    p = tens.astype(np.intp)
    # p >= 2: at most one multiple of 100 fits, and only when Y mod 100 is
    # within 11.1 of it; the largest power of 10 dividing it is 10**p
    q = yi // 100
    r = yi - 100 * q
    at = np.flatnonzero(tens & ((r <= 11) | (r >= 88)))
    down = r[at] + f[at]
    above = down > 50.0
    near = np.where(above, (100.0 - down) - hi[at], down - lo[at])
    certain[at] &= np.abs(near) > _SLACK
    inside = np.flatnonzero(near < 0.0)
    at = at[inside]
    m = q[at] + above[inside]
    c[at] = 100 * m
    p[at] = 2
    while at.size:
        r = m % 10000
        p[at] += _TRAILING[r]
        at, m = at[r == 0], m[r == 0] // 10000
    # c, the multiple of 10**p, has 17 digits but where Y < 1e16 or c = 1e17
    short, long = np.flatnonzero(c < _POW10[16]), np.flatnonzero(c >= _POW10[17])
    c[short] *= 10
    c[long] //= 10
    digits = np.full(c.size, 17)
    digits[short], digits[long] = 16, 18
    return c, digits - s, digits - p, certain


class _CsvCells:
    """Formats float cells for _write_table, one chunk of at most _CHUNK_CELLS
    at a time, in buffers that every chunk reuses."""

    def __init__(self, cells):
        # word-major: row k holds word k of every cell, so that each
        # word-wide step runs along the cells
        self.source = np.full((4, cells), int.from_bytes(b"0" * 8, "little"), dtype=np.uint64)
        self.words = np.empty((3, _WIDTH // 8, cells), dtype=np.uint64)

    def format(self, block, row_ends):
        """The bytes of the 2-D float array block, row by row: cells joined
        by ',' and a row ended by '\\n' when row_ends, else by ','."""
        n, shape = block.size, block.shape
        source = self.source[:, :n]
        text, shifted, spill = self.words[:, :, :n]
        ax = np.empty(shape)
        ax[...] = block
        ax = ax.ravel()
        neg = ax.view(np.int64) < 0
        np.abs(ax, out=ax)
        # classified by their bits: a float comparison with a signaling NaN
        # would raise the invalid-operation flag
        zero = ax.view(np.uint64) == 0
        work = (ax.view(np.uint64) - np.uint64(1) < _LARGEST) & _DIGIT_PATH  # finite, not 0
        ax[~work] = 1.0
        c, decpt, nd, certain = _shortest_digits(ax, work)
        c[~certain] = 0  # zero, and a placeholder for the cells repr writes
        nd[~certain] = 1
        decpt[~certain] = 1
        top = c // _POW10[8]
        low = (c - top * _POW10[8]).astype(np.uint32)
        top = top.astype(np.uint32)
        halves = source.view(np.uint32)  # bytes 4k..4k+3 of a cell: halves[k // 2, k % 2::2]
        np.left_shift(top // 100000000, 24, out=halves[0, 1::2])  # "000" and the first digit
        halves[0, 1::2] += np.uint32(int.from_bytes(b"0000", "little"))
        top %= 100000000
        np.take(_DIGITS, top // 10000, out=halves[1, 0::2], mode="clip")
        np.take(_DIGITS, top % 10000, out=halves[1, 1::2], mode="clip")
        np.take(_DIGITS, low // 10000, out=halves[2, 0::2], mode="clip")
        np.take(_DIGITS, low % 10000, out=halves[2, 1::2], mode="clip")
        key = (decpt - _DEC_LO) * 36 + 2 * nd + neg
        point = _POINT[key]
        end = _SEP_AT[key]
        w = (int(point.max()) + 7) // 8  # the words that hold bytes before a point
        bits = _SHIFT[key]
        np.right_shift(source[:w], bits, out=shifted[:w])
        shifted[:w] |= np.left_shift(source[1 : w + 1], 64 - bits, out=spill[:w])
        bits -= 8
        np.right_shift(source[:3], bits, out=text[:3])
        text[:3] |= np.left_shift(source[1:], 64 - bits, out=spill[:3])
        shifted[:w] ^= text[:w]
        shifted[:w] &= np.take(_BEFORE[:w], point, axis=1, out=spill[:w], mode="clip")
        text[:w] ^= shifted[:w]
        chars = self.words[1].reshape(-1)[: 4 * n].reshape(n, 4)  # shifted's memory
        chars[:, :3] = text[:3].T
        # repr's text in place of the digits; its '.' goes where its ',' does
        done = certain | zero
        todo = np.flatnonzero(~done)
        texts = list(map(repr, block[np.unravel_index(todo, shape)].tolist()))
        chars.view("S32")[todo, 0] = texts
        end[todo] = point[todo] = np.fromiter(map(len, texts), dtype=np.intp, count=todo.size)
        # each cell's 32 bytes go to its place in the output in index order:
        # the bytes past a cell's text are overwritten by the cells after it
        start = np.cumsum(end + 1)
        size = int(start[-1])
        start -= end + 1
        out = self.words[2].reshape(-1).view(np.uint8)  # spill's memory
        window = np.ndarray((out.size - 31,), dtype="V32", buffer=out, strides=(1,))
        window[start] = chars.view("V32").ravel()
        out[start[neg & done]] = ord("-")
        out[start + point] = ord(".")
        sci = np.flatnonzero((decpt <= -4) | (decpt > 16))
        at = start[sci] + _EXPONENT_AT[key[sci]]
        window = np.ndarray((out.size - 3,), dtype=np.uint32, buffer=out, strides=(1,))
        window[at] = _EXPONENT[decpt[sci] - _DEC_LO]
        end += start
        out[end] = ord(",")
        if row_ends:
            out[end.reshape(shape)[:, -1]] = ord("\n")
        return out[:size]


def _write_table(fh, matrix):
    """Writes the d x N float matrix to the binary file fh as N rows of d
    cells, the bytes of ",".join(map(repr, row)) + "\n" for each row."""
    d, n = matrix.shape
    if d == 0:
        fh.write(b"\n" * n)
        return
    cells = _CsvCells(min(d * n, _CHUNK_CELLS))
    # pieces of matrix.T in row-major order, each of at most _CHUNK_CELLS
    # cells; a row wider than that comes in pieces
    per = max(1, _CHUNK_CELLS // d)
    width = min(d, _CHUNK_CELLS)
    for r0 in range(0, n, per):
        for c0 in range(0, d, width):
            fh.write(cells.format(matrix[c0 : c0 + width, r0 : r0 + per].T, c0 + width >= d))
