"""Snapshot and diagnostics files: plain CSV with a header line and '\n'
line endings.  Every value is printf ``%.17g``: 17 significant digits, so
that doubles round-trip bit-exactly, in fixed form or, when the decimal
exponent is below -4 or at least 17, in exponent form (``1e-300``), with
trailing zeros dropped and ``-0``, ``nan``, ``inf``, ``-inf`` spelled that
way.  A snapshot's columns are ``x`` and then the fields of a ``State`` in
declaration order (``SNAPSHOT_COLUMNS``).

The bytes are those of Python's ``'%.17g' % x``, made by one numpy kernel
for all float columns of a block of rows (:func:`_format`).  For
1e-279 <= |x| < 1e279 it takes the decimal exponent k from ``log10|x|``
and the 17 digits from the double-double product |x| * 10**(16-k): each
10**j is stored as hi + lo, and |x| * hi is split exactly by Dekker's
product, so the product is exact where 10**j is a double (0 <= j <= 22)
and within about 4e-15 of a last-digit unit elsewhere.  The rounded
significand is accepted where it has 17 digits and the dropped fraction
is farther than ``_TIE_MARGIN`` from 1/2 (is not 1/2, where the product
is exact).  Digits, point, trailing-zero strip and ``e+XX`` then come
from lookup tables as NUL-padded byte rows, and each block of rows is
written as one compress of its bytes.  The other values (NaN, inf,
subnormals, values outside that range, near-ties, and the few values just
below a power of ten where ``log10`` rounds up) fall back, one by one, to
``'%.17g' %`` (:func:`_fallback` says which).  Exact zeros are the literal
``0`` and ``-0``, and a column of +0.0 alone skips the kernel; the ``x``
column of a snapshot is formatted once per grid (through ``Grid.cached``)
and reused by every snapshot on that grid."""

from __future__ import annotations

import functools
import os
from collections import namedtuple

import numpy as np

from .diagnostics import SERIES_COLUMNS, DiagnosticsSeries, Trajectory
from .grid import Grid
from .state import FIELDS, State

__all__ = ["SNAPSHOT_COLUMNS", "snapshot_filename", "write_snapshot",
           "write_diagnostics_csv", "write_trajectory"]

SNAPSHOT_COLUMNS = ("x",) + FIELDS

# the certified range is 1e-279 <= |x| < 1e279; the tables span one more
# decade each way, so an inexact log10 still finds its row.  There
# 10**(16-k), its split halves and |x| * 2**27 are normal doubles.
_K_LO, _K_HI = -280, 280
_SPLIT = 2.0 ** 27 + 1.0      # Dekker's splitting constant for doubles
_TIE_MARGIN = 1e-9            # in last-digit units, far above the 4e-15 error
_E16, _E17 = 10 ** 16, 10 ** 17
_BLOCK = 4096                 # formatted values per block of rows

# A value's text cell has 56 byte slots: the sign, the prefix "0.000",
# the 17 digits, the point, the 17 digits again and "e-XXX".  Digits
# before the point come from the first copy and the others from the
# second, so a layout (sign, form, significant digits) keeps up to six
# runs of slots.  The rest are NUL, and a block of rows is written without
# them.  Each copy's last 16 digits and the exponent fill whole 4- and
# 8-byte words.
_WIDTH = 56
_ONE, _POINT, _TWO, _EXP = 7, 24, 27, 48   # first slots
_FIXED = 21                   # fixed forms, k = -4 ... 16; then e+XX, e+XXX
_FORMS = _FIXED + 2
# two more layouts: a value left to '%.17g' % and an exact zero
_FALLBACK, _ZERO = 2 * _FORMS * 17, 2 * _FORMS * 17 + 1


_Tables = namedtuple("_Tables", "pow10 exps forms groups trailing layouts "
                     "words template")


@functools.cache
def _tables() -> _Tables:
    """Per decimal exponent k: 10**(16-k) as hi + lo with hi's split
    halves, the tie margin, the exponent text and the form's first
    layout; then the text and trailing zeros of every 4-digit group (4
    for 0000), the slot masks of every layout as bools and as 8-byte
    words, and the bytes that every row starts from.  Built on the first
    write (about 4 ms), not when the package is imported."""
    hi, lo, hh, margin = [], [], [], []
    for k in range(_K_LO, _K_HI):
        num, den = 10 ** max(16 - k, 0), 10 ** max(k - 16, 0)
        h = num / den                        # int division rounds correctly
        a, b = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * b - a * den) / (den * b))    # 10**(16-k) - h
        t = _SPLIT * h
        hh.append(t - (t - h))
        margin.append(0.0 if lo[-1] == 0.0 else _TIE_MARGIN)
    hi, lo, hh, margin = map(np.array, (hi, lo, hh, margin))
    k = np.arange(_K_LO, _K_HI)
    exps = np.frombuffer(b"".join(b"%-8s" % (b"e%+03d" % k) for k in k),
                         np.uint64)
    forms = np.where((k >= -4) & (k < 17), k + 4,
                     np.where(np.abs(k) < 100, _FIXED, _FIXED + 1))
    d = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    groups = np.stack(np.meshgrid(d, d, d, d, indexing="ij"), -1)
    groups = groups.view(np.uint32).ravel()  # "0000" ... "9999"
    g = np.arange(10000)
    trailing = sum(g % 10 ** z == 0 for z in range(1, 5)).astype(np.int8)

    neg, form, s = np.meshgrid(np.arange(2), np.arange(_FORMS),
                               np.arange(1, 18), indexing="ij")
    k = form - 4                             # fixed forms only
    fixed = form < _FIXED
    before = np.where(fixed, np.maximum(k + 1, 0), 1)   # digits before
    runs = [(0, neg),                                    # sign
            (1, np.where(before, 1, 2 - k)),             # 0.000
            (_ONE, _ONE + before),                       # digits before
            (_POINT, _POINT + ((s > before) & (before > 0))),
            (_TWO + before, _TWO + s),                   # the other digits
            (_EXP, np.where(fixed, _EXP, _EXP + 4 + form - _FIXED))]
    slot = np.arange(_WIDTH)                 # each run keeps [start, end)
    masks = np.zeros(neg.shape + slot.shape, bool)
    for start, end in runs:
        masks |= (slot >= np.expand_dims(start, -1)) \
            & (slot < np.expand_dims(end, -1))
    # _FALLBACK keeps 24 slots, the longest '%.17g' text; _ZERO keeps "-0"
    masks = np.concatenate([masks.reshape(-1, _WIDTH), [slot < 24, slot < 2]])
    template = np.zeros(_WIDTH, np.uint8)
    template[:6] = np.frombuffer(b"-0.000", np.uint8)
    template[_POINT] = ord(".")
    return _Tables((hi, lo, hh, hi - hh, margin), exps, forms * 17, groups,
                   trailing, masks,
                   masks.astype(np.uint8).view(np.uint64) * 0xFF, template)


def _scaled(a, i):
    """a * 10**(16-k) for a = |v| as p + r: p = fl(a * hi), and r is the
    rest of Dekker's exact product a * hi plus a * lo."""
    hi, lo, hh, hl, _ = _tables().pow10
    p = a * hi.take(i)
    ah = _SPLIT * a
    ah -= ah - a
    al = a - ah
    # r = (((ah * hh - p) + ah * hl + al * hh) + al * hl) + a * lo, in place
    hh, hl = hh.take(i), hl.take(i)
    r = ah * hh
    r -= p
    r += ah * hl
    r += al * hh
    r += al * hl
    r += a * lo.take(i)
    return p, r


def _significands(v):
    """For nonzero v: (n, i, ok), where the 17 significant digits of |v|
    are the int64 n in [1e16, 1e17) and its decimal exponent is
    k = i + _K_LO, valid wherever ok."""
    a = np.abs(v)
    ok = (a >= 1e-279) & (a < 1e279)         # False on NaN
    a[~ok] = 1.0
    i = np.floor(np.log10(a)).astype(np.intp)
    i -= _K_LO
    p, r = _scaled(a, i)
    whole = np.floor(r)
    r -= whole                               # the dropped fraction
    m = p.astype(np.int64)
    m += whole.astype(np.int64)
    n = m + (r > 0.5)
    margin = _tables().pow10[4].take(i)
    ok &= np.abs(r - 0.5) > margin
    ok &= n < _E17
    ok &= (m > _E16) | ((m == _E16) & (r >= margin))
    return n, i, ok


def _fallback(col) -> np.ndarray:
    """Where the kernel leaves ``col`` to ``'%.17g' %``: the nonzero
    values it cannot certify."""
    col = np.asarray(col, dtype=float)
    nonzero = col != 0.0
    fallback = np.zeros(col.shape, bool)
    fallback[nonzero] = ~_significands(col[nonzero])[2]
    return fallback


def _kernel(v):
    """The ``%.17g`` text of nonzero doubles as NUL-padded byte rows of
    ``_WIDTH`` slots, and each row's layout."""
    n, i, ok = _significands(v)
    top = n // 10 ** 8                       # digits 0-8, then 9-16
    bottom = (n - top * 10 ** 8).astype(np.int32)
    head, g2 = np.divmod(top.astype(np.int32), 10 ** 4)
    d0, g1 = np.divmod(head, 10 ** 4)
    groups = (g1, g2, *np.divmod(bottom, 10 ** 4))
    tab = _tables()
    text = np.repeat(tab.template[None], len(v), axis=0)
    text[:, _ONE] = text[:, _TWO] = d0 + ord("0")
    quads, words = text.view(np.uint32), text.view(np.uint64)
    for w, g in enumerate(groups):
        quads[:, (_ONE + 1) // 4 + w] = quads[:, (_TWO + 1) // 4 + w] = \
            tab.groups.take(g)
    words[:, _EXP // 8] = tab.exps.take(i)
    zeros = tab.trailing.take(groups[3])     # trailing zeros of the digits
    for depth, g in enumerate(groups[2::-1], 1):
        tail = zeros == 4 * depth            # the groups after g are 0000
        if not tail.any():
            break
        zeros[tail] += tab.trailing.take(g[tail])
    layout = tab.forms.take(i) + (16 - zeros) + np.signbit(v) * (_FORMS * 17)
    for r in range(0, len(v), 1024):         # in row chunks: small temps
        words[r:r + 1024] &= tab.words.take(layout[r:r + 1024], axis=0)
    for j in np.flatnonzero(~ok):
        s = b"%.17g" % v[j]
        text[j] = 0
        text[j, :len(s)] = np.frombuffer(s, np.uint8)
        layout[j] = _FALLBACK
    return text, layout


def _format(values) -> list:
    """The text of each row of a (columns, rows) float array: per column,
    a 2-D uint8 array with one NUL-padded row of bytes per entry, only as
    wide as its layouts need.  A column of +0.0 alone is the one byte
    ``0`` for every row and skips the kernel."""
    out = [np.array([[ord("0")]], np.uint8)] * len(values)
    formatted = (values != 0.0).any(axis=1) | np.signbit(values).any(axis=1)
    values = values[formatted]
    nonzero = values != 0.0
    if nonzero.all():
        text, layout = _kernel(values.ravel())
    else:
        text = np.zeros(values.shape + (_WIDTH,), np.uint8)
        layout = np.full(values.shape, _ZERO)
        text[nonzero], layout[nonzero] = _kernel(values[nonzero])
        zero = ~nonzero
        text[zero, 1] = ord("0")
        text[zero & np.signbit(values), 0] = ord("-")
    layouts = _tables().layouts
    used = np.zeros((len(values), len(layouts)), bool)
    used[np.arange(len(values))[:, None], layout.reshape(values.shape)] = True
    for j, t, u in zip(np.flatnonzero(formatted),
                       text.reshape(values.shape + (_WIDTH,)), used):
        out[j] = t[:, layouts[u].any(axis=0)]
    return out


def _x_text(g: Grid) -> np.ndarray:
    """The cell centers' text (see :func:`_format`), built once per grid."""
    return g.cached("csv_x", lambda g: _format(g.centers[None])[0])


def _write_csv(path, header, columns):
    """Write one column per header name, a block of rows at a time.  A
    float column is formatted by :func:`_format`, all float columns of a
    block in one call; a 2-D uint8 column is text as :func:`_format`
    returns it, so one row of text (a column of +0.0 alone) stands for
    every row.  The float columns, of which there is at least one, give
    the row count."""
    floats = [j for j, col in enumerate(columns) if col.ndim == 1]
    rows = len(columns[floats[0]])
    columns = [col if col.ndim == 1 else
               np.broadcast_to(col, (rows, col.shape[1])) for col in columns]
    # a signalling NaN raises 'invalid' where it is compared; it is
    # written as nan all the same
    with np.errstate(invalid="ignore"), open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode("ascii"))
        # a block holds about _BLOCK values of columns that are not all +0
        busy = sum(bool(columns[j].any() or np.signbit(columns[j]).any())
                   for j in floats)
        step = max(1, _BLOCK // max(busy, 1))
        for start in range(0, rows, step):
            texts = [col[start:start + step] for col in columns]
            formatted = _format(np.stack([texts[j] for j in floats]))
            for j, t in zip(floats, formatted):
                texts[j] = t
            table = np.empty((min(step, rows - start),
                              sum(t.shape[1] + 1 for t in texts)), np.uint8)
            end = 0
            for t in texts:
                table[:, end:end + t.shape[1]] = t
                end += t.shape[1] + 1
                table[:, end - 1] = ord(",")
            table[:, -1] = ord("\n")
            fh.write(table[table != 0])


def snapshot_filename(step: int) -> str:
    return f"snapshot_{step:07d}.csv"


def write_snapshot(path, state: State):
    _write_csv(path, SNAPSHOT_COLUMNS, [_x_text(state.grid)] + [
        getattr(state, name) for name in FIELDS])


def write_diagnostics_csv(path, series: DiagnosticsSeries):
    _write_csv(path, SERIES_COLUMNS,
               [series.column(k) for k in SERIES_COLUMNS])


def write_trajectory(out_dir, traj: Trajectory):
    """Write every recorded snapshot plus diagnostics.csv; returns paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for state, step in zip(traj.states, traj.snapshot_steps):
        p = os.path.join(out_dir, snapshot_filename(step))
        write_snapshot(p, state)
        paths.append(p)
    dpath = os.path.join(out_dir, "diagnostics.csv")
    write_diagnostics_csv(dpath, traj.series)
    paths.append(dpath)
    return paths
