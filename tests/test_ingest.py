"""Differential tests: the vectorized input path against its loop reference.

`reference_ingest` keeps the csv-module `read_table` and the
column-by-column `standardize` that `rai.cli._read_table` and
`rai.kernel.standardize` replaced.  On every table drawn below the
package must return the same header and bit-identical data, or raise
the same exception with the same message; on every design it must build
a bit-identical dataset and give the same warnings.  "Bit-identical" is
compared through `view(np.uint64)`, so -0.0 and 0.0 differ.

The tables are messy on purpose: quoted cells, '#' cells, blank,
whitespace-only and delimiter-only rows, ragged rows, CRLF and CR line
ends, a byte order mark, tabs, one column or one row, nan and inf, and
number spellings float() takes but np.loadtxt may not ('1_0').  Each
run prints how many tables took np.loadtxt's result and how many were
read again by the csv reader; both paths must be exercised.
"""

import math
import re
import tracemalloc
import warnings
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rai.cli
from rai.cli import _read_table
from rai import FeatureTerm, realize
from rai.kernel import _unit_rows, standardize

import reference_ingest as ref

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and a.dtype == b.dtype
            and np.array_equal(a.view(np.uint64), b.view(np.uint64)))


def outcome(fn, *args):
    """(result, None) or (None, (exception type, message))."""
    try:
        return fn(*args), None
    except Exception as exc:  # compared, not handled
        return None, (type(exc), str(exc))


# -- _read_table -----------------------------------------------------------

# spellings that np.loadtxt and float() both take, whatever the delimiter
PLAIN_NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(min_value=-1e6, max_value=1e6).map(lambda v: f"{v:.9g}"),
    st.integers(min_value=-10**6, max_value=10**6).map(str),
)
NUMBERS = st.one_of(
    PLAIN_NUMBERS,
    st.sampled_from(["+1.5", "1e5", ".5", "-0", "0", "5.", "1E-3",
                     " 2 ", "3 ", "\t4", "1e-320", "-2.5e+300"]),
)
ODD_CELLS = st.sampled_from([
    "", " ", "1_0", '"3"', '"1,5"', "#4", "4#", "nan", "inf", "-inf",
    "Infinity", "1e400", "abc", "0x10", "1.5e", "1 2", "１", "-",
])
ODD_ROWS = st.sampled_from(["", "   ", "\t", ",,,", ",", " , ", "#x"])


@st.composite
def tables(draw):
    """Bytes of a delimited file, mostly valid, sometimes not."""
    width = draw(st.integers(min_value=1, max_value=5))
    names = draw(st.lists(st.sampled_from(["a", "b", "c", "y", " x ",
                                            "d e", "z1", '"q"', "", " "]),
                          min_size=width, max_size=width, unique=True))
    if draw(st.integers(0, 19)) == 0:
        names[-1] = names[0]        # a duplicate name
    delim = draw(st.sampled_from([",", "\t"]))
    messy = draw(st.booleans())
    rows = []
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        kind = draw(st.integers(0, 9)) if messy else 0
        if kind <= 5:
            cells = [draw(NUMBERS) for _ in range(width)]
            if kind == 5:
                cells[draw(st.integers(0, width - 1))] = draw(ODD_CELLS)
            rows.append(delim.join(cells))
        elif kind <= 7:
            rows.append(draw(ODD_ROWS).replace(",", delim))
        else:                                   # ragged
            k = width + draw(st.sampled_from([-1, 1, 2]))
            rows.append(delim.join(draw(NUMBERS) for _ in range(max(k, 0))))
    ends = draw(st.sampled_from(["\n", "\r\n", "\r", "mixed"]))
    lines = [delim.join(names)] + rows
    if ends == "mixed":
        text = "".join(line + draw(st.sampled_from(["\n", "\r\n"]))
                       for line in lines)
    else:
        text = ends.join(lines) + (ends if draw(st.booleans()) else "")
    bom = b"\xef\xbb\xbf" if draw(st.integers(0, 4)) == 0 else b""
    return bom + text.encode("utf-8")


def assert_same_table(path):
    got, got_err = outcome(_read_table, path)
    want, want_err = outcome(ref.read_table, path)
    assert got_err == want_err
    if want_err is None:
        assert got[0] == want[0]
        assert same_bits(got[1], want[1])


def test_read_table_matches_reference(tmp_path):
    path = str(tmp_path / "t.csv")
    paths = Counter()

    @given(tables())
    @settings(max_examples=400, deadline=None)
    def check(blob):
        with open(path, "wb") as fh:
            fh.write(blob)
        with mock.patch.object(rai.cli, "_csv_body",
                               wraps=rai.cli._csv_body) as fallback:
            assert_same_table(path)
        paths["csv" if fallback.called else "loadtxt"] += 1

    check()
    print(f"\ntables: {paths['loadtxt']} by np.loadtxt, "
          f"{paths['csv']} read again by the csv reader")
    assert paths["loadtxt"] >= 50 and paths["csv"] >= 50


@st.composite
def chunked_tables(draw):
    """(bytes, rows per chunk, data rows, clean) of a table that spans
    three or more of np.loadtxt's chunks, its row count at a chunk
    boundary or one row either side; with CRLF or CR-only line ends, no
    trailing line end, blank lines, a byte order mark or tabs, and
    sometimes a bad cell in the last chunk."""
    width = draw(st.integers(min_value=1, max_value=5))
    step = draw(st.integers(min_value=1, max_value=5))
    n = (draw(st.integers(min_value=3, max_value=5)) * step
         + draw(st.sampled_from([-1, 0, 1])))
    delim = draw(st.sampled_from([",", "\t"]))
    rows = [delim.join(draw(PLAIN_NUMBERS) for _ in range(width))
            for _ in range(n)]
    clean = draw(st.integers(0, 3)) > 0
    if not clean:
        # the last chunk holds the last n % step rows, or step of them
        i = n - 1 - draw(st.integers(0, (n % step or step) - 1))
        cells = rows[i].split(delim)
        cells[draw(st.integers(0, width - 1))] = draw(ODD_CELLS)
        rows[i] = delim.join(cells)
    for _ in range(draw(st.integers(0, 3))):
        rows.insert(draw(st.integers(0, len(rows))), "")
    names = [f"c{j}" for j in range(width)]
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = end.join([delim.join(names)] + rows)
    if draw(st.booleans()):
        text += end
    bom = b"\xef\xbb\xbf" if draw(st.booleans()) else b""
    return bom + text.encode("utf-8"), step, n, clean


def test_read_table_across_chunks_matches_reference(tmp_path):
    """Chunk by chunk, the reader gives the reference's header, bits and
    errors; a clean table takes np.loadtxt's path and fills its block
    exactly, and every response position splits off the same X and y."""
    path = str(tmp_path / "t.csv")

    @given(chunked_tables())
    @settings(max_examples=300, deadline=None)
    def check(table):
        blob, step, n, clean = table
        with open(path, "wb") as fh:
            fh.write(blob)
        header = blob.decode("utf-8-sig").splitlines()[0]
        width = len(header.split("\t" if "\t" in header else ","))
        with mock.patch.object(rai.cli, "CHUNK_BYTES", 8 * width * step), \
                mock.patch.object(rai.cli, "_csv_body",
                                  wraps=rai.cli._csv_body) as fallback:
            assert_same_table(path)
            if not clean:
                return
            assert not fallback.called
            assert rai.cli._row_bound(path) >= n
            want_header, want = ref.read_table(path)
            for response in {want_header[0], want_header[width // 2],
                             want_header[-1]} if width > 1 else ():
                names, X, y = rai.cli._read_design(path, response)
                j = want_header.index(response)
                assert names == want_header[:j] + want_header[j + 1:]
                assert same_bits(X, np.delete(want, j, axis=1))
                assert same_bits(y, want[:, j])
                assert X.flags.f_contiguous

    check()


def test_row_bound_counts_every_line_end(tmp_path):
    # LF, CRLF and CR-only files of the same three rows, with and
    # without a last line end, and a CRLF split across the read size
    path = tmp_path / "t.csv"
    for end in ("\n", "\r\n", "\r"):
        for tail in ("", end):
            path.write_bytes(end.join(["a,b", "1,2", "3,4", "5,6"]).encode()
                             + tail.encode())
            assert rai.cli._row_bound(str(path)) == 3, (end, tail)
    head = b"a\n" + b"1" * ((1 << 20) - 3) + b"\r"
    path.write_bytes(head + b"\n2\r\n")
    assert rai.cli._row_bound(str(path)) == 2


@pytest.mark.parametrize("ends", [("\n", "\r"), ("\r", "\n", "\n"),
                                  ("\r\n", "\r", "\n")])
@pytest.mark.parametrize("tail", [False, True])
@pytest.mark.parametrize("bad", [False, True])
def test_mixed_lf_and_lone_cr_ends_take_the_csv_reader(tmp_path, ends,
                                                       tail, bad):
    # LF and lone CR ends in one file: the row bound falls short of the
    # rows, so np.loadtxt's result is refused and the csv reader reads
    # the file, with the reference's header, bits and errors
    rng = np.random.default_rng(len(ends))
    rows = [",".join(f"{v:.17g}" for v in row)
            for row in rng.normal(size=(9, 3))]
    if bad:
        rows[4] = "1,abc,2"
    lines = ["a,b,c"] + rows
    text = "".join(line + ends[i % len(ends)] for i, line in enumerate(lines))
    path = tmp_path / "mixed.csv"
    path.write_bytes(text.encode() if tail else text.encode().rstrip(b"\r\n"))
    assert rai.cli._row_bound(str(path)) < len(rows)
    with mock.patch.object(rai.cli, "_csv_body",
                           wraps=rai.cli._csv_body) as fallback:
        assert_same_table(str(path))
    assert fallback.called


@pytest.mark.parametrize("fmt", ["{!r}", "{:.9g}", "{:.17g}", "{:.3e}"])
def test_large_clean_table_bit_identical(tmp_path, fmt):
    rng = np.random.default_rng(7)
    M = rng.normal(rng.normal(0, 100, 40), 10 ** rng.uniform(-3, 5, 40),
                   (3000, 40))
    lines = [",".join(f"c{j}" for j in range(40))]
    lines += [",".join(fmt.format(v) for v in row) for row in M.tolist()]
    path = tmp_path / "big.csv"
    path.write_text("\n".join(lines) + "\n")
    with mock.patch.object(rai.cli, "_csv_body") as fallback:
        header, data = _read_table(str(path))
    assert not fallback.called
    want_header, want = ref.read_table(str(path))
    assert header == want_header
    assert same_bits(data, want)


def test_fallback_keeps_line_numbered_messages(tmp_path):
    # each of these parses in np.loadtxt's terms or fails there; the
    # message must be the csv reader's either way
    cases = {
        "a,b\n1,2\n1,2,3\n": ":3: expected 2 fields, got 3",
        "a,b\n1,2\n1,#2\n": ":3: non-numeric or missing value",
        # a comment to np.loadtxt's defaults, which would drop the row
        "a,b\n1,2\n# 3,4\n5,6\n": ":3: non-numeric or missing value",
        "a,b\n1,2\n\n\n1,\n": ":5: non-numeric or missing value",
        "a,b\n1,nan\n": "non-finite value in table",
        "a,b\n,\n \n": "no data rows",
    }
    for i, (text, message) in enumerate(cases.items()):
        path = tmp_path / f"bad{i}.csv"
        path.write_text(text)
        with pytest.raises(rai.cli.ParseFailure, match=message):
            _read_table(str(path))
        assert_same_table(str(path))


def test_bytes_that_are_not_utf8_name_the_file(tmp_path):
    # in the header, in the first row, far into a body np.loadtxt reads,
    # and a Latin-1 cell; the reference words each error the same way
    body = "".join(f"{i},{i + 1}\n" for i in range(20000)).encode()
    cases = [b"a,\xffb\n1,2\n", b"a,b\n1,\xff2\n",
             b"a,b\n" + body + b"1,2\xfe\n", b"caf\xe9,b\n1,2\n"]
    for i, blob in enumerate(cases):
        path = tmp_path / f"bad{i}.csv"
        path.write_bytes(blob)
        with pytest.raises(rai.cli.ParseFailure,
                           match=f"^cannot read {re.escape(str(path))}: "
                                 "'utf-8' codec can't decode byte 0x"):
            _read_table(str(path))
        assert_same_table(str(path))


# -- standardize -----------------------------------------------------------

@st.composite
def designs(draw):
    """(X, y) with column kinds that stress the mean, norm and the
    constant-column rule, in C, Fortran or strided layout."""
    rng = np.random.default_rng(draw(seeds))
    n = draw(st.integers(min_value=3, max_value=80))
    p = draw(st.integers(min_value=1, max_value=12))
    cols = []
    for _ in range(p):
        kind = draw(st.sampled_from(["gauss", "gauss", "constant", "binary",
                                     "integer", "near_constant", "copy"]))
        offset = rng.normal() * 10.0 ** rng.uniform(-3, 8)
        scale = 10.0 ** rng.uniform(-3, 6)
        if kind == "gauss":
            col = offset + scale * rng.normal(size=n)
        elif kind == "constant":
            col = np.full(n, draw(st.sampled_from([0.0, 1.0, 0.1, offset])))
        elif kind == "binary":
            col = rng.integers(0, 2, n).astype(float)
        elif kind == "integer":
            col = rng.integers(-5, 6, n).astype(float)
        elif kind == "near_constant":
            # constant up to the last bits of 1 + offset
            col = (1.0 + abs(offset)) * (1.0 + 2.0 ** -52
                                         * rng.integers(0, 3, n))
        else:
            col = cols[-1].copy() if cols else rng.normal(size=n)
        cols.append(col)
    X = np.column_stack(cols)
    layout = draw(st.sampled_from(["C", "F", "strided"]))
    if layout == "F":
        X = np.asfortranarray(X)
    elif layout == "strided":
        wide = np.empty((n, 2 * p))
        wide[:, ::2] = X
        X = wide[:, ::2]
    y_kind = draw(st.sampled_from(["signal", "signal", "signal", "constant"]))
    if y_kind == "constant":
        y = np.full(n, 3.0)
    else:
        y = X[:, 0] * rng.normal() + 10.0 ** rng.uniform(-3, 6) * rng.normal(
            size=n)
    return X, y


def standardize_with_warnings(fn, X, y):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = outcome(fn, X, y)
    return out, [str(w.message) for w in caught]


FIELDS = ("columns", "response", "raw", "response_mean", "response_scale",
          "means", "scales")


def marginal_constants(ds):
    """(means, scales) of every column, as fit_terms realizes them."""
    return realize([FeatureTerm.marginal(j) for j in range(ds.p)],
                   ds.raw)[1:]


def assert_same_dataset(X, y):
    X_before = X.copy()
    (got, got_err), got_warn = standardize_with_warnings(standardize, X, y)
    (want, want_err), want_warn = standardize_with_warnings(
        ref.standardize, X, y)
    assert got_err == want_err
    assert got_warn == want_warn
    assert same_bits(X, X_before)          # the input is never written
    if want_err is not None:
        return
    assert got.names == want.names
    for name in FIELDS:
        assert same_bits(getattr(got, name), getattr(want, name)), name
    # the reference's constants are those of each column alone
    want_means, want_scales = zip(*(ref._unit_centered(col)[1:]
                                    for col in want.raw.T))
    means, scales = marginal_constants(got)
    assert same_bits(means, np.array(want_means))
    assert same_bits(scales, np.array(want_scales))
    assert got.columns.T.flags.c_contiguous     # each column is one row
    if not got_warn:
        assert np.shares_memory(got.raw, X)     # no copy of the design
    assert not got.raw.flags.writeable
    # handed over, the design gives the same dataset without its raw
    # columns, standardized in place when its columns are rows
    given = X.copy(order="A")
    (own, own_err), own_warn = standardize_with_warnings(
        lambda X, y: standardize(X, y, keep_raw=False), given, y)
    assert (own_err, own_warn) == (got_err, got_warn)
    assert own.raw is None and own.names == got.names
    for name in FIELDS:
        if name != "raw":
            assert same_bits(getattr(own, name), getattr(got, name)), name
    assert np.shares_memory(own.columns, given) == given.flags.f_contiguous


@given(designs())
@settings(max_examples=300, deadline=None)
def test_standardize_matches_reference(design):
    assert_same_dataset(*design)


@pytest.mark.parametrize("n,p", [(20000, 30), (2000, 400), (200, 100)])
def test_standardize_matches_reference_at_size(n, p):
    rng = np.random.default_rng(n + p)
    X = rng.normal(rng.normal(0, 5, p), 10 ** rng.uniform(-2, 3, p), (n, p))
    X[:, p // 2] = 4.2                        # one constant column
    y = X[:, 0] - 2.0 * X[:, 1] + rng.normal(size=n)
    assert_same_dataset(X, y)


def test_extreme_columns_match_each_column_alone():
    # sums of squares near 1e160 overflow and near 1e-160 underflow, so
    # those columns take the rescaled sums while the ordinary ones take
    # the vectorized sums; every column must still get the bits that
    # _unit_rows gives it alone, and the ordinary ones the reference's
    rng = np.random.default_rng(11)
    n = 500
    sizes = [1.0, 1e160, 3.0, 1e-160, 2e-158, 7e159, 0.01]
    X = np.column_stack([size * rng.normal(rng.normal(), 1.0, n)
                         for size in sizes])
    y = X[:, 0] + rng.normal(size=n)
    ds = standardize(X, y)
    assert ds.p == len(sizes)
    means, scales = marginal_constants(ds)
    for j in range(len(sizes)):
        col = X[:, j].copy()[None]
        (mean,), (scale,) = _unit_rows(col)
        assert same_bits(ds.columns[:, j], col[0]), j
        assert same_bits(means[j], mean), j
        assert same_bits(scales[j], scale), j
    ordinary = [j for j, size in enumerate(sizes) if 1e-3 < size < 1e3]
    assert_same_dataset(np.ascontiguousarray(X[:, ordinary]), y)


ROW_KINDS = {
    "ordinary": lambda rng, n: rng.normal(rng.normal(), 1.0, n),
    "constant": lambda rng, n: np.full(n, rng.normal()),
    "sign": lambda rng, n: rng.permutation(np.resize([-1.0, 1.0], n)),
    "huge": lambda rng, n: 1e160 * rng.normal(rng.normal(), 1.0, n),
    "tiny": lambda rng, n: 1e-160 * rng.normal(rng.normal(), 1.0, n),
    # a mean near 1e306: the plain sum overflows
    "near_max": lambda rng, n: 1e306 * rng.normal(1.0, 0.5, n),
}


@given(seeds, st.integers(3, 700),
       st.lists(st.sampled_from(sorted(ROW_KINDS)), min_size=1, max_size=8))
@settings(max_examples=100, deadline=None)
def test_mixed_block_rows_match_each_row_alone(seed, n, kinds):
    """Every row of a block gets from _unit_rows the bits it gets alone,
    whatever the other rows hold, and the bits standardize gives it as
    a column; a constant row is NaN, and standardize drops it."""
    rng = np.random.default_rng(seed)
    raw = np.array([ROW_KINDS[kind](rng, n) for kind in kinds])
    block = raw.copy()
    means, scales = _unit_rows(block)
    for j, kind in enumerate(kinds):
        row = raw[j].copy()[None]
        (mean,), (scale,) = _unit_rows(row)
        assert same_bits(block[j], row[0]), kind
        assert same_bits(means[j], mean), kind
        assert same_bits(scales[j], scale), kind
        assert np.isnan(row).all() == (kind == "constant"), kind
    live = [j for j, kind in enumerate(kinds) if kind != "constant"]
    if not live:
        return
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")     # dropped constant columns
        ds = standardize(raw.T, rng.normal(size=n))
    assert ds.names == tuple(f"X{j + 1}" for j in live)
    assert same_bits(ds.columns, np.ascontiguousarray(block[live].T))


def test_dropped_columns_warned_and_columns_c_contiguous():
    rng = np.random.default_rng(3)
    X = np.asfortranarray(rng.normal(size=(30, 5)))
    X[:, 1] = 0.0
    X[:, 3] = -7.5
    with pytest.warns(UserWarning,
                      match=r"^dropped constant columns: b, d$"):
        ds = standardize(X, rng.normal(size=30), list("abcde"))
    assert ds.names == ("a", "c", "e")
    assert ds.columns.T.flags.c_contiguous      # each column is one row
    assert same_bits(ds.raw, X[:, [0, 2, 4]])


def test_copy_path_holds_one_block_when_it_drops_a_column():
    """Handed a C-order design with keep_raw=False, standardize copies
    it, and moves the kept rows up in that copy when it drops a
    constant column: its traced peak stays below 1.5 times the design's
    bytes, where a second block of kept rows would take it to 2."""
    rng = np.random.default_rng(0)
    X = rng.normal(size=(20000, 50))
    X[:, 7] = 3.0
    y = rng.normal(size=20000)
    tracemalloc.start()
    try:
        with pytest.warns(UserWarning, match="dropped constant columns: X8"):
            ds = standardize(X, y, keep_raw=False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ds.p == 49 and not np.shares_memory(ds.columns, X)
    assert peak < 1.5 * X.nbytes, peak / X.nbytes
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        want = standardize(X, y)
    assert same_bits(ds.columns, want.columns)


def test_csv_design_is_column_major_and_kept_as_raw(tmp_path):
    # the CLI's design is column-major, the F-order view of the one block
    # the reader parsed into, wherever the response stood; `standardize`
    # keeps it as `raw` without a copy, so `monomial` reads contiguous
    # columns on the CSV path, or, handed the design, standardizes that
    # block in place and keeps no raw columns
    rng = np.random.default_rng(5)
    path = tmp_path / "design.csv"
    np.savetxt(path, rng.normal(size=(50, 6)), delimiter=",",
               header="a,b,y,c,d,e", comments="", fmt="%.17g")
    for response in "aye":
        tables = []

        def read_table(path):
            tables.append(_read_table(path))
            return tables[-1]

        with mock.patch.object(rai.cli, "_read_table", read_table):
            names, X, y = rai.cli._read_design(str(path), response)
        (_, table), = tables
        assert X.flags.f_contiguous and np.shares_memory(X, table)
        assert not np.shares_memory(y, table)
        raw = standardize(X, y, names).raw
        assert raw.flags.f_contiguous and np.shares_memory(raw, X)
        own = standardize(X, y, names, keep_raw=False)
        assert own.raw is None and np.shares_memory(own.columns, X)


def test_constant_rule_is_scale_free():
    # the reference loop calls every column here constant, because its
    # rule has an absolute floor of 1e-12 sqrt(n); relative to the data
    # they vary as much as at scale 1
    rng = np.random.default_rng(5)
    X = rng.normal(size=(50, 3))
    y = X[:, 0] + rng.normal(size=50)
    tiny = standardize(X * 1e-150, y * 1e-150)
    unit = standardize(X, y)
    assert tiny.p == unit.p == 3
    np.testing.assert_allclose(tiny.columns, unit.columns, atol=1e-12)
    with pytest.raises(Exception, match="constant"):
        ref.standardize(X * 1e-150, y * 1e-150)
    assert math.isfinite(tiny.response_scale)
