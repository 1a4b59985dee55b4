"""The CLI's fast input and output paths against their plain references.

`estimate` and `diagnose` read a sample CSV with one `np.loadtxt` call and
hand every file that it does not parse cleanly, or whose values the sample
type refuses, to the row parser, which owns the messages.  `fit.json` and `manifest.json` come from a writer that must
produce exactly the bytes of `json.dumps(obj, indent=2, sort_keys=True)`.
"""
from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mhrfit import cli, survival_core

HEADER = "time,status,arm"


def outcome(read, path):
    """("ok", result) or ("error", message) of one reader.

    An input error is the only failure a reader may give; anything else
    propagates and fails the test.
    """
    try:
        return ("ok", read(path))
    except cli.InputError as exc:
        return ("error", str(exc))


def same_columns(a, b):
    return all(x.dtype == y.dtype and x.shape == y.shape
               and np.ascontiguousarray(x).tobytes()
               == np.ascontiguousarray(y).tobytes() for x, y in zip(a, b))


def sample_columns(result):
    """A reader's outcome with the sample replaced by its three columns."""
    if result[0] == "ok":
        sample = result[1]
        return ("ok", (sample.time, sample.status, sample.arm))
    return result


def check_file(path):
    """The numpy path agrees with the row parser wherever it answers.

    Numpy's columns, when it gives any, equal the row parser's bitwise
    and in dtype.  The whole reader gives exactly what it gives with the
    numpy path switched off: the same sample columns or the same input
    error, and no other kind of failure.  Returns whether numpy answered.
    """
    fast = outcome(cli._load_columns, path)
    answered = fast[0] == "ok" and fast[1] is not None
    if answered:
        rows = outcome(cli._parse_rows, path)
        assert rows[0] == "ok", rows
        assert same_columns(fast[1], rows[1][0])
    whole = sample_columns(outcome(cli._read_sample, path))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_load_columns", lambda path: None)
        by_rows = sample_columns(outcome(cli._read_sample, path))
    if whole[0] == by_rows[0] == "ok":
        assert same_columns(whole[1], by_rows[1])
    else:
        assert whole == by_rows
    return answered


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    return str(path)


CLEAN = {
    "plain": "time,status,arm\n1.5,1,0\n2.25,0,1\n",
    "crlf": "time,status,arm\r\n1.5,1,0\r\n2.25,0,1\r\n",
    "cr": "time,status,arm\r1.5,1,0\r2.25,0,1\r",
    "spaces": "time, status ,arm\n 1.5 , 1 ,0\n2.25,0 , 1 \n",
    "signs-and-forms": "time,status,arm\n1e-3,+1,-0\n.5,01,1\n5.,0,1\n",
    "empty-lines": "time,status,arm\n\n1.5,1,0\n\n2.25,0,1\n\n",
    "no-final-newline": "time,status,arm\n1.5,1,0",
    "one-row": "time,status,arm\n0.0,0,1\n",
}

FALLBACK = {
    "blank-cells-row": "time,status,arm\n , , \n1.5,1,0\n",
    "whitespace-row": "time,status,arm\n   \n1.5,1,0\n",
    "tab-row": "time,status,arm\n1.5,1,0\n\t\n",
    "quoted": 'time,status,arm\n"1.5",1,0\n',
    "quoted-newline": 'time,status,arm\n"1.5\n",1,0\n',
    "underscore": "time,status,arm\n1_0,1,0\n",
    "status-float": "time,status,arm\n1.5,1.0,0\n",
    "arm-float": "time,status,arm\n1.5,1,0.0\n",
    "full-width-time": "time,status,arm\n１,1,0\n",
    "full-width-status": "time,status,arm\n1.5,１,0\n",
    "huge-status": "time,status,arm\n1.5,99999999999999999999999,0\n",
    "huge-arm": "time,status,arm\n1.5,0,-99999999999999999999999\n",
    "status-two": "time,status,arm\n1.5,1,0\n2.0,2,0\n",
    "arm-minus-one": "time,status,arm\n1.5,1,-1\n",
    "inf": "time,status,arm\n1.5,1,0\ninf,1,0\n",
    "nan": "time,status,arm\nnan,1,0\n",
    "overflow": "time,status,arm\n1e400,1,0\n",
    "negative-time": "time,status,arm\n-0.5,1,0\n",
    "extra-field": "time,status,arm\n1.5,1,0\n2.0,1,0,\n",
    "missing-field": "time,status,arm\n1.5,1,0\n2.0,1\n",
    "comment-row": "time,status,arm\n#1,1,0\n",
    "text-cell": "time,status,arm\n1.5,yes,0\n",
    "header-only": "time,status,arm\n",
    "header-only-blank-rows": "time,status,arm\n\n , , \n",
    "empty": "",
    "bom": "\ufefftime,status,arm\n1.5,1,0\n",
    "bad-header": "time,status,group\n1.5,1,0\n",
    "quoted-header": '"time",status,arm\n1.5,1,0\n',
    "nbsp": "time,status,arm\n\xa01.5,1,0\n",
    "nul": "time,status,arm\n1.5,1,0\n\x00\n",
    # numpy strips these as blanks, int() does not
    "file-separator": "time,status,arm\n1.5,1\x1c,0\n",
    "unit-separator": "time,status,arm\n1.5,\x1f1,0\n",
    # numpy's int parser reads some letters as digits: "1\u01fe" as 472
    "letter-as-digit": "time,status,arm\n1.5,1\u01fe,0\n",
    "header-without-newline": "time,status,arm",
    "cr-header-then-quote": 'time,status,arm\r"1.5",1,0\r',
    "not-utf8": b"time,status,arm\n1.5,1,0\n\xff\xfe,1,0\n",
    # cells longer than the csv module's limit: the first numpy reads as
    # inf, the second as 1.0, which the row parser must still refuse
    "oversized-cell": "time,status,arm\n1.5,1,0\n" + "1" * 131073 + ",1,0\n",
    "oversized-padded-cell": ("time,status,arm\n1.5,1,1\n" + "0" * 131072
                              + "1,1,0\n"),
}


@pytest.mark.parametrize("name", sorted(CLEAN))
def test_clean_files_take_the_numpy_path(tmp_path, name):
    assert check_file(write(tmp_path, CLEAN[name]))


@pytest.mark.parametrize("name", sorted(FALLBACK))
def test_odd_files_read_as_the_row_parser_reads_them(tmp_path, name):
    check_file(write(tmp_path, FALLBACK[name]))


@pytest.mark.parametrize("name", ["header-only", "text-cell", "status-float",
                                  "huge-status", "inf", "extra-field"])
def test_fallback_messages_and_codes_match_the_row_parser(
        tmp_path, capsys, monkeypatch, name):
    path = write(tmp_path, FALLBACK[name])
    argv = ["diagnose", "--input", path, "--out", str(tmp_path / "o")]
    code = cli.main(argv)
    err = capsys.readouterr().err
    monkeypatch.setattr(cli, "_load_columns", lambda path: None)
    assert (code, err) == (cli.main(argv), capsys.readouterr().err)
    assert code == 2 and err.startswith(f"error: {path}: ")


def test_clean_file_runs_the_value_rules_once(tmp_path, monkeypatch):
    calls = []
    rules = survival_core._first_invalid_row

    def counted(*columns):
        calls.append(len(columns[0]))
        return rules(*columns)

    monkeypatch.setattr(survival_core, "_first_invalid_row", counted)
    monkeypatch.setattr(cli, "_first_invalid_row", counted)
    cli._read_sample(write(tmp_path, CLEAN["plain"]))
    assert calls == [2]


def test_value_rule_names_the_first_bad_row(tmp_path):
    path = write(tmp_path, "time,status,arm\n1.5,1,0\n\n2.0,2,0\n-1,1,0\n")
    with pytest.raises(cli.InputError) as exc:
        cli._read_sample(path)
    assert str(exc.value) == f"{path}: line 4: status must be 0 or 1, got 2"


@given(st.binary(max_size=40).map(lambda b: b.replace(b"\x00", b"\n")),
       st.integers(0, 12))
def test_long_line_gate_matches_the_line_lengths(raw, limit):
    lines = raw.replace(b"\r", b"\n").split(b"\n")
    assert cli._has_long_line(raw, limit) == (max(map(len, lines)) > limit)


CELLS = ["0", "1", "2", "-1", "+1", "-0", "01", "1.0", "0.0", "2.5", ".5",
         "5.", "1e-3", "1E2", "1e0", " 1 ", "\t0", "1_0", "１", "٣",
         "\xa01", "1\x1c", "\x1f0", "1\u01fe", "\u04ff", '"1"', "", " ",
         "inf", "-inf", "nan", "1e400", "0x1", "9" * 25, "-" + "9" * 25,
         "1 2", "1-", "+-1", "--1", "1+", "1.", ".", "e", "-", "+", "#", "a"]


@settings(max_examples=300)
@given(st.lists(st.one_of(st.just([]),
                          st.lists(st.sampled_from(CELLS), min_size=1,
                                   max_size=4)),
                max_size=6),
       st.sampled_from(["\n", "\r\n", "\r"]), st.booleans())
def test_generated_files_agree(tmp_path_factory, rows, newline, final):
    text = newline.join([HEADER] + [",".join(row) for row in rows])
    path = write(tmp_path_factory.mktemp("csv"), text + newline * final)
    check_file(path)


def test_large_file_round_trips(tmp_path):
    rng = np.random.default_rng(7)
    n = 5000
    times = rng.exponential(size=n)
    status, arms = rng.integers(0, 2, n), rng.integers(0, 2, n)
    text = HEADER + "\n" + "".join(f"{t!r},{s},{a}\n" for t, s, a in
                                  zip(times.tolist(), status.tolist(),
                                      arms.tolist()))
    path = write(tmp_path, text)
    assert check_file(path)
    sample = cli._read_sample(path)
    assert np.array_equal(sample.time, times)
    assert np.array_equal(sample.status, status)


def dumps(obj):
    return json.dumps(obj, indent=2, sort_keys=True)


PAYLOADS = {
    "empty-dict": {},
    "empty-list": [],
    "empty-inner": {"a": [], "b": {}, "c": [[], {}]},
    "scalars": {"int": 3, "float": 0.1, "true": True, "false": False,
                "none": None, "text": "x"},
    "specials": {"v": [math.nan, math.inf, -math.inf, -0.0, 0.0, 1.5]},
    "negative-zero-runs": [0.0, -0.0, -0.0, 0.0, 0.0],
    "repeats": [0.25] * 5 + [1e-7] * 3 + [1e22, 1e22, 5e-324],
    "floats": [0.1 * k for k in range(50)],
    "nested": {"z": {"y": {"x": [1.0, 2.0]}}, "a": [{"b": [3, "c"]}, 4.5]},
    "comma-strings": {"paths": ["/tmp/a, b.csv", "c, d", ", "],
                      "flag": "x, y"},
    "mixed-list": [1, 1.0, "1", True, None, -0.0],
    "unicode": {"café": ["über", "☃", "\"q\"", "back\\slash"]},
    "tuple": {"t": (1.0, 2.0), "u": ((1, 2), (3,))},
    "float-subclass": [np.float64(0.5), np.float64(0.5)],
    "bools-and-ints": [True, False, 0, 1],
}


@pytest.mark.parametrize("name", sorted(PAYLOADS))
def test_writer_matches_indented_json_dumps(name):
    assert cli._json_text(PAYLOADS[name]) == dumps(PAYLOADS[name])


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=6)
    | st.dictionaries(st.text(max_size=8), inner, max_size=6),
    max_leaves=30)


@given(JSON)
def test_writer_matches_on_generated_documents(obj):
    assert cli._json_text(obj) == dumps(obj)


def test_writer_refuses_non_string_keys():
    with pytest.raises(TypeError, match="keys must be strings"):
        cli._json_text({1: 2})
