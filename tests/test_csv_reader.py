"""The CLI's CSV peer reader against the row-by-row reference reader.

Each corpus file is read by both; they must return equal peer lists, or both
raise ParseInputError with the same text. Each row of interest is placed
both on line 1, where the reader looks for a header, and further down,
between well-formed rows.
"""

from __future__ import annotations

import re

import pytest

from acide.cli import ParseInputError, load_peers_csv
from acide.core import PeerProfile
from oracles import reference_load_peers_csv

GOOD = "a,10000,20000\n"

# Rows of interest, each tried on line 1 and after a well-formed row.
ROWS = {
    "header": "id,u_bps,d_bps\n",
    "header-spaced": " ID ,upload,download\n",
    "id-with-numbers": "id,1,2\n",
    "blank": "\n",
    "spaces-only": "   \n",
    "empty-quoted": '""\n',
    "quoted-comma-id": '"x,y",15000,30000\n',
    "quoted-newline-id": '"x\ny",15000,30000\n',
    "spaced-id": "  b  ,15000,30000\n",
    "whitespace-id": "   ,15000,30000\n",
    "empty-id": ",15000,30000\n",
    "zero-id": "0,15000,30000\n",
    "nan": "b,nan,30000\n",
    "nan-download": "b,15000,NaN\n",
    "inf": "b,inf,30000\n",
    "inf-download": "b,15000,Infinity\n",
    "overflow": "b,1e309,30000\n",
    "negative": "b,-1,30000\n",
    "zero": "b,0,30000\n",
    "negative-zero": "b,-0,30000\n",
    "zero-download": "b,15000,0.0\n",
    "underscore": "b,1_000,30000\n",
    "padded-number": "b, 5 ,30000\n",
    "exponent": "b,1.5e4,3e4\n",
    "hex-like": "b,0x10,30000\n",
    "word": "b,fast,30000\n",
    "empty-upload": "b,,30000\n",
    "two-fields": "b,15000\n",
    "four-fields": "b,15000,30000,1\n",
    "trailing-comma": "b,15000,30000,\n",
    "crlf": "b,15000,30000\r\n",
    "one-field": "b\n",
}


def read(reader, path):
    try:
        return reader(path), None
    except ParseInputError as exc:
        return None, str(exc)


def assert_same(path):
    got, want = read(load_peers_csv, path), read(reference_load_peers_csv, path)
    assert got == want
    if got[0] is not None:
        assert all(type(p) is PeerProfile for p in got[0])
    return got


@pytest.mark.parametrize("where", ["first", "later"])
@pytest.mark.parametrize("row", list(ROWS.values()), ids=list(ROWS))
def test_reader_matches_reference(tmp_path, row, where):
    path = tmp_path / "peers.csv"
    text = row + GOOD if where == "first" else GOOD + GOOD.replace("a,", "c,") + row + "d,12000,24000\n"
    path.write_bytes(text.encode("utf-8"))
    assert_same(str(path))


@pytest.mark.parametrize(
    "text",
    ["", "\n\n", "id,u_bps,d_bps\n", "id,u_bps,d_bps\n\n", GOOD, "id,u_bps,d_bps\n" + GOOD, GOOD.rstrip("\n")],
    ids=["empty", "blank-lines", "header-only", "header-and-blank", "one-row", "header-one-row", "no-newline"],
)
def test_short_files_match_reference(tmp_path, text):
    path = tmp_path / "peers.csv"
    path.write_bytes(text.encode("utf-8"))
    assert_same(str(path))


@pytest.mark.parametrize("text", ["id,u_bps,d_bps\n" + GOOD, GOOD], ids=["header", "no-header"])
def test_byte_order_mark_is_skipped(tmp_path, text):
    path = tmp_path / "peers.csv"
    path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    assert assert_same(str(path)) == ([PeerProfile("a", 10000.0, 20000.0)], None)


def test_missing_file_matches_reference(tmp_path):
    peers, message = assert_same(str(tmp_path / "absent.csv"))
    assert peers is None and "absent.csv" in message


def test_error_names_the_line_of_the_bad_row(tmp_path):
    # A blank line, and a quoted id spread over two lines: either way the bad row is on line 4.
    for name, text in [("peers.csv", "id,u_bps,d_bps\n" + GOOD + "\n"), ("ml.csv", GOOD + '"x\ny",15000,30000\n')]:
        path = tmp_path / name
        path.write_text(text + "b,nan,30000\n", encoding="utf-8")
        with pytest.raises(ParseInputError, match=rf"{re.escape(name)}:4: bandwidths must be positive"):
            load_peers_csv(str(path))


def test_field_over_the_csv_field_limit_is_a_parse_error(tmp_path):
    path = tmp_path / "peers.csv"
    path.write_text("id,u_bps,d_bps\n" + GOOD + "x" * 200_000 + ",15000,30000\n", encoding="utf-8")
    with pytest.raises(ParseInputError, match=r"peers\.csv:3: field larger than field limit \(131072\)$"):
        load_peers_csv(str(path))
