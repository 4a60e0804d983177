"""The windowed JSON reader gives what json.loads gives: the same document
(payoff tables as the float arrays BayesianGame.create would make), or the
same error.  Every case also runs with the window reading 1, 7 and 64
characters at a time, so values, tables, labels and errors straddle its edges."""

import json
import math
import os
import tracemalloc

import numpy as np
import pytest

from commeq import game as game_module
from commeq.dynamics import DynamicsConfig, run_dynamics, write_equilibrium_json
from commeq.errors import BadInput
from commeq.game import (BayesianGame, PriorModel, game_from_json_dict, load_game, load_json,
                         save_game)

from .fixture_files import FIXTURES, game as fixture_game

GAME_FIXTURES = ["correlated_coarse_game", "first_price_auction", "guessing_game",
                 "matching_game", "zero_payoff_game"]


def _table(table):
    try:
        return np.asarray(table, dtype=float)
    except (TypeError, ValueError, OverflowError):
        return table


def assert_same_document(got, ref):
    """``got`` is ``ref`` with each top-level payoff table that converts to
    floats replaced by its float array, bit for bit."""
    if not (isinstance(ref, dict) and isinstance(ref.get("payoffs"), list)):
        assert repr(got) == repr(ref)
        return
    assert list(got) == list(ref)
    assert repr({k: v for k, v in got.items() if k != "payoffs"}) \
        == repr({k: v for k, v in ref.items() if k != "payoffs"})
    assert len(got["payoffs"]) == len(ref["payoffs"])
    for table, want in zip(got["payoffs"], map(_table, ref["payoffs"])):
        assert type(table) is type(want)
        if isinstance(want, np.ndarray):
            assert table.dtype == want.dtype and table.shape == want.shape
            assert table.tobytes() == want.tobytes()
        else:
            assert repr(table) == repr(want)


def read_both(tmp_path, text: str):
    """(load_json's result or error, json.loads's result or error) for ``text``."""
    path = tmp_path / "doc.json"
    path.write_text(text, encoding="utf-8")
    try:
        ref = json.loads(text)
    except (ValueError, RecursionError) as exc:
        ref = exc
    try:
        got = load_json(str(path))
    except BadInput as exc:
        got = exc
    return got, ref, str(path)


@pytest.fixture(params=[1, 7, 64])
def small_chunks(request, monkeypatch):
    """The window reads this many characters at a time."""
    monkeypatch.setattr(game_module, "_READ_CHUNK", request.param)
    return request.param


def check_fixture(name):
    path = os.path.join(FIXTURES, name + ".json")
    with open(path, encoding="utf-8") as fh:
        ref = json.load(fh)
    got = load_json(path)
    assert_same_document(got, ref)
    assert all(isinstance(t, np.ndarray) for t in got["payoffs"])


@pytest.mark.parametrize("name", GAME_FIXTURES)
def test_reader_matches_json_loads_on_the_game_fixtures(name):
    check_fixture(name)


@pytest.mark.parametrize("name", GAME_FIXTURES)
def test_reader_in_small_chunks_on_the_game_fixtures(small_chunks, name):
    check_fixture(name)


def _game_doc(rng, n, k, m, digits):
    shape = (k,) * n + (m,) * n
    return {"players": n, "types": [[f"t{j}" for j in range(k)]] * n,
            "actions": [[f"a{j}" for j in range(m)]] * n,
            "prior": {"kind": "product", "rows": [[1.0 / k] * k] * n},
            "payoffs": [np.round(rng.random(shape), digits).reshape(-1).tolist()
                        for _ in range(n)],
            "payoff_scope": "full"}


def check_generated_game(tmp_path, seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))
    doc = _game_doc(rng, n, int(rng.integers(1, 4)), int(rng.integers(1, 4)),
                    int(rng.integers(1, 18)))
    if seed % 2:                                    # nested tables, odd spacing
        doc["payoffs"] = [np.reshape(t, (-1, len(doc["actions"][0]))).tolist()
                          for t in doc["payoffs"]]
    text = json.dumps(doc, indent=seed % 3 or None, sort_keys=bool(seed % 2))
    got, ref, path = read_both(tmp_path, text)
    assert_same_document(got, ref)
    game = load_game(path)
    for table, want in zip(game.payoffs, ref["payoffs"]):
        assert table.tobytes() == np.asarray(want, dtype=float).reshape(table.shape).tobytes()


@pytest.mark.parametrize("seed", range(6))
def test_reader_matches_json_loads_on_generated_games(tmp_path, seed):
    check_generated_game(tmp_path, seed)


@pytest.mark.parametrize("seed", range(6))
def test_reader_in_small_chunks_on_generated_games(tmp_path, small_chunks, seed):
    check_generated_game(tmp_path, seed)


def _table_ending_a_chunk(chunk):
    """A document whose first payoff table closes on the last character of a
    chunk: its ']' ends a multiple of ``chunk`` characters, and the window
    reads whole chunks from the start of the file up to there."""
    head, table = '{"payoffs": [', "[0.5, 0.25]"
    pad = -(len(head) + len(table)) % chunk
    return head + " " * pad + table + ", [[1], [0]]]}"


def _label_across_byte(offset):
    """A document whose label has a 4-byte UTF-8 character over byte
    ``offset``, a boundary of the text layer's reads."""
    head, mid = '{"a": "', '", "types": [["'
    return (head + "x" * (offset - 2 - len(head) - len(mid)) + mid
            + "\U0001f600\u00e9\u20ac" * 3 + '"]], "payoffs": [[0.5]]}')


UNUSUAL = {
    "truncated": '{"players": 1, "payoffs": [[0.5, 0.2',
    "truncated-between-tables": '{"payoffs": [[0.5], ',
    "trailing-data": '{"payoffs": [[0.5]]} x',
    "two-objects": '{"payoffs": [[0.5]]}{"a": 1}',
    "nan-infinity": '{"payoffs": [[NaN, Infinity, -Infinity]], "x": NaN}',
    "escaped-key": '{"pay\\u006ffs": [[0.5]]}',           # the key "payofs"
    "escaped-payoffs-key": '{"pay\\u006f\\u0066fs": [[0.5, 1]]}',
    "duplicate-payoffs": '{"payoffs": [[0.1]], "x": 1, "payoffs": [[0.2, 0.3]]}',
    "nested-payoffs": '{"game": {"payoffs": [[0.5]]}, "payoffs": [[1]]}',
    "whitespace": ' \n\t{ \r\n "payoffs" \t:\n [ \n[ 0.5 ,\n1 ] ,\t[\r\n] ] \n, "a"\n:\t[ ] } \n\t',
    "table-holds-a-string": '{"payoffs": [[0.5, "1"], ["x", 0.5], "0.25"]}',
    "ragged-table": '{"payoffs": [[[0.5], [0.5, 1]], [0.5]]}',
    "payoffs-not-a-list": '{"payoffs": null}',
    "payoffs-empty": '{"payoffs": []}',
    "tables-not-lists": '{"payoffs": [1, true, null, {"a": 1}]}',
    "huge-integer": '{"payoffs": [[1' + "0" * 400 + ', 0.5], [0.5]]}',
    "integer-past-digit-limit": '{"payoffs": [[1' + "0" * 5000 + "]]}",
    "nested-too-deep": '{"payoffs": [' + "[" * 100000 + "]" * 100000 + "]}",
    "empty-object": "{}",
    "array": "[[0.5]]",
    "number": "0.5",
    "empty": "",
    "blank": " \n ",
    "byte-order-mark": '\ufeff{"payoffs": [[0.5]]}',
    "trailing-comma-in-table": '{"payoffs": [[0.5,]]}',
    "trailing-comma-in-payoffs": '{"payoffs": [[0.5],]}',
    "trailing-comma-in-object": '{"payoffs": [[0.5]],}',
    "missing-colon": '{"payoffs" [[0.5]]}',
    "unquoted-key": '{payoffs: [[0.5]]}',
    "single-quotes": "{'payoffs': [[0.5]]}",
    "control-character-in-key": '{"pay\noffs": [[0.5]]}',
    "missing-comma": '{"payoffs": [[0.5] [0.5]]}',
    "unclosed-object": '{"payoffs": [[0.5]]',
    "brackets-and-quotes-in-labels": '{"types": [["[", "]]", "\\"[", "a\\"]"]], '
                                     '"k[\\"]": {"]": "[\\""}, "payoffs": [[0.5, 1], [0]], '
                                     '"[": ["\\\\", "\\\\\\""]}',
    "brackets-in-a-label-after-the-tables": '{"payoffs": [[0.5]], "types": [["]", "[["]]}',
    "quote-in-a-key-before-payoffs": '{"pay\\"offs": [["x"]], "payoffs": [[1]]}',
    "multi-byte-labels": '{"types": [["\u00e9t\u00e9", "\u20ac\u20ac\u20ac", '
                         '"\U0001f600\U0001f600"]], "\u00e9": "\U0001f600", '
                         '"payoffs": [[0.5], [1]]}',
    "multi-byte-label-across-byte-8192": _label_across_byte(8192),
    "multi-byte-label-across-the-default-chunk": _label_across_byte(game_module._READ_CHUNK),
    "table-ends-a-chunk-of-7": _table_ending_a_chunk(7),
    "table-ends-a-chunk-of-64": _table_ending_a_chunk(64),
    "table-ends-the-default-chunk": _table_ending_a_chunk(game_module._READ_CHUNK),
    "truncated-in-a-nested-table": '{"payoffs": [[0.5, 0.25], [[0.5], [0.2',
    "truncated-in-a-number": '{"payoffs": [[0.5, 1.5e',
    "numbers-at-window-edges": '{"a": 1.5e3, "b": -0.25, "c": 10, "d": -Infinity, '
                               '"payoffs": [1.5E-3, [2e1, -0.0]], "e": true}',
    "malformed-after-a-complete-table": '{"payoffs": [[0.5], [0.5,]]}',
}


@pytest.mark.parametrize("name", sorted(UNUSUAL))
def test_reader_matches_json_loads_on_unusual_texts(tmp_path, name):
    check_unusual(tmp_path, name)


@pytest.mark.parametrize("name", sorted(UNUSUAL))
def test_reader_in_small_chunks_on_unusual_texts(tmp_path, small_chunks, name):
    check_unusual(tmp_path, name)


def check_unusual(tmp_path, name):
    got, ref, path = read_both(tmp_path, UNUSUAL[name])
    if isinstance(ref, json.JSONDecodeError):
        assert isinstance(got, BadInput)
        assert type(got.__cause__) is type(ref) and str(got.__cause__) == str(ref)
        assert str(got) == (f"{path}: malformed JSON at line {ref.lineno} column {ref.colno}:"
                            f" {ref.msg}")
    elif isinstance(ref, (ValueError, RecursionError)):     # digit limit, deep nesting
        assert isinstance(got, BadInput)
        assert type(got.__cause__) is type(ref) and str(got.__cause__) == str(ref)
        assert str(got) == f"{path}: {ref}"
    else:
        assert_same_document(got, ref)


def test_invalid_utf8_is_bad_input_naming_the_path(tmp_path):
    path = tmp_path / "game.json"
    path.write_bytes(b'{"players": 1, "types": [["\xff"]]}')
    with pytest.raises(BadInput, match="not UTF-8") as info:
        load_json(str(path))
    assert str(path) in str(info.value)


@pytest.mark.parametrize("chunk", [1, 7, 64, None])
def test_invalid_utf8_past_the_first_chunk_is_the_same_bad_input(tmp_path, monkeypatch, chunk):
    """A byte that is not UTF-8, met after the window has read and scanned
    a whole table, gives the message of a read of the whole file."""
    if chunk:
        monkeypatch.setattr(game_module, "_READ_CHUNK", chunk)
    chunk = game_module._READ_CHUNK
    path = tmp_path / "game.json"
    head = b'{"payoffs": [[' + b"0.5, " * (chunk // 5 + 2) + b'1], ["'
    path.write_bytes(head + b"\xc3(" + b'"]]}')
    assert len(head) > chunk
    with open(path, encoding="utf-8") as fh:
        with pytest.raises(UnicodeDecodeError) as whole:
            fh.read()
    with pytest.raises(BadInput) as info:
        load_json(str(path))
    assert str(info.value) == f"{path}: not UTF-8 text: {whole.value}"


def test_missing_file_is_bad_input_naming_the_path(tmp_path):
    path = str(tmp_path / "absent.json")
    with pytest.raises(BadInput, match="cannot read") as info:
        load_game(path)
    assert path in str(info.value)


def _traced_peak(fn):
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_ingest_holds_the_text_one_tables_floats_and_the_arrays(tmp_path, monkeypatch):
    """Loading a 5-player game of long decimals, read 16 KiB at a time (the
    file spans about 45 chunks), peaks below one table's text, one chunk,
    two tables' Python lists and the game's own payoff arrays: the window
    never holds the whole text.  json.load, which holds the text and every
    table's floats at once, does not."""
    chunk = 2**14
    monkeypatch.setattr(game_module, "_READ_CHUNK", chunk)
    rng = np.random.default_rng(5)
    n, k, m = 5, 2, 3
    doc = _game_doc(rng, n, k, m, 17)
    text = json.dumps(doc)
    path = tmp_path / "game.json"
    path.write_text(text, encoding="utf-8")
    table_text = json.dumps(doc["payoffs"][0])
    del doc
    _, one_list = _traced_peak(lambda: json.loads(table_text))
    arrays = n * math.prod((k,) * n + (m,) * n) * 8
    bound = len(table_text) + chunk + 2 * one_list + arrays
    assert len(text) > 40 * chunk

    game, peak = _traced_peak(lambda: load_game(str(path)))
    assert sum(p.nbytes for p in game.payoffs) == arrays
    assert peak < bound

    def json_load():
        with open(path, encoding="utf-8") as fh:
            return game_from_json_dict(json.load(fh))
    _, old_peak = _traced_peak(json_load)
    assert old_peak > bound


def test_values_other_than_payoffs_are_scanned_in_linear_time(tmp_path, monkeypatch):
    """A value the window does not yet hold is scanned again only once the
    window holds text as far as a character that could close it, the window
    growing by as much again as it holds.  So with 1 KiB chunks the scanner
    reads at most twice the file, for an equilibrium.json whose mixture is
    nearly all of it and for a game whose tabular prior is most of it.
    (Appending one chunk per failed scan would read the equilibrium.json
    about sixty times over.)"""
    monkeypatch.setattr(game_module, "_READ_CHUNK", 2**10)
    scanned = []
    real_scan = game_module._SCAN

    def counting_scan(s, idx):
        try:
            value, end = real_scan(s, idx)
        except (ValueError, StopIteration):
            scanned.append(len(s) - idx)
            raise
        scanned.append(end - idx)
        return value, end
    monkeypatch.setattr(game_module, "_SCAN", counting_scan)

    run = run_dynamics(fixture_game("first_price_auction"),
                       DynamicsConfig(horizon=500, seed=0))
    write_equilibrium_json(str(tmp_path / "equilibrium.json"), run)
    k = 64
    table = np.random.default_rng(3).dirichlet(np.ones(k * k)).reshape(k, k)
    save_game(BayesianGame.create([[f"t{i}" for i in range(k)]] * 2, [["a"]] * 2,
                                  PriorModel.tabular(table), [np.zeros((k, k, 1, 1))] * 2),
              str(tmp_path / "game.json"))
    for name, big in (("equilibrium.json", "mixture"), ("game.json", "prior")):
        path = tmp_path / name
        text = path.read_text(encoding="utf-8")
        ref = json.loads(text)
        assert len(json.dumps(ref[big])) > len(text) / 2 > 50 * 2**10
        scanned.clear()
        assert_same_document(load_json(str(path)), ref)
        assert sum(scanned) <= 2 * len(text)


def test_a_small_file_is_read_in_one_call_of_its_own_size():
    """The first read is sized from the file: a 3 kB game is not read through
    a buffer of a whole 2^20-character chunk."""
    path = os.path.join(FIXTURES, "first_price_auction.json")
    _, peak = _traced_peak(lambda: load_game(path))
    assert peak < 64 * 2**10
