"""The table-at-a-time JSON reader gives what json.loads gives: the same
document (payoff tables as the float arrays BayesianGame.create would make),
or the same error."""

import json
import math
import os
import tracemalloc

import numpy as np
import pytest

from commeq.errors import BadInput
from commeq.game import game_from_json_dict, load_game, load_json

from .fixture_files import FIXTURES

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


@pytest.mark.parametrize("name", GAME_FIXTURES)
def test_reader_matches_json_loads_on_the_game_fixtures(name):
    path = os.path.join(FIXTURES, name + ".json")
    with open(path, encoding="utf-8") as fh:
        ref = json.load(fh)
    got = load_json(path)
    assert_same_document(got, ref)
    assert all(isinstance(t, np.ndarray) for t in got["payoffs"])


def _game_doc(rng, n, k, m, digits):
    shape = (k,) * n + (m,) * n
    return {"players": n, "types": [[f"t{j}" for j in range(k)]] * n,
            "actions": [[f"a{j}" for j in range(m)]] * n,
            "prior": {"kind": "product", "rows": [[1.0 / k] * k] * n},
            "payoffs": [np.round(rng.random(shape), digits).reshape(-1).tolist()
                        for _ in range(n)],
            "payoff_scope": "full"}


@pytest.mark.parametrize("seed", range(6))
def test_reader_matches_json_loads_on_generated_games(tmp_path, seed):
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
}


@pytest.mark.parametrize("name", sorted(UNUSUAL))
def test_reader_matches_json_loads_on_unusual_texts(tmp_path, name):
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


def test_ingest_holds_the_text_one_tables_floats_and_the_arrays(tmp_path):
    """Loading a 5-player game peaks below its text, two tables' Python
    lists and the game's own payoff arrays; json.load, which holds every
    table's floats at once, does not."""
    rng = np.random.default_rng(5)
    n, k, m = 5, 2, 3
    shape = (k,) * n + (m,) * n
    doc = _game_doc(rng, n, k, m, 17)
    doc["payoffs"] = [(rng.integers(0, 9, math.prod(shape)) / 8).tolist() for _ in range(n)]
    text = json.dumps(doc)
    path = tmp_path / "game.json"
    path.write_text(text, encoding="utf-8")
    table_text = json.dumps(doc["payoffs"][0])
    del doc
    _, one_list = _traced_peak(lambda: json.loads(table_text))
    arrays = n * math.prod(shape) * 8
    bound = len(text) + 2 * one_list + arrays

    game, peak = _traced_peak(lambda: load_game(str(path)))
    assert sum(p.nbytes for p in game.payoffs) == arrays
    assert peak < bound

    def json_load():
        with open(path, encoding="utf-8") as fh:
            return game_from_json_dict(json.load(fh))
    _, old_peak = _traced_peak(json_load)
    assert old_peak > bound
