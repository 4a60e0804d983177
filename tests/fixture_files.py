"""The test games, distributions and smoothness spec: the JSON files under
``fixtures/``, read through the same loaders the CLI uses.

The auction's payoffs are first-price utilities mapped affinely into [0, 1];
README.md gives the map.
"""

import os

from commeq.cli import load_distribution
from commeq.game import game_from_json_dict, load_game, load_json
from commeq.poa import QuasilinearGame, SmoothnessSpec

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")


def path(name):
    """The fixture file ``name`` (without ``.json``)."""
    return os.path.join(FIXTURES, f"{name}.json")


def game(name):
    return load_game(path(name))


def distribution(name, game_name):
    """The distribution file ``name`` read against the game file ``game_name``."""
    return load_distribution(path(name), game(game_name))


def auction():
    """The first-price auction with its ``quasilinear`` block."""
    doc = load_json(path("first_price_auction"))
    block = doc["quasilinear"]
    return QuasilinearGame.create(game_from_json_dict(doc), block["alloc_values"],
                                  block["payments"])


def auction_spec(lam=None):
    """The auction's smoothness spec, deviation "bid floor(value / 2)", at the
    file's lambda or at ``lam``."""
    doc = load_json(path("auction_smoothness"))
    return SmoothnessSpec.create(doc["lambda"] if lam is None else lam, doc["mu"],
                                 doc["mode"], doc["deviation"])
