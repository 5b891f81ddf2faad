"""The command line does not contradict itself on seeded random trees."""

import json
import random

from hquat import cli, format_expr, has_nonreal_constant
from test_parser import _random_tree

SETTINGS = [("8", "0.5"), ("32", "0.8"), ("100", "0.8")]


def _strict(text):
    def reject(name):
        raise ValueError(f"non-finite JSON constant {name}")

    return json.loads(text, parse_constant=reject)


def test_series_of_a_real_constant_tree_is_never_nonreal(capsys):
    # a real-coefficient tree has real coefficients: exit 0, or 3 where an
    # evaluation leaves the double range, never 4; a tree without division
    # is entire, so its radius is infinite or inconclusive, never a number
    rng = random.Random(7)
    trees = []
    while len(trees) < 100:
        tree = _random_tree(rng, 0)
        if not has_nonreal_constant(tree):
            trees.append(tree)
    for i, tree in enumerate(trees):
        n, rho = SETTINGS[i % len(SETTINGS)]
        text = format_expr(tree)
        code = cli.main(["series", "--expr", text, "--n", n, "--rho", rho, "--format", "machine"])
        out = capsys.readouterr().out
        assert code in (0, 3), (text, n, rho)
        if code == 0:
            radius = _strict(out)["results"]["radius_estimate"]["radius"]
            assert radius is None or "/" in text, (text, n, rho, radius)
