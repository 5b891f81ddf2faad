"""Seeded random expression trees and their command-line text.

Trees are nested tuples, independent of hquat's node classes:
("p",), ("c", "<literal>"), ("unit", "i"|"j"|"k"), ("neg", t),
("+"|"-"|"*"|"/", lhs, rhs), ("^", base, exponent), ("exp"|"sin"|"cos", t).

:func:`to_text` writes the grammar's minimal-parenthesis form without
spaces, as a user would type it.  argparse takes such a text for an option
when it starts with "-" and is not a plain negative number, and rejects the
command line before hquat sees it (:func:`argv_rejected`).  About one random
tree in 37 does.
"""

from __future__ import annotations

import random
import re

MAX_DEPTH = 5
MAX_EXPONENT = 6
# argparse's test for a negative-number argument
_NEGATIVE_NUMBER = re.compile(r"-\d+|-\d*\.\d+")


def argv_rejected(text: str) -> bool:
    """True when argparse reads ``--expr TEXT`` as a missing argument."""
    return text.startswith("-") and " " not in text and not _NEGATIVE_NUMBER.fullmatch(text)


_BINARY = ("+", "-", "*", "/")
_HEADS = ("exp", "sin", "cos")

# precedence levels of the grammar: + - < * / < ^ < unary - < atom
_ADD, _MUL, _POW, _NEG, _ATOM = 1, 2, 3, 4, 5


def _leaf(rng: random.Random):
    pick = rng.random()
    if pick < 0.4:
        return ("p",)
    if pick < 0.6:
        return ("c", str(rng.randint(0, 9)))
    if pick < 0.85:
        return ("c", f"{rng.uniform(-3.0, 3.0):.3f}")
    return ("unit", rng.choice(("i", "j", "k")))


def random_tree(rng: random.Random, depth: int = 0):
    if depth >= MAX_DEPTH or rng.random() < 0.3:
        return _leaf(rng)
    kind = rng.randrange(9)
    if kind < 4:
        return (_BINARY[kind], random_tree(rng, depth + 1), random_tree(rng, depth + 1))
    if kind == 4:
        return ("^", random_tree(rng, depth + 1), rng.randint(0, MAX_EXPONENT))
    if kind == 5:
        return ("neg", random_tree(rng, depth + 1))
    return (_HEADS[kind - 6], random_tree(rng, depth + 1))


def _level(t) -> int:
    kind = t[0]
    if kind in ("+", "-"):
        return _ADD
    if kind in ("*", "/"):
        return _MUL
    if kind == "^":
        return _POW
    if kind == "neg" or (kind == "c" and t[1].startswith("-")):
        return _NEG
    return _ATOM


def _wrap(t, min_level: int) -> str:
    s = to_text(t)
    return f"({s})" if _level(t) < min_level else s


def to_text(t) -> str:
    """Minimal-parenthesis expression text for a tree."""
    kind = t[0]
    if kind == "p":
        return "p"
    if kind in ("c", "unit"):
        return t[1]
    if kind == "neg":
        return "-" + _wrap(t[1], _NEG)
    if kind in ("+", "-"):
        return _wrap(t[1], _ADD) + kind + _wrap(t[2], _MUL)
    if kind in ("*", "/"):
        return _wrap(t[1], _MUL) + kind + _wrap(t[2], _POW)
    if kind == "^":
        return _wrap(t[1], _NEG) + "^" + str(t[2])
    return f"{kind}({to_text(t[1])})"
