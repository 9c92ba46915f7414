"""Seeded input documents for the benchmark workloads.

Every generated space is a finite presentation with an epimorphism ``nu``
onto ``Z`` or ``Z^n``.  Relators must lie in ``ker nu`` or ``ess`` rejects
the document, so they are built in one of two ways:

* commutators ``[u, v] = u v u^-1 v^-1`` of random words, which lie in the
  kernel of every ``nu`` onto an abelian group;
* for the all-ones ``nu`` onto ``Z``, words whose exponent sum is zero.

Words are freely and cyclically reduced and drawn with a fixed length, so
that the cost of an operation depends on the seed only through the letters,
not through the size of the input.
"""

from __future__ import annotations

import random

LETTERS = "abcdefghijklmnopqrstuvwxyz"


def _reduced(word: list[int]) -> bool:
    """Freely and cyclically reduced (letters are +-(i+1))."""
    if not word:
        return False
    for x, y in zip(word, word[1:] + word[:1]):
        if x == -y:
            return False
    return True


def _spell(word: list[int]) -> str:
    return "".join(
        LETTERS[abs(x) - 1] if x > 0 else LETTERS[abs(x) - 1].upper() for x in word
    )


def _random_word(rng: random.Random, ngens: int, length: int) -> list[int]:
    """A freely reduced word of exactly `length` letters."""
    word: list[int] = []
    while len(word) < length:
        x = rng.randint(1, ngens) * rng.choice((1, -1))
        if word and word[-1] == -x:
            continue
        word.append(x)
    return word


def balanced_relator(rng: random.Random, ngens: int, length: int) -> str:
    """A cyclically reduced word of even `length` with exponent sum 0, using
    at least two distinct generators."""
    half = length // 2
    while True:
        word = [rng.randint(1, ngens) for _ in range(half)]
        word += [-rng.randint(1, ngens) for _ in range(length - half)]
        rng.shuffle(word)
        if _reduced(word) and len({abs(x) for x in word}) >= 2:
            return _spell(word)


def commutator_relator(rng: random.Random, ngens: int, length: int) -> str:
    """[u, v] with |u| = |v| = length, cyclically reduced."""
    while True:
        u = _random_word(rng, ngens, length)
        v = _random_word(rng, ngens, length)
        word = u + v + [-x for x in reversed(u)] + [-x for x in reversed(v)]
        if _reduced(word):
            return _spell(word)


def presentation_onto_z(rng: random.Random, ngens: int, nrels: int, length: int) -> dict:
    """Presentation with the all-ones nu onto Z and exponent-balanced relators."""
    gens = list(LETTERS[:ngens])
    rels = [balanced_relator(rng, ngens, length) for _ in range(nrels)]
    return {
        "field": "Z",
        "group": "Z",
        "presentation": {"generators": gens, "relators": rels,
                         "nu": {g: 1 for g in gens}},
    }


def presentation_onto_z2(rng: random.Random, nrels: int, length: int) -> dict:
    """Three generators onto Z^2: a -> (1,0), b -> (0,1), c -> a seeded image;
    commutator relators."""
    c_img = [rng.choice((-1, 1)), rng.choice((-1, 1))]
    rels = [commutator_relator(rng, 3, length) for _ in range(nrels)]
    return {
        "field": "Z",
        "group": "Z^2",
        "presentation": {"generators": ["a", "b", "c"], "relators": rels,
                         "nu": {"a": [1, 0], "b": [0, 1], "c": c_img}},
    }
