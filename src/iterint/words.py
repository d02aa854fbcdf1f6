"""Shuffle algebra over words of 1-form labels.

A :class:`Word` is a finite sequence of integer labels referencing positions
in a form basis.  A :class:`GeneralizedWord` is a finite linear combination of
words.  Coefficients are duck-typed and every routine here uses ring
operations only (``+``, ``-``, ``*``), so exact coefficient types survive
untouched: ``int``, ``fractions.Fraction``, Gaussian integers stored as exact
``complex`` all round-trip without floating error.

The letter at index 0 of a word is attached to the *endpoint* of a path and
the letter at index -1 is integrated first at the path start; see
``transport`` for the one place this convention is pinned down.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Mapping

FormLabel = int


@dataclass(frozen=True, slots=True)
class Word:
    """An ordered tuple of basis-form labels.

    The hash is computed once, at construction; it is the one the dataclass
    would compute on every call, so words hash and compare as before.
    """

    letters: tuple[FormLabel, ...] = ()
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        letters = tuple(int(a) for a in self.letters)
        if any(a < 0 for a in letters):
            raise ValueError(f"form labels must be non-negative, got {letters}")
        object.__setattr__(self, "letters", letters)
        object.__setattr__(self, "_hash", hash((letters,)))

    def __hash__(self) -> int:
        return self._hash

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[FormLabel]:
        return iter(self.letters)

    def __getitem__(self, i: int) -> FormLabel:
        return self.letters[i]

    @property
    def is_empty(self) -> bool:
        return not self.letters

    def reversed(self) -> "Word":
        return Word(self.letters[::-1])

    def __repr__(self) -> str:
        if not self.letters:
            return "Word()"
        return "Word(%s)" % ",".join(str(a) for a in self.letters)


EMPTY_WORD = Word(())


def word(*letters: FormLabel) -> Word:
    return Word(tuple(letters))


def word_power(j: FormLabel, k: int) -> Word:
    return Word((j,) * k)


def _sort_key(w: Word) -> tuple:
    return (len(w), w.letters)


class GeneralizedWord:
    """Finite linear combination of words with duck-typed coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Word, Any] | Iterable[tuple[Word, Any]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[Word, Any] = {}
        for w, c in items:
            if not isinstance(w, Word):
                w = Word(tuple(w))
            if w in acc:
                acc[w] = acc[w] + c
            else:
                acc[w] = c
        self._terms = {w: c for w, c in acc.items() if c != 0}

    @classmethod
    def zero(cls) -> "GeneralizedWord":
        return cls()

    @classmethod
    def of(cls, w: Word | Iterable[FormLabel], coeff: Any = 1) -> "GeneralizedWord":
        if not isinstance(w, Word):
            w = Word(tuple(w))
        return cls({w: coeff})

    @property
    def terms(self) -> dict[Word, Any]:
        return dict(self._terms)

    def items(self) -> Iterator[tuple[Word, Any]]:
        return iter(sorted(self._terms.items(), key=lambda t: _sort_key(t[0])))

    def coefficient(self, w: Word | Iterable[FormLabel]) -> Any:
        if not isinstance(w, Word):
            w = Word(tuple(w))
        return self._terms.get(w, 0)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def max_length(self) -> int:
        return max((len(w) for w in self._terms), default=0)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GeneralizedWord):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):  # pragma: no cover - mutability guard
        raise TypeError("GeneralizedWord is not hashable")

    def __add__(self, other: "GeneralizedWord") -> "GeneralizedWord":
        acc = dict(self._terms)
        for w, c in other._terms.items():
            acc[w] = acc.get(w, 0) + c
        return GeneralizedWord(acc)

    def __sub__(self, other: "GeneralizedWord") -> "GeneralizedWord":
        acc = dict(self._terms)
        for w, c in other._terms.items():
            acc[w] = acc.get(w, 0) - c
        return GeneralizedWord(acc)

    def __neg__(self) -> "GeneralizedWord":
        return GeneralizedWord({w: -c for w, c in self._terms.items()})

    def scale(self, c: Any) -> "GeneralizedWord":
        return GeneralizedWord({w: c * v for w, v in self._terms.items()})

    def __rmul__(self, c: Any) -> "GeneralizedWord":
        return self.scale(c)

    def __repr__(self) -> str:
        if not self._terms:
            return "GeneralizedWord(0)"
        bits = []
        for w, c in self.items():
            name = "e" if w.is_empty else "".join(f"w{a}" for a in w)
            bits.append(f"{c!r}*{name}")
        return "GeneralizedWord(%s)" % " + ".join(bits)


def _as_gw(w: Word | GeneralizedWord | Iterable[FormLabel]) -> GeneralizedWord:
    if isinstance(w, GeneralizedWord):
        return w
    return GeneralizedWord.of(w)


def _shuffle_letters(a: tuple, b: tuple, memo: dict) -> tuple[tuple[tuple, int], ...]:
    """The shuffle of two letter tuples as sorted (letters, multiplicity) pairs.

    ``memo`` holds the shuffles of the sub-pairs found so far.  A caller
    passes one dict for all the shuffles of one request, so that they share
    their sub-pairs and nothing is kept after it.
    """
    if not a:
        return ((b, 1),)
    if not b:
        return ((a, 1),)
    out = memo.get((a, b))
    if out is None:
        acc: dict[tuple, int] = {}
        for tail, mult in _shuffle_letters(a[1:], b, memo):
            key = (a[0],) + tail
            acc[key] = acc.get(key, 0) + mult
        for tail, mult in _shuffle_letters(a, b[1:], memo):
            key = (b[0],) + tail
            acc[key] = acc.get(key, 0) + mult
        out = memo[(a, b)] = tuple(sorted(acc.items()))
    return out


def shuffle(u: Word, v: Word) -> GeneralizedWord:
    """Shuffle product of two plain words; coefficients are multiplicities."""
    return GeneralizedWord(
        {Word(t): m for t, m in _shuffle_letters(u.letters, v.letters, {})}
    )


def shuffle_gw(u: Word | GeneralizedWord, v: Word | GeneralizedWord) -> GeneralizedWord:
    """Bilinear extension of the shuffle product to generalized words."""
    gu, gv = _as_gw(u), _as_gw(v)
    acc: dict[Word, Any] = {}
    memo: dict = {}
    for wu, cu in gu._terms.items():
        for wv, cv in gv._terms.items():
            c = cu * cv
            for t, m in _shuffle_letters(wu.letters, wv.letters, memo):
                key = Word(t)
                acc[key] = acc.get(key, 0) + c * m
    return GeneralizedWord(acc)


def _expansion(s: str, j: str, memo: dict) -> dict[str, int]:
    """The word ``s`` as sum of m * u over words u not ending in ``j``: {u: m}
    in the order of the letters.

    A word is a string here, one character chr(a) per letter a, because a
    string caches its hash and the expansions are keyed by words.  E is part
    0 of :func:`decompose_at`, so it vanishes on every x ⧢ j, and part i of
    w is E[w minus j^i].  For w = u a j^k with a != j and k >= 1, the
    relation E[u a j^(k-1) ⧢ j] = 0 gives E[w] = (-1)^k (u ⧢ j^k) a by
    induction on k.  Splitting that shuffle at its first letter gives, for
    every w ending in ``j`` and its first letter b,

        E[w] = b E[w minus b] - j E[w minus its last j],

    with E[j^k] = 0 for k >= 1, so the coefficients stay integers.  ``memo``
    holds the expansions at ``j`` found so far; a caller passes one dict for
    one request, so that nothing is kept after it.
    """
    if not s.endswith(j):
        return {s: 1}
    out = memo.get(s)
    if out is None:
        acc = {s[0] + u: m for u, m in _expansion(s[1:], j, memo).items()}
        for u, m in _expansion(s[:-1], j, memo).items():
            acc[j + u] = acc.get(j + u, 0) - m
        out = memo[s] = {u: acc[u] for u in sorted(acc) if acc[u]}
    return out


def decompose_at(
    w: Word | GeneralizedWord, j: FormLabel
) -> list[tuple[int, GeneralizedWord]]:
    """Write ``w`` as sum_i  w(i) ⧢ j^i  with no word of w(i) ending in ``j``.

    Returns ``[(i, w(i))]`` sorted by increasing power, zero parts dropped.
    The expansion exists and is unique, so it is the linear extension of the
    expansion of each plain word, whose part i is the :func:`_expansion` of
    the word minus j^i for i up to its trailing run of ``j``; no shuffle is
    taken.  Ring operations only, so exact coefficients stay exact.
    """
    parts: dict[int, dict[Word, Any]] = {}
    memo: dict = {}
    letter = chr(j)
    for wd, c in _as_gw(w)._terms.items():
        s = "".join(map(chr, wd.letters))
        for i in range(len(s) - len(s.rstrip(letter)) + 1):
            part = parts.setdefault(i, {})
            for u, m in _expansion(s[: len(s) - i], letter, memo).items():
                u = Word(tuple(map(ord, u)))
                part[u] = part.get(u, 0) + c * m
    out = []
    for i in sorted(parts):
        gw = GeneralizedWord(parts[i])
        if not gw.is_zero:
            out.append((i, gw))
    return out


def decompose_leading(
    w: Word | GeneralizedWord, j: FormLabel
) -> list[tuple[int, GeneralizedWord]]:
    """Write ``w`` as sum_s  j^s ⧢ w(s)  with no word of w(s) starting with ``j``.

    Mirror image of :func:`decompose_at`.  Shuffles commute with word
    reversal, so reversing, stripping trailing runs and reversing back gives
    the expansion on the leading side.
    """

    def rev(gw: GeneralizedWord) -> GeneralizedWord:
        return GeneralizedWord({wd.reversed(): c for wd, c in gw.items()})

    return [(s, rev(gw)) for s, gw in decompose_at(rev(_as_gw(w)), j)]
