"""Boundary at infinity of a free group F(a1,...,ar) as truncated reduced words.

Points of the boundary are semi-infinite reduced words; the lab works with
finite truncations and only asserts claims at depths where the truncation
cannot affect the answer.  Letters are integers +-1..+-r internally and
serialize as strings over a..z (generators) and A..Z (inverses).

With base point the identity, the Gromov product of two boundary points is
the length of their maximal common prefix, and a^(-product) is a visual
metric with comparison constants exactly 1; the Cayley graph is a tree, so
delta = 0 and cylinder translations expand distances by exactly a^m.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AlphabetError, DomainError, InsufficientDepthError
from .metric_core import FiniteMetricSpace

DEFAULT_BASE = 2.0  # visual parameter a
# Most words one cylinder may enumerate.  Its visual matrix is n x n: the
# largest admitted cylinder, 3750 words (rank 3, depth 5, m = 0), takes 0.7 s
# and 92 MB through `boundary --probe-expansion` (its n(n - 1)/2 ratios) on a
# 2-core x86 machine, and 0.3 s and 36 MB without the probe, whose summary
# reads no matrix.
MAX_CYLINDER_WORDS = 2 ** 12


def parse_word(text: str, rank: int):
    """String over a..z / A..Z to a letter tuple, checked against the rank."""
    letters = []
    for ch in text:
        if "a" <= ch <= "z":
            val = ord(ch) - ord("a") + 1
        elif "A" <= ch <= "Z":
            val = -(ord(ch) - ord("A") + 1)
        else:
            raise AlphabetError(f"unexpected character {ch!r} in word {text!r}")
        if abs(val) > rank:
            raise AlphabetError(f"letter {ch!r} outside alphabet of rank {rank}")
        letters.append(val)
    return tuple(letters)


def word_to_string(letters) -> str:
    out = []
    for val in letters:
        if val > 0:
            out.append(chr(ord("a") + val - 1))
        else:
            out.append(chr(ord("A") - val - 1))
    return "".join(out)


@dataclass(frozen=True)
class ReducedWord:
    """A freely reduced word; construction checks reducedness."""

    letters: tuple
    rank: int

    def __post_init__(self):
        for ch in self.letters:
            if not isinstance(ch, int) or ch == 0 or abs(ch) > self.rank:
                raise AlphabetError(f"letter {ch} outside alphabet of rank {self.rank}")
        for u, v in zip(self.letters, self.letters[1:]):
            if u == -v:
                raise AlphabetError(f"word {self.letters} is not reduced")

    @property
    def depth(self) -> int:
        return len(self.letters)

    def inverse(self) -> "ReducedWord":
        return ReducedWord(tuple(-x for x in reversed(self.letters)), self.rank)

    def __str__(self) -> str:
        return word_to_string(self.letters)


def reduce_word(word, rank: int) -> ReducedWord:
    """Free reduction: cancel adjacent inverse pairs until none remain.

    Accepts a string over the serialization alphabet or an iterable of
    nonzero integers.  The fully reduced result is unique, so this is
    idempotent.
    """
    if isinstance(word, ReducedWord):
        return word
    letters = parse_word(word, rank) if isinstance(word, str) else tuple(word)
    stack: list[int] = []
    for ch in letters:
        if not isinstance(ch, (int, np.integer)) or ch == 0 or abs(ch) > rank:
            raise AlphabetError(f"letter {ch} outside alphabet of rank {rank}")
        ch = int(ch)
        if stack and stack[-1] == -ch:
            stack.pop()
        else:
            stack.append(ch)
    return ReducedWord(tuple(stack), rank)


@dataclass(frozen=True)
class BoundaryPoint:
    """Truncation of a semi-infinite reduced word: its known length-N prefix."""

    prefix: ReducedWord

    def __post_init__(self):
        if self.prefix.depth < 1:
            raise DomainError("boundary points need at least one known letter")

    @property
    def depth(self) -> int:
        return self.prefix.depth

    @property
    def rank(self) -> int:
        return self.prefix.rank

    def __str__(self) -> str:
        return str(self.prefix)


@dataclass(frozen=True)
class Cylinder:
    """U(p, m): boundary points sharing p's length-m prefix."""

    p: BoundaryPoint
    m: int

    def __post_init__(self):
        if not (0 <= self.m <= self.p.depth):
            raise DomainError(
                f"cylinder depth {self.m} outside 0..{self.p.depth}, the known prefix of {self.p}")

    @property
    def prefix(self) -> ReducedWord:
        return ReducedWord(self.p.prefix.letters[:self.m], self.p.rank)


def gromov_product_prefix(x: BoundaryPoint, y: BoundaryPoint) -> int:
    """Length of the maximal common prefix; equals the truncation depth
    exactly when the known prefixes coincide entirely (saturated)."""
    if x.depth != y.depth:
        raise DomainError(f"truncation depths differ: {x.depth} vs {y.depth}")
    lcp = 0
    for u, v in zip(x.prefix.letters, y.prefix.letters):
        if u != v:
            break
        lcp += 1
    return lcp


def visual_distance(x: BoundaryPoint, y: BoundaryPoint, a: float = DEFAULT_BASE) -> float:
    """a^(-(x,y)); zero when the known prefixes coincide entirely."""
    if a <= 1:
        raise DomainError(f"visual parameter must exceed 1, got {a}")
    lcp = gromov_product_prefix(x, y)
    if lcp == x.depth:
        return 0.0
    return float(a) ** (-lcp)


def enumerate_words(rank: int, depth: int, prefix=()):
    """All reduced words of the given depth extending the given prefix, in
    lexicographic order over the letters a, A, b, B, ..."""
    prefix = tuple(prefix)
    if len(prefix) > depth:
        raise DomainError(f"prefix of length {len(prefix)} exceeds word depth {depth}")
    letters = [s * i for i in range(1, rank + 1) for s in (1, -1)]
    words = [prefix]
    for _ in range(depth - len(prefix)):  # one letter more on every word
        words = [w + (ch,) for w in words for ch in letters if not w or ch != -w[-1]]
    return words


def first_extension(prefix: ReducedWord, depth: int) -> ReducedWord:
    """enumerate_words(rank, depth, prefix)[0] without the enumeration: the
    prefix padded with a, or with A when it ends in A."""
    letters = prefix.letters
    if len(letters) > depth:
        raise DomainError(f"prefix of length {len(letters)} exceeds word depth {depth}")
    pad = -1 if letters and letters[-1] == -1 else 1
    return ReducedWord(letters + (pad,) * (depth - len(letters)), prefix.rank)


def _visual_block(L, a: float, lo: int = 0, hi: int | None = None) -> np.ndarray:
    """visual_distance from each word L[lo:hi] to each word L[lo:], for the
    rows of an array of equal-length words, bit for bit: the common-prefix
    lengths index one table of Python-float powers a^-k whose last entry, for
    words that coincide, is 0.  The defaults give the whole matrix."""
    rows, cols = L[lo:hi], L[lo:]
    same = np.ones((len(rows), len(cols)), dtype=bool)
    lcp = np.zeros(same.shape, dtype=np.intp)
    for k in range(L.shape[1]):  # one letter at a time keeps memory at O(rows x cols)
        same &= rows[:, None, k] == cols[None, :, k]
        lcp += same
    powers = np.array([float(a) ** -k for k in range(L.shape[1])] + [0.0])
    return powers[lcp]


def _sample_words(words, count, seed: int):
    """All words, or a seeded sample of count of them without replacement."""
    if count == "all":
        return words
    if int(count) < 1:
        raise DomainError("sample count must be positive")
    rng = np.random.default_rng(seed)
    idx = rng.choice(len(words), size=min(int(count), len(words)), replace=False)
    return [words[i] for i in np.sort(idx)]


def _word_count(rank: int, depth: int, prefix_len: int) -> int:
    """len(enumerate_words(rank, depth, prefix)) for a reduced prefix of that length."""
    free = depth - prefix_len
    if prefix_len or not free:
        return (2 * rank - 1) ** free
    return 2 * rank * (2 * rank - 1) ** (free - 1)


def _cylinder_words(p: BoundaryPoint, m: int, depth: int, count, a: float, seed: int):
    """Depth-N words of U(p, m): all, or a seeded sample; checks a > 1,
    0 <= m <= min(p.depth, depth) and that the cylinder holds at most
    MAX_CYLINDER_WORDS words, before any is enumerated."""
    if a <= 1:
        raise DomainError(f"visual parameter must exceed 1, got {a}")
    cylinder = Cylinder(p, m)
    if m > depth:
        raise DomainError(f"cylinder depth {m} exceeds truncation depth {depth}")
    size = _word_count(p.rank, depth, m)
    if size > MAX_CYLINDER_WORDS:
        raise DomainError(f"cylinder of {size} words at depth {depth}; "
                          f"at most {MAX_CYLINDER_WORDS} are enumerated")
    return _sample_words(enumerate_words(p.rank, depth, cylinder.prefix.letters), count, seed)


def cylinder_ball(p: BoundaryPoint, m: int, depth: int, count="all",
                  a: float = DEFAULT_BASE, seed: int = 0) -> FiniteMetricSpace:
    """The cylinder U(p, m) realized at the given truncation depth.

    count="all" enumerates every depth-N extension of p's length-m prefix;
    an integer draws a seeded uniform sample without replacement; a > 1.
    """
    words = _cylinder_words(p, m, depth, count, a, seed)
    return FiniteMetricSpace(_visual_block(np.asarray(words, dtype=int), a),
                             tuple(word_to_string(w) for w in words))


def cylinder_summary(p: BoundaryPoint, m: int, depth: int, count="all",
                     a: float = DEFAULT_BASE, seed: int = 0) -> tuple[int, float]:
    """(points, diameter) of cylinder_ball with the same arguments, without
    its n x n matrix.  The words come in lexicographic order, so the least
    common-prefix length k of two of them is that of the first and the last,
    and the diameter is the same float a^-k, or 0 for a single word."""
    words = _cylinder_words(p, m, depth, count, a, seed)
    first, last = words[0], words[-1]
    k = next((i for i, (u, v) in enumerate(zip(first, last)) if u != v), depth)
    return len(words), (float(a) ** -k if k < depth else 0.0)


def translate_boundary(g: ReducedWord, x: BoundaryPoint) -> BoundaryPoint:
    """Left translation g.x on the boundary, acting on the known prefix.

    Reduction cancels between g's tail and x's head; as long as cancellation
    stops strictly inside the known prefix, the result is a correct known
    prefix of g.x (the unseen continuation of x cannot cancel further).  The
    returned point's depth reports how much survives.
    """
    if g.rank != x.rank:
        raise DomainError("translation and point live in different free groups")
    gl = list(g.letters)
    cancelled = 0
    px = x.prefix.letters
    while gl and cancelled < len(px) and gl[-1] == -px[cancelled]:
        gl.pop()
        cancelled += 1
    if cancelled == len(px):
        raise InsufficientDepthError(
            f"translating {x} by {g} consumes the entire known prefix")
    return BoundaryPoint(ReducedWord(tuple(gl) + px[cancelled:], x.rank))


@dataclass(frozen=True)
class ExpansionStats:
    minimum: float
    maximum: float
    mean: float
    count: int


def expansion_factor_probe(p: BoundaryPoint, m: int, samples="all",
                           depth: int | None = None, a: float = DEFAULT_BASE,
                           seed: int = 0) -> ExpansionStats:
    """Measured ratios d(gx, gy)/d(x, y) over pairs of U(p, m), g = prefix^-1.

    In the tree case the ratio is a^m for every pair (min = max = mean); the
    probe computes each ratio from actual translated distances rather than
    from the exponent identity: each word is translated once, and the ratios
    are the upper triangles of the translates' and the words' visual matrices,
    computed 64 rows at a time into one vector of the n(n - 1)/2 pairs.
    """
    if depth is None:
        depth = p.depth
    words = _cylinder_words(p, m, depth, samples, a, seed)
    if len(words) < 2:
        return ExpansionStats(1.0, 1.0, 1.0, 0)
    g = Cylinder(p, m).prefix.inverse()
    moved = [translate_boundary(g, BoundaryPoint(ReducedWord(w, p.rank))).prefix.letters
             for w in words]
    W = np.asarray(words, dtype=int)
    M = np.asarray(moved, dtype=int)
    n = len(words)
    ratios = np.empty(n * (n - 1) // 2)  # i < j, row-major
    at = 0
    for lo in range(0, n, 64):
        hi = min(lo + 64, n)
        upper = np.arange(lo, n)[None, :] > np.arange(lo, hi)[:, None]
        block = _visual_block(M, a, lo, hi)[upper] / _visual_block(W, a, lo, hi)[upper]
        ratios[at:at + block.size] = block
        at += block.size
    return ExpansionStats(float(ratios.min()), float(ratios.max()), float(ratios.mean()),
                          len(ratios))


@dataclass(frozen=True)
class CoverElement:
    """One cylinder of an expanding cover with its contraction translation."""

    cylinder: Cylinder
    contraction: ReducedWord  # inverse of the cylinder prefix


def expanding_cover(m: int, depth: int, rank: int) -> list[CoverElement]:
    """All length-m prefixes as disjoint cylinders covering the whole boundary."""
    if m > depth:
        raise DomainError(f"cover depth {m} exceeds truncation depth {depth}")
    if m < 1:
        raise DomainError("cover depth must be at least 1")
    out = []
    for w in enumerate_words(rank, m):
        word = ReducedWord(w, rank)
        cyl = Cylinder(BoundaryPoint(first_extension(word, depth)), m)
        out.append(CoverElement(cyl, word.inverse()))
    return out
