"""Exact arithmetic for the E8 root lattice, orthogonal frames, and Weyl orbits.

Vectors live in (1/4)Z^8 and are stored as 8 integers equal to 4x the true
coordinates, so both the lattice points (half-integer coordinates) and the
norm-1 frame vectors (quarter-integer coordinates) stay exact. Inner products
are returned as integers scaled by 16.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from math import comb
from operator import mul
from typing import Iterable, NamedTuple, Sequence

import numpy as np


class Membership(Enum):
    P = "P"
    HALF_P_ONLY = "HalfP_only"
    NEITHER = "Neither"


# The phi code of a vector past level 2: above 8 * 16**2, the most that eight
# lower codes sum to, so no frame through it matches a class, and 16**level is
# never formed for a huge level.
_NO_CLASS = 4096


class _OnFirstRead:
    """A value derived from a vector's coords4, computed on first read and
    stored in the instance __dict__, which then shadows this non-data
    descriptor."""

    def __init__(self, derive):
        self.derive = derive

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, a, owner=None):
        a.__dict__[self.name] = value = self.derive(a.coords4)
        return value


def _phi_code(coords4: tuple[int, ...]) -> int:
    """16**|floor(2<phi,a>)|, the vector's digit in a frame's base-16
    pairing profile."""
    level = abs(2 * sum(coords4) // 8)
    return 16**level if level <= 2 else _NO_CLASS


def _coords4_float(coords4: tuple[int, ...]) -> np.ndarray:
    """coords4 as a read-only float array."""
    out = np.array(coords4, dtype=float)
    out.flags.writeable = False
    return out


def _reflection_c(coords4: tuple[int, ...]) -> tuple[np.ndarray, float]:
    """The true coordinates a, a read-only float array, and <a, a> = ip / 16
    (exact), which reflect_c reflects in."""
    a = np.array(coords4, dtype=float) / 4.0
    a.flags.writeable = False
    return a, sum(c * c for c in coords4) / 16.0


@dataclass(frozen=True)
class LatticeVector:
    """A point of (1/4)Z^8; ``coords4`` holds 4x the true coordinates,
    ``coords4_float`` the same as a read-only float array, which the
    pairings with complex points read, and ``reflection_c`` the true
    coordinates and norm that reflect_c reads."""

    coords4: tuple[int, ...]
    phi_code = _OnFirstRead(_phi_code)
    coords4_float = _OnFirstRead(_coords4_float)
    reflection_c = _OnFirstRead(_reflection_c)

    def __post_init__(self):
        if len(self.coords4) != 8:
            raise ValueError("need exactly 8 coordinates")

    def __add__(self, other: "LatticeVector") -> "LatticeVector":
        return LatticeVector(tuple(a + b for a, b in zip(self.coords4, other.coords4)))

    def __sub__(self, other: "LatticeVector") -> "LatticeVector":
        return LatticeVector(tuple(a - b for a, b in zip(self.coords4, other.coords4)))

    def __neg__(self) -> "LatticeVector":
        return LatticeVector(tuple(-a for a in self.coords4))

    def scaled(self, k: int) -> "LatticeVector":
        return LatticeVector(tuple(k * a for a in self.coords4))

    def true_coords(self) -> np.ndarray:
        return self.coords4_float / 4.0


def vec(*quarters: int) -> LatticeVector:
    return LatticeVector(tuple(quarters))


# Orthonormal basis v_0..v_7 and the highest root phi = (v_0+...+v_7)/2.
V = tuple(LatticeVector(tuple(4 if j == i else 0 for j in range(8))) for i in range(8))
PHI = LatticeVector((2,) * 8)

# Simple roots: alpha_0 = phi - v_0 - v_1 - v_2 - v_3, alpha_j = v_j - v_{j+1}
# (j = 1..6), alpha_7 = v_7 + v_0.  Indices 0..6 generate the stabilizer of
# phi (the E7 subsystem); adding index 7 generates the full group.
SIMPLE_ROOTS: tuple[LatticeVector, ...] = (
    PHI - V[0] - V[1] - V[2] - V[3],
    *(V[j] - V[j + 1] for j in range(1, 7)),
    V[7] + V[0],
)


def ip(a: LatticeVector, b: LatticeVector) -> int:
    """Bilinear pairing, returned as an exact integer equal to 16*<a,b>."""
    return sum(map(mul, a.coords4, b.coords4))


def membership(a: LatticeVector) -> Membership:
    """Classify a into the lattice, its half-lattice, or neither."""
    if _in_lattice(a.coords4):
        return Membership.P
    # 2a lands in the lattice iff the doubled congruences hold.
    if all(c % 2 == 0 for c in a.coords4) or all(c % 2 == 1 for c in a.coords4):
        if sum(a.coords4) % 4 == 0:
            return Membership.HALF_P_ONLY
    return Membership.NEITHER


def _in_lattice(c4: tuple[int, ...]) -> bool:
    # Integer points: all coords4 = 0 mod 4; shifted points: all = 2 mod 4.
    # The total = 0 mod 8 encodes integrality of the pairing with phi.
    if all(c % 4 == 0 for c in c4) or all(c % 4 == 2 for c in c4):
        return sum(c4) % 8 == 0
    return False


@lru_cache(maxsize=None)
def enumerate_norm(n: int) -> tuple[LatticeVector, ...]:
    """All lattice vectors of squared norm n, by explicit coordinate patterns."""
    if n == 2:
        out = []
        for i, j in itertools.combinations(range(8), 2):
            for si, sj in itertools.product((4, -4), repeat=2):
                c = [0] * 8
                c[i], c[j] = si, sj
                out.append(LatticeVector(tuple(c)))
        for signs in itertools.product((2, -2), repeat=8):
            if sum(1 for s in signs if s < 0) % 2 == 0:
                out.append(LatticeVector(signs))
        assert len(out) == 240
        return tuple(out)
    if n == 4:
        out = []
        for i in range(8):
            for s in (8, -8):
                c = [0] * 8
                c[i] = s
                out.append(LatticeVector(tuple(c)))
        for quad in itertools.combinations(range(8), 4):
            for signs in itertools.product((4, -4), repeat=4):
                c = [0] * 8
                for pos, s in zip(quad, signs):
                    c[pos] = s
                out.append(LatticeVector(tuple(c)))
        # Quarter patterns (3, 1^7)/2: the minus-sign count must be odd to
        # keep the total divisible by 8.
        for i in range(8):
            for signs in itertools.product((1, -1), repeat=8):
                if sum(1 for s in signs if s < 0) % 2 == 0:
                    continue
                c = [2 * s for s in signs]
                c[i] = 6 * signs[i]
                out.append(LatticeVector(tuple(c)))
        assert len(out) == 2160
        return tuple(out)
    raise ValueError(f"norm {n} enumeration not supported (only 2 and 4)")


def reflect_c(alpha: LatticeVector, x: np.ndarray) -> np.ndarray:
    """Reflection of x (..., 8) in the hyperplane orthogonal to alpha; row reductions give
    each row of a C-ordered block its own bits (<a, a> = ip / 16 is exact)."""
    a, aa = alpha.reflection_c
    return x - (2.0 * np.add.reduce(x * a, axis=-1) / aa)[..., None] * a


def apply_word_c(word: Sequence[int], x: np.ndarray) -> np.ndarray:
    """Apply the group word s_{w0} s_{w1} ... to x (..., 8) (rightmost generator acts first)."""
    for i in reversed(word):
        x = reflect_c(SIMPLE_ROOTS[i], x)
    return x


def inverse_word(word: Sequence[int]) -> tuple[int, ...]:
    return tuple(reversed(word))


def sign_normalize(a: LatticeVector) -> LatticeVector:
    """Of {a, -a} return the one whose first nonzero coordinate is positive."""
    for c in a.coords4:
        if c > 0:
            return a
        if c < 0:
            return -a
    return a


class FrameType(Enum):
    C8_I = "C8_I"
    C8_II = "C8_II"
    C3_I = "C3_I"
    C3_II0 = "C3_II0"
    C3_II1 = "C3_II1"
    C3_II2 = "C3_II2"
    UNTYPED = "Untyped"


@dataclass(frozen=True)
class Frame:
    """An orthogonal frame {±a_0, ..., ±a_{l-1}}, stored sign-normalized and sorted."""

    vectors: tuple[LatticeVector, ...]
    frame_type: FrameType = FrameType.UNTYPED

    @staticmethod
    def from_vectors(vs: Iterable[LatticeVector], frame_type: FrameType | None = None) -> "Frame":
        """The frame of vs, sign-normalized and sorted; a missing type is the
        pairing profile's for a 3- or 8-frame."""
        canon = tuple(sorted(map(sign_normalize, vs), key=lambda v: v.coords4))
        if frame_type is None:
            frame_type = classify_frame(Frame(canon)) if len(canon) in (3, 8) else FrameType.UNTYPED
        return Frame(canon, frame_type)

    def key(self) -> tuple[tuple[int, ...], ...]:
        return tuple(v.coords4 for v in self.vectors)


class _HalfTable(NamedTuple):
    """The 1 080 sign-normalized norm-1 vectors of the half-lattice.

    ``rows`` is a read-only (1080, 8) int64 table in order of first
    appearance in enumerate_norm(4) halved; ``vectors`` holds one
    LatticeVector per row, shared by every frame that contains it, and
    ``index`` the row of each coords4. Per row a: ``sums`` is the
    coordinate sum, and ``cls`` / ``neg_cls`` code the classes of a and -a
    modulo 4Z^8 + 2Z(1, ..., 1).
    """

    rows: np.ndarray
    vectors: tuple[LatticeVector, ...]
    index: dict[tuple[int, ...], int]
    sums: np.ndarray
    cls: np.ndarray
    neg_cls: np.ndarray


def _residue_class(w: np.ndarray) -> np.ndarray:
    # w mod 4, shifted by 2(1, ..., 1) where that clears bit 1 of the first
    # coordinate, read as base-4 digits: equal codes, equal classes
    r = w & 3
    return (r ^ (r[:, :1] & 2)) @ (4 ** np.arange(8))


def _sign_normalized(w: np.ndarray) -> np.ndarray:
    """sign_normalize of every row of w (..., 8): the first nonzero coordinate made positive."""
    return w * np.sign(np.take_along_axis(w, (w != 0).argmax(axis=-1)[..., None], axis=-1))


@lru_cache(maxsize=None)
def _half_table() -> _HalfTable:
    w = np.array([v.coords4 for v in enumerate_norm(4)], dtype=np.int64)
    assert not (w & 1).any()  # every coordinate of 2a is even
    w = _sign_normalized(w // 2)
    index = {r: k for k, r in enumerate(dict.fromkeys(map(tuple, w.tolist())))}
    rows = np.array(list(index), dtype=np.int64)
    assert len(rows) == 1080
    sums = rows.sum(axis=1)
    out = _HalfTable(
        rows, tuple(map(LatticeVector, index)), index, sums, _residue_class(rows), _residue_class(-rows)
    )
    for arr in (out.rows, out.sums, out.cls, out.neg_cls):
        arr.flags.writeable = False
    return out


def frame_containing(a: LatticeVector) -> Frame:
    """The unique 8-vector frame through a norm-1 vector of the half-lattice:
    the enumerate_frames(8) entry through a's row of the half table."""
    if ip(a, a) != 16 or membership(a) == Membership.NEITHER:
        raise ValueError("need a norm-1 vector of the half-lattice")
    frame_of = _frame_rows()[1]
    return enumerate_frames(8)[frame_of[_half_table().index[sign_normalize(a).coords4]]]


@lru_cache(maxsize=None)
def _frame_rows() -> tuple[np.ndarray, tuple[int, ...]]:
    """The 135 8-frames as a read-only (135, 8) array of half-table rows, and
    the frame of each half-table row.

    Frames come in order of their first row in the table, each row list in
    canonical order. The frames partition the 1 080 rows.
    """
    h = _half_table()
    frame_of = [None] * len(h.rows)
    frames = []
    for k in range(len(frame_of)):
        if frame_of[k] is not None:
            continue
        # Orthogonal rows first, then the lattice test of _in_lattice on a + b
        # and on a - b, for each row b: a +- b has every coordinate = 0 mod 4 or
        # every one = 2 mod 4 iff the classes of a and -+b agree.
        orth = h.rows @ h.rows[k] == 0
        plus = np.flatnonzero(orth & (h.neg_cls == h.cls[k]) & ((h.sums[k] + h.sums) % 8 == 0))
        minus = np.flatnonzero(orth & (h.cls == h.cls[k]) & ((h.sums[k] - h.sums) % 8 == 0))
        # Uniqueness of the completion: exactly 7 sign pairs besides ±a.
        assert len(plus) + len(minus) == 14, f"frame completion found {len(plus) + len(minus)} partners"
        assert np.array_equal(plus, minus)
        f = sorted([k, *plus.tolist()], key=lambda j: h.vectors[j].coords4)
        for j in f:
            frame_of[j] = len(frames)
        frames.append(f)
    # 135 frames of 8 rows that cover all 1 080 rows: a partition
    assert len(frames) == 135 and None not in frame_of
    out = np.array(frames)
    out.flags.writeable = False
    return out, tuple(frame_of)


@lru_cache(maxsize=None)
def enumerate_frames(l: int) -> tuple[Frame, ...]:
    """All l-vector frames; there are 135 * C(8, l) of them.

    The l-subsets of each 8-frame in turn, in index order. An 8-frame's
    vectors are sign-normalized and sorted, so every subset is canonical
    as it stands, and as the 8-frames partition the vectors no subset
    repeats. 3- and 8-frames are typed as classify_frame types them: the
    sum of their vectors' phi codes, looked up in the table of their size.
    """
    if not 1 <= l <= 8:
        raise ValueError("frame size out of range 1..8")
    h = _half_table()
    rows = _frame_rows()[0]
    if l in (3, 8):
        codes = np.array([v.phi_code for v in h.vectors])
        sums = codes[rows][:, list(itertools.combinations(range(8), l))].sum(axis=-1)
        types = map(_TYPE_OF_CODE[l].__getitem__, sums.ravel().tolist())
    else:
        types = itertools.repeat(FrameType.UNTYPED)
    subsets = (
        vs for f in rows.tolist() for vs in itertools.combinations([h.vectors[j] for j in f], l)
    )
    frames = tuple(map(Frame, subsets, types))
    assert len(frames) == 135 * comb(8, l)
    return frames


def _phi_profile(vectors: Sequence[LatticeVector]) -> tuple[int, ...]:
    # Doubled pairings 2*<phi,a_i>, sorted by absolute value; 16*<phi,a> is
    # twice the coordinate sum.
    return tuple(sorted([abs(2 * sum(a.coords4) // 8) for a in vectors]))


_TYPE_OF_PROFILE = {
    (1,) * 8: FrameType.C8_I,
    (0, 0, 0, 0, 0, 0, 2, 2): FrameType.C8_II,
    (1, 1, 1): FrameType.C3_I,
    (0, 0, 0): FrameType.C3_II0,
    (0, 0, 2): FrameType.C3_II1,
    (0, 2, 2): FrameType.C3_II2,
}
# By frame size, the same table keyed by the sum of the vectors' phi codes:
# with at most 8 vectors per level the sum's base-16 digits are the profile.
_TYPE_OF_CODE = {
    l: {sum(16**level for level in prof): t for prof, t in _TYPE_OF_PROFILE.items() if len(prof) == l}
    for l in (3, 8)
}


def classify_frame(f: Frame) -> FrameType:
    """Type of an 8-frame or 3-frame from its pairing profile against phi:
    the sum of its vectors' phi codes, looked up in the table of its size."""
    table = _TYPE_OF_CODE.get(len(f.vectors))
    if table is None:
        raise ValueError("only 3-frames and 8-frames carry a type")
    code = 0
    for a in f.vectors:
        code += a.phi_code
    ftype = table.get(code)
    if ftype is None:
        raise ValueError(f"pairing profile {_phi_profile(f.vectors)} matches no class")
    return ftype


_ROOTS_INT64 = np.array([g.coords4 for g in SIMPLE_ROOTS], dtype=np.int64)


class _ShellAction(NamedTuple):
    """The lattice vectors of squared norm 2 or 4 and the simple reflections
    acting on them.

    ``vectors`` is enumerate_norm(n), one LatticeVector per row, shared by
    every orbit through it; ``index`` the row of each coords4; and
    ``images[g]`` the row of s_g(v) for each row v, one column per simple
    root g = 0, ..., 7.
    """

    vectors: tuple[LatticeVector, ...]
    index: dict[tuple[int, ...], int]
    images: tuple[tuple[int, ...], ...]


def _reflected(rows: np.ndarray, g: np.ndarray) -> np.ndarray:
    """s_g(v) for every row v of the int64 rows (m, 8) and one root g, exactly:
    s_g(v) = v - 2<g,v> g / 16<g,g>, and 16<g,g> = 32 for every root."""
    shift = (rows @ (2 * g))[:, None] * g
    if (shift % 32).any():
        raise ValueError("reflection left (1/4)Z^8")
    return rows - shift // 32


# A vector of squared norm at most 4 has every coords4 in [-8, 8]: read as
# balanced base-17 digits they give each row of a shell its own int64 key.
_SHELL_KEY = 17 ** np.arange(8, dtype=np.int64)


@lru_cache(maxsize=None)
def _shell_action(n: int) -> _ShellAction:
    """The table of the norm-n shell, one column per root from one exact int64
    pass over the rows. A reflection permutes the shell, so the column is the
    permutation that sorts the images' keys, read against the sorted rows."""
    vectors = enumerate_norm(n)
    index = {v.coords4: k for k, v in enumerate(vectors)}
    rows = np.fromiter(itertools.chain.from_iterable(index), np.int64, 8 * len(index)).reshape(-1, 8)
    keys = rows @ _SHELL_KEY
    order = np.argsort(keys)
    rank = list(index.values()).__getitem__  # the index's own ints, shared by every column
    images = []
    for g in range(8):
        image_keys = _reflected(rows, _ROOTS_INT64[g]) @ _SHELL_KEY
        by_key = np.argsort(image_keys)
        assert np.array_equal(image_keys[by_key], keys[order]), "a reflection left the shell"
        col = np.empty_like(order)
        col[by_key] = order  # row by_key[i] is sent to row order[i]
        images.append(tuple(map(rank, col.tolist())))
    return _ShellAction(vectors, index, tuple(images))


def weyl_orbit(seed: LatticeVector, group: str = "E8") -> tuple[LatticeVector, ...]:
    """Breadth-first orbit closure of a lattice vector of squared norm 2 or 4
    under the simple reflections of E7 or E8; any other seed is a ValueError.

    The search walks the row indices of the seed's shell's cached reflection
    table (_shell_action). The orbit lists the seed first, then each new
    image in the order the search meets it: element by element, generator
    by generator within each element, each image the shell's shared
    LatticeVector.
    """
    if group not in ("E7", "E8"):
        raise ValueError(f"unknown group {group!r}: need 'E7' or 'E8'")
    if not (isinstance(seed, LatticeVector) and _in_lattice(seed.coords4) and ip(seed, seed) in (32, 64)):
        raise ValueError("weyl_orbit needs a lattice vector of squared norm 2 or 4")
    table = _shell_action(ip(seed, seed) // 16)
    cols = table.images[: 7 if group == "E7" else 8]
    start = table.index[seed.coords4]
    seen = {start}
    rows = [start]
    for k in rows:  # the list is the queue: it grows while it is read
        for col in cols:
            j = col[k]
            if j not in seen:
                seen.add(j)
                rows.append(j)
    vectors = table.vectors
    return (seed, *[vectors[k] for k in rows[1:]])


def phi_pairing_c(x: np.ndarray) -> complex:
    """<phi, x> for a complex 8-vector: half the coordinate sum."""
    return 0.5 * complex(np.sum(x))


def pairing_c(a: LatticeVector, x: np.ndarray) -> complex:
    """<a, x> between a lattice vector and a complex 8-vector."""
    return complex(np.dot(a.coords4_float, x)) / 4.0
