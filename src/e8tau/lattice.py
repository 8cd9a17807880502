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
from typing import Iterable, Sequence

import numpy as np


class Membership(Enum):
    P = "P"
    HALF_P_ONLY = "HalfP_only"
    NEITHER = "Neither"


@dataclass(frozen=True)
class LatticeVector:
    """A point of (1/4)Z^8; ``coords4`` holds 4x the true coordinates."""

    coords4: tuple[int, ...]

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

    def half(self) -> "LatticeVector":
        if any(a % 2 for a in self.coords4):
            raise ValueError("halving would leave (1/4)Z^8")
        return LatticeVector(tuple(a // 2 for a in self.coords4))

    def true_coords(self) -> np.ndarray:
        return np.array(self.coords4, dtype=float) / 4.0


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


def reflect(alpha: LatticeVector, v: LatticeVector) -> LatticeVector:
    """Reflection of v in the hyperplane orthogonal to alpha (exact)."""
    nn = ip(alpha, alpha)
    if nn == 0:
        raise ValueError("cannot reflect in a null vector")
    t = 2 * ip(alpha, v)
    coords = []
    for cv, ca in zip(v.coords4, alpha.coords4):
        num = cv * nn - t * ca
        q, r = divmod(num, nn)
        if r:
            raise ValueError("reflection left (1/4)Z^8")
        coords.append(q)
    return LatticeVector(tuple(coords))


def reflect_c(alpha: LatticeVector, x: np.ndarray) -> np.ndarray:
    """The same reflection acting on a complex 8-vector of additive coordinates."""
    a = np.asarray(alpha.coords4, dtype=float) / 4.0
    return x - (2.0 * (a @ x) / (a @ a)) * a


def apply_word(word: Sequence[int], v: LatticeVector) -> LatticeVector:
    """Apply the group word s_{w0} s_{w1} ... (rightmost generator acts first)."""
    for i in reversed(word):
        v = reflect(SIMPLE_ROOTS[i], v)
    return v


def apply_word_c(word: Sequence[int], x: np.ndarray) -> np.ndarray:
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
        canon = tuple(sorted((sign_normalize(v) for v in vs), key=lambda v: v.coords4))
        f = Frame(canon)
        if frame_type is None and len(canon) in (3, 8):
            frame_type = classify_frame(f)
        return Frame(canon, frame_type or FrameType.UNTYPED)

    def key(self) -> tuple[tuple[int, ...], ...]:
        return tuple(v.coords4 for v in self.vectors)

    def __len__(self) -> int:
        return len(self.vectors)


@lru_cache(maxsize=None)
def _norm1_half_vectors() -> tuple[LatticeVector, ...]:
    return tuple(w.half() for w in enumerate_norm(4))


@lru_cache(maxsize=None)
def _norm1_half_table() -> np.ndarray:
    # The same vectors as one read-only (2160, 8) int64 array, row k = vector k.
    table = np.array([b.coords4 for b in _norm1_half_vectors()], dtype=np.int64)
    table.flags.writeable = False
    return table


def frame_containing(a: LatticeVector) -> Frame:
    """The unique 8-vector frame through a norm-1 vector of the half-lattice."""
    if ip(a, a) != 16 or membership(a) == Membership.NEITHER:
        raise ValueError("need a norm-1 vector of the half-lattice")
    table = _norm1_half_table()
    c = np.array(a.coords4, dtype=np.int64)
    # Orthogonal rows first, then the lattice test of _in_lattice on a + b.
    rows = np.flatnonzero(table @ c == 0)
    s = table[rows] + c
    r4 = s % 4
    in_p = ((r4 == 0).all(axis=1) | (r4 == 2).all(axis=1)) & (s.sum(axis=1) % 8 == 0)
    vectors = _norm1_half_vectors()
    partners = [vectors[k] for k in rows[in_p]]
    # Uniqueness of the completion: exactly 7 sign pairs besides ±a.
    assert len(partners) == 14, f"frame completion found {len(partners)} partners"
    distinct = {sign_normalize(b).coords4: sign_normalize(b) for b in partners}
    assert len(distinct) == 7
    return Frame.from_vectors([sign_normalize(a), *distinct.values()])


@lru_cache(maxsize=None)
def enumerate_frames(l: int) -> tuple[Frame, ...]:
    """All l-vector frames; there are 135 * C(8, l) of them."""
    if not 1 <= l <= 8:
        raise ValueError("frame size out of range 1..8")
    if l == 8:
        seen: set[tuple[int, ...]] = set()
        frames = []
        for w in enumerate_norm(4):
            a = sign_normalize(w.half())
            if a.coords4 in seen:
                continue
            f = frame_containing(a)
            frames.append(f)
            seen.update(v.coords4 for v in f.vectors)
        assert len(frames) == 135 and len(seen) == 1080
        return tuple(frames)
    out = {}
    for f8 in enumerate_frames(8):
        for combo in itertools.combinations(f8.vectors, l):
            f = Frame.from_vectors(combo)
            out[f.key()] = f
    frames = tuple(out.values())
    assert len(frames) == 135 * comb(8, l)
    return frames


def _phi_profile(f: Frame) -> tuple[int, ...]:
    # Doubled pairings 2*<phi,a_i>, sorted by absolute value; 16*<phi,a> is
    # twice the coordinate sum.
    return tuple(sorted([abs(2 * sum(a.coords4) // 8) for a in f.vectors]))


_TYPE_OF_PROFILE = {
    (1,) * 8: FrameType.C8_I,
    (0, 0, 0, 0, 0, 0, 2, 2): FrameType.C8_II,
    (1, 1, 1): FrameType.C3_I,
    (0, 0, 0): FrameType.C3_II0,
    (0, 0, 2): FrameType.C3_II1,
    (0, 2, 2): FrameType.C3_II2,
}


def classify_frame(f: Frame) -> FrameType:
    """Type of an 8-frame or 3-frame from its pairing profile against phi."""
    if len(f) not in (3, 8):
        raise ValueError("only 3-frames and 8-frames carry a type")
    prof = _phi_profile(f)
    ftype = _TYPE_OF_PROFILE.get(prof)
    if ftype is None:
        raise ValueError(f"pairing profile {prof} matches no class")
    return ftype


# Vector orbits run in int64 while every coordinate, inner product and
# reflection numerator stays far below 2**63; an orbit keeps the norm, so
# seeds with larger coordinates run on Python integers (object arrays).
_INT64_COORD_LIMIT = 2**40
_ROOTS_INT64 = np.array([g.coords4 for g in SIMPLE_ROOTS], dtype=np.int64)


def weyl_orbit(seed: LatticeVector | Frame, group: str = "E8"):
    """Breadth-first orbit closure under the simple reflections of E7 or E8.

    The orbit lists the seed first, then each new image in the order the
    breadth-first search meets it: frontier element by element, generator by
    generator within each element. E7 fixes phi, so a frame's images keep
    the seed's frame_type; E8 does not, so each new image of a 3- or 8-frame
    is classified on its own.
    """
    if group not in ("E7", "E8"):
        raise ValueError(f"unknown group {group!r}: need 'E7' or 'E8'")
    n_gens = 7 if group == "E7" else 8
    if isinstance(seed, LatticeVector):
        return _vector_orbit(seed, n_gens)
    gens = SIMPLE_ROOTS[:n_gens]
    start = Frame.from_vectors(seed.vectors, seed.frame_type)
    orbit = {start.key(): start}
    frontier = [start]
    while frontier:
        nxt = []
        for el in frontier:
            for g in gens:
                im = Frame.from_vectors([reflect(g, v) for v in el.vectors], el.frame_type)
                k = im.key()
                if k not in orbit:
                    if n_gens == 8:
                        im = Frame.from_vectors(im.vectors)
                    orbit[k] = im
                    nxt.append(im)
        frontier = nxt
    return tuple(orbit.values())


def _vector_orbit(seed: LatticeVector, n_gens: int) -> tuple[LatticeVector, ...]:
    # Each round reflects the whole frontier by every generator at once:
    # s_g(v) = (v*nn - 2<g,v> g) / nn with nn = 16<g,g> = 32 for every root.
    small = max(abs(c) for c in seed.coords4) < _INT64_COORD_LIMIT
    gens = _ROOTS_INT64[:n_gens] if small else _ROOTS_INT64[:n_gens].astype(object)
    nn = 32
    orbit = {seed.coords4: seed}
    frontier = np.array([seed.coords4], dtype=np.int64 if small else object)
    while len(frontier):
        t = 2 * (frontier @ gens.T)  # (m, g)
        num = frontier[:, None, :] * nn - t[:, :, None] * gens[None, :, :]
        if (num % nn).any():
            raise ValueError("reflection left (1/4)Z^8")
        new = []
        for row in (num // nn).reshape(-1, 8).tolist():
            k = tuple(row)
            if k not in orbit:
                orbit[k] = LatticeVector(k)
                new.append(row)
        frontier = np.array(new, dtype=frontier.dtype).reshape(-1, 8)
    return tuple(orbit.values())


def phi_pairing_c(x: np.ndarray) -> complex:
    """<phi, x> for a complex 8-vector: half the coordinate sum."""
    return 0.5 * complex(np.sum(x))


def pairing_c(a: LatticeVector, x: np.ndarray) -> complex:
    """<a, x> between a lattice vector and a complex 8-vector."""
    return complex(np.dot(np.asarray(a.coords4, dtype=float), x)) / 4.0
