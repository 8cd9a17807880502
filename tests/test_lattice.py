"""Lattice layer: memberships, enumerations, frames, reflections, orbits."""
from __future__ import annotations

import dataclasses
import functools
import itertools
import time
from collections import Counter
from operator import add, mul

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from e8tau import cli
from e8tau import lattice as L

from . import _reference as R
from ._reference import apply_word, reflect

SHELL_SEEDS = tuple(seed for seed, _ in cli._SHELL_ORBITS)


def _halved(w):
    """w with its coords4 halved: a norm-4 lattice vector to a norm-1 frame vector."""
    return L.LatticeVector(tuple(c // 2 for c in w.coords4))


def _validate_frame(f):
    """Assert the defining conditions: orthonormal, sums/differences and doubles in P."""
    for i, a in enumerate(f.vectors):
        assert L.ip(a, a) == 16
        assert L.membership(a.scaled(2)) is L.Membership.P
        for b in f.vectors[i + 1 :]:
            assert L.ip(a, b) == 0
            assert L.membership(a + b) is L.Membership.P
            assert L.membership(a - b) is L.Membership.P


def test_inner_product_scaling():
    assert L.ip(L.V[0], L.V[0]) == 16
    assert L.ip(L.V[0], L.V[1]) == 0
    assert L.ip(L.PHI, L.PHI) == 32
    for i in range(8):
        assert L.ip(L.PHI, L.V[i]) == 8


def test_membership_examples():
    assert L.membership(L.V[0]) is L.Membership.HALF_P_ONLY
    assert L.membership(L.PHI) is L.Membership.P
    h = _halved(L.V[0] + L.V[1] + L.V[2] + L.V[3])
    assert L.membership(h) is L.Membership.HALF_P_ONLY
    assert L.membership(L.vec(1, 0, 0, 0, 0, 0, 0, 0)) is L.Membership.NEITHER
    assert L.membership(L.vec(2, 1, 0, 0, 0, 0, 0, 0)) is L.Membership.NEITHER
    assert L.membership(L.V[0] + L.V[1]) is L.Membership.P


def test_shell_counts():
    assert len(L.enumerate_norm(2)) == 240
    assert len(L.enumerate_norm(4)) == 2160
    for a in L.enumerate_norm(2):
        assert L.ip(a, a) == 32
        assert L.membership(a) is L.Membership.P
    for a in L.enumerate_norm(4):
        assert L.ip(a, a) == 64
        assert L.membership(a) is L.Membership.P


def test_simple_root_cartan_matrix():
    # Chain 1-2-3-4-5-6-7 with node 0 attached at 3.
    edges = {(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (0, 3)}
    for i in range(8):
        assert L.ip(L.SIMPLE_ROOTS[i], L.SIMPLE_ROOTS[i]) == 32
        for j in range(i + 1, 8):
            expect = -16 if (i, j) in edges else 0
            assert L.ip(L.SIMPLE_ROOTS[i], L.SIMPLE_ROOTS[j]) == expect
    # the first seven stabilize phi
    for alpha in L.SIMPLE_ROOTS[:7]:
        assert L.ip(L.PHI, alpha) == 0
    assert L.ip(L.PHI, L.SIMPLE_ROOTS[7]) == 16


def test_reflection_exact_example():
    r = reflect(L.SIMPLE_ROOTS[0], L.V[0])
    assert r.coords4 == (3, -1, -1, -1, 1, 1, 1, 1)


def test_reflection_is_isometric_involution():
    rng = np.random.default_rng(np.random.Philox(7))
    roots = L.enumerate_norm(2)
    shell4 = L.enumerate_norm(4)
    for _ in range(200):
        alpha = roots[rng.integers(len(roots))]
        v = shell4[rng.integers(len(shell4))]
        w = roots[rng.integers(len(roots))]
        rv = reflect(alpha, v)
        assert reflect(alpha, rv) == v
        assert L.ip(rv, rv) == L.ip(v, v)
        assert L.ip(reflect(alpha, w), rv) == L.ip(w, v)
        assert L.membership(rv) is L.Membership.P


def test_word_inverse_roundtrip():
    rng = np.random.default_rng(np.random.Philox(11))
    for _ in range(50):
        word = tuple(int(k) for k in rng.integers(0, 8, size=12))
        v = L.enumerate_norm(2)[rng.integers(240)]
        assert apply_word(L.inverse_word(word), apply_word(word, v)) == v
        x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        back = L.apply_word_c(L.inverse_word(word), L.apply_word_c(word, x))
        assert np.allclose(back, x, atol=1e-12)


def test_frame_through_basis_vector():
    f = L.frame_containing(L.V[0])
    assert {v.coords4 for v in f.vectors} == {v.coords4 for v in L.V}
    assert f.frame_type is L.FrameType.C8_I


def test_frame_canonical_regardless_of_seed():
    h = _halved(L.V[0] + L.V[1] + L.V[2] + L.V[3])
    f = L.frame_containing(h)
    assert f.frame_type is L.FrameType.C8_II
    for seed in (-h, f.vectors[3], -f.vectors[5]):
        assert L.frame_containing(seed).key() == f.key()


def test_frame_counts_and_partition():
    f8 = L.enumerate_frames(8)
    assert len(f8) == 135
    covered = set()
    for f in f8:
        covered.update(v.coords4 for v in f.vectors)
    assert len(covered) == 1080
    assert len(L.enumerate_frames(3)) == 7560
    assert len(L.enumerate_frames(1)) == 1080


def test_frame_defining_conditions_sampled():
    rng = np.random.default_rng(np.random.Philox(13))
    for size in (8, 3, 1):
        frames = L.enumerate_frames(size)
        for idx in rng.integers(0, len(frames), size=12):
            _validate_frame(frames[int(idx)])


def test_frame_type_census():
    from collections import Counter

    c8 = Counter(f.frame_type for f in L.enumerate_frames(8))
    assert c8 == {L.FrameType.C8_I: 72, L.FrameType.C8_II: 63}
    c3 = Counter(f.frame_type for f in L.enumerate_frames(3))
    assert c3 == {
        L.FrameType.C3_I: 4032,
        L.FrameType.C3_II0: 1260,
        L.FrameType.C3_II1: 1890,
        L.FrameType.C3_II2: 378,
    }


def test_type_two_distinguished_pair_sums_to_highest_root():
    seen = 0
    for f in L.enumerate_frames(8):
        if f.frame_type is not L.FrameType.C8_II:
            continue
        pair = [a for a in f.vectors if abs(L.ip(L.PHI, a)) == 16]
        assert len(pair) == 2
        fixed = [a if L.ip(L.PHI, a) == 16 else -a for a in pair]
        assert (fixed[0] + fixed[1]).coords4 == L.PHI.coords4
        seen += 1
    assert seen == 63


def test_type_one_half_sum_is_highest_root():
    for f in L.enumerate_frames(8):
        if f.frame_type is not L.FrameType.C8_I:
            continue
        fixed = [a if L.ip(L.PHI, a) == 8 else -a for a in f.vectors]
        total = fixed[0]
        for a in fixed[1:]:
            total = total + a
        assert total.coords4 == L.PHI.scaled(2).coords4


def test_stabilizer_orbits_of_norm4_shell():
    sizes = [len(L.weyl_orbit(s, "E7")) for s in SHELL_SEEDS]
    assert sizes == [126, 576, 756, 576, 126]
    assert sum(sizes) == 2160


def test_shell_orbits_are_the_phi_pairing_classes():
    # E7 fixes phi, and on the norm-4 shell the pairing with phi is all an
    # orbit remembers: each orbit is the set of shell vectors with the
    # seed's pairing, found here by no search
    shell = L.enumerate_norm(4)
    for seed, size in cli._SHELL_ORBITS:
        want = {v.coords4 for v in shell if L.ip(L.PHI, v) == L.ip(L.PHI, seed)}
        got = [v.coords4 for v in L.weyl_orbit(seed, "E7")]
        assert len(got) == len(set(got)) == size
        assert set(got) == want


def test_zero_pairing_roots_count():
    assert sum(1 for a in L.enumerate_norm(2) if L.ip(L.PHI, a) == 0) == 126


def test_full_group_acts_transitively_on_frames():
    f0 = L.enumerate_frames(8)[0]
    orbit = _orbit_reference(f0, "E8")
    assert len(orbit) == 135


def _census(frames):
    return {t.value: n for t, n in Counter(f.frame_type for f in frames).items()}


@functools.lru_cache(maxsize=None)
def _e8_frame_orbit(size):
    """The E8 orbit of the first size-frame by the scalar reference search,
    computed once for the tests that read it (7 560 images for a 3-frame)."""
    return _orbit_reference(L.enumerate_frames(size)[0], "E8")


@pytest.mark.parametrize("size, census", [
    (8, {"C8_I": 72, "C8_II": 63}),
    (3, {"C3_I": 4032, "C3_II0": 1260, "C3_II1": 1890, "C3_II2": 378}),
])
def test_e8_frame_orbit_types_each_image(size, census):
    # E8 moves phi, so an image's type is its own pairing profile, not the
    # seed's; the orbit is every frame of the size, typed as enumerate_frames
    orbit = _e8_frame_orbit(size)
    assert all(f.frame_type is L.classify_frame(f) for f in orbit)
    assert _census(orbit) == census == _census(L.enumerate_frames(size))


def test_e7_frame_orbit_keeps_the_seed_type():
    for ftype in (L.FrameType.C8_I, L.FrameType.C8_II):
        seed = next(f for f in L.enumerate_frames(8) if f.frame_type is ftype)
        orbit = _orbit_reference(seed, "E7")
        assert all(f.frame_type is ftype is L.classify_frame(f) for f in orbit)


def test_complex_pairings_match_exact_ones():
    rng = np.random.default_rng(np.random.Philox(17))
    for _ in range(40):
        a = L.enumerate_norm(2)[rng.integers(240)]
        b = L.enumerate_norm(4)[rng.integers(2160)]
        x = b.true_coords().astype(complex)
        assert abs(L.pairing_c(a, x) - L.ip(a, b) / 16.0) < 1e-12
    assert abs(L.phi_pairing_c(L.PHI.true_coords().astype(complex)) - 2.0) < 1e-14


def test_float_coordinates_are_the_converted_route_bit_for_bit():
    # pairing_c, reflect_c and the tau layer's shift vectors read the cached
    # float copy of coords4 (the signed axis rows convert coords4 the same
    # way); the reference converts coords4 on every call, and reflects by
    # the row reductions reflect_c makes
    rng = np.random.default_rng(np.random.Philox(19))
    vectors = L.enumerate_norm(2) + L.enumerate_norm(4)[:200] + tuple(f.vectors[0] for f in L.enumerate_frames(3)[:200])

    def bits(z):
        return np.asarray(z, dtype=complex).tobytes()

    for _ in range(2000):
        a = vectors[int(rng.integers(len(vectors)))]
        x = 10.0 ** rng.uniform(-3, 3) * (rng.standard_normal(8) + 1j * rng.standard_normal(8))
        d = complex(*rng.standard_normal(2))
        c = np.asarray(a.coords4, dtype=float)
        assert bits(L.pairing_c(a, x)) == bits(complex(np.dot(c, x)) / 4.0)
        ref = c / 4.0
        assert bits(L.reflect_c(a, x)) == bits(x - (2.0 * np.add.reduce(x * ref) / np.add.reduce(ref * ref)) * ref)
        assert bits(a.coords4_float * (d / 4.0)) == bits(np.asarray(a.true_coords(), dtype=complex) * d)
        assert bits((d / 4.0) * a.coords4_float) == bits(d * np.asarray(a.true_coords(), dtype=complex))
        assert bits(a.coords4_float * (d / 2.0)) == bits(2.0 * np.asarray(a.true_coords(), dtype=complex) * d)


def test_a_word_on_a_block_is_the_word_on_each_row():
    # a (6, 8) block gives each row the bits of that row alone, and every
    # row is within 1e-15 of the per-point BLAS reference, relative to the
    # row's largest coordinate; seeded words of 1 to 8 generators, rows of
    # modulus 1e-3 to 1e3
    rng = np.random.default_rng(np.random.Philox(48))
    for _ in range(300):
        X = 10.0 ** rng.uniform(-3, 3, size=(6, 1)) * (rng.standard_normal((6, 8)) + 1j * rng.standard_normal((6, 8)))
        word = tuple(rng.integers(0, 8, size=int(rng.integers(1, 9))).tolist())
        block = L.apply_word_c(word, X)
        assert block.tobytes() == np.array([L.apply_word_c(word, x) for x in X]).tobytes()
        for got, x in zip(block, X):
            ref = R.apply_word_c(word, x)
            assert np.abs(got - ref).max() <= 1e-15 * np.abs(ref).max()


def test_float_coordinates_are_a_read_only_copy():
    a = L.vec(2, -2, 2, -2, 0, 0, 0, 0)
    assert a.coords4_float is a.coords4_float
    assert a.coords4_float.tolist() == [2.0, -2.0, 2.0, -2.0, 0.0, 0.0, 0.0, 0.0]
    with pytest.raises(ValueError, match="read-only"):
        a.coords4_float[0] = 5.0
    assert a == L.vec(2, -2, 2, -2, 0, 0, 0, 0) and hash(a) == hash(L.vec(2, -2, 2, -2, 0, 0, 0, 0))


def test_unsupported_norm_raises():
    with pytest.raises(ValueError):
        L.enumerate_norm(6)
    with pytest.raises(ValueError, match="^only 3-frames and 8-frames carry a type$"):
        L.classify_frame(L.enumerate_frames(1)[0])


# Reference routes: the scalar breadth-first orbit, which the shell table
# replaces and which alone computes frame orbits, and the scalar frame
# completion scan that the integer-array kernels replace.


def _orbit_reference(seed, group):
    """The orbit by scalar reflections, one vector at a time. A frame's image
    is Frame.from_vectors of its reflected vectors, typed by classify_frame
    on E8 (untyped unless a 3- or 8-frame) and with the seed's type on E7."""
    gens = L.SIMPLE_ROOTS[:7] if group == "E7" else L.SIMPLE_ROOTS

    def image(g, el):
        if not isinstance(el, L.Frame):
            im = reflect(g, el)
            return im, im.coords4
        im = L.Frame.from_vectors([reflect(g, v) for v in el.vectors], seed.frame_type)
        if group == "E8":
            im = L.Frame(im.vectors, L.classify_frame(im) if len(im.vectors) in (3, 8) else L.FrameType.UNTYPED)
        return im, im.key()

    if isinstance(seed, L.Frame):
        seed = L.Frame.from_vectors(seed.vectors, seed.frame_type)
    orbit = {seed.key() if isinstance(seed, L.Frame) else seed.coords4: seed}
    frontier = [seed]
    while frontier:
        nxt = []
        for el in frontier:
            for g in gens:
                im, key = image(g, el)
                if key not in orbit:
                    orbit[key] = im
                    nxt.append(im)
        frontier = nxt
    return tuple(orbit.values())


@functools.lru_cache(maxsize=None)
def _half_vectors():
    return tuple(map(_halved, L.enumerate_norm(4)))


def _frame_containing_reference(a):
    c = a.coords4
    partners = [
        b
        for b in _half_vectors()
        if sum(map(mul, c, b.coords4)) == 0 and L._in_lattice(tuple(map(add, c, b.coords4)))
    ]
    assert len(partners) == 14
    distinct = {L.sign_normalize(b).coords4: L.sign_normalize(b) for b in partners}
    return L.Frame.from_vectors([L.sign_normalize(a), *distinct.values()], L.FrameType.UNTYPED)


def _floored_type(vectors):
    """The type of the floored pairings |floor(2<phi,a>)|, without phi_code."""
    return L._TYPE_OF_PROFILE[tuple(sorted(abs(L.ip(L.PHI, a) // 8) for a in vectors))]


def test_vector_orbits_match_scalar_reference():
    # shell seeds walk the reflection table
    cases = [(s, "E7") for s in SHELL_SEEDS]
    cases += [(L.SIMPLE_ROOTS[0], "E8"), (L.PHI - L.V[0].scaled(2), "E8")]
    for seed, group in cases:
        got = L.weyl_orbit(seed, group)
        assert got == _orbit_reference(seed, group)  # content and order
        assert all(type(c) is int for v in got for c in v.coords4)
    assert len(L.weyl_orbit(L.SIMPLE_ROOTS[0], "E8")) == 240
    assert len(L.weyl_orbit(L.PHI - L.V[0].scaled(2), "E8")) == 2160


@pytest.mark.parametrize("n", [2, 4])
def test_shell_table_columns_are_the_simple_reflections(n):
    # column g is s_g on the shell: an involution that fixes exactly the
    # rows pairing to 0 with root g
    table = L._shell_action(n)
    assert table.vectors is L.enumerate_norm(n)
    rows = range(len(table.vectors))
    for g, col in zip(L.SIMPLE_ROOTS, table.images):
        assert [table.vectors[col[k]] for k in rows] == [reflect(g, v) for v in table.vectors]
        assert [col[col[k]] for k in rows] == list(rows)
        assert [k for k in rows if col[k] == k] == [k for k in rows if L.ip(g, table.vectors[k]) == 0]
    # an orbit on the shell returns the seed, then the table's own vectors
    seed = L.vec(*table.vectors[-1].coords4)
    orbit = L.weyl_orbit(seed, "E8")
    assert orbit[0] is seed and all(v is table.vectors[table.index[v.coords4]] for v in orbit[1:])


_OFF_SHELL = "^weyl_orbit needs a lattice vector of squared norm 2 or 4$"


def test_orbit_of_a_seed_off_the_shells_raises():
    # only a lattice vector of squared norm 2 or 4 has an orbit here: an
    # 8-frame and a doubled root are refused on both groups
    seeds = (L.enumerate_frames(8)[0], L.SIMPLE_ROOTS[3].scaled(2))
    for seed, group in itertools.product(seeds, ("E7", "E8")):
        with pytest.raises(ValueError, match=_OFF_SHELL):
            L.weyl_orbit(seed, group)


def test_vector_orbit_with_large_coordinates_runs_exactly():
    # Coordinates far beyond the int64 range stay exact Python integers on
    # the reference search; weyl_orbit refuses the scaled root as off-shell.
    root = L.SIMPLE_ROOTS[3]
    seed = root.scaled(2**70)
    got = _orbit_reference(seed, "E7")
    assert got == tuple(w.scaled(2**70) for w in L.weyl_orbit(root, "E7"))
    assert len(got) == 126
    assert all(type(c) is int for v in got for c in v.coords4)
    for group in ("E7", "E8"):
        with pytest.raises(ValueError, match=_OFF_SHELL):
            L.weyl_orbit(seed, group)


def test_orbit_of_the_empty_frame_is_itself():
    # on the reference search; weyl_orbit takes no frame, the empty one included
    for group in ("E7", "E8"):
        assert _orbit_reference(L.Frame(()), group) == (L.Frame(()),)
        with pytest.raises(ValueError, match=_OFF_SHELL):
            L.weyl_orbit(L.Frame(()), group)


def test_orbit_leaving_the_quarter_lattice_raises():
    # (1, 0, ..., 0) is not in the quarter lattice, so it has no shell orbit
    for group in ("E7", "E8"):
        with pytest.raises(ValueError, match=_OFF_SHELL):
            L.weyl_orbit(L.vec(1, 0, 0, 0, 0, 0, 0, 0), group)


def test_orbit_rejects_unknown_group():
    for group in ("E6", "e8", "", None):
        with pytest.raises(ValueError, match="group"):
            L.weyl_orbit(L.PHI, group)
    with pytest.raises(ValueError, match="group"):
        L.weyl_orbit(L.enumerate_frames(8)[0], "D8")


def test_frame_completion_matches_scalar_reference():
    # one scalar scan per reference frame; the 135 frames partition the
    # 1 080 vectors, and every vector's completion is its reference frame
    seen = {L.sign_normalize(w).coords4: L.sign_normalize(w) for w in _half_vectors()}
    assert len(seen) == 1080
    refs = _frames8_reference()
    assert len(refs) == 135 and sorted(k for ref in refs for k in ref.key()) == sorted(seen)
    ref_of = {k: (ref.key(), _floored_type(ref.vectors)) for ref in refs for k in ref.key()}
    for k, a in seen.items():
        f = L.frame_containing(a)
        assert (f.key(), f.frame_type) == ref_of[k]


def test_frame_containing_returns_the_table_frame():
    # the 8-frame through a and through -a is the enumerate_frames(8) entry
    # itself, for each of the 1 080 half-table vectors
    frames = L.enumerate_frames(8)
    assert sum(len(f.vectors) for f in frames) == 1080
    for f in frames:
        for a in f.vectors:
            assert L.frame_containing(a) is f and L.frame_containing(-a) is f


def test_phi_profile_is_the_floored_pairing():
    for f in L.enumerate_frames(8):
        assert L._phi_profile(f.vectors) == tuple(sorted(abs(L.ip(L.PHI, a) // 8) for a in f.vectors))
    frames = L.enumerate_frames(8) + L.enumerate_frames(3)
    assert len(frames) == 7695
    assert all(L.classify_frame(f) is _floored_type(f.vectors) for f in frames)
    # the E8 orbit of a 3-frame, rebuilt from fresh vectors: each phi_code
    # is first read here
    orbit = _e8_frame_orbit(3)
    fresh = [L.Frame(tuple(L.LatticeVector(v.coords4) for v in f.vectors)) for f in orbit]
    assert len(fresh) == 7560
    assert all(L.classify_frame(f) is _floored_type(f.vectors) for f in fresh)


def test_classify_frame_ignores_the_stored_type():
    # the type comes from the vectors alone (a C3_II0 frame stored as C3_I
    # is C3_II0), so f.frame_type is classify_frame(f) above checks the
    # stored type against the vectors
    one_per_type = {f.frame_type: f for f in L.enumerate_frames(3) + L.enumerate_frames(8)}
    assert len(one_per_type) == 6
    for want, f in one_per_type.items():
        for stored in L.FrameType:
            assert L.classify_frame(L.Frame(f.vectors, stored)) is want


def test_classify_frame_rejects_pairings_without_a_class():
    first = L.enumerate_frames(3)[0]
    with pytest.raises(ValueError, match=r"^pairing profile \(2, 2, 2\) matches no class$"):
        L.classify_frame(L.Frame(tuple(v.scaled(2) for v in first.vectors)))
    # a level far above 2 is no class either, and says so at once
    huge = L.Frame(tuple(v.scaled(2**70) for v in first.vectors))
    start = time.perf_counter()
    with pytest.raises(ValueError, match="^pairing profile .* matches no class$"):
        L.classify_frame(huge)
    assert time.perf_counter() - start < 1.0


def test_phi_code_leaves_the_vector_as_it_was():
    # 16**|floor(2<phi,a>)| up to level 2, then one code no frame sum can reach
    cases = [
        (L.V[0] - L.V[1], 1), (L.vec(1, 0, 0, 0, 0, 0, 0, 0), 1), (L.vec(-1, 0, 0, 0, 0, 0, 0, 0), 16),
        (L.V[0], 16), (-L.V[0], 16), (L.V[0] + L.V[1], 256), (-L.V[0] - L.V[1], 256),
        (L.PHI, 4096), (L.V[0].scaled(2**70), 4096),
    ]
    for a, code in cases:
        read = L.LatticeVector(a.coords4)
        assert read.phi_code == code
        fresh = L.LatticeVector(a.coords4)
        assert read == fresh and hash(read) == hash(fresh) and repr(read) == repr(fresh)
        assert dataclasses.fields(read) == dataclasses.fields(fresh)
        assert dataclasses.astuple(read) == dataclasses.astuple(fresh) == (a.coords4,)


def test_small_frames_keep_their_order():
    f3 = L.enumerate_frames(3)
    assert len({f.key() for f in f3}) == len(f3) == 7560
    # Output order: the 3-subsets of each 8-frame in turn.
    first = L.enumerate_frames(8)[0]
    assert [f.key() for f in f3[:56]] == [
        tuple(v.coords4 for v in c) for c in itertools.combinations(first.vectors, 3)
    ]


@functools.lru_cache(maxsize=None)
def _frames8_reference():
    # The 8-frames by the scalar completion of each halved norm-4 vector
    # not yet covered, in enumerate_norm(4) order.
    frames8, seen = [], set()
    for w in _half_vectors():
        a = L.sign_normalize(w)
        if a.coords4 not in seen:
            frames8.append(_frame_containing_reference(a))
            seen.update(frames8[-1].key())
    return frames8


def _frames_reference(size):
    # The per-frame route: every size-subset of each 8-frame through
    # Frame.from_vectors, first key wins, typed by classify_frame.
    out = {}
    for f8 in _frames8_reference():
        for combo in itertools.combinations(f8.vectors, size):
            f = L.Frame.from_vectors(combo)
            out.setdefault(f.key(), f)
    typed = size in (3, 8)
    return [(k, L.classify_frame(f) if typed else L.FrameType.UNTYPED) for k, f in out.items()]


def test_every_frame_table_matches_the_per_frame_route():
    for size in range(1, 9):
        frames = L.enumerate_frames(size)
        assert [(f.key(), f.frame_type) for f in frames] == _frames_reference(size)
        assert all(type(c) is int for f in frames[:50] for v in f.vectors for c in v.coords4)
    # one LatticeVector per table row, shared by every frame through it
    f8 = L.enumerate_frames(8)[0]
    assert L.enumerate_frames(1)[0].vectors[0] is f8.vectors[0]
    assert L.frame_containing(f8.vectors[3]).vectors[3] is f8.vectors[3]


# Fixed example sequence, no example database: runs repeat exactly.
_PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)
_ROOTS = st.sampled_from(L.enumerate_norm(2))


@st.composite
def _lattice_vectors(draw):
    """Integral combinations of the simple roots: every point of the lattice."""
    coeffs = draw(st.lists(st.integers(-6, 6), min_size=8, max_size=8))
    v = L.vec(*([0] * 8))
    for c, alpha in zip(coeffs, L.SIMPLE_ROOTS):
        v = v + alpha.scaled(c)
    return v


@_PROPERTY
@given(_ROOTS, _lattice_vectors(), _lattice_vectors())
def test_reflection_is_an_isometric_involution_property(alpha, v, w):
    rv = reflect(alpha, v)
    assert reflect(alpha, rv) == v
    assert L.ip(rv, reflect(alpha, w)) == L.ip(v, w)
    assert L.membership(rv) is L.Membership.P


@_PROPERTY
@given(st.lists(st.integers(0, 7), max_size=16), _lattice_vectors())
def test_inverse_word_undoes_word_property(word, v):
    assert apply_word(L.inverse_word(word), apply_word(word, v)) == v


@_PROPERTY
@given(
    st.sampled_from((3, 8)),
    st.integers(0, 134),
    st.data(),
)
def test_frame_canonical_under_reorder_and_sign_property(size, index, data):
    frame = L.enumerate_frames(size)[index]
    order = data.draw(st.permutations(range(size)))
    signs = data.draw(st.lists(st.booleans(), min_size=size, max_size=size))
    vs = [-frame.vectors[k] if flip else frame.vectors[k] for k, flip in zip(order, signs)]
    assert L.Frame.from_vectors(vs) == frame


@settings(_PROPERTY, max_examples=30)
@given(
    st.sampled_from(L.enumerate_norm(2) + L.enumerate_norm(4)),
    st.sampled_from((2, 3, 2**70)),
    st.sampled_from(("E7", "E8")),
)
def test_scaled_orbit_is_the_scaled_shell_orbit_property(v, k, group):
    # the scaled seed is off every shell, so only the scalar reference
    # search takes it; the shell seed walks the reflection table
    assert _orbit_reference(v.scaled(k), group) == tuple(w.scaled(k) for w in L.weyl_orbit(v, group))
