"""Generate frozen oracle values for the special-function layer and for
the hypergeometric chain's values at levels 0 and 1.

Every value here is computed by a deliberately naive, independent route
(plain truncated products in mpmath at 30 digits, and a trapezoid rule on
the unit circle over them), then written into tests/_oracles.py. Only the
chain's points come from e8tau, drawn by its level sampler; every factor of
their values is written here. Run from the repository root:

    PYTHONPATH=src python3 scripts/gen_oracles.py
"""
from __future__ import annotations

import itertools
import pathlib

import mpmath as mp

from e8tau.sampling import make_rng, sample_on_level
from e8tau.specialfn import EllipticParams

mp.mp.dps = 30

TWO_PI_I = 2j * mp.pi


def e(z):
    return mp.e ** (TWO_PI_I * z)


def theta_naive(z, p, terms=300):
    z, p = mp.mpmathify(z), mp.mpmathify(p)
    out = mp.mpf(1)
    for k in range(terms):
        out *= (1 - z * p**k) * (1 - p ** (k + 1) / z)
    return out


def gamma_naive(z, p, q, cutoff=mp.mpf("1e-40")):
    z, p, q = (mp.mpmathify(t) for t in (z, p, q))
    out = mp.mpf(1)
    i = 0
    while abs(p) ** i > cutoff:
        j = 0
        while abs(p) ** i * abs(q) ** j > cutoff:
            out *= (1 - p ** (i + 1) * q ** (j + 1) / z) / (1 - p**i * q**j * z)
            j += 1
        i += 1
    return out


def triple_gamma_naive(z, p, q, r, cutoff=mp.mpf("1e-40")):
    z, p, q, r = (mp.mpmathify(t) for t in (z, p, q, r))
    out = mp.mpf(1)
    i = 0
    while abs(p) ** i > cutoff:
        j = 0
        while abs(p) ** i * abs(q) ** j > cutoff:
            k = 0
            while abs(p) ** i * abs(q) ** j * abs(r) ** k > cutoff:
                out *= (1 - p**i * q**j * r**k * z) * (
                    1 - p ** (i + 1) * q ** (j + 1) * r ** (k + 1) / z
                )
                k += 1
            j += 1
        i += 1
    return out


def theta_poch_naive(z, p, q, k):
    out = mp.mpf(1)
    for m in range(k):
        out *= theta_naive(mp.mpmathify(q) ** m * z, p)
    return out


def qpoch_naive(x, terms=400):
    # (x; x)_infinity with base equal to argument
    out = mp.mpf(1)
    for k in range(1, terms):
        out *= 1 - mp.mpmathify(x) ** k
    return out


def _monomials(p, q, cutoff):
    """(p^i q^j, j) for every i, j >= 0 with |p^i q^j| above cutoff."""
    out, i = [], 0
    while abs(p) ** i > cutoff:
        j = 0
        while abs(p**i * q**j) > cutoff:
            out.append((p**i * q**j, j))
            j += 1
        i += 1
    return out


def chain_values(p, q, points, cutoff=mp.mpf("1e-36"), nodes=(96, 72)):
    """The chain (Thm 3C) at level 0 and 1, u = e(x):

    level 0: prod_{i<j} Gamma(q u_i u_j; p, q, q);
    level 1: e(-Q(x)) prod_{i<j} Gamma(u_i u_j; p, q, q) I(u), with
    Q(x) = <x, x> / (2 delta), q = e(delta), and
    I(u) = (p;p)(q;q) / 2 * oint prod_k Gamma(u_k z^(+-1); p, q) / Gamma(z^(+-2); p, q) dz / (2 pi i z),
    by the trapezoid rule at N nodes e((m + 1/2) / N), off z^2 = 1 where
    Gamma(z^2) has its pole. The integrand is even under z -> 1/z, which
    pairs node m with node N - 1 - m, so the rule is twice its sum over
    m < N / 2, and that 2 cancels the 1/2. The rule at the first N of nodes
    is checked against the rule at the second.

    Gamma(z; p, q) = prod_{i,j>=0} (1 - p^(i+1) q^(j+1) / z) / (1 - p^i q^j z), and
    Gamma(z; p, q, q) = (z; p, q, q)(p q^2 / z; p, q, q), with
    (x; p, q, q) = prod_{i,j,k>=0} (1 - p^i q^(j+k) x) = prod_{i,m>=0} (1 - p^i q^m x)^(m+1),
    as plain products over every p^i q^j with modulus above cutoff."""
    p, q = mp.mpf(p), mp.mpf(q)
    delta = mp.log(q) / TWO_PI_I
    mons = _monomials(p, q, cutoff)

    def gamma2(z):
        out = mp.mpc(1)
        for c, _ in mons:
            out *= (1 - p * q * c / z) / (1 - c * z)
        return out

    def gamma3(z):
        out = mp.mpc(1)
        for c, m in mons:
            out *= ((1 - c * z) * (1 - p * q * q * c / z)) ** (m + 1)
        return out

    def integral(u, N):
        total = []
        for m in range(N // 2):
            z = e((m + mp.mpf(1) / 2) / N)
            h = 1 / (gamma2(z**2) * gamma2(z**-2))
            for uk in u:
                h *= gamma2(uk * z) * gamma2(uk / z)
            total.append(h)
        return mp.qp(p, p) * mp.qp(q, q) * mp.fsum(total) / N

    out = []
    for n, x in points:
        x = [mp.mpc(v.real, v.imag) for v in x]
        u = [e(v) for v in x]
        scale = q if n == 0 else 1
        value = mp.mpc(1)
        for i, j in itertools.combinations(range(8), 2):
            value *= gamma3(scale * u[i] * u[j])
        if n == 1:
            main, check = (integral(u, N) for N in nodes)
            assert abs(main - check) < mp.mpf("1e-25") * abs(main), (main, check)
            value *= e(-mp.fsum(v * v for v in x) / (2 * delta)) * main
        out.append(value)
    return out


def chain_points():
    """Three seeded points on each of chain levels 0 and 1 at the chain's
    bases (0.03, 0.45): seeds 100 + n (scripts/report_matrix.py's PROBES),
    110 + n and 120 + n."""
    par = EllipticParams.from_bases(0.03, 0.45)
    return [(n, sample_on_level(make_rng(seed + n), par, n)) for n in (0, 1) for seed in (100, 110, 120)]


def main():
    vals = {}

    p, q = mp.mpf("0.2"), None
    vals["theta_z"] = theta_naive(mp.mpc("0.3", "0.1"), p)

    p, q = mp.mpf("0.1"), mp.mpf("0.15")
    vals["gamma_z"] = gamma_naive(mp.mpc("0.4", "0.2"), p, q)

    # self-dual point: gamma(sqrt(pq)) squares to 1
    g = gamma_naive(mp.sqrt(mp.mpf("0.1") * mp.mpf("0.1")), mp.mpf("0.1"), mp.mpf("0.1"))
    assert abs(g * g - 1) < mp.mpf("1e-25"), g
    vals["gamma_selfdual"] = g

    vals["triple_gamma_z"] = triple_gamma_naive(
        mp.mpf("0.4"), mp.mpf("0.1"), mp.mpf("0.15"), mp.mpf("0.12")
    )

    # equal second and third bases, the (p, q, q) weighting of the pair
    # products, at the chain bases; same naive (i, j, k) product
    vals["triple_gamma_qq"] = triple_gamma_naive(
        mp.mpc("0.35", "0.25"), mp.mpf("0.03"), mp.mpf("0.45"), mp.mpf("0.45")
    )

    vals["theta_poch_k3"] = theta_poch_naive(mp.mpf("0.2"), mp.mpf("0.1"), mp.mpf("0.1"), 3)

    # additive bracket at p = 0.2: [zeta] = e(-zeta/2) theta(e(zeta); p)
    zeta = mp.mpc("0.3", "0.2")
    vals["bracket_z"] = e(-zeta / 2) * theta_naive(e(zeta), mp.mpf("0.2"))

    # order-1 series term of the very-well-poised sum, literal transcription
    p, q = mp.mpf("0.15"), mp.mpf("0.1")
    a0 = mp.mpf("0.3")
    aa = [a0] + [mp.mpf("0.2") * e(mp.mpf(i) / 9) for i in range(1, 8)]
    term = theta_naive(q**2 * a0, p) / theta_naive(a0, p) * q
    for ai in aa:
        term *= theta_naive(ai, p) / theta_naive(q * a0 / ai, p)
    vals["v12_k1_term"] = term

    # integrand spot value, via two independent rewritings
    p, q = mp.mpf("0.15"), mp.mpf("0.1")
    us = [mp.mpf("0.3") * e(mp.mpf(k) / 11) for k in range(8)]
    z = e(mp.mpf("0.17"))
    h1 = mp.mpf(1)
    for u in us:
        h1 *= gamma_naive(u * z, p, q) * gamma_naive(u / z, p, q)
    h1 /= gamma_naive(z**2, p, q) * gamma_naive(z**-2, p, q)
    h2 = -(z**-2) * theta_naive(z**2, p) * theta_naive(z**2, q)
    for u in us:
        h2 *= gamma_naive(u * z, p, q) * gamma_naive(u / z, p, q)
    assert abs(h1 - h2) / abs(h1) < mp.mpf("1e-25"), (h1, h2)
    vals["integrand_spot"] = h1

    # Dedekind-type prefactor (p;p)oo (q;q)oo at the quadrature test bases
    vals["qpoch_015"] = qpoch_naive(mp.mpf("0.15"))
    vals["qpoch_010"] = qpoch_naive(mp.mpf("0.1"))

    lines = [
        '"""Frozen oracle values; regenerate with scripts/gen_oracles.py."""',
        "",
    ]
    for name, v in sorted(vals.items()):
        c = mp.mpc(v)
        lines.append(f"{name.upper()} = complex({mp.nstr(c.real, 17)}, {mp.nstr(c.imag, 17)})")

    # the chain at the bases (0.03, 0.45): (level, point, value)
    points = chain_points()
    lines.append("CHAIN_VALUES = (")
    for (n, x), v in zip(points, chain_values(0.03, 0.45, points)):
        coords = ", ".join(f"complex({z.real!r}, {z.imag!r})" for z in x.tolist())
        lines.append(f"    ({n}, ({coords}), complex({mp.nstr(v.real, 17)}, {mp.nstr(v.imag, 17)})),")
    lines.append(")")
    out = pathlib.Path(__file__).resolve().parent.parent / "tests" / "_oracles.py"
    out.write_text("\n".join(lines) + "\n")
    print(f"wrote {out} ({len(vals)} values)")


if __name__ == "__main__":
    main()
