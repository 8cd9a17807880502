"""Generate frozen oracle values for the special-function layer.

Every value here is computed by a deliberately naive, independent route
(plain truncated products in mpmath at 30 digits), then written into
tests/_oracles.py. Run from the repository root:

    python3 scripts/gen_oracles.py
"""
from __future__ import annotations

import pathlib

import mpmath as mp

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
    out = pathlib.Path(__file__).resolve().parent.parent / "tests" / "_oracles.py"
    out.write_text("\n".join(lines) + "\n")
    print(f"wrote {out} ({len(vals)} values)")


if __name__ == "__main__":
    main()
