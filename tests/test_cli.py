"""Command-line interface: report shape, exit codes, determinism."""
import json

import numpy as np
import pytest

from e8tau import cli, integrals, lattice, picard, sampling, specialfn, tau
from e8tau.specialfn import EllipticParams
from e8tau.util import RESAMPLE_ERRORS, AdmissibilityError, DomainError, e, split


def _strip_time(report: dict) -> dict:
    return {k: v for k, v in report.items() if k != "wall_time_s"}


def test_counts_suite_all_pass():
    report = cli.run_suite("counts", cli.load_config())
    assert report["pass"] is True
    assert len(report["checks"]) == 15
    for c in report["checks"]:
        assert c["count"] == c["expected"]
        assert c["paper_anchor"]


def test_report_entries_carry_required_fields():
    report = cli.run_suite("specialfn", cli.load_config(trials=2))
    for c in report["checks"]:
        assert set(c) >= {"id", "paper_anchor", "tolerance", "pass"}
        assert ("residual" in c) != ("count" in c)


def _json_report(capsys, argv: list[str]) -> dict:
    cli.main(argv + ["--json", "-"])
    return _strip_time(json.loads(capsys.readouterr().out))


def test_same_seed_reproduces_every_numeric_field(capsys):
    commands = [["suite", "all"], ["tau", "build", "--n", "3"]]
    commands += [["verify", identity] for identity in ("bailey", "contiguity", "transform-in", "terminating")]
    for argv in commands:
        first = _json_report(capsys, argv + ["--seed", "11", "--trials", "1"])
        second = _json_report(capsys, argv + ["--seed", "11", "--trials", "1"])
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True), argv
        other = _json_report(capsys, argv + ["--seed", "12", "--trials", "1"])
        residuals = [[c.get("residual") for c in r["checks"]] for r in (first, other)]
        assert residuals[0] != residuals[1], argv


def test_frames_command_exits_zero(capsys):
    assert cli.main(["frames"]) == 0
    out = capsys.readouterr().out
    assert "c3-frames" in out and "7560" in out


def test_suite_command_writes_json_report(tmp_path, capsys):
    path = tmp_path / "report.json"
    rc = cli.main(["suite", "picard", "--trials", "1", "--json", str(path)])
    capsys.readouterr()
    assert rc == 0
    report = json.loads(path.read_text())
    assert report["pass"] is True
    anchors = {c["paper_anchor"] for c in report["checks"]}
    assert {"§9.1", "§9.2", "Eq. (Hirota39)", "Prop 9A"} <= anchors


def test_unwritable_json_path_is_one_report_error(tmp_path, capsys):
    # the report's directory does not exist: one stderr line, no traceback
    path = tmp_path / "missing" / "report.json"
    assert cli.main(["frames", "--json", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("report error: ") and str(path) in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_a_nan_residual_fails_its_row(monkeypatch):
    # one NaN among a row's trials is the row's residual, and fails it
    draws = iter([1e-15, float("nan")] + [1e-15] * 198)
    monkeypatch.setattr(cli, "_three_term_once", lambda rng: next(draws))
    report = cli.run_suite("specialfn", cli.load_config(seed=1))
    (check,) = report["checks"]
    assert np.isnan(check["residual"]) and check["pass"] is False and report["pass"] is False
    pairs = iter([(0.1, float("nan")), (0.2, 0.0), (float("nan"), 0.3)])
    assert np.isnan(cli._worst(lambda: next(pairs), 3)).all()


def test_broken_tau_fails_the_suite(capsys):
    rc = cli.main(["suite", "hirota", "--break-tau", "--trials", "3", "--json", "-"])
    report = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert report["pass"] is False
    assert all(c["residual"] > 1e-2 for c in report["checks"])


_W = np.arange(1, 9) / 7


def _period_count(zeta, params) -> int:
    """The n of bracket_scaled_many's reduction z = zeta - n varpi."""
    b = complex(zeta).imag / params.varpi.imag
    return round(b) if abs(b) > 0.5 + 1e-12 else 0


# A relative corruption of the values a suite evaluates, visible at every
# magnitude, and the checks that must catch it: case -> (suite, module or
# tuple of the modules that call it by name, function, factor, failing
# ids). The factor takes the function's arguments; for a batch function
# (_BATCHES: its first arguments are the rows, and it returns one value per
# row) it gives one factor per row.
_CORRUPTIONS = {
    "chain": (
        "chain",
        tau,
        "_integral_values",
        lambda ns, xs, *_: [1 + 0.1 * e(x[0]) if n == 1 else 1 for n, x in zip(ns, xs)],
        {"toda-step", "chain-family-ii2"},
    ),
    # The chain's levels from 2 up: the recursion, the level-2 bilinear family
    # and the determinant must each catch it.
    "chain-upper": (
        "chain",
        tau,
        "_integral_values",
        lambda ns, xs, *_: [1 + 0.1 * e(complex(np.dot(_W, x))) if n >= 2 else 1 for n, x in zip(ns, xs)],
        {"toda-step", "chain-family-ii0", "det-vs-quadrature"},
    ),
    "bailey": (
        "bailey",
        integrals,
        "I_n_many",
        lambda ctxs, *_: [1 + 0.1 * ctx.u[0] for ctx in ctxs],
        {
            "reflection-tilde",
            "reflection-hat",
            "contiguity",
            "transform-multiplicity-tilde",
            "transform-multiplicity-hat",
            "terminating-series",
        },
    ),
    # The 28-pair product of every chain value (the integral route and the
    # determinant's gauge), and the pair ratio of the Rains transformation,
    # of which the Bailey reflections are the n = 1 case.
    "chain-pair-gamma": (
        "chain",
        integrals,
        "triple_gamma",
        lambda z, *_: 1 + 0.1 * z,
        {
            "level0-shift-ratio",
            "chain-family-ii0",
            "chain-family-ii2",
            "toda-step",
            "det-vs-quadrature",
            "variant-routes",
        },
    ),
    "bailey-pair-gamma": (
        "bailey",
        integrals,
        "triple_gamma",
        lambda z, *_: 1 + 0.1 * z,
        {"reflection-tilde", "reflection-hat", "transform-multiplicity-tilde", "transform-multiplicity-hat"},
    ),
    # The theta factors of the Warnaar product side; the determinant's
    # theta_pochhammer entries do not read tau.theta.
    "warnaar": ("bailey", tau, "theta", lambda z, *_: 1 + 0.1 * z, {"theta-factorial-det"}),
    # Every row of the theta-Pochhammer table: the series' upper, lower and
    # lead rows, and the determinant's entries and right side.
    "theta-pochhammer": (
        "bailey",
        (specialfn, tau),
        "theta_pochhammer",
        lambda z, *_: 1 + 0.1 * np.asarray(z, dtype=complex)[..., None],
        {"terminating-series", "theta-factorial-det"},
    ),
    # An axis-aligned e(x_0) leaves the pm family's bilinear checks passing.
    "picard": (
        "picard",
        tau,
        "_integral_values",
        lambda ns, xs, *_: [1 + 0.1 * e(complex(np.dot(_W, x))) for x in xs],
        {"lattice-hirota"},
    ),
    # The brackets of the lattice routes, not of the frame route: the
    # translation residual must part from the frame residual, and the
    # quadruple residual fails.
    "picard-bracket": (
        "picard",
        picard,
        "bracket_scaled_many",
        lambda zetas, *_: [split(1 + 0.1 * e(z)) for z in zetas],
        {"translation-vs-frame", "lattice-hirota"},
    ),
    # The one-step period reduction: every bracket n periods from the strip
    # scaled by 1 + 0.1 n, the canonical solution's values and the frame
    # brackets alike.
    "bracket-period": (
        "hirota",
        (specialfn, tau),
        "bracket_scaled_many",
        lambda zetas, params: [split(1 + 0.1 * _period_count(z, params)) for z in zetas],
        {"canonical", "gauged", "weyl-mapped", "period-shifted"},
    ),
    # The Toda and frame brackets of the chain's bilinear rows.
    "chain-bracket": (
        "chain",
        tau,
        "bracket_scaled_many",
        lambda zetas, *_: [split(1 + 0.1 * e(z)) for z in zetas],
        {"toda-step", "chain-family-i", "chain-family-ii0", "chain-family-ii2"},
    ),
}
_BATCHES = {"_integral_values", "I_n_many", "bracket_scaled_many"}


def _corrupted(fn, factor, batch: bool):
    if not batch:
        return lambda *a, **kw: fn(*a, **kw) * factor(*a)

    def rows(*a, **kw):
        return [v * f for v, f in zip(fn(*a, **kw), factor(*a))]

    return rows


@pytest.mark.parametrize("seed", [1, 2, 3, 1729])
@pytest.mark.parametrize("case", sorted(_CORRUPTIONS))
def test_corrupted_values_fail_the_suite(monkeypatch, case, seed):
    suite, modules, name, factor, must_fail = _CORRUPTIONS[case]
    for module in modules if isinstance(modules, tuple) else (modules,):
        monkeypatch.setattr(module, name, _corrupted(getattr(module, name), factor, name in _BATCHES))
    report = cli.run_suite(suite, cli.load_config(seed=seed))
    assert report["pass"] is False
    assert must_fail <= {c["id"] for c in report["checks"] if not c["pass"]}


# tau stuck at zero satisfies every bilinear identity, which is homogeneous
# of degree two, so a residual whose terms all vanish must fail its row.
_TYPED = (*RESAMPLE_ERRORS, DomainError)


@pytest.mark.parametrize("seed", [1, 2, 3, 1729])
def test_zero_canonical_tau_fails_every_hirota_row(monkeypatch, seed):
    monkeypatch.setattr(tau, "canonical_tau", lambda c, params: tau.TauEvaluator(lambda x: 0j, params))
    report = cli.run_suite("hirota", cli.load_config(seed=seed))
    assert len(report["checks"]) == 4
    for c in report["checks"]:
        assert c["pass"] is False and c["degenerate"] is True and c["residual"] == 0.0


@pytest.mark.parametrize("seed", [1, 2, 3, 1729])
def test_zero_chain_values_fail_every_chain_row(monkeypatch, capsys, seed):
    monkeypatch.setattr(tau, "_integral_values", lambda ns, *a: [0j] * len(ns))
    cfg = cli.load_config(seed=seed)
    for row in [r for r in cli._CHECKS if r.suite == "chain"]:  # each alone: a failed entry or a typed error
        try:
            entries = cli._measure(row, cli._Run(cfg, cli.SUITES.index("chain"), "chain"))
        except _TYPED:
            continue
        assert not any(c["pass"] for c in entries), entries
    rc = cli.main(["suite", "chain", "--seed", str(seed), "--json", "-"])
    out, err = capsys.readouterr()
    assert rc == 1
    if out:
        assert not any(c["pass"] for c in json.loads(out)["checks"])
    else:
        assert err.startswith("check failed: ") and err.count("\n") == 1


def _swap_rows(fn):
    """fn with the first and last rows of its output swapped (a bilinear
    term's two points often come first, and their product hides a swap)."""

    def swapped(*a, **kw):
        out = list(fn(*a, **kw))
        out[0], out[-1] = out[-1], out[0]
        return out

    return swapped


def _swap_levels(fn):
    """The batch value function fn with the values of its first level-1 and
    last level-2 points swapped, where one batch holds both levels (the
    first of each level are often one bilinear term's two points)."""

    def swapped(ns, *a, **kw):
        out = list(fn(ns, *a, **kw))
        ns = list(ns)
        if 1 in ns and 2 in ns:
            i, j = ns.index(1), len(ns) - 1 - ns[::-1].index(2)
            out[i], out[j] = out[j], out[i]
        return out

    return swapped


@pytest.mark.parametrize("seed", [1, 2, 3, 1729])
@pytest.mark.parametrize(
    "suite, must_fail, module, name, swap",
    [
        ("chain", "chain-family-ii0", integrals, "I_n_many", _swap_rows),
        ("picard", "lattice-hirota", integrals, "I_n_many", _swap_rows),
        ("bailey", "contiguity", integrals, "I_n_many", _swap_rows),
        ("chain", "chain-family-i", tau, "_integral_values", _swap_levels),
    ],
    ids=["chain-chain-family-ii0", "picard-lattice-hirota", "bailey-contiguity", "chain-levels-chain-family-i"],
)
def test_swapped_batch_rows_fail_the_suite(monkeypatch, suite, must_fail, module, name, swap, seed):
    # two values of one batch trade places: every batched route must hand
    # each point its own row, and a batch of several levels each level's
    monkeypatch.setattr(module, name, swap(getattr(module, name)))
    report = cli.run_suite(suite, cli.load_config(seed=seed))
    assert must_fail in {c["id"] for c in report["checks"] if not c["pass"]}


def _swap_12(v: lattice.LatticeVector) -> lattice.LatticeVector:
    c = list(v.coords4)
    c[1], c[2] = c[2], c[1]
    return lattice.LatticeVector(tuple(c))


# Exact lattice results have no magnitude to scale: these corrupt what a
# picard function returns, and name the check that must catch it.
_EXACT_CORRUPTIONS = {
    # The classical shift of e1 becomes that of e2, and the reverse.
    "project-classical-swap": ("project_classical", _swap_12, "lattice-hirota"),
    "kac-translate-plus-c": ("kac_translate", lambda v: v + picard.C, "kac-group-laws"),
}


@pytest.mark.parametrize("seed", [1, 2, 3, 1729])
@pytest.mark.parametrize("case", sorted(_EXACT_CORRUPTIONS))
def test_corrupted_lattice_arithmetic_fails_the_suite(monkeypatch, case, seed):
    name, corrupt, must_fail = _EXACT_CORRUPTIONS[case]
    fn = getattr(picard, name)
    monkeypatch.setattr(picard, name, lambda *a: corrupt(fn(*a)))
    # each quadruple's projections are computed once and cached: computed
    # again under the corruption, and dropped before the next test
    picard._quadruple_parts.cache_clear()
    try:
        report = cli.run_suite("picard", cli.load_config(seed=seed))
    finally:
        picard._quadruple_parts.cache_clear()
    assert report["pass"] is False
    assert must_fail in {c["id"] for c in report["checks"] if not c["pass"]}


def test_verify_terminating(capsys):
    assert cli.main(["verify", "terminating"]) == 0
    assert "terminating-series" in capsys.readouterr().out


def test_tau_build_writes_report(tmp_path, capsys):
    path = tmp_path / "build.json"
    rc = cli.main(["tau", "build", "--n", "1", "--json", str(path)])
    capsys.readouterr()
    assert rc == 0
    report = json.loads(path.read_text())
    assert report["n_max"] == 1
    assert {c["id"] for c in report["checks"]} == {
        "level-0-closed-form",
        "level-1-closed-form",
        "chain-bilinear",
    }
    assert report["pass"] is True


@pytest.mark.parametrize("argv", [["suite", "all"], ["tau", "build", "--n", "3"]], ids=["suite", "build"])
def test_unreachable_quad_tol_fails_with_one_line(capsys, argv):
    # The suite's first failure is a transform row, which takes no redraws;
    # the build's is a closed-form row, which fails all eight of its draws.
    assert cli.main([*argv, "--quad-tol", "1e-15"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("check failed: ConvergenceError: node cap")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert len(err) < 200


def test_underflowing_sampling_band_fails_with_one_line(tmp_path, capsys):
    # |p| = 1e-300 puts the level's modulus (|p|^2 |q|^(2n))^(1/8) below the
    # float range: the sampler rejects the zero band with a DomainError
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({"params": {"chain": {"p": [1e-300, 0], "q": [0.45, 0]}}}))
    assert cli.main(["suite", "chain", "--trials", "1", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("check failed: DomainError: sampling band")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_underflowing_balanced_draw_fails_with_one_line(tmp_path, capsys):
    # |p| = 1e-300 puts the reflection draw's modulus |pq|^(1/4) near 1e-75,
    # whose seventh power underflows: the sampler raises DomainError
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({"params": {"bailey": {"p": [1e-300, 0], "q": [0.45, 0]}}}))
    assert cli.main(["suite", "bailey", "--trials", "1", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("check failed: DomainError: balanced draw")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_theta_factor_cap_fails_the_suite_with_one_line(tmp_path, capsys):
    # |p| = 0.999999 would take some 4e7 factors in the brackets' theta,
    # which refuses it with a DomainError before building its table
    path = tmp_path / "near_one.json"
    path.write_text(json.dumps({"params": {"hirota": {"p": [0.999999, 0], "q": [0.35, 0]}}}))
    assert cli.main(["suite", "hirota", "--trials", "1", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("check failed: DomainError: nome modulus 0.999999 needs more than 65536")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_factor_cap_names_the_nome_it_was_given(tmp_path, capsys):
    # on the chain block at q = 0.9999 e(0.1) it is a product in q, not in
    # p = 0.03, that needs more factors than the cap: the line names q's modulus
    q = 0.9999 * e(0.1)
    path = tmp_path / "q_near_one.json"
    path.write_text(json.dumps({"params": {"chain": {"p": [0.03, 0], "q": [q.real, q.imag]}}}))
    assert cli.main(["suite", "chain", "--trials", "1", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("check failed: DomainError: nome modulus 0.9999 needs more than 65536")
    assert "|p|" not in err and err.count("\n") == 1


def test_build_level_above_three_is_a_usage_error(tmp_path, capsys):
    assert cli.main(["tau", "build", "--n", "4"]) == 2
    assert capsys.readouterr().err == "build level must be between 1 and 3\n"
    path = tmp_path / "deep.json"
    path.write_text(json.dumps({"n_max": 4}))
    assert cli.main(["tau", "build", "--config", str(path)]) == 2
    assert capsys.readouterr().err == "config error: n_max must be between 1 and 3\n"


def test_tau_build_checks_level_three(capsys):
    rc = cli.main(["tau", "build", "--n", "3", "--json", "-"])
    report = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert report["n_max"] == 3
    assert [c["id"] for c in report["checks"]] == [
        "level-0-closed-form",
        "level-1-closed-form",
        "level-2-closed-form",
        "level-3-closed-form",
        "chain-bilinear",
        "toda-step",
    ]
    assert report["pass"] is True


def test_tau_probe_locates_and_evaluates(capsys):
    par = EllipticParams.from_bases(0.03, 0.45)
    x = sampling.sample_on_level(sampling.make_rng(5), par, 1)
    text = " ".join(f"{z.real:.17g},{z.imag:.17g}" for z in x)
    rc = cli.main(["tau", "probe", "--x", text, "--json", "-"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["level"] == 1
    assert doc["value"] != [0.0, 0.0]


def test_tau_probe_prints_one_line_without_json(capsys):
    # the level-0 point of scripts/report_matrix.py's PROBES, drawn as it was
    par = EllipticParams.from_bases(0.03, 0.45)
    x = sampling.sample_on_level(sampling.make_rng(100), par, 0)
    text = " ".join(f"{z.real:.17g},{z.imag:.17g}" for z in x)
    assert cli.main(["tau", "probe", "--x", text]) == 0
    assert capsys.readouterr().out == "level=0 value=+1.112961382478e+00-1.139856583839e-01j\n"


def test_tau_probe_rejects_off_level_points(capsys):
    rc = cli.main(["tau", "probe", "--x", "0.3,0 0 0 0 0 0 0 0"])
    assert rc == 1
    assert "probe failed" in capsys.readouterr().err


def test_tau_probe_names_the_error_type(capsys):
    # the dyadic point of scripts/report_matrix.py's OFF_LEVEL, whose pairing
    # is exact in any summation order
    assert cli.main(["tau", "probe", "--x", "0.5 0.25 -0.125 0.0625 0 0.375 0 -0.75"]) == 1
    assert capsys.readouterr().err == (
        "probe failed: DomainError: point off hyperplane -4 of the family (pairing (0.15625+0j))\n"
    )


@pytest.mark.parametrize("d", [1e8, 1e15, 1e300])
def test_tau_probe_refuses_a_pairing_it_cannot_resolve(capsys, d):
    # x_0 + d and x_1 - d keep the coordinate sum of a level-0 point, but
    # the float pairing of the moved point cannot tell its level apart
    par = EllipticParams.from_bases(0.03, 0.45)
    x = sampling.sample_on_level(sampling.make_rng(100), par, 0)
    x[0] += d
    x[1] -= d
    text = " ".join(f"{z.real:.17g},{z.imag:.17g}" for z in x)
    assert cli.main(["tau", "probe", "--x", text]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("probe failed: DomainError: "), err


@pytest.mark.parametrize("level, n", [(1, -1), (3, 3)])
def test_tau_probe_requires_x_on_level_n(capsys, level, n):
    # level 3 lies outside the default chain, whose top level is 2
    par = EllipticParams.from_bases(0.03, 0.45)
    x = sampling.sample_on_level(sampling.make_rng(5), par, level)
    text = " ".join(f"{z.real:.17g},{z.imag:.17g}" for z in x)
    assert cli.main(["tau", "probe", "--x", text, "--n", str(n)]) == 1
    assert "probe failed" in capsys.readouterr().err


def test_chain_domain_is_the_integral_domain(capsys):
    # Level 2 is the two-fold integral at t = q^(-1/2) e(x): |e(x_0)| = 0.72
    # puts |t_0| near 1.07, outside the unit disk. x_7 keeps the level.
    par = EllipticParams.from_bases(0.03, 0.45)
    x = sampling.sample_on_level(sampling.make_rng(5), par, 2)
    dy = -np.log(0.72) / (2 * np.pi) - x[0].imag
    x[0] += 1j * dy
    x[7] -= 1j * dy
    with pytest.raises(AdmissibilityError):
        tau.build_chain(2, params=par).value(2, x)
    text = " ".join(f"{z.real:.17g},{z.imag:.17g}" for z in x)
    assert cli.main(["tau", "probe", "--x", text]) == 1
    assert "probe failed" in capsys.readouterr().err


@pytest.mark.parametrize("k", [5, 20, 50, 100, 300])
def test_tau_probe_fails_where_the_value_overflows(capsys, k):
    # Im x_0 up by k and Im x_1 down by k keep the point on level 0, where
    # the pair product leaves the float range: one typed error, no NaN value
    par = EllipticParams.from_bases(0.03, 0.45)
    x = sampling.sample_on_level(sampling.make_rng(100), par, 0)
    x[0] += 1j * k
    x[1] -= 1j * k
    text = " ".join(f"{z.real:.17g},{z.imag:.17g}" for z in x)
    assert cli.main(["tau", "probe", "--x", text]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("probe failed:"), err


@pytest.mark.parametrize("r", [1, 5, 50])
def test_tau_probe_fails_where_the_chain_gauge_underflows(capsys, r):
    # the level-1 point of scripts/report_matrix.py's PROBES with x_0 + r and
    # x_1 - r, still on level 1: Im Q(x) falls with r, and from r = 5 the
    # gauge p^C(n,2) e(-n Q(x)) is below the normal float range
    par = EllipticParams.from_bases(0.03, 0.45)
    x = sampling.sample_on_level(sampling.make_rng(101), par, 1)
    x[0] += r
    x[1] -= r
    text = " ".join(f"{z.real:.17g},{z.imag:.17g}" for z in x)
    rc = cli.main(["tau", "probe", "--x", text])
    out, err = capsys.readouterr()
    if r == 1:
        assert (rc, out, err) == (0, "level=1 value=+5.195301727284e-17-2.732892354192e-17j\n", "")
        return
    assert rc == 1 and out == "" and len(err.splitlines()) == 1, err
    assert err.startswith("probe failed: DomainError: chain gauge at level 1 leaves the normal float range"), err


def test_tau_probe_reports_a_quadrature_that_does_not_converge(capsys):
    # no level-2 integral settles to 1e-17 within the node cap
    par = EllipticParams.from_bases(0.03, 0.45)
    x = sampling.sample_on_level(sampling.make_rng(102), par, 2)
    text = " ".join(f"{z.real:.17g},{z.imag:.17g}" for z in x)
    assert cli.main(["tau", "probe", "--quad-tol", "1e-17", "--x", text]) == 1
    assert capsys.readouterr().err.startswith("probe failed: ConvergenceError: node cap")


def test_lattice_hirota_draw_converges_under_the_one_node_cap():
    # a pm quadruple whose n = 2 integrals need 2 048 nodes at quad_tol 1e-8:
    # it converges at the node cap every multiplicity shares
    par = EllipticParams.from_bases(0.03, 0.45)
    pm = tau.variant_evaluator("pm", par, quad_tol=1e-8)
    res = cli._lattice_hirota_once(sampling.make_rng(4), pm, par, cli._LATTICE_QUADS[4])
    assert res < cli._DEFAULT_TOLERANCES["lattice_hirota"]


def test_tau_probe_rejects_malformed_coordinates(capsys):
    for text in ("1,2 3", "inf 0 0 0 0 0 0 0", "0 nan,0 0 0 0 0 0 0", "0 0 0 0 0 0 0 0,-inf"):
        assert cli.main(["tau", "probe", "--x", text]) == 2, text
        assert "probe failed" not in capsys.readouterr().err, text


def test_config_file_overrides(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "seed": 99,
        "trials": {"specialfn": 3},
        "params": {"hirota": {"p": [0.2, 0.0], "q": [0.3, 0.1]}},
    }))
    cfg = cli.load_config(str(path))
    assert cfg.seed == 99
    assert cfg.trials["specialfn"] == 3
    assert cfg.elliptic("hirota").q == 0.3 + 0.1j
    # flags win over the file
    assert cli.load_config(str(path), seed=7).seed == 7


# (config file text, extra flags): each must fail at the boundary
_MALFORMED_CONFIGS = [
    ('{"seed": [', []),
    ('{"params": {"hirota": {"p": [0.2, 0.0]}}}', []),
    ('{"params": {"hirota": 0.2}}', []),
    ('{"seed": null}', []),
    ('{"seed": 3.5}', []),
    ('{"n_max": 2.7}', []),
    ('{"trials": [1, 2]}', []),
    ('{"trials": {"specialfn": 2.5}}', []),
    ('{"tolerances": {"hirota": null}}', []),
    ('{"params": {"hirota": {"p": [null, 0], "q": [0.3, 0]}}}', []),
    ('{"quad_tol": 0}', []),
    ('{"quad_tol": -1e-8}', []),
    ('{}', ["--quad-tol", "0"]),
    ('{}', ["--quad-tol", "-1"]),
    ('{}', ["--quad-tol", "nan"]),
    ('{}', ["--quad-tol", "inf"]),
    ('{"seed": -5}', []),
    ('{"tolerances": {"three_term": NaN}}', []),
    ('{"tolerances": {"hirota": 0}}', []),
    ('{}', ["--seed", "-5"]),
    ('{}', ["--tol", "-1"]),
    ('{}', ["--tol", "nan"]),
    ('{"sed": 5}', []),
    ('{"trials": {"hirota_x": 2}}', []),
    ('{"tolerances": {"hirot": 1e-3}}', []),
    ('{"params": {"chian": {"p": 0.03, "q": 0.45}}}', []),
    ('{"params": {"hirota": {"p": 0.2, "q": 0.35, "r": 0.5}}}', []),
    ('{"params": {"bailey": {"p": [0.15, 0], "q": [0.1, 0], "tau": 1}}}', []),
]


def test_malformed_config_exits_two(tmp_path, capsys):
    path = tmp_path / "bad.json"
    for text, flags in _MALFORMED_CONFIGS:
        path.write_text(text)
        assert cli.main(["suite", "specialfn", "--config", str(path), *flags]) == 2, (text, flags)
        assert "config error" in capsys.readouterr().err, (text, flags)


@pytest.mark.parametrize("count", [0, -3])
@pytest.mark.parametrize("source", ["file", "flag"])
def test_trial_count_below_one_exits_two(tmp_path, capsys, source, count):
    # a check that draws nothing would report residual 0 and pass
    argv = ["suite", "all"]
    if source == "file":
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"trials": {"hirota": count, "bailey": count}}))
        argv += ["--config", str(path)]
    else:
        argv += ["--trials", str(count)]
    assert cli.main(argv) == 2
    assert "config error" in capsys.readouterr().err


def test_unknown_suite_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["suite", "nonsense"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_memo_counters_reproduce_for_a_seed():
    cfg = cli.load_config(None, seed=5)

    def counters():
        runs = [(cli._Run(cfg, cli.SUITES.index(s), s), [r for r in cli._CHECKS if r.suite == s])
                for s in ("chain", "picard")]
        cli._report("memo", cfg, runs)
        return runs[0][0].chain.evaluator.batch.cache_info(), runs[1][0].pm.batch.cache_info()

    first = counters()
    # the chain suite looks each point up once (the Toda row reads its
    # level-(n-1) points and tau_prev once for all its pairs); the pm
    # family's quadruples share points
    assert first[0].misses > 0 and first[1].hits > 0
    assert counters() == first
