"""Batch experiment runner: grid sweeps, verification suites, seed management.

Subcommands::

    steinlab er-report   --grid "100,100;200,200" --samples 100000 ...
    steinlab jack-report --grid "16,64;32,181.019336" --epsilon 0.4 ...
    steinlab verify      [--out report.json]
    steinlab recursion   --q 0.5 --c 1 --n 10 [--chain 50]
    steinlab hyp         --params 20,5,6 [--k 2] [--t 1.0] [--moment 3]

Every option of every command is declared once, in ``OPTIONS``; a report's
``--config`` key=value file takes the same keys as the flags, which override it.
An unknown or repeated key, a missing required option, or a value out of
range is a configuration error whether it comes from the file or from a flag;
so is every argument the parser rejects.
CSV output starts with a ``# schema=1`` comment line; the JSON mirror carries
the same rows.  Exit codes: 0 success, 1 check failure, 2 configuration
error.  The master seed is split per (task, grid index), so results do not
depend on execution order or worker count.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from functools import partial
from itertools import repeat

import numpy as np

from . import er_model, exactnum, jack_model, stein_core

SCHEMA = 1
TASK_IDS = {"er-report": 1, "jack-report": 2}

ER_COLUMNS = [
    "n", "m", "mu", "sigma2", "rate", "mu_approx", "sigma2_approx",
    "neg_corr_holds", "moment_sandwich_holds", "delta_hat", "dkw_band",
    "delta_times_rate", "exact_delta", "domain", "in_region",
]
JACK_COLUMNS = [
    "n", "alpha", "rate", "in_region", "delta_hat", "dkw_band",
    "delta_times_rate", "d1_hat", "wasserstein_bound", "single_column_prob",
    "fc_frequency", "fc_bound", "exact_delta",
]

# Rows with C(N,m) up to this carry exact_delta: the gate keeps the report rows and
# the er-report wall time as they are until the exact columns ship with schema 2.
EXACT_DELTA_LIMIT = 20_000


class ConfigError(ValueError):
    pass


def _spawn_rng(seed: int, task: str, grid_index: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(TASK_IDS[task], grid_index))
    return np.random.default_rng(ss)


def _parse_config_file(path: str) -> dict:
    out = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"bad config line: {raw.rstrip()}")
            key, value = line.split("=", 1)
            key = key.strip()
            if key in out:
                raise ConfigError(f"{key!r} is set more than once")
            out[key] = value.strip()
    return out


def _parse_grid(text: str, command: str) -> list:
    """Semicolon-separated pairs, each built into the command's parameter type."""
    point = REPORTS[command][0]
    points = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        fields = [f.strip() for f in chunk.split(",")]
        if len(fields) != 2:
            raise ConfigError(f"point needs two fields: {chunk!r}")
        try:
            points.append(point(*fields))
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"point {chunk!r}: {exc}") from None
    if not points:
        raise ConfigError("empty grid")
    return points


def _parse_thresholds(text: str, command: str) -> dict:
    fields = [f.strip() for f in text.split(",")]
    if len(fields) != 3 or Fraction(fields[2]) < 0:
        raise ConfigError(f"must be n_bar,m_bar,c_bar with c_bar >= 0, got {text!r}")
    return {"n_bar": int(fields[0]), "m_bar": int(fields[1]), "c_bar": Fraction(fields[2])}


def _format_value(v) -> str:
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, float):
        return repr(v)
    if v is None:
        return ""
    return str(v)


def _emit(rows: list[dict], columns: list[str], out_path: str | None, fmt: str) -> None:
    if fmt == "csv":
        buf = io.StringIO()
        buf.write(f"# schema={SCHEMA}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_format_value(row.get(c)) for c in columns])
        text = buf.getvalue()
    else:
        payload = {
            "schema": SCHEMA,
            "rows": [{c: _format_value(row.get(c)) for c in columns} for row in rows],
        }
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    _write(text, out_path)


def _write(text: str, out_path: str | None) -> None:
    """Write ``text`` to the ``--out`` file, or to stdout when there is none."""
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# er-report
# ---------------------------------------------------------------------------


def _er_row(config: dict, grid_index: int, params: er_model.ErParams) -> dict:
    mu, s2 = er_model.exact_moments(params)
    mu_a, s2_a = er_model.asymptotic_moments(params)
    neg = er_model.check_negative_correlation(params)
    lem6 = er_model.check_moment_sandwich(params)
    row = {
        "n": params.n,
        "m": params.m,
        "mu": float(mu),
        "sigma2": float(s2),
        "rate": er_model.rate(params),
        "mu_approx": mu_a,
        "sigma2_approx": s2_a,
        "neg_corr_holds": neg["holds"] and neg["variance_caps"],
        "moment_sandwich_holds": lem6.get("holds_mu") and lem6.get("holds_sigma")
        if lem6["applicable"]
        else None,
        "domain": er_model.domain_label(params),
        "in_region": er_model.in_parameter_region(params, config["thresholds"]),
    }
    if s2 > 0:
        rng = _spawn_rng(config["seed"], "er-report", grid_index)
        kol = er_model.kolmogorov_estimate(params, rng, config["samples"], config["confidence"])
        row.update(
            delta_hat=kol["delta_hat"],
            dkw_band=kol["dkw_band"],
            delta_times_rate=kol["delta_times_rate"],
        )
        if exactnum.binomial(params.slots, params.m) <= EXACT_DELTA_LIMIT:
            row["exact_delta"] = stein_core.kolmogorov_discrete_vs_normal(
                er_model.exact_w_law(params)
            )
    return row


# ---------------------------------------------------------------------------
# jack-report
# ---------------------------------------------------------------------------


def _jack_row(config: dict, grid_index: int, params: jack_model.JackParams) -> dict:
    n, alpha = params.n, params.alpha
    samples, epsilon = config["samples"], config["epsilon"]
    rng = _spawn_rng(config["seed"], "jack-report", grid_index)
    kol = jack_model.kolmogorov_estimate(n, alpha, rng, samples, config["confidence"])
    lam1 = kol.pop("lambda1_prev")
    was = jack_model.check_wasserstein_bound(n, alpha, rng, max(samples // 10, 100))
    region = jack_model.rate_and_region(n, alpha, epsilon)
    col = jack_model.single_column_prob(n, alpha)
    return {
        "n": n,
        "alpha": alpha,
        "rate": region["r"],
        "in_region": region["in_region"],
        "delta_hat": kol["delta_hat"],
        "dkw_band": kol["dkw_band"],
        "delta_times_rate": kol["delta_times_rate"],
        "d1_hat": was["d1_hat"],
        "wasserstein_bound": was["bound"],
        "single_column_prob": float(col["prob"]),
        "fc_frequency": float(np.mean(lam1 > 2.0 / epsilon)),
        "fc_bound": jack_model.first_row_bound(n, alpha),
        "exact_delta": stein_core.kolmogorov_discrete_vs_normal(jack_model.exact_w_law(n, alpha))
        if n <= 8
        else None,
    }


# command -> (grid point from its two text fields, row function, columns)
REPORTS = {
    "er-report": (lambda n, m: er_model.ErParams(int(n), int(m)), _er_row, ER_COLUMNS),
    "jack-report": (
        lambda n, alpha: jack_model.JackParams(int(n), Fraction(alpha)), _jack_row, JACK_COLUMNS
    ),
}


def run_report(command: str, config: dict) -> int:
    """One row per grid point; rows do not depend on ``workers``."""
    _, row_fn, columns = REPORTS[command]
    grid = config["grid"]
    tasks = (repeat(config), range(len(grid)), grid)
    # the pool starts all its workers at the first submit: start no idle ones
    workers = min(config["workers"], len(grid))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(row_fn, *tasks))
    else:
        rows = list(map(row_fn, *tasks))
    _emit(rows, columns, config["out"], config["format"])
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _er_moments_enumerated(n, m) -> bool:
    params = er_model.ErParams(n, m)
    law = er_model.exact_y_law(params)
    mu, s2 = er_model.exact_moments(params)
    return law.moment(1) == mu and law.moment(2) - mu * mu == s2


def _hypergeometric_checks(N, m, n) -> bool:
    p = exactnum.HypergeometricParams(N, m, n)
    return (
        sum(exactnum.hyp_pmf_vector(p).values()) == 1
        and exactnum.hyp_zero_prob(p) == exactnum.hyp_pmf(p, 0)
        and exactnum.check_zero_prob_sandwich(p)["holds"]
        and (not (m and n) or (exactnum.check_tail_bound(p, 1.0)["holds"]
                               and exactnum.check_moment_bound(p, 2)["holds"]))
    )


def _negative_correlation(n, m) -> bool:
    rep = er_model.check_negative_correlation(er_model.ErParams(n, m))
    return rep["holds"] and rep["variance_caps"]


def _verify_families() -> dict:
    """Family name -> (points, check(*point)), in run order.

    Built per run; the checks look library functions up through their modules
    at call time, so a patched module function is the one checked.
    """
    alphas = [Fraction(1, 2), Fraction(1), Fraction(2)]
    er42 = er_model.ErParams(4, 2)
    return {
        "jack_normalization": (
            [(n, a) for n in range(1, 7) for a in alphas],
            lambda n, a: sum(jack_model.jack_probability(p, a)
                             for p in jack_model.enumerate_partitions(n)) == 1,
        ),
        "kerov_consistency": (
            [(n, a) for n in range(2, 7) for a in alphas],
            lambda n, a: all(prob == jack_model.jack_probability(parts, a)
                             for parts, prob in jack_model.chain_law(n, a).items()),
        ),
        "conditional_t_moments": (
            [(p, a, n) for n in range(2, 7) for a in alphas
             for p in jack_model.enumerate_partitions(n - 1)],
            lambda p, a, n: jack_model.conditional_t_moments(p, a, n) == (0, Fraction(2, n)),
        ),
        "zero_bias_identity": (
            [(n, a, [0, 1, 1, 1]) for n in range(2, 6) for a in alphas],
            lambda n, a, f: jack_model.check_zero_bias_identity(n, a, f)["exact_equal"],
        ),
        "jack_moments": (
            [(n, a) for n in (2, 6, 8) for a in alphas],
            lambda n, a: jack_model.check_jack_moments(n, a)["holds"],
        ),
        "stein_identity_er": (
            [(er42, [0, 1]), (er42, [0, 0, 1])],
            lambda g, f: er_model.check_stein_identity_exhaustive(g, f)["equal"],
        ),
        "er_moments_enumeration": ([(4, 1), (4, 2), (4, 3), (5, 3)], _er_moments_enumerated),
        "hypergeometric_grid": (
            [(N, m, n) for N in range(4, 41, 6)
             for m in range(0, N // 2 + 1, max(N // 6, 1))
             for n in range(0, N // 2 + 1, max(N // 6, 1))],
            _hypergeometric_checks,
        ),
        "exp_remainder_grid": (
            [(10.0 ** (e / 4.0),) for e in range(-24, 13)],
            lambda x: exactnum.check_exp_remainder_envelope(x)["holds"],
        ),
        "neg_correlation_grid": (
            [(n, m) for n in range(3, 41)
             for m in range(1, exactnum.binomial(n, 2), max(exactnum.binomial(n, 2) // 8, 1))],
            _negative_correlation,
        ),
        "moment_sandwich_grid": (
            [(n, m) for n in range(6, 101, 7) for m in {1, n // 2, n, 2 * n, int(n**1.5)}
             if 0 < m < exactnum.binomial(n, 2) and m <= n * n / 4 - 1.5 * n],
            lambda n, m: all(er_model.check_moment_sandwich(er_model.ErParams(n, m)).values()),
        ),
        "recursion_closed_form": (
            [(1, 1.0), (4, 1.875)],
            lambda n, a_n: abs(
                stein_core.recursion_closed_form(stein_core.RecursionSpec(0.5, 1.0), n) - a_n
            ) < 1e-14,
        ),
        "efron_stein": (
            [(lambda pi, sig: 1 if pi[0] == 1 else 0, 3, 1)],
            lambda h, N, n_sigma: stein_core.check_efron_stein(h, N, n_sigma)["holds"],
        ),
        "kolmogorov_quantile_grid": (
            [(512,)],
            lambda k: abs(stein_core.empirical_kolmogorov(
                stein_core.normal_ppf((np.arange(1, k + 1) - 0.5) / k)
            )["delta_hat"] - 1.0 / (2 * k)) < 1e-12,
        ),
    }


def run_verify_suite(config: dict) -> int:
    """Exact checks over the fixed verification grid; deterministic."""
    results = {
        name: all(check(*point) for point in points)
        for name, (points, check) in _verify_families().items()
    }
    failed = sorted(name for name, passed in results.items() if not passed)
    payload = {"schema": SCHEMA, "results": results, "failed": failed}
    _write(json.dumps(payload, indent=2, sort_keys=True) + "\n", config["out"])
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# recursion / hyp ad-hoc subcommands
# ---------------------------------------------------------------------------


def run_recursion(config: dict) -> int:
    spec = stein_core.RecursionSpec(config["q"], config["c"])
    lines = [f"a_{n} = {stein_core.recursion_closed_form(spec, n)!r}" for n in range(1, config["n"] + 1)]
    lines.append(f"limit c/(1-q) = {config['c'] / (1 - config['q'])!r}")
    if config["chain"] is not None:
        kernel = chain_kernel(config["chain"], config["q"])
        solved = stein_core.recursion_bound_solve(kernel, spec)
        lines.append(f"chain({config['chain']}) sup a = {max(solved['a'].values())!r}")
        lines.append(f"sup_ok = {solved['sup_ok']}")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def chain_kernel(length: int, q: float) -> stein_core.FiniteKernel:
    """Descending chain k -> k-1 with unit weights; state 1 is the base case.

    Rates K (2q)^-k satisfy the growth control for q <= 1/2; a chain whose
    rates are not finite and positive floats is refused.
    """
    states = tuple(range(1, length + 1))
    trans = {1: ()}
    for k in range(2, length + 1):
        trans[k] = ((k - 1, 1, Fraction(1)),)
    base = max(1.0 / (1.0 - q) + 2.0, 2.0)
    try:
        rate = {k: base / (2 * q) ** k for k in states}
    except (ZeroDivisionError, OverflowError):
        rate = None
    if rate is None or not all(0 < r < math.inf for r in rate.values()):
        raise ValueError(f"chain rates K (2q)^-k leave the float range at length {length}")
    return stein_core.FiniteKernel(states, frozenset(range(2, length + 1)), trans, rate)


def run_hyp(config: dict) -> int:
    params = exactnum.HypergeometricParams(*config["params"])
    out = {
        "params": list(config["params"]),
        "mean": str(params.mean),
        "zero_prob": str(exactnum.hyp_zero_prob(params)),
    }
    if config["k"] is not None:
        out["pmf"] = str(exactnum.hyp_pmf(params, config["k"]))
    if config["moment"] is not None:
        out["moment"] = str(exactnum.hyp_moment(params, config["moment"]))
    if config["t"] is not None:
        rep = exactnum.check_tail_bound(params, config["t"])
        out["tail_check"] = {"lhs": rep["lhs"], "rhs": rep["rhs"], "holds": rep["holds"]}
    sys.stdout.write(json.dumps(out, indent=2, sort_keys=True) + "\n")
    return 0


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------


def _checked(convert, ok, need: str):
    """Option parser: ``convert`` the text, then require ``ok`` of the value."""

    def parse(text: str, command: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise ConfigError(f"must be {need}, got {text!r}")
        return value

    return parse


def _file_in_existing_dir(path: str) -> bool:
    """Checked before sampling, so a report is never computed only to fail at the write."""
    return bool(path) and not os.path.isdir(path) and os.path.isdir(os.path.dirname(path) or ".")


_BOTH = tuple(REPORTS)
_REQUIRED = object()  # default of an option the command cannot run without
_POSITIVE_INT = _checked(int, lambda v: v >= 1, "an integer >= 1")
_OPEN_UNIT = _checked(float, lambda v: 0 < v < 1, "in (0, 1)")
_OUT = _checked(str, _file_in_existing_dir, "a file path in an existing directory")
_PARAMS = _checked(lambda text: tuple(map(int, text.split(","))), lambda v: len(v) == 3, "integers N,m,n")
# range checks on these stay in the library, which other callers use too
_INT = _checked(int, lambda v: True, "an integer")
_FLOAT = _checked(float, lambda v: True, "a number")

# key -> (parse(text, command), default, commands that take it)
OPTIONS = {
    "grid": (_parse_grid, _REQUIRED, _BOTH),
    "samples": (_checked(int, lambda v: v >= 100, "an integer >= 100"), 10_000, _BOTH),
    "seed": (_checked(int, lambda v: v >= 0, "an integer >= 0"), 1, _BOTH),
    "confidence": (_OPEN_UNIT, 0.05, _BOTH),
    "epsilon": (_OPEN_UNIT, 0.4, ("jack-report",)),
    "thresholds": (_parse_thresholds, None, ("er-report",)),
    "out": (_OUT, None, (*_BOTH, "verify")),
    "format": (_checked(str, ("csv", "json").__contains__, "csv or json"), "csv", _BOTH),
    "workers": (_POSITIVE_INT, 1, _BOTH),
    "q": (_FLOAT, _REQUIRED, ("recursion",)),
    "c": (_FLOAT, _REQUIRED, ("recursion",)),
    "n": (_POSITIVE_INT, 10, ("recursion",)),
    "chain": (_POSITIVE_INT, None, ("recursion",)),
    "params": (_PARAMS, _REQUIRED, ("hyp",)),
    "k": (_INT, None, ("hyp",)),
    "t": (_FLOAT, None, ("hyp",)),
    "moment": (_INT, None, ("hyp",)),
}

COMMANDS = {
    **{command: partial(run_report, command) for command in REPORTS},
    "verify": run_verify_suite,
    "recursion": run_recursion,
    "hyp": run_hyp,
}


class _Parser(argparse.ArgumentParser):
    """An argument the parser rejects is a configuration error, like any other."""

    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="steinlab", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)
    for command in COMMANDS:
        p = sub.add_parser(command)
        if command in REPORTS:
            p.add_argument("--config", action="append",
                           help="key=value file; keys are this command's flag names")
        for key, (_, _, commands) in OPTIONS.items():
            if command in commands:
                p.add_argument(f"--{key}", action="append")
    return top


def _assemble_config(args: argparse.Namespace) -> dict:
    """Defaults, then the config file, then flags; each value parsed by its OPTIONS entry."""
    flags = {key: values for key, values in vars(args).items() if values is not None}
    command = flags.pop("command")
    for key, values in flags.items():
        if len(values) > 1:
            raise ConfigError(f"{key!r} is set more than once")
    texts = list(_parse_config_file(flags.pop("config")[0]).items()) if "config" in flags else []
    texts += [(key, values[0]) for key, values in flags.items()]
    config = {key: default for key, (_, default, commands) in OPTIONS.items() if command in commands}
    for key, text in texts:
        if key not in config:
            raise ConfigError(f"{key!r} is not an option of {command}")
        try:
            config[key] = OPTIONS[key][0](text, command)
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"{key}: {exc}") from None
    for key, value in config.items():
        if value is _REQUIRED:
            raise ConfigError(f"{command} requires --{key}")
    return config


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return COMMANDS[args.command](_assemble_config(args))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
