"""Command-line interface for the experiment runner.

Subcommands: quenched, annealed, bounds, nonconv, schedule-info, selftest.
Sweep options may come from flags or from a JSON config file (--config);
explicit flags override file values, which override built-in defaults.

Exit codes: 0 success, 1 usage or configuration error, 2 resource limit
(including selftest failure).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

from .analytics import MC_SAMPLES_CAP
from .errors import ResourceError
from .runner import MODES, ExperimentConfig, records_to_csv, records_to_json, schedule_info

__all__ = ["main", "build_parser"]

_DEFAULTS = {field.name: field.default for field in fields(ExperimentConfig)}


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _specs(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def _levels(text: str) -> list[int]:
    try:
        return [int(part) for part in _specs(text)]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected integers, got {text!r}") from None


def _add_sweep_options(sub: argparse.ArgumentParser) -> None:
    """Flags named by their ExperimentConfig field (``dest``); an unset flag
    is absent from the namespace, so the config file or the field default
    applies."""
    d = _DEFAULTS
    sub.add_argument(
        "--schedule",
        dest="schedules",
        action="extend",
        type=_specs,
        metavar="SPEC[,SPEC...]",
        help=(
            "bias schedule spec (repeatable or comma-separated); one of "
            "zero | const:<c0> | logpow:<c>[:cap=<v>][:n0=<n>] | "
            f"table:<path>[:tail=zero|repeat]; default {','.join(d['schedules'])}"
        ),
    )
    sub.add_argument(
        "--k",
        dest="k_list",
        action="extend",
        type=_levels,
        metavar="K[,K...]",
        help="window levels (repeatable or comma-separated); default "
        f"{','.join(map(str, d['k_list']))}",
    )
    sub.add_argument("--trials", type=int, help=f"trials per (schedule, k); default {d['trials']}")
    sub.add_argument("--seed", dest="master_seed", type=int, metavar="SEED",
                     help=f"master seed; default {d['master_seed']}")
    sub.add_argument("--epsilon", type=float,
                     help=f"bounds: head-block exponent in (0,1); default {d['epsilon']}")
    sub.add_argument("--eta", type=float, help=f"nonconv: tail-set depth >= 0; default {d['eta']}")
    sub.add_argument("--mc-samples", type=int,
                     help=f"bounds: Monte Carlo pattern samples, 2..{MC_SAMPLES_CAP}; "
                     f"default {d['mc_samples']}")
    sub.add_argument("--exact-cap", type=int,
                     help=f"bounds: largest k for exact 2^k enumerations; default {d['exact_cap']}")
    sub.add_argument("--union-bound-samples", type=int,
                     help="nonconv: tail patterns given an exact union bound per cell; "
                     f"default {d['union_bound_samples']}")
    sub.add_argument("--threads", type=int, help=f"worker threads; default {d['threads']}")
    sub.add_argument("--config", default=None, metavar="PATH",
                     help="JSON file with config fields; flags override")
    sub.add_argument("--out", default=None, metavar="PATH", help="output file; default stdout")
    sub.add_argument("--format", choices=("csv", "json"), default="csv", help="output format")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pgl",
        description=(
            "Exact and Monte Carlo experiments on window-match counts of "
            "biased binary sequences against the Poisson(1) benchmark."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    for mode, (run, _) in MODES.items():
        sweep = commands.add_parser(
            mode, help=run.__doc__.splitlines()[0], argument_default=argparse.SUPPRESS
        )
        _add_sweep_options(sweep)
        sweep.set_defaults(handler=_cmd_sweep)

    info = commands.add_parser(
        "schedule-info", help="parse, validate, and summarize a schedule spec"
    )
    info.add_argument("spec", help="schedule spec string")
    info.add_argument("--out", metavar="PATH", help="output file; default stdout")
    info.set_defaults(handler=_cmd_schedule_info)

    selftest = commands.add_parser(
        "selftest", help="quick internal consistency battery (exit 0 or 2)"
    )
    selftest.set_defaults(handler=_cmd_selftest)

    return parser


# ---------------------------------------------------------------------------
# Config assembly


def _build_config(args: argparse.Namespace) -> ExperimentConfig:
    """The config file's fields, overridden by the flags that were given."""
    data: dict = {}
    if args.config:
        try:
            data = json.loads(Path(args.config).read_text())
        except json.JSONDecodeError as exc:
            raise ValueError(f"config file {args.config!r} is not valid JSON: {exc}")
        if not isinstance(data, dict):
            raise ValueError(f"config file {args.config!r} must hold a JSON object")
        unknown = sorted(set(data) - set(_DEFAULTS))
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    data.update((name, value) for name, value in vars(args).items() if name in _DEFAULTS)
    return ExperimentConfig(**data)


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        Path(out_path).write_text(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Handlers


def _cmd_sweep(args) -> int:
    config = _build_config(args)
    run, _ = MODES[args.command]
    records = run(config)
    if args.format == "json":
        text = records_to_json(args.command, records, config)
    else:
        text = records_to_csv(args.command, records)
    _emit(text, args.out)
    return 0


def _cmd_schedule_info(args) -> int:
    info = schedule_info(args.spec)
    _emit(json.dumps(info, indent=2) + "\n", args.out)
    return 0


def _cmd_selftest(args) -> int:
    failures = 0
    for name, check in _selftest_battery():
        try:
            check()
        except AssertionError as exc:
            failures += 1
            print(f"FAIL - {name}: {exc}")
        except Exception as exc:  # pragma: no cover - defensive
            failures += 1
            print(f"FAIL - {name}: unexpected {type(exc).__name__}: {exc}")
        else:
            print(f"ok - {name}")
    if failures:
        print(f"selftest: {failures} check(s) failed")
        return 2
    print("selftest: all checks passed")
    return 0


def _selftest_battery():
    import math

    import numpy as np

    from . import analytics, counter, sampler, schedule, stats

    def check_schedule():
        sched = schedule.parse_schedule("logpow:1.0")
        assert abs(sched.gamma(55) - 1.0 / math.log(55)) < 1e-15, "logpow value"
        assert schedule.parse_schedule("zero").label == "zero", "zero label"
        assert schedule.Zero().kakutani is schedule.KakutaniClass.EQUIVALENT, "zero class"
        assert sched.kakutani is schedule.KakutaniClass.SINGULAR, "logpow class"

    def check_sampler():
        sched = schedule.LogPower(0.5)
        a = sampler.sample_sequence(sched, 4096, 7)
        b = sampler.sample_sequence(sched, 4096, 7)
        assert np.array_equal(a.bits01, b.bits01), "same seed, same bits"
        c = sampler.sample_sequence(sched, 1024, 7)
        assert np.array_equal(a.bits01[:1024], c.bits01), "prefix purity"

    def check_sampler_definition():
        # bit n is [word n-1 < floor((1/2 + gamma_n) 2^64)] at every position
        # of two chunks and a ragged tail, which re-checks the chunk bracket
        # against this numpy's log and pow
        sched, length, seed = schedule.LogPower(1.0), 2 * sampler._CHUNK + 77, 13
        words = np.random.Philox(key=seed).random_raw(length)
        limits = np.floor((0.5 + sched.gamma_slice(1, length)) * 2.0**64).astype(np.uint64)
        bits = sampler.sample_sequence(sched, length, seed).bits01
        assert np.array_equal(bits, (words < limits).astype(np.uint8)), "bits differ"

    def check_counter():
        sched = schedule.Constant(0.2)
        seq = sampler.sample_sequence(sched, (1 << 10) + 9, 3)
        codes = counter.window_codes(seq, 10)
        multiplicity = np.bincount(np.bincount(codes, minlength=1 << 10))
        law = counter.quenched_distribution(codes)
        exact_mean = law.exact_mean()
        assert exact_mean is not None and exact_mean == 1, "quenched mean is 1"
        # the all-ones pattern's run outlasts the boolean passes, so both the
        # counted and the located run lengths meet numpy's own census
        assert max(law.weights) > counter._CHAIN, "a run longer than the passes"
        census = {m: int(w) for m, w in enumerate(multiplicity) if w or not m}
        assert law.weights == census, "law weights match the bincount census"

    def check_analytics():
        rep = analytics.chen_stein_terms(schedule.Zero(), analytics.ChenSteinParams(k=3))
        assert abs(rep.a_term - 34 / 64) < 1e-15, "A term, level 3"
        assert abs(rep.b_term - 26 / 64) < 1e-15, "B term, level 3"
        assert rep.c_term == 0.0, "C term vanishes for the fair coin"
        sched = schedule.LogPower(1.0)
        logs = analytics.log_likelihood_values(sched, 5, 6)
        for w in range(64):
            ratio = analytics.likelihood_ratio(sched, 5, 6, w)
            assert abs(logs[w] - math.log(ratio)) < 1e-12, f"log R_5(w) at code {w}"
        mean = analytics.exact_likelihood_mean(sched, 5, 10)
        assert abs(mean - 1.0) < 1e-12, "likelihood mean is 1"
        # B and C at level 6 against a direct enumeration of windows, patterns
        # and overlap distances (a pair at distance d needs a d-periodic word),
        # on a decaying bias and on a negative run of one bias
        k, n = 6, 64
        for sched in (sched, schedule.Constant(-0.1)):
            gam = [sched.gamma(m) for m in range(1, n + 2 * k)]
            b_sum = c_sum = 0.0
            for j in range(n):
                for w in range(n):
                    bits = [(w >> t) & 1 for t in range(k)]
                    ratio = math.prod(1 + (4 * x - 2) * gam[j + t] for t, x in enumerate(bits))
                    c_sum += abs(ratio - 1)
                    for d in range(1, min(k, n - j)):
                        if bits[d:] == bits[:-d]:
                            joint = bits + bits[k - d :]
                            b_sum += 2 * math.prod(0.5 + (x - 0.5) * 2 * gam[j + t]
                                                   for t, x in enumerate(joint))
            rep = analytics.chen_stein_terms(sched, analytics.ChenSteinParams(k=k))
            where = f"level 6, {sched.label}"
            assert math.isclose(rep.b_term, b_sum / n, rel_tol=1e-12), f"B term, {where}"
            assert math.isclose(rep.c_term, c_sum / n**2, rel_tol=1e-12), f"C term, {where}"
        tail = analytics.symbol_sum_tail_mass(4, 1.0)
        assert abs(tail.exact - 1 / 16) < 1e-15, "binomial tail, level 4"

    def check_stats():
        assert stats.tv_distance(stats.POISSON_ONE, stats.POISSON_ONE) == 0.0, "TV self-distance"
        lo, hi = stats.binomial_ci(50, 100, 0.95)
        assert lo < 0.5 < hi, "Wilson interval covers the point estimate"

    def check_exact_annealed():
        law = analytics.exact_annealed_pmf(schedule.Constant(0.1), 2)
        assert abs(law.mean() - 1.0) < 1e-12, "exact annealed mean is 1"
        assert abs(sum(law.pmf.values()) - 1.0) < 1e-12, "exact annealed total mass"

    return [
        ("schedule grammar and classification", check_schedule),
        ("sampler determinism and prefix purity", check_sampler),
        ("sampler matches its definition", check_sampler_definition),
        ("counter quenched mean", check_counter),
        ("analytics exact terms", check_analytics),
        ("stats distances and intervals", check_stats),
        ("exact annealed law", check_exact_annealed),
    ]


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ResourceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
