"""Command-line surface: bound tables, curve CSVs, simulation, power checks.

Rates at the boundary default to bits (use --units nats to switch); all
internal computation is in nats.  A flat key=value config file can seed any
flag of the subcommand; explicit command-line flags override file values,
and a key that is not such a flag is an error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

from .bounds import (
    BoundQuery,
    InfeasibleError,
    _first_count,
    mistake_tail_bound,
    next_power_of_two,
)
from .codec import generate_dictionary
from .diagnostics import power_report
from .geometry import ChannelSpec, CodeSpec, capacity
from .harness import (
    ExperimentConfig,
    LN2,
    emit_curves,
    rows_to_csv,
    run_monte_carlo,
    simulate_csv,
    tail_table,
)
from .rs import Field, RSSpec, compose_decode, compose_encode

UNITS_NOTE = "units=%s at the boundary; internal computation in nats"


def load_config(path: str) -> dict:
    """Flat key=value file; '#' starts a comment; keys match long flags."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"config line is not key=value: {raw.rstrip()}")
            key, value = (part.strip() for part in line.split("=", 1))
            out[key.replace("-", "_")] = _coerce(value)
    return out


def _coerce(value: str):
    low = value.lower()
    if low in ("true", "false"):
        return low == "true"
    for cast in (int, float):
        try:
            return cast(value)
        except ValueError:
            pass
    return value


def _int_list(text) -> tuple[int, ...]:
    return tuple(int(x) for x in str(text).split(",") if x.strip())


def _float_list(text) -> tuple[float, ...]:
    return tuple(float(x) for x in str(text).split(",") if x.strip())


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


# Every subcommand flag by dest; the option string is --dest with - for _.
_FLAGS = {
    "config": dict(help="key=value config file; flags override"),
    "kind": dict(required=True, choices=("fig1", "fig2", "fig3", "ppv")),
    "snr": dict(type=float, help="signal-to-noise ratio v"),
    "snr_list": dict(help="comma-separated snr values (fig3)"),
    "L": dict(type=int, help="number of sections"),
    "L_list": dict(help="comma-separated section counts (fig1)"),
    "B": dict(type=int, help="section size (power of two for encoding)"),
    "a": dict(type=float, help="section size rate; sets B = next power of two >= L^a"),
    "rate": dict(type=float, help="inner code rate (see --units)"),
    "rate_fraction": dict(type=float, help="inner code rate as a fraction of capacity"),
    "rate_points": dict(type=_positive_int, help="rate grid size (fig1)"),
    "alpha0": dict(type=float, help="target mistake fraction"),
    "epsilon": dict(type=float, help="target probability"),
    "t": dict(type=float, help="bound threshold (nats)"),
    "n_list": dict(help="comma-separated codelengths (ppv)"),
    "signed": dict(action="store_true", help="signed code"),
    "noiseless": dict(action="store_true", help="transmit without channel noise"),
    "rs_distance": dict(type=int, help="outer-code minimum distance"),
    "errors": dict(type=int, help="section errors to inject"),
    "seed": dict(type=int, default=0, help="master seed"),
    "trials": dict(type=int, default=100, help="Monte Carlo trials"),
    "ell0_list": dict(help="comma-separated tail thresholds"),
    "workers": dict(type=int, default=1, help="parallel workers"),
    "units": dict(choices=("bits", "nats"), default="bits",
                  help="unit convention for rates at the boundary"),
    "out": dict(help="output path (default stdout)"),
    "report": dict(help="write the aggregate JSON report here"),
}

# Per curve kind: each flag it reads and the row-maker parameter it sets.
_CURVE_PARAMS = {
    "fig1": {"snr": "v", "epsilon": "epsilon", "L_list": "L_values",
             "rate_points": "rate_points"},
    "fig2": {"snr": "v", "L": "L", "B": "B", "rate_fraction": "rate_fraction",
             "t": "t"},
    "fig3": {"snr_list": "v_values", "L": "L",
             "rate_fraction": "rate_fraction_target", "alpha0": "alpha0",
             "epsilon": "epsilon"},
    "ppv": {"snr": "v", "epsilon": "epsilon", "n_list": "n_values"},
}
_CURVE_LISTS = {"L_list": _int_list, "snr_list": _float_list, "n_list": _float_list}
_CURVE_FLAGS = tuple(dict.fromkeys(dest for reads in _CURVE_PARAMS.values()
                                   for dest in reads))


def _option(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def _resolve_B(args) -> int:
    if args.a is not None and not 0.0 < args.a < math.inf:
        raise ValueError(f"--a must be positive and finite, got {args.a}")
    if args.B is not None:
        return args.B
    if args.a is not None:   # every caller has checked --L
        try:
            return next_power_of_two(math.ceil(args.L ** args.a))
        except OverflowError:
            raise ValueError(f"--a {args.a} gives a section size L^a beyond a float "
                             f"at L={args.L}") from None
    raise ValueError("give either --B or --a")


def _resolve_rate(args, v: float) -> float:
    if args.rate_fraction is not None:
        return args.rate_fraction * capacity(v)
    if args.rate is not None:
        return args.rate * LN2 if args.units == "bits" else args.rate
    raise ValueError("give either --rate or --rate-fraction")


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_bounds(args) -> int:
    v = args.snr if args.snr is not None else 15.0
    if args.L is None:
        raise ValueError("bounds needs --L")
    code = CodeSpec(L=args.L, B=_resolve_B(args), rate=_resolve_rate(args, v))
    q = BoundQuery(channel=ChannelSpec.from_snr(v), code=code,
                   t=args.t if args.t is not None else 0.0)
    ell0 = _first_count(args.alpha0 if args.alpha0 is not None else 1.0 / code.L,
                        code.L)
    # one tail from ell 1 gives the table and the tail from ell0
    tail = mistake_tail_bound(1, q)
    _emit(rows_to_csv(*tail_table(q, tail)), args.out)
    print(f"mistake tail from ell0={ell0}: {tail.total_from(ell0):.6e} "
          f"(policy={tail.policy})", file=sys.stderr)
    print(UNITS_NOTE % args.units, file=sys.stderr)
    return 0


def _cmd_curves(args) -> int:
    """Pass each given flag to the kind's row maker; the defaults live there."""
    reads = _CURVE_PARAMS[args.kind]
    given = {dest: value for dest in _CURVE_FLAGS
             if (value := getattr(args, dest)) is not None}
    unread = sorted(set(given) - set(reads))
    if unread:
        raise ValueError(f"--kind {args.kind} does not read "
                         + ", ".join(_option(dest) for dest in unread))
    params = {reads[dest]: _CURVE_LISTS[dest](value) if dest in _CURVE_LISTS else value
              for dest, value in given.items()}
    _emit(emit_curves(args.kind, **params), args.out)
    return 0


def _cmd_simulate(args) -> int:
    v = args.snr if args.snr is not None else 15.0
    if args.L is None:
        raise ValueError("simulate needs --L")
    config = ExperimentConfig(
        snr=v,
        L=args.L,
        B=_resolve_B(args),
        rate=_resolve_rate(args, v),
        signed=args.signed,
        rs_distance=args.rs_distance,
        t=args.t if args.t is not None else 0.0,
        master_seed=args.seed,
        trials=args.trials,
        ell0_list=_int_list(args.ell0_list) if args.ell0_list else (1,),
        workers=args.workers,
        noiseless=args.noiseless,
    )
    report = run_monte_carlo(config)
    _emit(simulate_csv(report), args.out)
    if args.report:
        payload = {
            "units_note": UNITS_NOTE % args.units,
            "config": dataclasses.asdict(config),
            "tails": [dataclasses.asdict(t) for t in report.tails],
            "power": dataclasses.asdict(report.power),
        }
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    for t in report.tails:
        print(f"ell0={t.ell0}: empirical={t.empirical:.6g} "
              f"ci_upper={t.ci_upper:.6g} analytic={t.analytic:.6g}",
              file=sys.stderr)
    return 0


def _cmd_power_check(args) -> int:
    v = args.snr if args.snr is not None else 15.0
    if args.L is None:
        raise ValueError("power-check needs --L")
    code = CodeSpec(L=args.L, B=_resolve_B(args), rate=_resolve_rate(args, v),
                    signed=args.signed)
    channel = ChannelSpec.from_snr(v)
    dic = generate_dictionary(code, channel, args.seed)
    eps = args.epsilon if args.epsilon is not None else 0.01
    rep = power_report(dic, channel, code, epsilon=eps)
    _emit(json.dumps(dataclasses.asdict(rep), indent=2, sort_keys=True) + "\n",
          args.out)
    return 0


def _cmd_compose_demo(args) -> int:
    if args.L is None:
        raise ValueError("compose-demo needs --L")
    B = _resolve_B(args)
    if B & (B - 1):
        raise ValueError("compose-demo needs a power-of-two B")
    m = B.bit_length() - 1
    d_rs = args.rs_distance if args.rs_distance is not None else 5
    rs = RSSpec(Field(m), args.L, args.L - d_rs + 1)
    code = CodeSpec(L=args.L, B=B, rate=1.0)

    n_err = args.errors if args.errors is not None else rs.t_RS
    if not 0 <= n_err <= args.L:
        raise ValueError(f"--errors must be in [0, L={args.L}], got {n_err}")

    import numpy as np
    rng = np.random.Generator(np.random.PCG64(args.seed))
    bits = "".join(str(b) for b in rng.integers(0, 2, rs.K_out * m))
    beta = compose_encode(bits, code, rs)

    labels = list(beta.indices)
    positions = rng.choice(args.L, size=n_err, replace=False)
    for p in positions:
        labels[p] ^= int(rng.integers(1, B))
    out_bits, ok = compose_decode(labels, rs)
    recovered = ok and out_bits == bits

    print(f"sections L={args.L}, B={B}, outer distance {rs.d_RS} "
          f"(corrects up to {rs.t_RS})")
    print(f"injected {len(positions)} section errors at {sorted(int(p) for p in positions)}")
    print(f"outer decoder ok={ok}, message recovered={recovered}")
    return 0 if recovered else 1


# Per subcommand: help, handler and every flag the handler reads.
_CODE = ("snr", "L", "B", "a", "rate", "rate_fraction")
_COMMANDS = {
    "bounds": ("per-mistake-count bound table plus tail", _cmd_bounds,
               ("config", *_CODE, "alpha0", "t", "units", "out")),
    "curves": ("curve CSVs (fig1, fig2, fig3, ppv)", _cmd_curves,
               ("config", "kind", *_CURVE_FLAGS, "out")),
    "simulate": ("seeded Monte Carlo trials", _cmd_simulate,
                 ("config", *_CODE, "signed", "noiseless", "rs_distance", "t",
                  "seed", "trials", "ell0_list", "workers", "units", "out", "report")),
    "power-check": ("dictionary power diagnostics", _cmd_power_check,
                    ("config", *_CODE, "signed", "epsilon", "seed", "units", "out")),
    "compose-demo": ("outer-code round trip with injected section errors",
                     _cmd_compose_demo,
                     ("config", "L", "B", "a", "rs_distance", "errors", "seed")),
}


def build_parser() -> argparse.ArgumentParser:
    return _build_parsers()[0]


def _build_parsers() -> tuple[argparse.ArgumentParser, dict]:
    """The top-level parser and its subcommand parsers by name.

    Each subcommand takes exactly the flags its handler reads, spelled out
    in full: an abbreviation could otherwise reach a different flag.
    """
    parser = argparse.ArgumentParser(
        prog="sparclab",
        description="Sparse superposition codes: bounds, curves, simulation")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, func, dests) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        for dest in dests:
            p.add_argument(_option(dest), **_FLAGS[dest])
        p.set_defaults(func=func)
    return parser, sub.choices


def main(argv=None) -> int:
    """Run one subcommand.

    A bad or missing value (a ValueError) or a file that cannot be read or
    written is the subcommand's usage error, exit status 2; a bound level
    nothing meets (InfeasibleError) is a one-line error, exit status 1.
    """
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, commands = _build_parsers()
    args = parser.parse_args(argv)
    sub = commands[args.command]
    try:
        if args.config:
            # file values become the subcommand's defaults, so a flag given on
            # the command line wins in any spelling (--snr 20 or --snr=20)
            values = load_config(args.config)
            flags = set(vars(args)) - {"command", "func", "config"}
            unknown = sorted(set(values) - flags)
            if unknown:
                sub.error(f"config file {args.config} has keys that are not flags "
                          f"of '{args.command}': {', '.join(unknown)}")
            sub.set_defaults(**values)
            args = parser.parse_args(argv)
        return args.func(args)
    except (ValueError, OSError) as exc:
        sub.error(str(exc))
    except InfeasibleError as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
