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

from .bounds import BoundQuery, InfeasibleError, mistake_tail_bound, next_power_of_two
from .codec import generate_dictionary
from .diagnostics import power_report
from .geometry import ChannelSpec, CodeSpec, capacity
from .harness import (
    ExperimentConfig,
    LN2,
    bounds_table,
    emit_curves,
    rows_to_csv,
    run_monte_carlo,
    simulate_csv,
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


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(",") if x.strip())


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in text.split(",") if x.strip())


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key=value config file; flags override")
    p.add_argument("--snr", type=float, help="signal-to-noise ratio v")
    p.add_argument("--L", type=int, help="number of sections")
    p.add_argument("--B", type=int, help="section size (power of two for encoding)")
    p.add_argument("--a", type=float,
                   help="section size rate; sets B = next power of two >= L^a")
    p.add_argument("--rate", type=float, help="inner code rate (see --units)")
    p.add_argument("--rate-fraction", type=float,
                   help="inner code rate as a fraction of capacity")
    p.add_argument("--alpha0", type=float, help="target mistake fraction")
    p.add_argument("--epsilon", type=float, help="target probability")
    p.add_argument("--t", type=float, default=0.0, help="decoder threshold (nats)")
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--trials", type=int, default=100, help="Monte Carlo trials")
    p.add_argument("--out", help="output path (default stdout)")
    p.add_argument("--units", choices=("bits", "nats"), default="bits",
                   help="unit convention for rates at the boundary")
    p.add_argument("--workers", type=int, default=1, help="parallel workers")


def _resolve_B(args) -> int:
    if args.B is not None:
        return args.B
    if args.a is not None:
        if args.L is None:
            raise SystemExit("--a needs --L")
        return next_power_of_two(math.ceil(args.L ** args.a))
    raise SystemExit("give either --B or --a")


def _resolve_rate(args, v: float) -> float:
    if args.rate_fraction is not None:
        return args.rate_fraction * capacity(v)
    if args.rate is not None:
        return args.rate * LN2 if args.units == "bits" else args.rate
    raise SystemExit("give either --rate or --rate-fraction")


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_bounds(args) -> int:
    v = args.snr if args.snr is not None else 15.0
    if args.L is None:
        raise SystemExit("bounds needs --L")
    code = CodeSpec(L=args.L, B=_resolve_B(args), rate=_resolve_rate(args, v))
    channel = ChannelSpec.from_snr(v)
    header, rows = bounds_table(channel, code, t=args.t)
    _emit(rows_to_csv(header, rows), args.out)
    alpha0 = args.alpha0 if args.alpha0 is not None else 1.0 / code.L
    ell0 = max(1, math.ceil(alpha0 * code.L - 1e-9))
    tail = mistake_tail_bound(ell0, BoundQuery(channel=channel, code=code, t=args.t))
    print(f"mistake tail from ell0={ell0}: {tail.total:.6e} (policy={tail.policy})",
          file=sys.stderr)
    print(UNITS_NOTE % args.units, file=sys.stderr)
    return 0


def _cmd_curves(args) -> int:
    kind = args.kind
    params: dict = {}
    if kind == "fig1":
        params["v"] = args.snr if args.snr is not None else 20.0
        params["epsilon"] = args.epsilon if args.epsilon is not None else 1e-4
        if args.L_list:
            params["L_values"] = _int_list(args.L_list)
        if args.rate_points is not None:
            params["rate_points"] = args.rate_points
    elif kind == "fig2":
        if args.snr is not None:
            params["v"] = args.snr
        if args.L is not None:
            params["L"] = args.L
        if args.B is not None:
            params["B"] = args.B
        if args.rate_fraction is not None:
            params["rate_fraction"] = args.rate_fraction
        params["t"] = args.t
    elif kind == "fig3":
        if args.snr_list:
            params["v_values"] = _float_list(args.snr_list)
        if args.L is not None:
            params["L"] = args.L
        if args.rate_fraction is not None:
            params["rate_fraction_target"] = args.rate_fraction
        if args.alpha0 is not None:
            params["alpha0"] = args.alpha0
        if args.epsilon is not None:
            params["epsilon"] = args.epsilon
    elif kind == "ppv":
        params["v"] = args.snr if args.snr is not None else 20.0
        if args.epsilon is not None:
            params["epsilon"] = args.epsilon
        if args.n_list:
            params["n_values"] = _float_list(args.n_list)
    _emit(emit_curves(kind, **params), args.out)
    return 0


def _cmd_simulate(args) -> int:
    v = args.snr if args.snr is not None else 15.0
    if args.L is None:
        raise SystemExit("simulate needs --L")
    config = ExperimentConfig(
        snr=v,
        L=args.L,
        B=_resolve_B(args),
        rate=_resolve_rate(args, v),
        signed=args.signed,
        rs_distance=args.rs_distance,
        t=args.t,
        master_seed=args.seed,
        trials=args.trials,
        ell0_list=_int_list(str(args.ell0_list)) if args.ell0_list else (1,),
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
        raise SystemExit("power-check needs --L")
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
        raise SystemExit("compose-demo needs --L")
    B = _resolve_B(args)
    if B & (B - 1):
        raise SystemExit("compose-demo needs a power-of-two B")
    m = B.bit_length() - 1
    d_rs = args.rs_distance if args.rs_distance is not None else 5
    rs = RSSpec(Field(m), args.L, args.L - d_rs + 1)
    code = CodeSpec(L=args.L, B=B, rate=1.0)

    import numpy as np
    rng = np.random.Generator(np.random.PCG64(args.seed))
    bits = "".join(str(b) for b in rng.integers(0, 2, rs.K_out * m))
    beta = compose_encode(bits, code, rs)

    n_err = args.errors if args.errors is not None else rs.t_RS
    labels = list(beta.indices)
    positions = rng.choice(args.L, size=min(n_err, args.L), replace=False)
    for p in positions:
        labels[p] ^= int(rng.integers(1, B))
    out_bits, ok = compose_decode(labels, rs)
    recovered = ok and out_bits == bits

    print(f"sections L={args.L}, B={B}, outer distance {rs.d_RS} "
          f"(corrects up to {rs.t_RS})")
    print(f"injected {len(positions)} section errors at {sorted(int(p) for p in positions)}")
    print(f"outer decoder ok={ok}, message recovered={recovered}")
    return 0 if recovered else 1


def build_parser() -> argparse.ArgumentParser:
    return _build_parsers()[0]


def _build_parsers() -> tuple[argparse.ArgumentParser, dict]:
    """The top-level parser and its subcommand parsers by name."""
    parser = argparse.ArgumentParser(
        prog="sparclab",
        description="Sparse superposition codes: bounds, curves, simulation")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", help="per-mistake-count bound table plus tail")
    _add_common(p)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("curves", help="curve CSVs (fig1, fig2, fig3, ppv)")
    _add_common(p)
    p.add_argument("--kind", required=True, choices=("fig1", "fig2", "fig3", "ppv"))
    p.add_argument("--L-list", help="comma-separated section counts (fig1)")
    p.add_argument("--snr-list", help="comma-separated snr values (fig3)")
    p.add_argument("--n-list", help="comma-separated codelengths (ppv)")
    p.add_argument("--rate-points", type=_positive_int, help="rate grid size (fig1)")
    p.set_defaults(func=_cmd_curves)

    p = sub.add_parser("simulate", help="seeded Monte Carlo trials")
    _add_common(p)
    p.add_argument("--signed", action="store_true", help="signed code")
    p.add_argument("--noiseless", action="store_true",
                   help="transmit without channel noise")
    p.add_argument("--rs-distance", type=int,
                   help="compose with an outer code of this minimum distance")
    p.add_argument("--ell0-list", help="comma-separated tail thresholds")
    p.add_argument("--report", help="write the aggregate JSON report here")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("power-check", help="dictionary power diagnostics")
    _add_common(p)
    p.add_argument("--signed", action="store_true", help="signed code")
    p.set_defaults(func=_cmd_power_check)

    p = sub.add_parser("compose-demo",
                       help="outer-code round trip with injected section errors")
    _add_common(p)
    p.add_argument("--rs-distance", type=int, help="outer minimum distance")
    p.add_argument("--errors", type=int, help="section errors to inject")
    p.set_defaults(func=_cmd_compose_demo)

    return parser, sub.choices


def main(argv=None) -> int:
    """Run one subcommand.

    A bad value (a library ValueError) or a file that cannot be read or
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
