"""Command line entry point.

Subcommands:

* ``run``     - execute one configured run
* ``compare`` - run dqn / qlearning / sleep on a shared seed and tabulate
* ``sweep``   - cartesian sweep over ``--vary key=v1,v2,...`` lists
* ``oracle``  - run a small instance and score it against exhaustive search

Each subcommand prints its lines from what the library returns, which
itself writes nothing to stdout; ``--quiet`` prints none.

Exit codes: 0 on success, 1 for bad input (an unreadable config file, or a
``ValidationError``: a config that does not parse or validate, a ``--vary``
key or value given twice, a bad worker count, an oracle grid beyond the
oracle's cap), 2 for runtime failures: a ``RanPowerError`` such as an
``InvariantViolation`` or a mobility process that ends before its last
slot, an ``OSError``, or any other exception a subcommand raises (a
``MemoryError``, or the ``BrokenProcessPool`` of a sweep worker that died),
each reported as one ``runtime error:`` line without a traceback.  Bad
input is rejected before anything is written.
"""

from __future__ import annotations

import argparse
import sys

from .config import AGENTS, FIELD_TYPES, RunConfig, coerce_value, load_config
from .errors import RanPowerError, ValidationError
from .runner import run, run_compare, run_oracle_check, run_sweep


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="path to a key=value config file")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--out", help="output directory (default: config out_dir)")
    parser.add_argument(
        "--quiet", action="store_true", help="suppress progress output"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ranpower",
        description="Multi-cell downlink power management simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one run")
    _add_common(p_run)
    p_run.add_argument("--agent", choices=AGENTS)

    p_cmp = sub.add_parser("compare", help="run all agents on a shared seed")
    _add_common(p_cmp)

    p_sweep = sub.add_parser("sweep", help="cartesian sweep over config keys")
    _add_common(p_sweep)
    p_sweep.add_argument(
        "--vary",
        action="append",
        default=[],
        metavar="KEY=V1,V2",
        help="comma-separated values for one key; repeat for a grid",
    )
    p_sweep.add_argument(
        "--workers", type=int, default=1,
        help="parallel worker processes, at most one per combo and per usable CPU",
    )

    p_oracle = sub.add_parser("oracle", help="score a small run against exhaustive search")
    _add_common(p_oracle)
    p_oracle.add_argument("--agent", choices=AGENTS)

    return parser


def _load(args: argparse.Namespace) -> RunConfig:
    overrides = {"seed": args.seed}
    if getattr(args, "agent", None) is not None:
        overrides["agent"] = args.agent
    return load_config(args.config, **overrides)


def _parse_vary(specs: list[str]) -> dict[str, list]:
    vary: dict[str, list] = {}
    for entry in specs:
        if "=" not in entry:
            raise ValidationError(f"--vary expects KEY=V1,V2,..., got {entry!r}")
        key, _, raw = entry.partition("=")
        key = key.strip()
        if key not in FIELD_TYPES:
            raise ValidationError(f"unknown config key '{key}'")
        if key in vary:
            raise ValidationError(f"--vary gives '{key}' twice")
        vary[key] = [coerce_value(key, v.strip()) for v in raw.split(",") if v.strip()]
        if not vary[key]:
            raise ValidationError(f"--vary gave no values for '{key}'")
    if not vary:
        raise ValidationError("sweep needs at least one --vary KEY=V1,V2")
    return vary


def _ee(entry: dict) -> str:
    return f"{entry['ee_overall_mbps_per_dbw']:.4f}"


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load(args)
        if args.command == "sweep":
            vary = _parse_vary(args.vary)
            if args.workers < 1:
                raise ValidationError(f"--workers {args.workers} must be at least 1")
    except (ValidationError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    try:
        if args.command in ("run", "compare"):
            table = (run_compare(cfg, args.out) if args.command == "compare"
                     else [run(cfg, args.out).summary])
            lines = [f"[{e['agent']}] seed={cfg.seed} episodes={cfg.episodes} ee={_ee(e)}"
                     for e in table]
            if args.command == "compare":
                lines += [f"{e['agent']:>10}: ee={_ee(e)} Mbps/dBW" for e in table]
        elif args.command == "sweep":
            lines = [f"{e['out']}: ee={_ee(e)}"
                     for e in run_sweep(cfg, vary, args.out, workers=args.workers)]
        else:  # oracle
            stats = run_oracle_check(cfg, args.out)
            lines = [] if stats["mean_ratio"] is None else [
                f"oracle check: {stats['steps_scored']} steps, "
                f"mean ratio {stats['mean_ratio']:.4f}, min {stats['min_ratio']:.4f}"
            ]
        if not args.quiet:
            for line in lines:
                print(line)
    except ValidationError as exc:  # a --vary combo or the oracle grid; nothing written yet
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (RanPowerError, OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # not the library's own: name the type, its message may be empty
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
