"""Command-line front end.

Subcommands: ``check`` (single config), ``sweep`` (N-sweep), ``mc``
(Monte-Carlo comparison), ``selftest`` (full verification suite). Exit code
is 0 iff every applicable bound check is satisfied and no errors occurred.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .acceptance import ALL_CRITERIA, run_all
from .config import parse_config
from .errors import ConfigError
from .report import emit, run_scenario


def _non_negative_int(text: str) -> int:
    """Type of ``--seed``: numpy seeds are non-negative integers."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


def _add_run_flags(sub):
    sub.add_argument("--config", required=True, help="path to a scenario JSON file")
    sub.add_argument("--out", default=None, help="report output path")
    sub.add_argument("--format", default=None, choices=("csv", "json"),
                     help="report format (default: config output.format or csv)")
    sub.add_argument("--seed", type=_non_negative_int, default=None,
                     help="override the Monte-Carlo base seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cutchoose",
        description="Cut-and-choose verified delegation: run protocol scenarios "
                    "and certify trade-off bounds.",
    )
    parser.add_argument("--version", action="version", version=f"cutchoose {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, doc in (
        ("check", "evaluate a single scenario config"),
        ("sweep", "evaluate an N-sweep scenario config"),
        ("mc", "compare sampled and exact acceptance for a config"),
    ):
        _add_run_flags(subs.add_parser(name, help=doc))
    selftest = subs.add_parser("selftest", help="run the full verification suite")
    selftest.add_argument("--only", action="append", default=None,
                          metavar="NAME", choices=[n for n, _ in ALL_CRITERIA],
                          help="run only the named criterion (repeatable)")
    return parser


def _run_command(args) -> int:
    try:
        with open(args.config, "rb") as fh:
            config = parse_config(fh.read())
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        for message in exc.errors:
            print(f"config error: {message}", file=sys.stderr)
        return 2

    doc = config.canonical()
    if args.command == "sweep" and "sweep" not in doc:
        print("config error: sweep: required by the sweep subcommand", file=sys.stderr)
        return 2
    if args.command == "check" and "sweep" in doc:
        print("config error: sweep: not allowed by the check subcommand "
              "(use the sweep subcommand)", file=sys.stderr)
        return 2
    if args.command == "mc" and "monte_carlo" not in doc:
        print("config error: monte_carlo: required by the mc subcommand", file=sys.stderr)
        return 2

    try:
        bundle = run_scenario(config, seed_override=args.seed)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    for record in bundle.runs:
        r = record.report
        verdict = "satisfied" if r.satisfied else (
            "not applicable (trivial attack)" if r.trivial_attack else "VIOLATED"
        )
        line = (
            f"[{record.sweep_index}] {r.model.value}/{r.variant.value} N={r.n_expected:g} "
            f"alpha={r.alpha:.6g} eps_h={r.eps_h:.6g} eps_d={r.eps_d:.6g} "
            f"bound={r.bound:.6g} -> {verdict}"
        )
        if record.mc is not None:
            line += (
                f" | mc p_H={record.mc.honest:.6g}"
                f" p_D={record.mc.attacked:.6g}"
            )
        print(line)

    output = doc.get("output", {})
    out_path = args.out or output.get("path")
    fmt = args.format or output.get("format", "csv")
    if out_path is not None:
        try:
            emit(bundle, fmt, out_path)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"wrote {fmt} report to {out_path}")
    return 0 if bundle.all_satisfied else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "selftest":
        results = run_all(names=args.only, echo=True)
        return 0 if all(r.passed for r in results) else 1
    return _run_command(args)


if __name__ == "__main__":
    sys.exit(main())
