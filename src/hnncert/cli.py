"""Command-line front end: read a configuration, run the certification
pipeline, write the report.

Exit codes: 0 = certified hyperbolic, 2 = witnessed obstruction (a
Baumslag–Solitar loop, which kills hyperbolicity at every power), 3 =
no certificate (inconclusive, or disjointness failed within the search
budget — images shrink with the power, so a conjugate intersection found
at the cap may still vanish at higher powers), 1 = usage or parse error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace
from typing import Optional, Sequence

from .certify import (
    CertificationConfig,
    ConfigError,
    certify,
    emit_report,
    parse_config,
)

EXIT_CERTIFIED = 0
EXIT_USAGE = 1
EXIT_OBSTRUCTION = 2
EXIT_INCONCLUSIVE = 3

_VERDICT_EXITS = {
    "certified_hyperbolic": EXIT_CERTIFIED,
    "obstruction_BS": EXIT_OBSTRUCTION,
    "not_disjoint": EXIT_INCONCLUSIVE,
    "inconclusive": EXIT_INCONCLUSIVE,
}


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad usage; the report contract reserves 2
    for obstructions, so usage errors are remapped to 1."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="certify",
        description=(
            "Certify word-hyperbolicity of the multiple HNN extension built "
            "from powers of the given free-group endomorphisms."
        ),
    )
    parser.add_argument(
        "--input", required=True, help="path to the JSON configuration"
    )
    parser.add_argument(
        "--output", help="write the report here instead of stdout"
    )
    parser.add_argument(
        "--format", choices=("json", "text"), default="json",
        help="report format (default json)",
    )
    parser.add_argument(
        "--pullback-cap", type=int, metavar="K",
        help="override the pullback stabilization cap",
    )
    parser.add_argument(
        "--disjointness-cap", type=int, metavar="K",
        help="override the disjointness search cap",
    )
    parser.add_argument(
        "--expansion-cap", type=int, metavar="K",
        help="override the expansion power cap",
    )
    parser.add_argument(
        "--diagnostics", action="store_true", default=None,
        help="annotate the report with lamination diagnostics",
    )
    parser.add_argument(
        "--lenient", action="store_true",
        help="warn on unknown configuration fields instead of failing",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with open(args.input, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        print(f"certify: cannot read {args.input}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        config = parse_config(raw, lenient=args.lenient)
    except ConfigError as exc:
        print(f"certify: {args.input}: {exc}", file=sys.stderr)
        return EXIT_USAGE

    # each override flag's dest is the config field it sets; an absent flag is None
    overrides = {
        field.name: getattr(args, field.name)
        for field in fields(CertificationConfig)
        if getattr(args, field.name, None) is not None
    }
    if overrides:
        try:
            config = replace(config, **overrides)
        except ConfigError as exc:
            print(f"certify: {exc}", file=sys.stderr)
            return EXIT_USAGE

    certificate = certify(config)
    report = emit_report(certificate, format=args.format)
    if args.output:
        try:
            with open(args.output, "wb") as fh:
                fh.write(report)
        except OSError as exc:
            print(f"certify: cannot write {args.output}: {exc}", file=sys.stderr)
            return EXIT_USAGE
    else:
        sys.stdout.buffer.write(report)
        sys.stdout.buffer.flush()
    return _VERDICT_EXITS[certificate.verdict]


if __name__ == "__main__":
    sys.exit(main())
