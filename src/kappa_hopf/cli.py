"""Command-line front end.

    kappa-hopf verify <suite> [--order N] [--degree D]
                      [--mode formal|series|both] [--model FILE]...
                      [--json PATH] [--seed S]

Exit codes: 0 = all checks passed, 1 = at least one check failed,
2 = configuration, model-file or engine-limit error.  Reports are printed
as text (with timings) and optionally written as canonical JSON (timings
omitted so equal configurations produce byte-identical files).
"""

from __future__ import annotations

import argparse
import sys

from .cohom import LieDataError
from .dsl import DslError
from .models import ModelError, resolve_overrides
from .ncalg import DivergenceError, LimitError, PresentationError
from .projrep import OrderCapError
from .scalars import SeriesDomainError
from .suites import ConfigError, SUITE_NAMES, SuiteConfig, run_suite

# errors a configuration, a user model or an engine limit causes: exit 2,
# not "a check failed"
MODEL_ERRORS = (ConfigError, DivergenceError, DslError, LieDataError, LimitError,
                ModelError, OrderCapError, PresentationError, SeriesDomainError)


def build_parser():
    ap = argparse.ArgumentParser(
        prog="kappa-hopf",
        description="exact symbolic verification of the kappa-deformed "
                    "Galilei algebra and group")
    sub = ap.add_subparsers(dest="command", required=True)
    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("suite", choices=list(SUITE_NAMES) + ["all"])
    v.add_argument("--order", type=int, default=4,
                   help="series truncation order N (default 4, max 6)")
    v.add_argument("--degree", type=int, default=6,
                   help="monomial degree bound D for duality (default 6, min 3, max 8)")
    v.add_argument("--mode", choices=("formal", "series", "both"), default="both")
    v.add_argument("--model", action="append", default=[], metavar="FILE",
                   help="override a shipped model with a .hopf file (its "
                        "presentation name selects what it replaces); repeatable")
    v.add_argument("--json", metavar="PATH", help="write the canonical JSON report")
    v.add_argument("--seed", type=int, default=0,
                   help="seed for the random-substitution pre-filters")
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        cfg = SuiteConfig(suite=args.suite, order=args.order, degree=args.degree,
                          mode=args.mode, seed=args.seed,
                          overrides=resolve_overrides(args.model))
        report = run_suite(cfg)
    except (ConfigError, OSError) as e:
        print(f"kappa-hopf: configuration error: {e}", file=sys.stderr)
        return 2
    except MODEL_ERRORS as e:
        print(f"kappa-hopf: {type(e).__name__}: {e}", file=sys.stderr)
        return 2
    print(report.to_text())
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(report.to_json())
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
