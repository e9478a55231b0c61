"""Command line entry point.

    termbench --config run.cfg --run-dir runs/demo --stage sample
    termbench --config run.cfg --run-dir runs/demo --stage all

Exit codes: 0 success, 1 domain/validation error, 2 I/O or transport
error. Credentials come from the environment only (completion key,
embedding key, E-utilities key); the config file never holds secrets.
"""

from __future__ import annotations

import argparse
import sys

from .config import check_cap, check_count, load_config
from .errors import (
    ConsistencyError,
    DomainError,
    HarnessError,
    NumericalError,
    ParseError,
    PermanentHttpError,
    ProtocolError,
    TransportError,
    ValidationError,
)
from .pipeline import STAGES, run_stage

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_TRANSPORT = 2

_DOMAIN_ERRORS = (ParseError, ValidationError, DomainError, ConsistencyError)
_TRANSPORT_ERRORS = (TransportError, PermanentHttpError, ProtocolError, NumericalError,
                     OSError)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="termbench",
        description="Term/identifier normalization benchmark pipeline",
    )
    parser.add_argument("--config", required=True, help="path to the run config file")
    parser.add_argument("--run-dir", help="run directory (overrides paths.run_dir)")
    parser.add_argument("--stage", required=True,
                        help=f"stage to run: {', '.join(STAGES)}, or 'all'")
    parser.add_argument("--seed", type=int, help="override the sampling seed")
    parser.add_argument("--dry-run", action="store_true",
                        help="print planned actions without writing")
    parser.add_argument("--validation-cap", type=int,
                        help="cap the validation split at N pairs (0: no cap)")
    parser.add_argument("--extract-mode", action="store_true",
                        help="score on the first syntactic identifier match")
    parser.add_argument("--all-templates", action="store_true",
                        help="evaluate all five templates; a pair is correct when more "
                             "than half of them are")
    parser.add_argument("--concurrency", type=int, help="remote request concurrency")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, run_dir=args.run_dir)
        # each applied flag is also written under its config key, so the manifest records it
        if args.seed is not None:
            cfg.sampling_seed = cfg.raw["seeds.sampling"] = args.seed
        if args.validation_cap is not None:
            check_cap("--validation-cap", args.validation_cap)
            cfg.raw["limits.validation_cap"] = args.validation_cap
            cfg.validation_cap = args.validation_cap or None
        if args.extract_mode:
            cfg.extract_mode = cfg.raw["flags.extract_mode"] = True
        if args.all_templates:
            cfg.all_templates = cfg.raw["flags.all_templates"] = True
        if args.concurrency is not None:
            check_count("--concurrency", args.concurrency)
            cfg.concurrency = cfg.raw["limits.concurrency"] = args.concurrency

        stages = STAGES if args.stage == "all" else (args.stage,)
        for stage in stages:
            run_stage(cfg, stage, dry_run=args.dry_run)
    except _DOMAIN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except _TRANSPORT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TRANSPORT
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
