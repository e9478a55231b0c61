"""Command line entry point.

    termbench --config run.cfg --run-dir runs/demo --stage sample
    termbench --config run.cfg --run-dir runs/demo --stage all

The CLI parses its arguments, loads the config with the override flags
(`load_config` checks them by their keys' rules) and runs the stages.
Exit codes: 0 success; otherwise the failing error's `exit_code` (1 for a
domain or validation error, 2 for a transport error, see `errors`), 2 for
an `OSError` and 130 for an interrupt (Ctrl-C). Credentials come from the
environment only (completion key, embedding key, E-utilities key); the
config file never holds secrets.
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import BLAS_THREADS_ENV, load_config

# One BLAS thread, so that `lexicalize`'s bytes do not depend on the thread
# count the environment asks for. The libraries read the setting as they load,
# so it is made here, before `.pipeline` first imports numpy: the `termbench`
# script imports this module before it calls `main`. A process that loaded
# numpy before importing this module keeps the setting it loaded with, and the
# manifest records that one.
if "numpy" not in sys.modules:
    os.environ.update(dict.fromkeys(BLAS_THREADS_ENV, "1"))

from .errors import HarnessError  # noqa: E402
from .pipeline import STAGES, run_stage  # noqa: E402


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="termbench",
        description="Term/identifier normalization benchmark pipeline",
    )
    parser.add_argument("--config", required=True, help="path to the run config file")
    parser.add_argument("--run-dir", help="run directory (overrides paths.run_dir)")
    parser.add_argument("--stage", required=True,
                        help=f"stage to run: {', '.join(STAGES)}, or 'all'")
    # an override flag left out is None, so it overrides nothing
    parser.add_argument("--seed", type=int, help="override the sampling seed")
    parser.add_argument("--dry-run", action="store_true",
                        help="print planned actions without writing")
    parser.add_argument("--validation-cap", type=int,
                        help="cap the validation split at N pairs (0: no cap)")
    parser.add_argument("--extract-mode", action="store_true", default=None,
                        help="score on the first syntactic identifier match")
    parser.add_argument("--all-templates", action="store_true", default=None,
                        help="evaluate all five templates; a pair is correct when more "
                             "than half of them are")
    parser.add_argument("--concurrency", type=int, help="remote request concurrency")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    overrides = (
        ("seeds.sampling", "--seed", args.seed),
        ("limits.validation_cap", "--validation-cap", args.validation_cap),
        ("flags.extract_mode", "--extract-mode", args.extract_mode),
        ("flags.all_templates", "--all-templates", args.all_templates),
        ("limits.concurrency", "--concurrency", args.concurrency),
    )
    flags = {key: (flag, value) for key, flag, value in overrides if value is not None}
    try:
        cfg = load_config(args.config, run_dir=args.run_dir, flags=flags)
        for stage in STAGES if args.stage == "all" else (args.stage,):
            run_stage(cfg, stage, dry_run=args.dry_run)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("interrupted: the stores keep every row fetched, so a re-run resumes from them",
              file=sys.stderr)
        return 130
    return 0


if __name__ == "__main__":
    sys.exit(main())
