"""Run manifest: provenance for every stage of a run directory.

The manifest is the only place timestamps and timings live; stage outputs
themselves are deterministic. It is loaded, and checked, before a stage
runs, and rewritten atomically (temp file + rename) by one `record_stage`
call after the stage completes. That call stores the run's config, seeds
and BLAS thread settings, and the stage's entry: the SHA-256 digests that
the stage took of its inputs and outputs (`pipeline.StageFiles`), keyed by
their names under the run directory (the absolute path for a file outside
it), its wall time and the process's memory high-water mark after it.
Every output lies under the run directory, so a manifest that names one by
its absolute path was written before these names, and is refused.
"""

from __future__ import annotations

import hashlib
import json
import os
from datetime import datetime, timezone
from pathlib import Path

from . import GENERATOR_NAME, __version__
from .errors import ParseError
from .jsonl import write_document
from .prompts import FINETUNE_HYPERPARAMETERS

MANIFEST_NAME = "manifest.json"


def sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        # small reads: a stage hashes its files while its own data are live, so a
        # large read buffer adds to the process's peak memory
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


class RunManifest:
    def __init__(self, run_dir: str | Path):
        self.run_dir = Path(run_dir)
        self.path = self.run_dir / MANIFEST_NAME
        if self.path.exists():
            data = self.path.read_bytes()
            try:
                self.data = json.loads(data.decode("utf-8"))
            except UnicodeDecodeError as exc:
                raise ParseError(f"unreadable run manifest {self.path}: "
                                 f"{ParseError.not_utf8(data, exc)}") from exc
            except ValueError as exc:  # not JSON
                raise ParseError(f"unreadable run manifest {self.path}: {exc}") from exc
            if not (isinstance(self.data, dict) and all(
                    isinstance(self.data.get(key), dict) for key in ("stages", "release_tags"))):
                raise ParseError(f"unreadable run manifest {self.path}: not a run manifest")
            if any(Path(name).is_absolute() for entry in self.data["stages"].values()
                   for name in entry.get("outputs", ())):
                raise ParseError(
                    f"run manifest {self.path} names stage outputs by absolute path, as an "
                    "older version wrote them; remove it and re-run from the 'ingest' stage")
        else:
            self.data = {
                "tool": "termbench",
                "tool_version": __version__,
                "generator": GENERATOR_NAME,
                "finetune_hyperparameters": dict(FINETUNE_HYPERPARAMETERS),
                "config": {},
                "seeds": {},
                "blas_threads": {},
                "release_tags": {},
                "stages": {},
            }

    def record_stage(self, stage: str, config: dict, seeds: dict, blas_threads: dict,
                     inputs: dict[str, str], outputs: dict[str, str],
                     metrics: dict[str, float], facts: dict[str, dict] | None = None) -> None:
        """Record a stage that completed, and write the manifest.

        The run's `config`, `seeds` and `blas_threads` (None: unset) are
        those the stage ran with; once the sample stage has recorded the
        seeds that drew the split, they stand in for the config's. The
        entry holds the stage's files by name, each with the SHA-256 the
        stage took of it, and `metrics`: its wall time and the process's
        memory high-water mark after it. Each of `facts` (`seeds` from
        sample, `release_tags` from ingest) is kept in the entry and merged
        into the run's field of the same name, so the sample stage's seeds
        replace the run's.
        """
        self.data["config"] = {k: config[k] for k in sorted(config)}
        self.data["seeds"] = {**seeds, **self.data["stages"].get("sample", {}).get("seeds", {})}
        self.data["blas_threads"] = dict(blas_threads)
        for key, value in (facts or {}).items():
            self.data[key].update(value)
        self.data["stages"][stage] = {
            "completed_at": datetime.now(timezone.utc).isoformat(),
            "inputs": inputs,
            "outputs": outputs,
            "metrics": metrics,
            **(facts or {}),
        }
        self.write()

    def write(self) -> None:
        self.run_dir.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(".json.tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            write_document(self.data, fh)
        os.replace(tmp, self.path)
