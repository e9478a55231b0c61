"""Run configuration: a flat sectioned key/value text file.

Grammar (UTF-8, line oriented):

    # full-line comments start with '#'
    [section]                    sections are flat, never nested
    key = value                  one binding per line

Values: double-quoted strings (JSON escapes), integers, floats,
true/false, or a bare string taken verbatim to end of line. Inline
comments are not supported so paths may contain '#'. Relative paths are
resolved against the config file's directory. Secrets are never read from
config, only from environment variables.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .errors import ParseError, ValidationError
from .ontology import Terminology
from .popularity import PROXIES

# The environment variables that hold credentials; the only place their names live.
COMPLETION_KEY_ENV = "TERMBENCH_COMPLETION_API_KEY"
EMBEDDING_KEY_ENV = "TERMBENCH_EMBEDDING_API_KEY"
EUTILS_KEY_ENV = "NCBI_API_KEY"
# The thread counts of the BLAS libraries under numpy and scipy (OpenBLAS, an
# OpenMP build, MKL), which each library reads once, as it loads. The CLI sets
# each to 1 and the manifest records them: `lexicalize`'s PCA (the Gram
# product and `eigh`) rounds differently on more than one thread.
BLAS_THREADS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_flat_config(text: str) -> tuple[dict[str, object], dict[str, int]]:
    """Parse the flat config grammar into {'section.key': value} and {'section.key': line}.

    Lines end at "\n" only, so U+2028, U+2029 and U+0085 stay inside a value.
    A leading byte-order mark is ignored.
    """
    values: dict[str, object] = {}
    lines: dict[str, int] = {}
    section = ""
    for lineno, raw in enumerate(text.removeprefix("\ufeff").split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            if not line.endswith("]") or len(line) < 3:
                raise ParseError(f"malformed section header {line!r}", lineno)
            section = line[1:-1].strip()
            if not section:
                raise ParseError("empty section name", lineno)
            continue
        if "=" not in line:
            raise ParseError(f"expected 'key = value', got {line!r}", lineno)
        key, _, raw_value = line.partition("=")
        key = key.strip()
        if not key:
            raise ParseError("empty key", lineno)
        full_key = f"{section}.{key}" if section else key
        if full_key in values:
            raise ParseError(f"duplicate key {full_key!r}", lineno)
        values[full_key] = _parse_value(raw_value.strip(), lineno)
        lines[full_key] = lineno
    return values, lines


def _parse_value(raw: str, lineno: int) -> object:
    if raw.startswith('"'):
        try:
            return json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad quoted string {raw!r}: {exc}", lineno) from exc
    if raw in ("true", "false"):
        return raw == "true"
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        pass
    return raw


GO_CC_NAMESPACE = "cellular_component"


@dataclass
class RunConfig:
    """A checked config, built by `load_config` from the file's values and flags alone."""

    run_dir: Path
    raw: dict[str, object]

    # paths
    hpo_obo: Path | None
    go_obo: Path | None
    gene_map: Path | None
    annotations: dict[Terminology, Path]
    pmc_cache: Path | None
    embedding_store: Path | None
    transcripts: dict[str, Path]  # phase -> path

    # seeds
    sampling_seed: int
    cap_seed: int

    # sampling
    n_bins: int
    per_bin: int
    ranking_proxy: str

    # endpoints / models
    completion_url: str | None
    embedding_url: str | None
    baseline_model: str
    finetuned_model: str

    # limits
    concurrency: int
    rate_per_second: float
    validation_cap: int | None

    # flags
    extract_mode: bool
    all_templates: bool
    offline: bool

    # stats
    stats_phase: str
    stats_direction: str


_KIND_NAMES = {str: "a string", int: "an integer", float: "a number", bool: "true or false"}


def load_config(path: str | Path, run_dir: str | Path | None = None,
                flags: dict[str, tuple[str, object]] | None = None) -> RunConfig:
    """Load a config file; a key of the wrong type or an unknown key is a ValidationError.

    `flags` maps a config key to the (flag name, value) that overrides it.
    The file's values are checked first, alone, so a bad value fails even
    when a flag overrides it, and a message about a file value names its
    line; then the merged values are checked by the same rules, and a
    message about a flag's value names the flag. The merged values are
    `cfg.raw`, so the manifest records each override. A file that is not
    UTF-8 is a ParseError naming the line of its first bad byte.

    `run_dir` (the `--run-dir` flag) overrides `paths.run_dir`. A relative
    `run_dir` is taken from the working directory, a relative
    `paths.run_dir` from the config file's directory, like every path the
    file names.
    """
    path = Path(path)
    data = path.read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError.not_utf8(data, exc) from exc
    values, lines = parse_flat_config(text)
    base_dir = path.parent.resolve()
    names = {key: f"{key} (line {n})" for key, n in lines.items()}
    cfg = _checked_config(values, base_dir, names)
    if flags:
        cfg = _checked_config(values | {key: value for key, (_, value) in flags.items()},
                              base_dir, names | {key: flag for key, (flag, _) in flags.items()})
    if run_dir is not None:
        cfg.run_dir = Path(run_dir).absolute()
    elif cfg.run_dir is None:
        raise ValidationError("no run directory: pass --run-dir or set paths.run_dir")
    return cfg


def _checked_config(values: dict[str, object], base_dir: Path,
                    names: dict[str, str]) -> RunConfig:
    """A RunConfig from `values`, each checked by its key's rule.

    A message names a key as `names` does (by its line, or by the flag that
    set it), else by the key alone. Its `run_dir` is `paths.run_dir`, or None.
    """
    asked: set[str] = set()

    def name(key: str) -> str:
        return names.get(key, key)

    def bad(key: str, rule: str, value: object) -> ValidationError:
        """The error for a value that breaks `rule`."""
        return ValidationError(f"{name(key)} must be {rule}, got {value!r}")

    def get(key: str, kind: type, default=None):
        """The value of `key` checked against `kind` (an int passes as a float)."""
        asked.add(key)
        if key not in values:
            return default
        value = values[key]
        if kind is float and type(value) is int:
            return float(value)
        if type(value) is not kind:
            raise bad(key, _KIND_NAMES[kind], value)
        return value

    def get_at_least(key: str, low: int, default: int) -> int:
        """An integer of at least `low`: 1 for a count, 0 for a cap (0 means no cap)."""
        value = get(key, int, default)
        if value < low:
            raise bad(key, f"at least {low}", value)
        return value

    def get_seed(key: str) -> int:
        """A seed is an unsigned 64-bit integer, the state splitmix64 takes."""
        value = get(key, int, 0)
        if not 0 <= value < 2**64:
            raise bad(key, "an unsigned 64-bit integer", value)
        return value

    def get_path(key) -> Path | None:
        value = get(key, str)
        return None if value is None else base_dir / value  # an absolute value stays as is

    def get_rate(key: str) -> float:
        value = get(key, float, 3.0)
        if not 0.0 < value < math.inf:
            raise bad(key, "a finite number above 0", value)
        return value

    def get_choice(key: str, choices, default: str) -> str:
        value = get(key, str, default)
        if value not in choices:
            raise bad(key, "|".join(choices), value)
        return value

    cfg = RunConfig(
        hpo_obo=get_path("paths.hpo_obo"),
        go_obo=get_path("paths.go_obo"),
        gene_map=get_path("paths.gene_map"),
        annotations={t: p for t in Terminology
                     if (p := get_path(f"paths.annotations_{t.key}")) is not None},
        pmc_cache=get_path("paths.pmc_cache"),
        embedding_store=get_path("paths.embedding_store"),
        transcripts={phase: p for phase in ("baseline", "finetuned")
                     if (p := get_path(f"paths.transcript_{phase}")) is not None},
        sampling_seed=get_seed("seeds.sampling"),
        cap_seed=get_seed("seeds.validation_cap"),
        n_bins=get_at_least("sampling.n_bins", 1, 20),
        per_bin=get_at_least("sampling.per_bin", 1, 10),
        ranking_proxy=get_choice("sampling.proxy", PROXIES, "id_count_pmc"),
        completion_url=get("endpoints.completion_url", str),
        embedding_url=get("endpoints.embedding_url", str),
        baseline_model=get("models.baseline", str, "baseline"),
        finetuned_model=get("models.finetuned", str, "finetuned"),
        concurrency=get_at_least("limits.concurrency", 1, 1),
        rate_per_second=get_rate("limits.rate_per_second"),
        validation_cap=get_at_least("limits.validation_cap", 0, 0) or None,
        extract_mode=get("flags.extract_mode", bool, False),
        all_templates=get("flags.all_templates", bool, False),
        offline=get("flags.offline", bool, False),
        stats_phase=get_choice("stats.correctness_phase", ("baseline", "finetuned"), "baseline"),
        stats_direction=get_choice("stats.direction", ("term_to_id", "id_to_term"),
                                   "term_to_id"),
        run_dir=get_path("paths.run_dir"),
        raw=values,
    )
    unknown = sorted(set(values) - asked)
    if unknown:
        raise ValidationError(f"unknown config key(s): {', '.join(map(name, unknown))}")
    # an endpoint that a config-named file stands in for everywhere would never be asked
    if cfg.completion_url is not None and len(cfg.transcripts) == 2:
        raise ValidationError(
            f"{name('endpoints.completion_url')} is never used: "
            f"{name('paths.transcript_baseline')} and {name('paths.transcript_finetuned')} "
            "replay both phases")
    if cfg.embedding_url is not None and cfg.embedding_store is not None:
        raise ValidationError(
            f"{name('endpoints.embedding_url')} is never used: "
            f"{name('paths.embedding_store')} stands in for it")
    return cfg
