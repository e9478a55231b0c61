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
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ParseError, ValidationError
from .ontology import Terminology
from .popularity import PROXIES

# The environment variables that hold credentials; the only place their names live.
COMPLETION_KEY_ENV = "TERMBENCH_COMPLETION_API_KEY"
EMBEDDING_KEY_ENV = "TERMBENCH_EMBEDDING_API_KEY"
EUTILS_KEY_ENV = "NCBI_API_KEY"


def parse_flat_config(text: str) -> dict[str, object]:
    """Parse the flat config grammar into {'section.key': value}.

    Lines end at "\n" only, so U+2028, U+2029 and U+0085 stay inside a value.
    A leading byte-order mark is ignored.
    """
    values: dict[str, object] = {}
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
    return values


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


TERMINOLOGY_KEYS = {
    Terminology.HPO: "hpo",
    Terminology.GO_CC: "go_cc",
    Terminology.GENE: "gene",
}

GO_CC_NAMESPACE = "cellular_component"


@dataclass
class RunConfig:
    base_dir: Path
    run_dir: Path
    raw: dict[str, object] = field(default_factory=dict)

    # paths
    hpo_obo: Path | None = None
    go_obo: Path | None = None
    gene_map: Path | None = None
    annotations: dict[Terminology, Path] = field(default_factory=dict)
    pmc_cache: Path | None = None
    embedding_store: Path | None = None
    transcripts: dict[str, Path] = field(default_factory=dict)  # phase -> path

    # seeds
    sampling_seed: int = 0
    cap_seed: int = 0
    synthetic_seed: int = 0

    # sampling
    n_bins: int = 20
    per_bin: int = 10
    ranking_proxy: str = "id_count_pmc"

    # endpoints / models
    completion_url: str | None = None
    embedding_url: str | None = None
    baseline_model: str = "baseline"
    finetuned_model: str = "finetuned"

    # limits
    concurrency: int = 1
    rate_per_second: float = 3.0
    validation_cap: int | None = None

    # flags
    extract_mode: bool = False
    all_templates: bool = False
    offline: bool = False

    # stats
    stats_phase: str = "baseline"
    stats_direction: str = "term_to_id"

    def resolve(self, value: str) -> Path:
        path = Path(value)
        return path if path.is_absolute() else self.base_dir / path


_KIND_NAMES = {str: "a string", int: "an integer", float: "a number", bool: "true or false"}


def load_config(path: str | Path, run_dir: str | Path | None = None,
                flags: dict[str, tuple[str, object]] | None = None) -> RunConfig:
    """Load a config file; a key of the wrong type or an unknown key is a ValidationError.

    `flags` maps a config key to the (flag name, value) that overrides it.
    The file's values are checked first, alone, so a bad value fails even
    when a flag overrides it; then the merged values are checked by the same
    rules, and a message about a flag's value names the flag. The merged
    values are `cfg.raw`, so the manifest records each override.

    `run_dir` (the `--run-dir` flag) overrides `paths.run_dir`. A relative
    `run_dir` is taken from the working directory, a relative
    `paths.run_dir` from the config file's directory, like every path the
    file names.
    """
    path = Path(path)
    values = parse_flat_config(path.read_text(encoding="utf-8"))
    cfg = _checked_config(values, path.parent.resolve(), {})
    if flags:
        cfg = _checked_config(values | {key: value for key, (_, value) in flags.items()},
                              cfg.base_dir, {key: flag for key, (flag, _) in flags.items()})
    if run_dir is not None:
        cfg.run_dir = Path(run_dir).absolute()
    elif "paths.run_dir" in values:
        cfg.run_dir = cfg.resolve(values["paths.run_dir"])
    else:
        raise ValidationError("no run directory: pass --run-dir or set paths.run_dir")
    return cfg


def _checked_config(values: dict[str, object], base_dir: Path,
                    flag_names: dict[str, str]) -> RunConfig:
    """A RunConfig from `values`, each checked by its key's rule (run_dir left unset).

    A message names the key, or the flag in `flag_names` that set it.
    """
    cfg = RunConfig(base_dir=base_dir, run_dir=Path("."), raw=values)
    asked: set[str] = set()

    def bad(key: str, rule: str, value: object) -> ValidationError:
        """The error for a value that breaks `rule`, naming its flag if a flag set it."""
        return ValidationError(f"{flag_names.get(key, key)} must be {rule}, got {value!r}")

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
        return cfg.resolve(value) if value is not None else None

    cfg.hpo_obo = get_path("paths.hpo_obo")
    cfg.go_obo = get_path("paths.go_obo")
    cfg.gene_map = get_path("paths.gene_map")
    for terminology, key in TERMINOLOGY_KEYS.items():
        p = get_path(f"paths.annotations_{key}")
        if p is not None:
            cfg.annotations[terminology] = p
    cfg.pmc_cache = get_path("paths.pmc_cache")
    cfg.embedding_store = get_path("paths.embedding_store")
    for phase in ("baseline", "finetuned"):
        p = get_path(f"paths.transcript_{phase}")
        if p is not None:
            cfg.transcripts[phase] = p

    cfg.sampling_seed = get_seed("seeds.sampling")
    cfg.cap_seed = get_seed("seeds.validation_cap")
    cfg.synthetic_seed = get_seed("seeds.synthetic")

    cfg.n_bins = get_at_least("sampling.n_bins", 1, 20)
    cfg.per_bin = get_at_least("sampling.per_bin", 1, 10)
    cfg.ranking_proxy = get("sampling.proxy", str, "id_count_pmc")
    if cfg.ranking_proxy not in PROXIES:
        raise bad("sampling.proxy", "|".join(PROXIES), cfg.ranking_proxy)

    cfg.completion_url = get("endpoints.completion_url", str)
    cfg.embedding_url = get("endpoints.embedding_url", str)
    cfg.baseline_model = get("models.baseline", str, "baseline")
    cfg.finetuned_model = get("models.finetuned", str, "finetuned")

    cfg.concurrency = get_at_least("limits.concurrency", 1, 1)
    cfg.rate_per_second = get("limits.rate_per_second", float, 3.0)
    if not 0.0 < cfg.rate_per_second < math.inf:
        raise bad("limits.rate_per_second", "a finite number above 0", cfg.rate_per_second)
    cfg.validation_cap = get_at_least("limits.validation_cap", 0, 0) or None

    cfg.extract_mode = get("flags.extract_mode", bool, False)
    cfg.all_templates = get("flags.all_templates", bool, False)
    cfg.offline = get("flags.offline", bool, False)

    cfg.stats_phase = get("stats.correctness_phase", str, "baseline")
    cfg.stats_direction = get("stats.direction", str, "term_to_id")
    if cfg.stats_phase not in ("baseline", "finetuned"):
        raise bad("stats.correctness_phase", "baseline|finetuned", cfg.stats_phase)
    if cfg.stats_direction not in ("term_to_id", "id_to_term"):
        raise bad("stats.direction", "term_to_id|id_to_term", cfg.stats_direction)

    get("paths.run_dir", str)
    unknown = sorted(set(values) - asked)
    if unknown:
        raise ValidationError(f"unknown config key(s): {', '.join(unknown)}")
    return cfg
