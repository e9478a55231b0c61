import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from termbench import errors
from termbench.cli import main
from termbench.config import load_config, parse_flat_config
from termbench.errors import ParseError, ValidationError
from termbench.evaluate import RunFailedError

FIXTURE = Path(__file__).parent / "fixtures" / "mini"
CONFIG = FIXTURE / "run.cfg"


# ---------------------------------------------------------------------------
# config grammar


def test_parse_flat_config_types():
    text = """# comment
[paths]
run_dir = runs/demo
quoted = "a b # c"

[limits]
concurrency = 4
rate_per_second = 2.5

[flags]
offline = true
extract_mode = false
"""
    values = parse_flat_config(text)
    assert values["paths.run_dir"] == "runs/demo"
    assert values["paths.quoted"] == "a b # c"
    assert values["limits.concurrency"] == 4
    assert values["limits.rate_per_second"] == 2.5
    assert values["flags.offline"] is True
    assert values["flags.extract_mode"] is False


def test_parse_flat_config_duplicate_key():
    with pytest.raises(ParseError):
        parse_flat_config("[a]\nx = 1\nx = 2\n")


def test_parse_flat_config_malformed_line():
    with pytest.raises(ParseError) as exc:
        parse_flat_config("[a]\njust words\n")
    assert exc.value.line_number == 2


@pytest.mark.parametrize("sep", ["\u2028", "\u2029", "\u0085"])
def test_parse_flat_config_keeps_unicode_line_separators_in_values(sep):
    values = parse_flat_config(f"[paths]\nrun_dir = runs/a{sep}b\n")
    assert values == {"paths.run_dir": f"runs/a{sep}b"}


def test_parse_flat_config_ignores_a_leading_byte_order_mark():
    values = parse_flat_config("\ufeff[paths]\nrun_dir = runs/a\n")
    assert values == {"paths.run_dir": "runs/a"}


def test_config_saved_with_a_byte_order_mark_runs(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("\ufeff" + CONFIG.read_text(encoding="utf-8"), encoding="utf-8")
    for name in ("hpo.obo", "go.obo", "gene_map.tsv"):
        (tmp_path / name).write_bytes((FIXTURE / name).read_bytes())
    assert main(["--config", str(config), "--run-dir", str(tmp_path / "run"),
                 "--stage", "ingest"]) == 0
    assert (tmp_path / "run" / "ingest" / "records_hpo.jsonl").exists()


@pytest.mark.parametrize("binding,message", [
    ("[flags]\noffline = no", "flags.offline must be true or false, got 'no'"),
    ("[sampling]\nn_bins = twenty", "sampling.n_bins must be an integer, got 'twenty'"),
    ("[sampling]\nper_bim = 3", "unknown config key(s): sampling.per_bim"),
    ("[sampling]\nn_bins = 0", "sampling.n_bins must be at least 1, got 0"),
    ("[sampling]\nper_bin = -1", "sampling.per_bin must be at least 1, got -1"),
    ("[limits]\nconcurrency = 0", "limits.concurrency must be at least 1, got 0"),
    ("[limits]\nrate_per_second = 0",
     "limits.rate_per_second must be a finite number above 0, got 0.0"),
    ("[limits]\nrate_per_second = -2.5",
     "limits.rate_per_second must be a finite number above 0, got -2.5"),
    ("[limits]\nrate_per_second = inf",
     "limits.rate_per_second must be a finite number above 0, got inf"),
    ("[sampling]\nproxy = id_count_pcm",
     "sampling.proxy must be id_count_pmc|term_count_pmc|annotation_count, got 'id_count_pcm'"),
    ("[limits]\nvalidation_cap = -1", "limits.validation_cap must be at least 0, got -1"),
    ("[seeds]\nsampling = -1", "seeds.sampling must be an unsigned 64-bit integer, got -1"),
    ("[seeds]\nsampling = 18446744073709551621",
     "seeds.sampling must be an unsigned 64-bit integer, got 18446744073709551621"),
    ("[seeds]\nvalidation_cap = 18446744073709551616",
     "seeds.validation_cap must be an unsigned 64-bit integer, got 18446744073709551616"),
    ("[seeds]\nsynthetic = -3", "seeds.synthetic must be an unsigned 64-bit integer, got -3"),
], ids=["bool", "int", "unknown-key", "n_bins-zero", "per_bin-negative", "concurrency-zero",
        "rate-zero", "rate-negative", "rate-infinite", "proxy-misspelled",
        "validation_cap-negative", "sampling-seed-negative", "sampling-seed-above-u64",
        "cap-seed-2**64", "synthetic-seed-negative"])
def test_bad_config_value_exits_1_naming_the_key(tmp_path, capsys, binding, message):
    cfg_file = tmp_path / "c.cfg"
    cfg_file.write_text(f"[paths]\nrun_dir = run\n{binding}\n", encoding="utf-8")
    code = main(["--config", str(cfg_file), "--stage", "ingest"])
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "run").exists()


def test_concurrency_flag_below_one_exits_1(tmp_path, capsys):
    run_dir = tmp_path / "r"
    code = main(["--config", str(CONFIG), "--run-dir", str(run_dir),
                 "--stage", "ingest", "--concurrency", "0"])
    assert code == 1
    assert capsys.readouterr().err == "error: --concurrency must be at least 1, got 0\n"
    assert not run_dir.exists()


def test_validation_cap_flag_below_zero_exits_1(tmp_path, capsys):
    run_dir = tmp_path / "r"
    code = main(["--config", str(CONFIG), "--run-dir", str(run_dir),
                 "--stage", "ingest", "--validation-cap", "-1"])
    assert code == 1
    assert capsys.readouterr().err == "error: --validation-cap must be at least 0, got -1\n"
    assert not run_dir.exists()


@pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
def test_seed_flag_outside_64_bits_exits_1(tmp_path, capsys, seed):
    run_dir = tmp_path / "r"
    code = main(["--config", str(CONFIG), "--run-dir", str(run_dir),
                 "--stage", "ingest", "--seed", seed])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: --seed must be an unsigned 64-bit integer, got {seed}\n")
    assert not run_dir.exists()


def test_bad_file_value_fails_even_when_a_flag_overrides_it(tmp_path, capsys):
    cfg_file = tmp_path / "c.cfg"
    cfg_file.write_text("[paths]\nrun_dir = run\n[limits]\nconcurrency = 0\n", encoding="utf-8")
    code = main(["--config", str(cfg_file), "--stage", "ingest", "--concurrency", "2"])
    assert code == 1
    assert capsys.readouterr().err == "error: limits.concurrency must be at least 1, got 0\n"
    assert not (tmp_path / "run").exists()


def test_run_dir_key_is_known_when_overridden(tmp_path):
    cfg_file = tmp_path / "c.cfg"
    cfg_file.write_text("[paths]\nrun_dir = run\n[limits]\nrate_per_second = 2\n",
                        encoding="utf-8")
    cfg = load_config(cfg_file, run_dir=tmp_path / "other")
    assert cfg.run_dir == tmp_path / "other"
    assert cfg.rate_per_second == 2.0


def test_relative_run_dir_flag_is_taken_from_the_working_directory(tmp_path, monkeypatch):
    conf_dir, work = tmp_path / "conf", tmp_path / "work"
    conf_dir.mkdir()
    work.mkdir()
    cfg_file = conf_dir / "c.cfg"
    cfg_file.write_text("[paths]\nrun_dir = from_key\nhpo_obo = hpo.obo\n", encoding="utf-8")
    monkeypatch.chdir(work)
    flagged = load_config(Path("..") / "conf" / "c.cfg", run_dir="out/x")
    assert flagged.run_dir == work / "out" / "x"
    assert flagged.hpo_obo == conf_dir / "hpo.obo"
    assert load_config(cfg_file).run_dir == conf_dir / "from_key"


def test_load_config_resolves_paths_and_overrides(tmp_path):
    cfg = load_config(CONFIG, run_dir=tmp_path / "run")
    assert cfg.hpo_obo == FIXTURE / "hpo.obo"
    assert cfg.run_dir == tmp_path / "run"
    assert cfg.n_bins == 10
    assert cfg.per_bin == 3
    assert cfg.sampling_seed == 42
    assert cfg.offline is True
    assert cfg.transcripts["baseline"] == FIXTURE / "transcripts" / "baseline.jsonl"


def test_load_config_requires_run_dir(tmp_path):
    cfg_file = tmp_path / "c.cfg"
    cfg_file.write_text("[seeds]\nsampling = 1\n")
    with pytest.raises(ValidationError, match="run directory"):
        load_config(cfg_file)


# ---------------------------------------------------------------------------
# CLI behaviour


def test_missing_prior_stage_names_artifact_and_stage(tmp_path, capsys):
    code = main(["--config", str(CONFIG), "--run-dir", str(tmp_path / "r"),
                 "--stage", "eval"])
    assert code == 1
    err = capsys.readouterr().err
    assert "prompts.jsonl" in err
    assert "prompts" in err


def test_sample_requires_popularity(tmp_path, capsys):
    code = main(["--config", str(CONFIG), "--run-dir", str(tmp_path / "r"),
                 "--stage", "sample"])
    assert code == 1
    assert "popularity" in capsys.readouterr().err


def test_unknown_stage(tmp_path, capsys):
    code = main(["--config", str(CONFIG), "--run-dir", str(tmp_path / "r"),
                 "--stage", "nope"])
    assert code == 1
    assert "unknown stage" in capsys.readouterr().err


def test_dry_run_writes_nothing(tmp_path, capsys):
    run_dir = tmp_path / "r"
    code = main(["--config", str(CONFIG), "--run-dir", str(run_dir),
                 "--stage", "ingest", "--dry-run"])
    assert code == 0
    assert not run_dir.exists()
    assert "[dry-run]" in capsys.readouterr().out


def test_missing_input_path_is_domain_error(tmp_path, capsys):
    cfg_file = tmp_path / "c.cfg"
    cfg_file.write_text(
        "[paths]\nhpo_obo = missing.obo\ngo_obo = missing.obo\n"
        "gene_map = missing.tsv\nrun_dir = run\n"
    )
    code = main(["--config", str(cfg_file), "--stage", "ingest"])
    assert code == 1
    assert "not found" in capsys.readouterr().err


def test_offline_cache_miss_is_transport_error(tmp_path, capsys):
    # a config whose cache lacks the needed queries -> exit 2 at popularity
    run_dir = tmp_path / "run"
    cfg_file = tmp_path / "c.cfg"
    cfg_file.write_text(
        f"""[paths]
hpo_obo = {FIXTURE / 'hpo.obo'}
go_obo = {FIXTURE / 'go.obo'}
gene_map = {FIXTURE / 'gene_map.tsv'}
pmc_cache = empty_cache.jsonl

[flags]
offline = true
"""
    )
    (tmp_path / "empty_cache.jsonl").write_text("")
    assert main(["--config", str(cfg_file), "--run-dir", str(run_dir),
                 "--stage", "ingest"]) == 0
    code = main(["--config", str(cfg_file), "--run-dir", str(run_dir),
                 "--stage", "popularity"])
    assert code == 2
    assert "not cached" in capsys.readouterr().err


def test_bad_cached_count_exits_1_naming_the_line(tmp_path, capsys):
    run_dir = tmp_path / "run"
    cfg_file = tmp_path / "c.cfg"
    cfg_file.write_text(
        f"""[paths]
hpo_obo = {FIXTURE / 'hpo.obo'}
go_obo = {FIXTURE / 'go.obo'}
gene_map = {FIXTURE / 'gene_map.tsv'}
pmc_cache = cache.jsonl

[flags]
offline = true
"""
    )
    (tmp_path / "cache.jsonl").write_text(
        '{"query": "q", "db": "pmc", "count": 1}\n{"query": "r", "db": "pmc", "count": 2.9}\n')
    assert main(["--config", str(cfg_file), "--run-dir", str(run_dir),
                 "--stage", "ingest"]) == 0
    code = main(["--config", str(cfg_file), "--run-dir", str(run_dir),
                 "--stage", "popularity"])
    assert code == 1
    assert "line 2: non-numeric count 2.9" in capsys.readouterr().err


def test_stage_sequence_and_manifest(tmp_path):
    run_dir = tmp_path / "run"
    for stage in ("ingest", "popularity", "sample"):
        assert main(["--config", str(CONFIG), "--run-dir", str(run_dir),
                     "--stage", stage]) == 0
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["generator"] == "splitmix64"
    assert manifest["seeds"]["sampling"] == 42
    assert manifest["release_tags"]["HPO"] == "fixtures/mini-2024"
    assert manifest["finetune_hyperparameters"]["lora_rank"] == 64
    assert set(manifest["stages"]) == {"ingest", "popularity", "sample"}
    split_digest = manifest["stages"]["sample"]["outputs"][
        str(run_dir / "sample" / "split.jsonl")
    ]
    assert len(split_digest) == 64
    # every recorded output exists
    for stage_info in manifest["stages"].values():
        for path in stage_info["outputs"]:
            assert Path(path).exists()


def test_manifest_records_cli_overrides(tmp_path):
    plain, flagged = tmp_path / "plain", tmp_path / "flagged"
    assert main(["--config", str(CONFIG), "--run-dir", str(plain), "--stage", "ingest"]) == 0
    assert main(["--config", str(CONFIG), "--run-dir", str(flagged), "--stage", "ingest",
                 "--seed", "7", "--extract-mode", "--all-templates", "--concurrency", "3",
                 "--validation-cap", "5"]) == 0
    config = json.loads((flagged / "manifest.json").read_text())["config"]
    assert {k: config[k] for k in ("seeds.sampling", "limits.validation_cap",
                                   "flags.extract_mode", "flags.all_templates",
                                   "limits.concurrency")} == {
        "seeds.sampling": 7, "limits.validation_cap": 5, "flags.extract_mode": True,
        "flags.all_templates": True, "limits.concurrency": 3}
    assert json.loads((plain / "manifest.json").read_text())["config"]["limits.concurrency"] == 2
    for path in (plain / "ingest").iterdir():
        assert (flagged / "ingest" / path.name).read_bytes() == path.read_bytes()


def test_corrupt_manifest_exits_1_naming_it(tmp_path, capsys):
    run_dir = tmp_path / "run"
    assert main(["--config", str(CONFIG), "--run-dir", str(run_dir),
                 "--stage", "ingest"]) == 0
    manifest = run_dir / "manifest.json"
    text = manifest.read_text(encoding="utf-8")
    manifest.write_text(text[:len(text) // 2], encoding="utf-8")
    capsys.readouterr()
    assert main(["--config", str(CONFIG), "--run-dir", str(run_dir),
                 "--stage", "popularity"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: unreadable run manifest {manifest}: ")
    assert not (run_dir / "popularity").exists()


def test_seed_override_changes_split(tmp_path):
    base = tmp_path / "a"
    other = tmp_path / "b"
    for run_dir, seed in ((base, "42"), (other, "43")):
        for stage in ("ingest", "popularity"):
            assert main(["--config", str(CONFIG), "--run-dir", str(run_dir),
                         "--stage", stage]) == 0
        assert main(["--config", str(CONFIG), "--run-dir", str(run_dir),
                     "--stage", "sample", "--seed", seed]) == 0
    a = (base / "sample" / "split.jsonl").read_bytes()
    b = (other / "sample" / "split.jsonl").read_bytes()
    assert a != b


def test_sample_rerun_byte_identical(tmp_path):
    run_dir = tmp_path / "run"
    for stage in ("ingest", "popularity", "sample"):
        assert main(["--config", str(CONFIG), "--run-dir", str(run_dir),
                     "--stage", stage]) == 0
    first = (run_dir / "sample" / "split.jsonl").read_bytes()
    assert main(["--config", str(CONFIG), "--run-dir", str(run_dir),
                 "--stage", "sample"]) == 0
    assert (run_dir / "sample" / "split.jsonl").read_bytes() == first


def test_validation_cap_flag(tmp_path):
    run_dir = tmp_path / "run"
    for stage in ("ingest", "popularity"):
        assert main(["--config", str(CONFIG), "--run-dir", str(run_dir),
                     "--stage", stage]) == 0
    assert main(["--config", str(CONFIG), "--run-dir", str(run_dir),
                 "--stage", "sample", "--validation-cap", "10"]) == 0
    lines = (run_dir / "sample" / "split.jsonl").read_text().splitlines()
    rows = [json.loads(l) for l in lines]
    val = [r for r in rows if r["split"] == "validation"]
    train = [r for r in rows if r["split"] == "train"]
    assert len(val) == 30  # 10 per terminology
    assert len(train) == 90


def test_validation_cap_zero_means_no_cap(tmp_path):
    cfg_file = tmp_path / "c.cfg"
    cfg_file.write_text("[paths]\nrun_dir = run\n[limits]\nvalidation_cap = 0\n",
                        encoding="utf-8")
    assert load_config(cfg_file).validation_cap is None
    run_dir = tmp_path / "run"
    for stage in ("ingest", "popularity"):
        assert main(["--config", str(CONFIG), "--run-dir", str(run_dir),
                     "--stage", stage]) == 0
    assert main(["--config", str(CONFIG), "--run-dir", str(run_dir),
                 "--stage", "sample", "--validation-cap", "0"]) == 0
    rows = [json.loads(l) for l in (run_dir / "sample" / "split.jsonl").read_text().splitlines()]
    assert len([r for r in rows if r["split"] == "validation"]) == 90  # every unsampled pair


@pytest.mark.parametrize("edit,message", [
    (lambda row: row.update(split="trian"), "'trian' is not a valid Split"),
    (lambda row: row.pop("term"), "missing key 'term'"),
], ids=["unknown-split", "missing-key"])
def test_bad_split_row_exits_1_naming_the_line(tmp_path, capsys, edit, message):
    run_dir = tmp_path / "run"
    for stage in ("ingest", "popularity", "sample"):
        assert main(["--config", str(CONFIG), "--run-dir", str(run_dir),
                     "--stage", stage]) == 0
    split_path = run_dir / "sample" / "split.jsonl"
    rows = [json.loads(line) for line in split_path.read_text(encoding="utf-8").split("\n")
            if line]
    edit(rows[2])
    split_path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    capsys.readouterr()
    assert main(["--config", str(CONFIG), "--run-dir", str(run_dir),
                 "--stage", "prompts"]) == 1
    err = capsys.readouterr().err
    assert err == f"error: line 3: {message}\n"


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats and scipy.integrate cost start-up time and memory on every CLI launch
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, termbench.cli; "
         "print('scipy.stats' in sys.modules, 'scipy.integrate' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "False False"


# the exit status README documents for each error class: 1 domain or
# validation error, 2 I/O or transport error
EXIT_CODES = {
    errors.ParseError: 1,
    errors.ValidationError: 1,
    errors.DomainError: 1,
    errors.ConsistencyError: 1,
    errors.ProtocolError: 2,
    errors.TransportError: 2,
    errors.PermanentHttpError: 2,
    errors.NumericalError: 2,
    RunFailedError: 2,
    OSError: 2,
}


def test_exit_code_table_lists_every_harness_error():
    declared = {cls for _, cls in inspect.getmembers(errors, inspect.isclass)
                if issubclass(cls, errors.HarnessError) and cls is not errors.HarnessError}
    assert declared <= set(EXIT_CODES)


@pytest.mark.parametrize("error", list(EXIT_CODES), ids=lambda cls: cls.__name__)
def test_each_error_class_exits_with_its_documented_status(tmp_path, monkeypatch, capsys,
                                                           error):
    def fail(cfg, stage, dry_run=False):
        raise error(404) if error is errors.PermanentHttpError else error("boom")

    monkeypatch.setattr("termbench.cli.run_stage", fail)
    code = main(["--config", str(CONFIG), "--run-dir", str(tmp_path / "r"), "--stage", "all"])
    assert code == EXIT_CODES[error]
    assert capsys.readouterr().err.startswith("error: ")


def _fixture_copy(dest: Path, key: str, value: str) -> Path:
    """The mini fixture's files under `dest`, with `key = value` set in its config."""
    dest.mkdir()
    for path in FIXTURE.iterdir():
        (dest / path.name).symlink_to(path)
    text = CONFIG.read_text(encoding="utf-8")
    section, name = key.split(".")
    old = parse_flat_config(text).get(key)
    if old is None:
        text += f"\n[{section}]\n{name} = {value}\n"
    else:
        assert text.count(f"\n{name} = {old}\n") == 1
        text = text.replace(f"\n{name} = {old}\n", f"\n{name} = {value}\n")
    (dest / "run.cfg").unlink()
    (dest / "run.cfg").write_text(text, encoding="utf-8")
    return dest / "run.cfg"


@pytest.mark.parametrize("flag,key,value", [
    (["--seed", "1"], "seeds.sampling", "1"),
    (["--validation-cap", "5"], "limits.validation_cap", "5"),
    (["--extract-mode"], "flags.extract_mode", "true"),
    (["--all-templates"], "flags.all_templates", "true"),
    (["--concurrency", "3"], "limits.concurrency", "3"),
], ids=["seed", "validation-cap", "extract-mode", "all-templates", "concurrency"])
def test_flag_runs_like_the_key_it_overrides(tmp_path, flag, key, value):
    flagged, keyed = tmp_path / "flagged", tmp_path / "keyed"
    assert main(["--config", str(CONFIG), "--run-dir", str(flagged), "--stage", "all",
                 *flag]) == 0
    keyed_config = _fixture_copy(tmp_path / "fixture", key, value)
    assert main(["--config", str(keyed_config), "--run-dir", str(keyed), "--stage", "all"]) == 0

    outputs = sorted(p.relative_to(flagged) for p in flagged.rglob("*")
                     if p.is_file() and p.name != "manifest.json")
    assert outputs == sorted(p.relative_to(keyed) for p in keyed.rglob("*")
                             if p.is_file() and p.name != "manifest.json")
    for rel in outputs:
        assert (flagged / rel).read_bytes() == (keyed / rel).read_bytes(), rel
    a, b = (json.loads((d / "manifest.json").read_text()) for d in (flagged, keyed))
    assert a["config"] == b["config"]
    assert a["seeds"] == b["seeds"]
    assert a["config"][key] == parse_flat_config(f"{key} = {value}")[key]
