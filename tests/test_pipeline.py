import ast
import csv
import gc
import hashlib
import importlib.util
import inspect
import io
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import warnings
import weakref
from contextlib import closing, contextmanager
from dataclasses import FrozenInstanceError, fields
from fractions import Fraction
from pathlib import Path
from urllib.parse import parse_qs, urlsplit

import numpy as np
import pytest

import termbench.manifest
import termbench.pipeline
import termbench.providers
import termbench.sampling
from termbench.cli import main
from termbench.config import (
    COMPLETION_KEY_ENV,
    EMBEDDING_KEY_ENV,
    EUTILS_KEY_ENV,
    load_config,
)
from termbench.embeddings import FileEmbeddingStore
from termbench.errors import PermanentHttpError, ValidationError
from termbench.evaluate import EvalItem, RunFailedError
from termbench.ontology import TermRecord, Terminology
from termbench.outcomes import PairOutcome, read_outcomes_jsonl, round1
from termbench.pipeline import run_stage
from termbench.popularity import PopularityRecord
from termbench.prompts import Direction, PromptInstance, direction_label
from termbench.providers import (
    DecodingParams,
    ReplayProvider,
    TranscriptWriter,
    prompt_hash,
    request_body,
)
from termbench.ratelimit import TokenBucket
from termbench.sampling import SampledPair, Split, read_split_jsonl

FIXTURE = Path(__file__).parent / "fixtures" / "mini"
CONFIG = FIXTURE / "run.cfg"


@pytest.fixture(scope="module")
def full_run(tmp_path_factory):
    run_dir = tmp_path_factory.mktemp("run")
    assert main(["--config", str(CONFIG), "--run-dir", str(run_dir),
                 "--stage", "all"]) == 0
    return run_dir


def test_prompts_stage_eval_set_size(full_run):
    lines = (full_run / "prompts" / "prompts.jsonl").read_text().splitlines()
    # 180 pairs x 2 directions x template 1
    assert len(lines) == 360
    rows = [json.loads(l) for l in lines]
    assert {r["template_id"] for r in rows} == {1}


def test_prompts_stage_finetune_files(full_run):
    data = (full_run / "prompts" / "finetune_hpo_term_to_id.jsonl").read_text()
    lines = data.splitlines()
    assert len(lines) == 150  # 30 train pairs x 5 templates
    row = json.loads(lines[0])
    assert [m["role"] for m in row["messages"]] == ["user", "assistant"]
    meta = json.loads(
        (full_run / "prompts" / "finetune_hpo_term_to_id.manifest.json").read_text()
    )
    assert meta["n_pairs"] == 30
    assert meta["n_prompts"] == 150
    assert meta["seed"] == 42
    assert meta["generator"] == "splitmix64"
    assert meta["hyperparameters"]["epochs"] == 20
    # six fine-tune datasets: 3 terminologies x 2 directions
    assert len(list((full_run / "prompts").glob("finetune_*.jsonl"))) == 6


def test_eval_stage_summaries(full_run):
    summaries = sorted((full_run / "eval").glob("summary_*.json"))
    assert len(summaries) == 12  # 2 phases x 3 terminologies x 2 directions
    payload = json.loads((full_run / "eval" / "summary_baseline_hpo_term_to_id.json")
                         .read_text())
    assert payload["n_items"] == 60
    assert payload["model_id"] == "mock-base-1"
    assert 0.0 <= payload["accuracy"] <= 1.0


def test_classify_stage_outputs(full_run):
    lines = (full_run / "classify" / "outcomes.jsonl").read_text().splitlines()
    assert len(lines) == 360
    metrics = json.loads((full_run / "classify" / "metrics.json").read_text())
    assert set(metrics) == {
        f"{t}:{d}" for t in ("HPO", "GO_CC", "GENE")
        for d in ("term_to_id", "id_to_term")
    }
    for block in metrics.values():
        assert set(block) == {"memorized_pct", "generalized_pct", "degraded_pct",
                              "degraded_pooled_pct", "accuracy_pct"}
    sankeys = sorted((full_run / "classify").glob("sankey_*.csv"))
    assert len(sankeys) == 12  # per terminology, direction and split
    for path in sankeys:
        lines = path.read_text().splitlines()
        assert lines[0] == "source,target,count"
        total = sum(int(l.rsplit(",", 1)[1]) for l in lines[1:])
        assert total == 30  # split size in the fixture


def test_lexicalize_stage_outputs(full_run):
    alignment = json.loads((full_run / "lexicalize" / "alignment.json").read_text())
    assert set(alignment) == {"HPO", "GO", "GENE"}
    assert alignment["GENE"]["delta_mean"] > 0.5
    assert alignment["GENE"]["p_value"] < 1e-6
    assert abs(alignment["HPO"]["delta_mean"]) < 0.1
    assert alignment["HPO"]["p_value"] > 0.01
    points = (full_run / "lexicalize" / "pca_points.csv").read_text().splitlines()
    assert points[0] == "label,class,terminology,x,y"
    assert len(points) == 1 + 180  # 90 train pairs x term+identifier
    summary = (full_run / "lexicalize" / "distance_summary.csv").read_text().splitlines()
    assert summary[0] == "terminology,min,q1,median,q3,max"
    assert len([l for l in summary if l.startswith("GENE")]) == 1


def test_stats_stage_outputs(full_run):
    for proxy in ("id_count_pmc", "term_count_pmc", "annotation_count"):
        obs = (full_run / "stats" / f"observations_{proxy}.csv").read_text().splitlines()
        assert obs[0] == "terminology,correctness,value"
        assert len(obs) == 1 + 90  # train pairs of the stats direction
        anova = (full_run / "stats" / f"anova_{proxy}.csv").read_text().splitlines()
        assert anova[0] == "effect,ss,df,ms,F,p"
        gh = (full_run / "stats" / f"games_howell_{proxy}.csv").read_text().splitlines()
        assert gh[0] == "group_i,group_j,mean_diff,se,t,df,p_adj"
        assert len(gh) == 4  # three pairwise rows
    # the planted popularity gradient (GENE > GO > HPO) is strongly significant
    gh = (full_run / "stats" / "games_howell_id_count_pmc.csv").read_text().splitlines()
    for line in gh[1:]:
        assert float(line.rsplit(",", 1)[1]) < 0.001


def test_popularity_stage_rank_points(full_run):
    for key in ("hpo", "go_cc", "gene"):
        lines = (full_run / "popularity" / f"rank_points_{key}.csv").read_text().splitlines()
        assert lines[0] == "identifier,count,rank,log10_rank,log10_count_plus1"
        assert len(lines) == 61
        ranks = [int(l.split(",")[2]) for l in lines[1:]]
        assert ranks == list(range(1, 61))
        counts = [int(l.split(",")[1]) for l in lines[1:]]
        assert counts == sorted(counts, reverse=True)


def test_manifest_references_all_stage_outputs(full_run):
    manifest = json.loads((full_run / "manifest.json").read_text())
    assert set(manifest["stages"]) == {
        "ingest", "popularity", "sample", "prompts", "eval",
        "classify", "lexicalize", "stats", "report",
    }
    for stage, info in manifest["stages"].items():
        assert info["outputs"], f"stage {stage} recorded no outputs"
        for name, digest in info["outputs"].items():
            assert (full_run / name).exists()
            assert len(digest) == 64


def test_manifest_inputs_are_every_file_each_stage_read(full_run):
    manifest = json.loads((full_run / "manifest.json").read_text())
    inputs = {stage: sorted(info["inputs"]) for stage, info in manifest["stages"].items()}
    fixture = FIXTURE.resolve()
    # a run artifact by its name under the run directory, a config-named source by its path
    records = [f"ingest/records_{key}.jsonl" for key in ("hpo", "go_cc", "gene")]
    split = "sample/split.jsonl"
    expected = {
        "ingest": [fixture / "hpo.obo", fixture / "go.obo", fixture / "gene_map.tsv"],
        "popularity": records + [fixture / "pmc_cache.jsonl"] + [
            fixture / f"annotations_{key}.tsv" for key in ("hpo", "go_cc", "gene")],
        "sample": ["popularity/popularity.csv"],
        "prompts": [split],
        "eval": ["prompts/prompts.jsonl", split,
                 fixture / "transcripts" / "baseline.jsonl",
                 fixture / "transcripts" / "finetuned.jsonl"],
        "classify": [split] + [p.relative_to(full_run).as_posix()
                               for p in (full_run / "eval").glob("results_*.jsonl")],
        "lexicalize": [split, fixture / "embeddings.jsonl"],
        "stats": ["popularity/popularity.csv", "classify/outcomes.jsonl"],
        "report": ["classify/outcomes.jsonl"],
    }
    assert len(expected["classify"]) == 13
    assert inputs == {stage: sorted(map(str, paths)) for stage, paths in expected.items()}


def test_single_stage_runs_match_one_all_stage_run(full_run, tmp_path):
    run_dir = tmp_path / "run"
    for stage in termbench.pipeline.STAGES:
        assert main(["--config", str(CONFIG), "--run-dir", str(run_dir),
                     "--stage", stage]) == 0

    def stage_files(root):
        return {p.relative_to(root): p.read_bytes()
                for p in sorted(root.rglob("*")) if p.is_file() and p.name != "manifest.json"}

    assert stage_files(run_dir) == stage_files(full_run)


def test_stage_dirs_do_not_cross_write(full_run, tmp_path):
    # re-running a late stage must not touch earlier stage outputs
    before = {
        p: p.read_bytes() for p in (full_run / "sample").rglob("*") if p.is_file()
    }
    assert main(["--config", str(CONFIG), "--run-dir", str(full_run),
                 "--stage", "report"]) == 0
    after = {
        p: p.read_bytes() for p in (full_run / "sample").rglob("*") if p.is_file()
    }
    assert before == after


def test_report_inputs_are_outcomes_and_eval_summaries(full_run):
    # report reads the outcomes alone; no eval summary is among its inputs
    manifest = json.loads((full_run / "manifest.json").read_text())
    assert list(manifest["stages"]["report"]["inputs"]) == ["classify/outcomes.jsonl"]


def test_report_takes_accuracy_from_summary_counts(full_run, tmp_path):
    # Without the results files and with a wrong `accuracy` field in every
    # summary, report still writes the same tables: it reads no eval output.
    run_dir = tmp_path / "run"
    shutil.copytree(full_run, run_dir)
    for path in (run_dir / "eval").glob("results_*.jsonl"):
        path.unlink()
    for path in (run_dir / "eval").glob("summary_*.json"):
        summary = json.loads(path.read_text())
        summary["accuracy"] = 0.123
        path.write_text(json.dumps(summary))
    assert main(["--config", str(CONFIG), "--run-dir", str(run_dir),
                 "--stage", "report"]) == 0
    for path in sorted((full_run / "report").glob("*.csv")):
        assert (run_dir / "report" / path.name).read_bytes() == path.read_bytes()


def test_report_needs_no_eval_dir(full_run, tmp_path):
    run_dir = tmp_path / "run"
    shutil.copytree(full_run, run_dir)
    shutil.rmtree(run_dir / "eval")
    assert main(["--config", str(CONFIG), "--run-dir", str(run_dir),
                 "--stage", "report"]) == 0
    for path in sorted((full_run / "report").glob("*.csv")):
        assert (run_dir / "report" / path.name).read_bytes() == path.read_bytes()


def test_classify_missing_results_names_path(full_run, tmp_path, capsys):
    run_dir = tmp_path / "run"
    shutil.copytree(full_run, run_dir)
    missing = run_dir / "eval" / "results_finetuned_gene_id_to_term.jsonl"
    missing.unlink()
    capsys.readouterr()
    assert main(["--config", str(CONFIG), "--run-dir", str(run_dir),
                 "--stage", "classify"]) == 1
    err = capsys.readouterr().err
    assert str(missing) in err and "'eval'" in err


def test_a_missing_input_stops_the_stage_before_it_writes(full_run, tmp_path, capsys):
    run_dir = tmp_path / "run"
    shutil.copytree(full_run, run_dir, ignore=shutil.ignore_patterns("classify"))
    missing = run_dir / "eval" / "results_finetuned_gene_id_to_term.jsonl"
    missing.unlink()
    capsys.readouterr()
    assert main(["--config", str(CONFIG), "--run-dir", str(run_dir),
                 "--stage", "classify"]) == 1
    err = capsys.readouterr().err
    assert str(missing) in err and "'eval'" in err
    assert not (run_dir / "classify").exists()


def test_a_stage_refuses_a_name_it_does_not_declare(full_run, tmp_path):
    run_dir = tmp_path / "run"
    shutil.copytree(full_run / "sample", run_dir / "sample")
    files = termbench.pipeline.StageFiles(load_config(CONFIG, run_dir=run_dir), "report")
    with pytest.raises(KeyError, match="'report'.*'sample/split.jsonl'"):
        files.read("sample/split.jsonl", read_split_jsonl)
    with pytest.raises(KeyError, match="'report'.*'x.csv'"):
        files.write("x.csv", termbench.pipeline.write_document, {})
    assert files.inputs == files.outputs == {}
    assert not (run_dir / "report").exists()


def test_a_stage_reaches_its_run_only_through_stage_files():
    for stage, (stage_func, _, _) in termbench.pipeline._STAGE_TABLE.items():
        assert list(inspect.signature(stage_func).parameters) == ["cfg", "files"], stage
    # each store class is named in pipeline.py only as the first argument of a
    # `.store(...)` call, so `StageFiles.store` opens, closes and records every store
    stores = {"QueryCache", "TranscriptWriter", "EmbeddingCache"}
    tree = ast.parse(Path(termbench.pipeline.__file__).read_text(encoding="utf-8"))
    named = [node for node in ast.walk(tree) if isinstance(node, ast.Name) and node.id in stores]
    opened = [node.args[0] for node in ast.walk(tree)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "store" and node.args]
    assert {node.id for node in named} == stores
    assert [f"line {node.lineno} {node.id}" for node in named
            if not any(node is arg for arg in opened)] == []
    # and it reaches a remote service only through `StageFiles.endpoint`: the
    # transport, the token buckets, the endpoints and the reads of the key
    # variables are made only inside `StageFiles`
    stage_files = next(node for node in tree.body
                       if isinstance(node, ast.ClassDef) and node.name == "StageFiles")
    inside = {id(node) for node in ast.walk(stage_files)}
    made = {"HttpTransport", "TokenBucket", "Endpoint"}
    keys = {"EUTILS_KEY_ENV", "COMPLETION_KEY_ENV", "EMBEDDING_KEY_ENV"}
    remote = [node for node in ast.walk(tree)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in made
              or isinstance(node, ast.Name) and node.id in keys]
    assert {getattr(node, "id", None) or node.func.id for node in remote} == made | keys
    assert [f"line {node.lineno}" for node in remote if id(node) not in inside] == []
    environ = [node for node in ast.walk(tree) if isinstance(node, ast.Attribute)
               and node.attr == "environ" and isinstance(node.value, ast.Name)
               and node.value.id == "os"]
    run_stage_func = next(node for node in tree.body
                          if isinstance(node, ast.FunctionDef) and node.name == "run_stage")
    # outside `StageFiles`, only `run_stage` reads the environment: the BLAS thread settings
    allowed = inside | {id(node) for node in ast.walk(run_stage_func)}
    assert [f"line {node.lineno}" for node in environ if id(node) not in allowed] == []


def test_every_file_the_pipeline_opens_ends_its_lines_at_newline_only():
    # newline="" hands the readers every "\r", so a lone one stays inside its line
    tree = ast.parse(Path(termbench.pipeline.__file__).read_text(encoding="utf-8"))
    opens = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name) and node.func.id == "open"]
    assert len(opens) >= 6  # the OBO files, the gene map, the annotations, the artifacts
    assert [f"line {node.lineno}" for node in opens
            if not any(kw.arg == "newline" and isinstance(kw.value, ast.Constant)
                       and kw.value.value == "" for kw in node.keywords)] == []


def test_a_lone_carriage_return_stays_inside_a_source_line(tmp_path):
    hpo = (FIXTURE / "hpo.obo").read_bytes()
    assert hpo.count(b"\nname: mild tremor\n") == 1
    (tmp_path / "hpo.obo").write_bytes(
        hpo.replace(b"\nname: mild tremor\n", b"\nname: mild tremor\rextra\n"))
    genes = (FIXTURE / "gene_map.tsv").read_bytes()
    assert genes.count(b"\tfusion factor 1\n") == 1
    (tmp_path / "gene_map.tsv").write_bytes(
        genes.replace(b"\tfusion factor 1\n", b"\tfusion\rfactor 1\n"))
    config = tmp_path / "run.cfg"
    config.write_text(f"[paths]\nhpo_obo = hpo.obo\ngo_obo = {FIXTURE / 'go.obo'}\n"
                      "gene_map = gene_map.tsv\n", encoding="utf-8")
    run_dir = tmp_path / "run"
    assert main(["--config", str(config), "--run-dir", str(run_dir), "--stage", "ingest"]) == 0
    labels = {row["identifier"]: row["label"] for t in ("hpo", "gene")
              for row in _rows(run_dir / "ingest" / f"records_{t}.jsonl")}
    assert labels["HP:0000001"] == "mild tremor\rextra"
    assert labels["HP:0000002"] == "mild ataxia"
    assert labels["FUF1"] == "fusion\rfactor 1"
    assert labels["FUF2"] == "fusion factor 2"


def test_an_offline_run_opens_no_transport(tmp_path, monkeypatch):
    # the fixture's config is offline and names its transcripts and embedding store
    def refuse(*args):
        raise AssertionError("a stage opened a transport")

    monkeypatch.setattr(termbench.pipeline, "HttpTransport", refuse)
    cfg = load_config(CONFIG, run_dir=tmp_path / "run")
    for stage in termbench.pipeline.STAGES:
        run_stage(cfg, stage)


def test_a_copied_run_directory_keeps_its_names(full_run, tmp_path):
    run_dir = tmp_path / "moved" / "run"
    shutil.copytree(full_run, run_dir)
    assert main(["--config", str(CONFIG), "--run-dir", str(run_dir),
                 "--stage", "report"]) == 0
    original, copied = (json.loads((d / "manifest.json").read_text())["stages"]
                        for d in (full_run, run_dir))
    assert copied["report"]["inputs"] == original["report"]["inputs"]
    assert list(copied["report"]["inputs"]) == ["classify/outcomes.jsonl"]
    assert copied["report"]["outputs"] == original["report"]["outputs"]
    for info in copied.values():
        for name in [*info["inputs"], *info["outputs"]]:
            assert not any(Path(name).is_relative_to(d) for d in (full_run, run_dir)), name
            assert (run_dir / name).exists(), name


def _planned(out: str, run_dir: Path) -> set[str]:
    """The run-relative names of the files `--dry-run` output says the stages would write."""
    planned = set()
    for line in out.splitlines():
        head, _, rest = line.partition(": would write ")
        names, _, out_dir = rest.rpartition(" under ")
        stage = head.removeprefix("[dry-run] ")
        assert Path(out_dir) == run_dir / stage
        planned |= {f"{stage}/{name}" for name in names.split(", ")}
    return planned


def test_dry_run_lists_the_files_each_stage_writes(full_run, tmp_path, capsys):
    # a declaration that a stage no longer follows shows up here; the fixture's
    # config names the PMC cache, the transcripts and the embedding store, so
    # no stage writes a store under the run directory
    run_dir = tmp_path / "run"
    capsys.readouterr()
    assert main(["--config", str(CONFIG), "--run-dir", str(run_dir),
                 "--stage", "all", "--dry-run"]) == 0
    planned = _planned(capsys.readouterr().out, run_dir)
    assert not run_dir.exists()
    manifest = json.loads((full_run / "manifest.json").read_text())
    assert planned == {name for info in manifest["stages"].values() for name in info["outputs"]}


def _write_transcript(path, model, prompt_rows, correct_templates):
    """Replay rows for `model` answering `correct_templates(pair_id)` right and the rest wrong.

    Of the wrong answers, template 5 says C and the others say B. Both sort
    after every right answer, so a plurality vote that breaks ties toward the
    smaller answer would call an [A, A, B, B, C] pair correct.
    """
    with closing(TranscriptWriter(path)) as writer:
        for row in prompt_rows:
            if row["template_id"] in correct_templates(row["pair_id"]):
                answer = row["expected_answer"]
            else:
                answer = "~wrong c" if row["template_id"] == 5 else "~wrong b"
            writer.record(row["prompt_text"],
                          request_body(row["prompt_text"], model, DecodingParams()), answer)


def test_all_templates_summary_outcomes_and_report_agree(full_run, tmp_path):
    run_dir = tmp_path / "run"
    for stage in ("ingest", "popularity", "sample"):
        shutil.copytree(full_run / stage, run_dir / stage)
    cfg = load_config(CONFIG, run_dir=run_dir)
    cfg.all_templates = True
    run_stage(cfg, "prompts")
    prompt_rows = _rows(run_dir / "prompts" / "prompts.jsonl")
    assert {r["template_id"] for r in prompt_rows} == {1, 2, 3, 4, 5}
    pair_ids = sorted({r["pair_id"] for r in prompt_rows})
    tuned = set(pair_ids[::2])
    # baseline answers per pair: [A, A, B, B, C] with A right; the fine-tuned
    # model gets 3 of 5 right on every other pair and repeats the baseline on the rest
    _write_transcript(tmp_path / "baseline.jsonl", cfg.baseline_model, prompt_rows,
                      lambda pid: {1, 2})
    _write_transcript(tmp_path / "finetuned.jsonl", cfg.finetuned_model, prompt_rows,
                      lambda pid: {1, 2, 3} if pid in tuned else {1, 2})
    cfg.transcripts = {phase: tmp_path / f"{phase}.jsonl"
                       for phase in ("baseline", "finetuned")}
    for stage in ("eval", "classify", "report"):
        run_stage(cfg, stage)

    with open(run_dir / "classify" / "outcomes.jsonl", encoding="utf-8") as fh:
        outcomes = read_outcomes_jsonl(fh)
    with open(run_dir / "report" / "performance_summary.csv", encoding="utf-8") as fh:
        performance = {row["mapping"]: row for row in csv.DictReader(fh)}
    assert len(performance) == 6
    for t in Terminology:
        for d in Direction:
            combo = [o for o in outcomes if (o.terminology, o.direction) == (t, d)]
            assert len(combo) == 60
            row = performance[direction_label(t, d)]
            for phase in ("baseline", "finetuned"):
                flags = [o.baseline_correct if phase == "baseline" else o.finetuned_correct
                         for o in combo]
                expected = [False] * 60 if phase == "baseline" else [
                    o.pair_id in tuned for o in combo]
                assert flags == expected
                summary = json.loads(
                    (run_dir / "eval" / f"summary_{phase}_{t.key}_{d.value}.json").read_text())
                assert summary["n_items"] == 300
                assert summary["accuracy"] == sum(flags) / len(flags)
                assert row[f"{phase}_pct"] == f"{round1(Fraction(sum(flags) * 100, 60)):.1f}"


def test_every_stage_closes_its_files(tmp_path):
    # a stage runs with the collector paused, so a handle dropped inside a
    # reference cycle would only warn at a later collection
    gc.collect()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["--config", str(CONFIG), "--run-dir", str(tmp_path / "run"),
                     "--stage", "all"]) == 0
        gc.collect()
    assert [w.message for w in caught if issubclass(w.category, ResourceWarning)] == []


def test_run_stage_pauses_the_collector_and_restores_the_callers_setting(tmp_path, monkeypatch):
    cfg = load_config(CONFIG, run_dir=tmp_path / "run")
    stage_func, reads, writes = termbench.pipeline._STAGE_TABLE["ingest"]
    seen = []

    def spy(*args):
        seen.append(gc.isenabled())
        stage_func(*args)

    monkeypatch.setitem(termbench.pipeline._STAGE_TABLE, "ingest", (spy, reads, writes))
    assert gc.isenabled()
    run_stage(cfg, "ingest")
    assert gc.isenabled()
    gc.disable()
    try:
        run_stage(cfg, "ingest")
        assert not gc.isenabled()
    finally:
        gc.enable()
    assert seen == [False, False]


def test_a_stage_that_raises_leaves_the_collector_on(full_run, tmp_path):
    run_dir = tmp_path / "run"
    shutil.copytree(full_run / "sample", run_dir / "sample")
    cfg = load_config(CONFIG, run_dir=run_dir)
    cfg.embedding_store = None
    cfg.embedding_url = None
    with pytest.raises(ValidationError, match="no embedding source"):
        run_stage(cfg, "lexicalize")
    assert gc.isenabled()


PAIR = SampledPair(Terminology.HPO, "Tremor", "HP:0001337", 0, Split.TRAIN)
ROWS = (
    TermRecord(Terminology.HPO, "HP:0001337", "Tremor"),
    PopularityRecord(Terminology.HPO, "HP:0001337", "Tremor", 3, 2, 1),
    PAIR,
    PromptInstance(PAIR, Direction.TERM_TO_ID, 1, "Tremor?", "HP:0001337"),
    EvalItem("p1", Direction.TERM_TO_ID, 1, "HP:0001337", "HP:0001337", True),
    PairOutcome("p1", Terminology.HPO, Direction.TERM_TO_ID, Split.TRAIN, False, True),
)


@pytest.mark.parametrize("row", ROWS, ids=lambda row: type(row).__name__)
def test_row_classes_are_slotted_and_frozen(row):
    assert not hasattr(row, "__dict__")
    with pytest.raises(FrozenInstanceError):
        setattr(row, fields(row)[0].name, None)


def test_no_row_is_part_of_a_reference_cycle(tmp_path):
    row_classes = tuple(type(row) for row in ROWS)
    gc.collect()
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert main(["--config", str(CONFIG), "--run-dir", str(tmp_path / "run"),
                     "--stage", "all"]) == 0
        gc.collect()
        cyclic = sorted({type(o).__name__ for o in gc.garbage if isinstance(o, row_classes)})
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    assert cyclic == []


def test_bench_trace_hooks_exist():
    # bench/tracing.py wraps pipeline helpers and provider methods by name
    path = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for helpers in tracing.PIPELINE_HELPERS.values():
        for helper in helpers:
            assert hasattr(termbench.pipeline, helper), helper
    for targets in tracing.METHODS.values():
        for cls, attr in targets:
            assert attr in cls.__dict__, (cls.__name__, attr)
    # every name a bench script imports from termbench, or reads as
    # termbench.<module>.<name>, resolves
    for script in sorted(path.parent.glob("*.py")):
        for node in ast.walk(ast.parse(script.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("termbench"):
                module = importlib.import_module(node.module)
                for alias in node.names:
                    assert hasattr(module, alias.name), (script.name, node.module, alias.name)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith("termbench"):
                        importlib.import_module(alias.name)
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)
                  and isinstance(node.value.value, ast.Name)
                  and node.value.value.id == "termbench"):
                module = importlib.import_module(f"termbench.{node.value.attr}")
                assert hasattr(module, node.attr), (script.name, node.value.attr, node.attr)


TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
# bench/tracing.py installed over one CLI launch: `<tracing.py> <spans out> <CLI argv...>`
# runs the CLI and writes the names of the spans it recorded
TRACED_CLI = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("bench_tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
tracer = tracing.Tracer()
tracer.install()
from termbench.cli import main
code = main(sys.argv[3:])
with open(sys.argv[2], "w", encoding="utf-8") as fh:
    json.dump(sorted({name for _, _, name, _, _ in tracer.spans}), fh)
sys.exit(code)
"""


def _traced_cli(spans, *argv):
    """Launch the CLI with the bench tracer installed; return the span names it saw."""
    src = Path(termbench.pipeline.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", TRACED_CLI, str(TRACING), str(spans), *argv],
                            env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    return set(json.loads(spans.read_text(encoding="utf-8")))


@pytest.fixture(scope="module")
def per_stage_seed1_run(tmp_path_factory):
    """Each stage at seed 1, traced, in a CLI launch of its own: (run dir, span names seen)."""
    root = tmp_path_factory.mktemp("per_stage")
    seen = set()
    for stage in termbench.pipeline.STAGES:
        seen |= _traced_cli(root / f"spans_{stage}.json", "--config", str(CONFIG),
                            "--run-dir", str(root / "run"), "--stage", stage, "--seed", "1")
    return root / "run", seen


def test_bench_trace_covers_every_pipeline_helper(tmp_path, per_stage_seed1_run):
    # A helper bound at import time (say, in a table of readers) escapes the
    # wrapping, so its span never appears and its per-layer metric reads 0.
    # One process hands the rows of records, split, prompts and results over
    # and calls none of their readers; a launch of one stage decodes every input.
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    seen = _traced_cli(tmp_path / "spans.json", "--config", str(CONFIG),
                       "--run-dir", str(tmp_path / "run"), "--stage", "all")
    _, per_stage = per_stage_seed1_run
    assert sorted(set(tracing.PIPELINE_HELPERS) - seen - per_stage) == []


def _rows(path):
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


def _esearch_term(request):
    return parse_qs(urlsplit(request.url).query)["term"][0]


def _count_reply(count):
    return 200, json.dumps({"esearchresult": {"count": str(count)}})


def _fake_esearch(fake_http):
    """Answer esearch requests from the fixture cache."""
    counts = {row["query"]: row["count"] for row in _rows(FIXTURE / "pmc_cache.jsonl")}
    fake_http(lambda request, **kwargs: _count_reply(counts[_esearch_term(request)]))


def _live_popularity(full_run, tmp_path, fake_http, concurrency):
    """Popularity over a fresh cache, with esearch answered from the fixture cache."""
    _fake_esearch(fake_http)
    run_dir = tmp_path / f"run_{concurrency}"
    shutil.copytree(full_run / "ingest", run_dir / "ingest")
    cfg = load_config(CONFIG, run_dir=run_dir)
    cfg.pmc_cache = None
    cfg.offline = False
    cfg.rate_per_second = 1e6
    cfg.concurrency = concurrency
    run_stage(cfg, "popularity")
    return run_dir / "popularity"


def test_popularity_outputs_do_not_depend_on_concurrency(full_run, tmp_path, fake_http):
    one = _live_popularity(full_run, tmp_path, fake_http, 1)
    four = _live_popularity(full_run, tmp_path, fake_http, 4)
    names = sorted(p.name for p in (full_run / "popularity").glob("*.csv"))
    assert names == sorted(p.name for p in one.glob("*.csv"))
    for name in names:
        expected = (full_run / "popularity" / name).read_bytes()
        assert (one / name).read_bytes() == expected
        assert (four / name).read_bytes() == expected
    # the fresh caches hold the same counts; only row order and timestamps differ
    cached = [sorted((r["query"], r["count"]) for r in _rows(d / "pmc_cache.jsonl"))
              for d in (one, four)]
    assert cached[0] == cached[1]
    assert len(cached[0]) == len({q for q, _ in cached[0]})


def test_popularity_reads_a_cache_without_timestamps(full_run, tmp_path):
    cache = tmp_path / "pmc_cache.jsonl"
    cache.write_text("".join(
        json.dumps({k: row[k] for k in ("query", "db", "count")}) + "\n"
        for row in _rows(FIXTURE / "pmc_cache.jsonl")), encoding="utf-8")
    run_dir = tmp_path / "run"
    shutil.copytree(full_run / "ingest", run_dir / "ingest")
    cfg = load_config(CONFIG, run_dir=run_dir)
    cfg.pmc_cache = cache
    run_stage(cfg, "popularity")
    for path in (full_run / "popularity").glob("*.csv"):
        assert (run_dir / "popularity" / path.name).read_bytes() == path.read_bytes()


def test_lexicalize_batches_http_embedding_requests(full_run, tmp_path, fake_http):
    vectors = {row["text"]: row["vector"] for row in _rows(FIXTURE / "embeddings.jsonl")}
    batches = []

    def post(request, timeout, **kwargs):
        texts = json.loads(request.body)["texts"]
        batches.append(texts)
        return 200, json.dumps({"vectors": [vectors[t] for t in texts]})

    fake_http(post)
    run_dir = tmp_path / "run"
    shutil.copytree(full_run / "sample", run_dir / "sample")
    cfg = load_config(CONFIG, run_dir=run_dir)
    cfg.embedding_store = None
    cfg.embedding_url = "http://embeddings.test/v1/embed"
    run_stage(cfg, "lexicalize")
    assert 0 < len(batches) <= 6
    assert all(len(batch) <= 32 for batch in batches)
    for name in ("alignment.json", "pca_points.csv", "distance_summary.csv"):
        assert ((run_dir / "lexicalize" / name).read_bytes()
                == (full_run / "lexicalize" / name).read_bytes())
    stored = [row["text"] for row in _rows(run_dir / "lexicalize" / "embeddings.jsonl")]
    assert stored == sum(batches, [])


def test_classify_reads_no_eval_summary(full_run, tmp_path):
    run_dir = tmp_path / "run"
    shutil.copytree(full_run, run_dir)
    for path in (run_dir / "eval").glob("summary_*.json"):
        summary = json.loads(path.read_text())
        del summary["model_id"]
        path.write_text(json.dumps(summary))
    assert main(["--config", str(CONFIG), "--run-dir", str(run_dir),
                 "--stage", "classify"]) == 0
    for path in sorted((full_run / "classify").iterdir()):
        assert (run_dir / "classify" / path.name).read_bytes() == path.read_bytes()
    manifest = json.loads((run_dir / "manifest.json").read_text())
    inputs = manifest["stages"]["classify"]["inputs"]
    assert sorted(inputs) == sorted(["sample/split.jsonl", *(
        p.relative_to(run_dir).as_posix() for p in (run_dir / "eval").glob("results_*.jsonl"))])


# ---------------------------------------------------------------------------
# rows handed from writer to reader, hashes once per stage

HANDED_READERS = ("read_records_jsonl", "read_split_jsonl", "read_prompts_jsonl",
                  "read_results_jsonl")
SPLIT = "sample/split.jsonl"


def _count_calls(monkeypatch, names):
    """Wrap the named readers in termbench.pipeline; return {name: call count}."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _fn=getattr(termbench.pipeline, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(termbench.pipeline, name, counted)
    return calls


def _stage_files(root):
    return {p.relative_to(root): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file() and p.name != "manifest.json"}


def test_one_all_stage_run_decodes_each_shared_artifact_once(tmp_path, monkeypatch):
    calls = _count_calls(monkeypatch, [*HANDED_READERS, "read_popularity_csv",
                                       "read_outcomes_jsonl"])
    assert main(["--config", str(CONFIG), "--run-dir", str(tmp_path / "run"),
                 "--stage", "all"]) == 0
    # each reader of these follows the stage that wrote or read the rows
    assert calls == {**dict.fromkeys(HANDED_READERS, 0),
                     "read_popularity_csv": 1, "read_outcomes_jsonl": 1}


def test_nothing_is_held_after_report(full_run, tmp_path, monkeypatch):
    assert main(["--config", str(CONFIG), "--run-dir", str(tmp_path / "all"),
                 "--stage", "all"]) == 0
    assert termbench.pipeline._HELD == {}
    # nor after a stage that raises
    run_dir = tmp_path / "run"
    shutil.copytree(full_run, run_dir)
    cfg = load_config(CONFIG, run_dir=run_dir)
    run_stage(cfg, "eval")
    assert SPLIT in termbench.pipeline._HELD

    def fail(*args):
        raise RuntimeError("classify failed")

    monkeypatch.setattr(termbench.pipeline, "build_outcomes", fail)
    with pytest.raises(RuntimeError, match="classify failed"):
        run_stage(cfg, "classify")
    assert termbench.pipeline._HELD == {}


def test_rows_are_held_only_for_the_next_stage_that_reads_them(tmp_path):
    # After each stage of a run, exactly the run artifacts that the stage read
    # or wrote and the next stage reads are held, under the manifest's digest.
    run_dir = tmp_path / "run"
    cfg = load_config(CONFIG, run_dir=run_dir)
    held = {}
    for stage in termbench.pipeline.STAGES:
        run_stage(cfg, stage)
        held[stage] = {name: digest for name, (digest, _) in termbench.pipeline._HELD.items()}
    stages = json.loads((run_dir / "manifest.json").read_text())["stages"]
    for stage, after in zip(termbench.pipeline.STAGES, [*termbench.pipeline.STAGES[1:], None]):
        reached = {**stages[stage]["inputs"], **stages[stage]["outputs"]}
        next_inputs = stages[after]["inputs"] if after else {}
        assert held[stage] == {name: digest for name, digest in reached.items()
                               if name in next_inputs}, stage
    # the chains a run holds rows through
    assert sorted(held["eval"]) == sorted(
        [SPLIT, *(f"eval/results_{stem}.jsonl" for stem in termbench.pipeline._RUN_STEMS)])
    assert list(held["stats"]) == ["classify/outcomes.jsonl"]
    assert list(held["popularity"]) == ["popularity/popularity.csv"]
    assert held["lexicalize"] == held["report"] == {}
    # a stage out of order takes only the held rows of its own inputs
    run_stage(cfg, "prompts")
    assert list(termbench.pipeline._HELD) == [SPLIT, "prompts/prompts.jsonl"]
    run_stage(cfg, "lexicalize")
    assert termbench.pipeline._HELD == {}


def test_held_rows_equal_what_the_reader_returns(tmp_path):
    # A stage that reads a held artifact gets the rows in place of the reader's
    # decode of the file, so the two must be equal, whichever stage held them.
    run_dir = tmp_path / "run"
    cfg = load_config(CONFIG, run_dir=run_dir)
    pipeline = termbench.pipeline

    def decode(name):
        with open(run_dir / name, encoding="utf-8", newline="") as fh:
            if name == "prompts/prompts.jsonl":
                return pipeline.read_prompts_jsonl(fh, decode(SPLIT))
            return {"ingest": pipeline.read_records_jsonl,
                    "popularity": pipeline.read_popularity_csv,
                    "sample": pipeline.read_split_jsonl,
                    "eval": pipeline.read_results_jsonl,
                    "classify": pipeline.read_outcomes_jsonl}[name.split("/")[0]](fh)

    checked = set()
    for stage in pipeline.STAGES:
        run_stage(cfg, stage)
        for name, (_, rows) in pipeline._HELD.items():
            assert type(rows) is list and rows == decode(name), (stage, name)
            checked.add(name)
    assert checked == {*(f"ingest/records_{t.key}.jsonl" for t in Terminology),
                       "popularity/popularity.csv", SPLIT, "prompts/prompts.jsonl",
                       *(f"eval/{p.name}" for p in (run_dir / "eval").glob("results_*.jsonl")),
                       "classify/outcomes.jsonl"}
    assert len(checked) == 19


def test_eval_builds_no_pair_map_for_the_prompts_it_is_handed(tmp_path, monkeypatch):
    cfg = load_config(CONFIG, run_dir=tmp_path / "run")
    for stage in ("ingest", "popularity", "sample", "prompts"):
        run_stage(cfg, stage)
    calls = _count_calls(monkeypatch, ["pair_id", "read_prompts_jsonl"])
    run_stage(cfg, "eval")
    assert calls == {"pair_id": 0, "read_prompts_jsonl": 0}


def test_replay_hashes_no_transcript_row_and_ids_each_pair_once(tmp_path):
    # Replay joins each transcript to the prompts it answers, with no digest per
    # row or lookup, and prompts, eval items and outcomes read their pair's id
    # off the pair. The calls are counted by code object, whoever makes them.
    counted = {termbench.providers.request_key.__code__: "request_key",
               termbench.sampling.pair_id.__code__: "pair_id"}
    calls = []
    stage = None

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in counted:
            calls.append((stage, counted[frame.f_code]))  # atomic, from any thread

    cfg = load_config(CONFIG, run_dir=tmp_path / "run")
    for stage in termbench.pipeline.STAGES:
        threading.setprofile(profile)
        sys.setprofile(profile)
        try:
            run_stage(cfg, stage)
        finally:
            sys.setprofile(None)
            threading.setprofile(None)
    with open(cfg.run_dir / SPLIT, encoding="utf-8") as fh:
        n_pairs = len(read_split_jsonl(fh))
    assert [call for call in calls if call[1] == "request_key"] == []
    ids = [stage for stage, name in calls if name == "pair_id"]
    assert len([stage for stage in ids if stage in ("prompts", "eval", "classify")]) <= n_pairs


@pytest.fixture(scope="module")
def fresh_seed1_run(tmp_path_factory):
    """`--stage all --seed 1` in a process of its own."""
    run_dir = tmp_path_factory.mktemp("fresh") / "run"
    src = Path(termbench.pipeline.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-m", "termbench.cli", "--config", str(CONFIG),
                    "--run-dir", str(run_dir), "--stage", "all", "--seed", "1"],
                   env=env, capture_output=True, check=True, timeout=300)
    return run_dir


def test_manifest_records_each_stage_wall_time_and_memory_high_water_mark(fresh_seed1_run):
    manifest = json.loads((fresh_seed1_run / "manifest.json").read_text())
    marks = []
    for stage in termbench.pipeline.STAGES:
        metrics = manifest["stages"][stage]["metrics"]
        assert set(metrics) == {"wall_s", "rss_high_water_mb"}, stage
        assert metrics["wall_s"] > 0, stage
        marks.append(metrics["rss_high_water_mb"])
    # one process ran all nine stages, and its high-water mark never falls
    assert marks[0] > 0
    assert marks == sorted(marks)


def test_per_stage_launches_match_one_process_run(per_stage_seed1_run, fresh_seed1_run):
    # each launch decodes every input; the one process hands rows over
    run_dir, _ = per_stage_seed1_run
    assert _stage_files(run_dir) == _stage_files(fresh_seed1_run)


@pytest.mark.parametrize("change", ["resample", "edit"])
def test_a_changed_split_is_decoded_again(fresh_seed1_run, tmp_path, monkeypatch, change):
    run_dir = tmp_path / "run"
    argv = ["--config", str(CONFIG), "--run-dir", str(run_dir)]
    stages = termbench.pipeline.STAGES
    calls = _count_calls(monkeypatch, ["read_split_jsonl"])  # one reader throughout
    for stage in stages[:stages.index("eval") + 1]:
        assert main([*argv, "--stage", stage]) == 0  # leaves the seed-42 split held
    held_digest, _ = termbench.pipeline._HELD[SPLIT]
    if change == "resample":
        assert main([*argv, "--stage", "sample", "--seed", "1"]) == 0
    else:
        (run_dir / "sample" / "split.jsonl").write_bytes(
            (fresh_seed1_run / "sample" / "split.jsonl").read_bytes())
    assert hashlib.sha256((run_dir / SPLIT).read_bytes()).hexdigest() != held_digest
    for stage in stages[stages.index("prompts"):]:
        assert main([*argv, "--stage", stage, "--seed", "1"]) == 0
    # the sample stage hands its new rows on; a split edited on disk is decoded
    assert calls == {"read_split_jsonl": 0 if change == "resample" else 1}
    assert _stage_files(run_dir) == _stage_files(fresh_seed1_run)


def test_changing_a_returned_list_does_not_change_the_next_read(full_run, tmp_path,
                                                                 monkeypatch):
    run_dir = tmp_path / "run"
    shutil.copytree(full_run / "sample", run_dir / "sample")
    cfg = load_config(CONFIG, run_dir=run_dir)
    calls = _count_calls(monkeypatch, ["read_split_jsonl"])
    pairs = read_split_jsonl(io.StringIO((run_dir / SPLIT).read_text(encoding="utf-8")))
    expected = list(pairs)
    termbench.pipeline.StageFiles(cfg, "sample").write(
        "split.jsonl", termbench.pipeline.write_split_jsonl, pairs)
    pairs.clear()  # the writer's list

    def read(stage):
        return termbench.pipeline.StageFiles(cfg, stage).read(
            SPLIT, termbench.pipeline.read_split_jsonl)

    first = read("prompts")
    assert first == expected
    first.clear()
    second = read("eval")
    assert second == expected
    second.reverse()
    assert read("lexicalize") == expected
    assert calls == {"read_split_jsonl": 0}
    assert SPLIT not in termbench.pipeline._HELD  # the stage after lexicalize does not read it


def test_each_stage_hashes_each_recorded_file_once(tmp_path, monkeypatch):
    hashed = []
    sha256_file = termbench.manifest.sha256_file

    def counted(path):
        hashed.append(Path(path))
        return sha256_file(path)

    monkeypatch.setattr(termbench.manifest, "sha256_file", counted)
    run_dir = tmp_path / "run"
    cfg = load_config(CONFIG, run_dir=run_dir)
    for stage in termbench.pipeline.STAGES:
        hashed.clear()
        run_stage(cfg, stage)
        info = json.loads((run_dir / "manifest.json").read_text())["stages"][stage]
        assert sorted(hashed) == sorted(run_dir / name
                                        for name in [*info["inputs"], *info["outputs"]]), stage


# ---------------------------------------------------------------------------
# transcripts and PCA variance


def test_eval_frees_a_phase_transcript_before_the_next_one_loads(full_run, tmp_path,
                                                                  monkeypatch):
    run_dir = tmp_path / "run"
    shutil.copytree(full_run, run_dir)
    providers = []
    live_at_load = []
    load = ReplayProvider.from_transcript.__func__

    def tracked(cls, path, *join):
        live_at_load.append([ref() is not None for ref in providers])
        provider = load(cls, path, *join)
        providers.append(weakref.ref(provider))
        return provider

    monkeypatch.setattr(ReplayProvider, "from_transcript", classmethod(tracked))
    run_stage(load_config(CONFIG, run_dir=run_dir), "eval")
    assert live_at_load == [[], [False]]
    for path in sorted((full_run / "eval").glob("results_*.jsonl")):
        assert (run_dir / "eval" / path.name).read_bytes() == path.read_bytes()


def test_replay_eval_records_no_stale_transcript(full_run, tmp_path):
    run_dir = tmp_path / "run"
    shutil.copytree(full_run, run_dir)
    (run_dir / "eval" / "transcript_baseline.jsonl").write_text("{}\n", encoding="utf-8")
    assert main(["--config", str(CONFIG), "--run-dir", str(run_dir),
                 "--stage", "eval"]) == 0
    manifest = json.loads((run_dir / "manifest.json").read_text())
    outputs = [Path(p).name for p in manifest["stages"]["eval"]["outputs"]]
    assert len(outputs) == 24  # results and summary per phase, terminology, direction
    assert not [name for name in outputs if name.startswith("transcript_")]


def _fake_completions(fake_http, cfg, refuse=(), sent=None, interrupt_after=None):
    """Answer completions from the fixture transcripts; a model in `refuse` gets HTTP 401.

    Each (model, prompt) answered is noted in `sent`, when given, and the
    reply to request number `interrupt_after` first raises SIGINT, as Ctrl-C
    would, which Python turns into a KeyboardInterrupt in the main thread.
    """
    answers = {}
    for phase, model in (("baseline", cfg.baseline_model), ("finetuned", cfg.finetuned_model)):
        answers[model] = {row["prompt_hash"]: row["response"]["text"]
                          for row in _rows(FIXTURE / "transcripts" / f"{phase}.jsonl")}
    lock = threading.Lock()

    def post(request, timeout, **kwargs):
        body = json.loads(request.body)
        if body["model"] in refuse:
            return 401, json.dumps({"error": "unauthorized"})
        prompt = body["messages"][0]["content"]
        if sent is not None:
            with lock:
                sent.append((body["model"], prompt))
                if len(sent) == interrupt_after:
                    signal.raise_signal(signal.SIGINT)
        text = answers[body["model"]][prompt_hash(prompt)]
        return 200, json.dumps({"choices": [{"message": {"content": text}}]})

    fake_http(post)


def _live_eval_config(full_run, run_dir):
    """A config for a live eval over the full run's split and prompts."""
    cfg = load_config(CONFIG, run_dir=run_dir)
    for stage in ("sample", "prompts"):
        shutil.copytree(full_run / stage, cfg.run_dir / stage)
    cfg.transcripts = {}
    cfg.completion_url = "http://completions.test/v1/chat/completions"
    cfg.rate_per_second = 1e6
    return cfg


def _live_eval(full_run, run_dir, fake_http):
    """Eval against a completion endpoint answering from the fixture transcripts."""
    cfg = _live_eval_config(full_run, run_dir)
    _fake_completions(fake_http, cfg)
    run_stage(cfg, "eval")
    return cfg


def test_live_eval_records_the_transcripts_it_wrote(full_run, tmp_path, fake_http):
    cfg = _live_eval(full_run, tmp_path / "run", fake_http)
    manifest = json.loads((cfg.run_dir / "manifest.json").read_text())
    transcripts = [p for p in manifest["stages"]["eval"]["outputs"]
                   if Path(p).name.startswith("transcript_")]
    assert transcripts == [f"eval/transcript_{phase}.jsonl" for phase in ("baseline", "finetuned")]
    for path in sorted((full_run / "eval").glob("results_*.jsonl")):
        assert (cfg.run_dir / "eval" / path.name).read_bytes() == path.read_bytes()


def test_a_live_eval_builds_one_token_bucket_for_both_phases(full_run, tmp_path, fake_http,
                                                             monkeypatch):
    made = []

    class CountedBucket(TokenBucket):
        def __init__(self, *args, **kwargs):
            made.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(termbench.pipeline, "TokenBucket", CountedBucket)
    _live_eval(full_run, tmp_path / "run", fake_http)
    assert len(made) == 1


def test_an_interrupted_live_eval_resumes_from_its_transcripts(full_run, tmp_path, fake_http,
                                                               capsys):
    previous = signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        live = tmp_path / "live.cfg"
        live.write_text("[endpoints]\ncompletion_url = http://completions.test/v1/chat/completions\n"
                        "[models]\nbaseline = mock-base-1\nfinetuned = mock-base-1-ft\n"
                        "[limits]\nconcurrency = 2\nrate_per_second = 1000000\n",
                        encoding="utf-8")
        cfg = load_config(live, run_dir=tmp_path)
        runs = {}
        for name in ("unbroken", "resumed"):
            runs[name] = tmp_path / name
            for stage in ("sample", "prompts"):
                shutil.copytree(full_run / stage, runs[name] / stage)

        def launch(name, stage):
            return main(["--config", str(live), "--run-dir", str(runs[name]), "--stage", stage])

        unbroken = []
        _fake_completions(fake_http, cfg, sent=unbroken)
        assert [launch("unbroken", stage) for stage in ("eval", "classify", "report")] == [0] * 3
        assert len(unbroken) == len(set(unbroken)) == 720

        interrupted = []
        _fake_completions(fake_http, cfg, sent=interrupted, interrupt_after=100)
        capsys.readouterr()
        assert launch("resumed", "eval") == 130
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        kept = {(row["request"]["model"], row["request"]["messages"][0]["content"])
                for path in (runs["resumed"] / "eval").glob("transcript_*.jsonl")
                for row in _rows(path)}
        assert 100 <= len(kept) <= len(interrupted)

        rerun = []
        _fake_completions(fake_http, cfg, sent=rerun)
        assert [launch("resumed", stage) for stage in ("eval", "classify", "report")] == [0] * 3
        assert len(rerun) == 720 - len(kept)  # only what the transcripts lack
        assert kept.isdisjoint(rerun) and kept | set(rerun) == set(unbroken)
    finally:
        signal.signal(signal.SIGINT, previous)
    for stage in ("eval", "classify", "report"):  # transcripts hold timestamps
        outputs = [{path.name: path.read_bytes() for path in (run / stage).iterdir()
                    if not path.name.startswith("transcript_")} for run in runs.values()]
        assert outputs[0] == outputs[1], stage


def test_a_store_that_fails_to_load_names_its_file_and_line(full_run, tmp_path, fake_http,
                                                            capsys):
    run_dir = tmp_path / "run"
    _live_eval(full_run, run_dir, fake_http)
    transcript = run_dir / "eval" / "transcript_baseline.jsonl"
    data = transcript.read_bytes()
    # the last row cut short but ended, so it is not dropped as a torn row would be
    transcript.write_bytes(data[:-20] + b"\n")
    last = len(data.splitlines())
    live = tmp_path / "live.cfg"
    live.write_text("[endpoints]\ncompletion_url = http://completions.test/v1/chat/completions\n"
                    "[models]\nbaseline = mock-base-1\nfinetuned = mock-base-1-ft\n",
                    encoding="utf-8")
    capsys.readouterr()
    assert main(["--config", str(live), "--run-dir", str(run_dir), "--stage", "eval"]) == 1
    assert capsys.readouterr().err.startswith(
        f"error: {transcript}: line {last}: bad JSON: ")


@pytest.mark.parametrize("fault, message", [
    ("model", "missing key 'model'"),
    ("text", "response.text is not a string: 7"),
])
def test_a_replay_row_that_no_prompt_wants_is_still_checked(full_run, tmp_path, capsys,
                                                           fault, message):
    # The join keeps only the rows of the phase's model and prompts, but it
    # checks every row as the transcript store does: exit 1, naming the line.
    rows = _rows(FIXTURE / "transcripts" / "baseline.jsonl")
    bad = json.loads(json.dumps(rows[0]))
    bad["request"]["model"] = "another-model"
    bad["request"]["messages"][0]["content"] = "a prompt that no pair has"
    if fault == "model":
        del bad["request"]["model"]
    else:
        bad["response"]["text"] = 7
    transcript = tmp_path / "baseline.jsonl"
    transcript.write_text("".join(json.dumps(row) + "\n" for row in [*rows[:4], bad, *rows[4:]]),
                          encoding="utf-8")
    run_dir = tmp_path / "run"
    for stage in ("sample", "prompts"):
        shutil.copytree(full_run / stage, run_dir / stage)
    replay = tmp_path / "replay.cfg"
    replay.write_text(f"[paths]\ntranscript_baseline = {transcript}\n"
                      f"transcript_finetuned = {FIXTURE / 'transcripts' / 'finetuned.jsonl'}\n"
                      "[models]\nbaseline = mock-base-1\nfinetuned = mock-base-1-ft\n",
                      encoding="utf-8")
    capsys.readouterr()
    assert main(["--config", str(replay), "--run-dir", str(run_dir), "--stage", "eval"]) == 1
    assert capsys.readouterr().err == f"error: {transcript}: line 5: {message}\n"


def _assert_manifest_digests_match_files(run_dir):
    manifest = json.loads((run_dir / "manifest.json").read_text())
    for stage, info in manifest["stages"].items():
        for kind in ("inputs", "outputs"):
            for name, digest in info[kind].items():
                # `run_dir / name` is `name` itself for an absolute path
                assert hashlib.sha256((run_dir / name).read_bytes()).hexdigest() == digest, (
                    stage, kind, name)
    return manifest


def test_manifest_digests_are_those_of_the_final_files(full_run, tmp_path, fake_http):
    _assert_manifest_digests_match_files(full_run)

    # a configured cache that the live run fills is an input, hashed once it is filled
    _fake_esearch(fake_http)
    run_dir = tmp_path / "popularity_run"
    shutil.copytree(full_run / "ingest", run_dir / "ingest")
    cfg = load_config(CONFIG, run_dir=run_dir)
    cfg.pmc_cache = tmp_path / "pmc_cache.jsonl"
    cfg.offline = False
    cfg.rate_per_second = 1e6
    run_stage(cfg, "popularity")
    assert len(_rows(cfg.pmc_cache)) == len(_rows(FIXTURE / "pmc_cache.jsonl"))
    manifest = _assert_manifest_digests_match_files(run_dir)
    assert str(cfg.pmc_cache) in manifest["stages"]["popularity"]["inputs"]

    run_dir = tmp_path / "eval_run"
    _live_eval(full_run, run_dir, fake_http)
    manifest = _assert_manifest_digests_match_files(run_dir)
    assert "eval/transcript_baseline.jsonl" in manifest["stages"]["eval"]["outputs"]


@contextmanager
def _leaves_nothing_open(monkeypatch):
    """Fail unless the block closes every file and every `requests` session it opens."""
    import requests

    made, closed = [], []
    init, close = requests.Session.__init__, requests.Session.close

    def tracked_init(session, *args, **kwargs):
        made.append(session)
        init(session, *args, **kwargs)

    def tracked_close(session):
        closed.append(session)
        close(session)

    monkeypatch.setattr(requests.Session, "__init__", tracked_init)
    monkeypatch.setattr(requests.Session, "close", tracked_close)
    gc.collect()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        yield
        gc.collect()  # a file dropped unclosed warns as it is collected
    assert [w.message for w in caught if issubclass(w.category, ResourceWarning)] == []
    assert made, "the block made no session"
    assert [s for s in made if not any(s is c for c in closed)] == []


@pytest.mark.parametrize("refuse", [("mock-base-1", "mock-base-1-ft"), ("mock-base-1-ft",)],
                         ids=["every-request", "finetuned-requests"])
def test_a_live_eval_that_fails_closes_what_it_opened(full_run, tmp_path, fake_http,
                                                      monkeypatch, refuse):
    run_dir = tmp_path / "run"
    cfg = _live_eval_config(full_run, run_dir)
    _fake_completions(fake_http, cfg, refuse)
    with _leaves_nothing_open(monkeypatch):
        with pytest.raises(RunFailedError):
            run_stage(cfg, "eval")
    transcripts = {phase: run_dir / "eval" / f"transcript_{phase}.jsonl"
                   for phase in ("baseline", "finetuned")}
    assert not transcripts["finetuned"].exists()  # no request succeeded
    if cfg.baseline_model in refuse:
        assert not transcripts["baseline"].exists()
    else:
        assert len(_rows(transcripts["baseline"])) == 360  # every baseline prompt, flushed

    # a re-run that succeeds records each transcript's final bytes
    _fake_completions(fake_http, cfg)
    run_stage(cfg, "eval")
    manifest = _assert_manifest_digests_match_files(run_dir)
    outputs = manifest["stages"]["eval"]["outputs"]
    assert [path.relative_to(run_dir).as_posix() in outputs
            for path in transcripts.values()] == [True, True]


def test_a_popularity_stage_that_fails_part_way_keeps_its_rows(full_run, tmp_path, fake_http,
                                                               monkeypatch):
    counts = {row["query"]: row["count"] for row in _rows(FIXTURE / "pmc_cache.jsonl")}
    answered = []
    lock = threading.Lock()

    def esearch(request, **kwargs):
        term = _esearch_term(request)
        with lock:
            if len(answered) >= 100:
                return 401, json.dumps({"error": "key revoked"})
            answered.append(term)
        return _count_reply(counts[term])

    fake_http(esearch)
    run_dir = tmp_path / "run"
    shutil.copytree(full_run / "ingest", run_dir / "ingest")
    cfg = load_config(CONFIG, run_dir=run_dir)
    cfg.pmc_cache = None
    cfg.offline = False
    cfg.rate_per_second = 1e6
    with _leaves_nothing_open(monkeypatch):
        with pytest.raises(PermanentHttpError):
            run_stage(cfg, "popularity")
    cache = run_dir / "popularity" / "pmc_cache.jsonl"
    assert sorted(row["query"] for row in _rows(cache)) == sorted(answered)
    assert len(answered) == 100

    # a re-run fetches only the rest, and records the cache's final bytes
    refetched = []

    def rest(request, **kwargs):
        term = _esearch_term(request)
        refetched.append(term)
        return _count_reply(counts[term])

    fake_http(rest)
    run_stage(cfg, "popularity")
    assert sorted(answered + refetched) == sorted(counts)
    assert sorted(row["query"] for row in _rows(cache)) == sorted(counts)
    manifest = _assert_manifest_digests_match_files(run_dir)
    assert "popularity/pmc_cache.jsonl" in manifest["stages"]["popularity"]["outputs"]
    for path in (full_run / "popularity").glob("*.csv"):
        assert (run_dir / "popularity" / path.name).read_bytes() == path.read_bytes()


def _fake_endpoints(fake_http, cfg, sent, crash_after=None, refuse=()):
    """Answer esearch, completion and embedding requests from the fixture's files.

    Each answered request is appended to `sent` as (endpoint, what it asked
    for). With `crash_after` set, every completion request after that many
    answered ones raises a RuntimeError, as a crashing process would stop.
    A baseline completion request for a prompt in `refuse` gets HTTP 401.
    """
    counts = {row["query"]: row["count"] for row in _rows(FIXTURE / "pmc_cache.jsonl")}
    vectors = {row["text"]: row["vector"] for row in _rows(FIXTURE / "embeddings.jsonl")}
    answers = {}
    for phase, model in (("baseline", cfg.baseline_model), ("finetuned", cfg.finetuned_model)):
        answers[model] = {row["prompt_hash"]: row["response"]["text"]
                          for row in _rows(FIXTURE / "transcripts" / f"{phase}.jsonl")}
    lock = threading.Lock()

    def answer(request, **kwargs):
        host = urlsplit(request.url).hostname
        if host == "eutils.ncbi.nlm.nih.gov":
            term = _esearch_term(request)
            with lock:
                sent.append(("esearch", term))
            return _count_reply(counts[term])
        body = json.loads(request.body)
        if host == "embeddings.test":
            with lock:
                sent.extend(("embedding", text) for text in body["texts"])
            return 200, json.dumps({"vectors": [vectors[t] for t in body["texts"]]})
        prompt = body["messages"][0]["content"]
        if body["model"] == cfg.baseline_model and prompt in refuse:
            return 401, json.dumps({"error": "refused"})
        with lock:
            if crash_after is not None and sum(e == "completion" for e, _ in sent) >= crash_after:
                raise RuntimeError("the process died")
            sent.append(("completion", (body["model"], prompt)))
        text = answers[body["model"]][prompt_hash(prompt)]
        return 200, json.dumps({"choices": [{"message": {"content": text}}]})

    fake_http(answer)


def _live_config(run_dir):
    """The fixture's config with every remote source live and every store in the run directory."""
    cfg = load_config(CONFIG, run_dir=run_dir)
    cfg.pmc_cache = None
    cfg.offline = False
    cfg.transcripts = {}
    cfg.completion_url = "http://completions.test/v1/chat/completions"
    cfg.embedding_store = None
    cfg.embedding_url = "http://embeddings.test/v1/embed"
    cfg.rate_per_second = 1e6
    return cfg


LIVE_STORES = ("popularity/pmc_cache.jsonl", "eval/transcript_baseline.jsonl",
               "eval/transcript_finetuned.jsonl", "lexicalize/embeddings.jsonl")


def _outputs(run_dir):
    return {p.relative_to(run_dir).as_posix(): p.read_bytes() for p in sorted(run_dir.rglob("*"))
            if p.is_file() and p.name != "manifest.json"}


def test_a_live_rerun_sends_only_what_its_stores_lack(full_run, tmp_path, fake_http, capsys):
    run_dir = tmp_path / "run"
    cfg = _live_config(run_dir)
    for stage in termbench.pipeline.STAGES:
        run_stage(cfg, stage, dry_run=True)
    planned = _planned(capsys.readouterr().out, run_dir)
    assert set(LIVE_STORES) <= planned
    sent = []
    _fake_endpoints(fake_http, cfg, sent)
    for stage in termbench.pipeline.STAGES:
        run_stage(cfg, stage)
    assert {endpoint for endpoint, _ in sent} == {"esearch", "completion", "embedding"}
    assert len(sent) == len(set(sent))
    outputs = _outputs(run_dir)
    assert set(LIVE_STORES) <= set(outputs)
    for name in ("classify", "report"):
        for path in (full_run / name).iterdir():
            assert outputs[f"{name}/{path.name}"] == path.read_bytes()

    sent.clear()
    for stage in ("popularity", "eval", "lexicalize"):
        run_stage(cfg, stage)
    assert sent == []
    assert _outputs(run_dir) == outputs  # every store keeps its bytes
    manifest = _assert_manifest_digests_match_files(run_dir)
    recorded = {name for info in manifest["stages"].values() for name in info["outputs"]}
    assert recorded == planned


@pytest.mark.parametrize("crash_after", [100, 500], ids=["in-baseline", "in-finetuned"])
def test_an_eval_that_dies_part_way_resumes_from_its_transcripts(full_run, tmp_path, fake_http,
                                                                 capsys, crash_after):
    run_dir = tmp_path / "run"
    cfg = _live_eval_config(full_run, run_dir)
    sent = []
    _fake_endpoints(fake_http, cfg, sent, crash_after=crash_after)
    with pytest.raises(RuntimeError, match="the process died"):
        run_stage(cfg, "eval")
    first = list(sent)
    assert len(first) == crash_after
    transcripts = [run_dir / "eval" / f"transcript_{phase}.jsonl"
                   for phase in ("baseline", "finetuned")]
    assert sum(len(_rows(p)) for p in transcripts if p.exists()) == crash_after  # all kept

    # the process died in the middle of its last row: cut that row short
    torn = [p for p in transcripts if p.exists()][-1]
    data = torn.read_bytes()
    last = data.splitlines(keepends=True)[-1]
    request = json.loads(last)["request"]
    torn.write_bytes(data[:-(len(last) // 2)])
    first.remove(("completion", (request["model"], request["messages"][0]["content"])))

    sent.clear()
    _fake_endpoints(fake_http, cfg, sent)
    capsys.readouterr()
    for stage in ("eval", "classify", "report"):
        run_stage(cfg, stage)
    assert (f"warning: {torn}: dropped the torn last row at byte {len(data) - len(last)}; "
            "it is cut off before the next row is added\n") in capsys.readouterr().err
    prompts = [row["prompt_text"] for row in _rows(run_dir / "prompts" / "prompts.jsonl")]
    expected = [("completion", (model, prompt))
                for model in (cfg.baseline_model, cfg.finetuned_model) for prompt in prompts]
    assert sorted(first + sent) == sorted(expected)  # each prompt sent once, over both runs
    for name in ("eval", "classify", "report"):
        for path in (full_run / name).iterdir():
            assert (run_dir / name / path.name).read_bytes() == path.read_bytes(), path


def test_a_failed_completion_is_not_recorded_and_a_rerun_sends_it_again(full_run, tmp_path,
                                                                        fake_http):
    run_dir = tmp_path / "run"
    cfg = _live_eval_config(full_run, run_dir)
    prompts = [row["prompt_text"] for row in _rows(run_dir / "prompts" / "prompts.jsonl")]
    refused = set(prompts[::7])
    sent = []
    _fake_endpoints(fake_http, cfg, sent, refuse=refused)
    run_stage(cfg, "eval")
    assert len(_rows(run_dir / "eval" / "transcript_baseline.jsonl")) == len(prompts) - len(
        refused)
    assert any(row["error"] for row in _rows(
        run_dir / "eval" / "results_baseline_hpo_term_to_id.jsonl"))

    sent.clear()
    _fake_endpoints(fake_http, cfg, sent)
    run_stage(cfg, "eval")
    assert sorted(sent) == sorted(("completion", (cfg.baseline_model, p)) for p in refused)
    for path in sorted((full_run / "eval").iterdir()):
        assert (run_dir / "eval" / path.name).read_bytes() == path.read_bytes()


# ---------------------------------------------------------------------------
# the bytes each live stage sends


def _drop_rows(source, target, keep):
    """Copy the JSONL file `source` to `target` without the rows that `keep` refuses."""
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text("".join(json.dumps(row) + "\n" for row in _rows(source) if keep(row)),
                      encoding="utf-8")


def _one_esearch_request(full_run, run_dir):
    """A live popularity run whose cache lacks one query; (config, stage, reply, expected)."""
    query = '"HP:0000001"[All Fields]'
    shutil.copytree(full_run / "ingest", run_dir / "ingest")
    cfg = load_config(CONFIG, run_dir=run_dir)
    cfg.pmc_cache = run_dir / "pmc_cache.jsonl"
    _drop_rows(FIXTURE / "pmc_cache.jsonl", cfg.pmc_cache, lambda row: row["query"] != query)
    cfg.offline = False
    url = ("https://eutils.ncbi.nlm.nih.gov/entrez/eutils/esearch.fcgi"
           "?db=pmc&term=%22HP%3A0000001%22%5BAll+Fields%5D&retmode=json&rettype=count")
    return cfg, "popularity", _count_reply(400), ("GET", url, None, None)


def _one_completion_request(full_run, run_dir):
    """A live baseline eval whose transcript lacks one prompt; (config, stage, reply, expected)."""
    prompt = "What is the HPO identifier for the HPO term mild rigidity?"
    for stage in ("sample", "prompts"):
        shutil.copytree(full_run / stage, run_dir / stage)
    cfg = load_config(CONFIG, run_dir=run_dir)
    _drop_rows(FIXTURE / "transcripts" / "baseline.jsonl",
               run_dir / "eval" / "transcript_baseline.jsonl",
               lambda row: row["request"]["messages"][0]["content"] != prompt)
    del cfg.transcripts["baseline"]
    cfg.completion_url = "http://completions.test/v1/chat/completions"
    body = (b'{"model": "mock-base-1", "messages": [{"role": "user", "content": '
            b'"What is the HPO identifier for the HPO term mild rigidity?"}], '
            b'"temperature": 0.0, "max_tokens": 32}')
    reply = 200, json.dumps({"choices": [{"message": {"content": "HP:0000003"}}]})
    return cfg, "eval", reply, ("POST", cfg.completion_url, "application/json", body)


def _one_embedding_request(full_run, run_dir):
    """A live lexicalize run whose store lacks one text; (config, stage, reply, expected)."""
    shutil.copytree(full_run / "sample", run_dir / "sample")
    cfg = load_config(CONFIG, run_dir=run_dir)
    _drop_rows(FIXTURE / "embeddings.jsonl", run_dir / "lexicalize" / "embeddings.jsonl",
               lambda row: row["text"] != "mild rigidity")
    vector = next(row["vector"] for row in _rows(FIXTURE / "embeddings.jsonl")
                  if row["text"] == "mild rigidity")
    cfg.embedding_store = None
    cfg.embedding_url = "http://embeddings.test/v1/embed"
    reply = 200, json.dumps({"vectors": [vector]})
    return cfg, "lexicalize", reply, (
        "POST", cfg.embedding_url, "application/json", b'{"texts": ["mild rigidity"]}')


@pytest.mark.parametrize("key", [None, "k-123"], ids=["no-key", "key"])
@pytest.mark.parametrize("setup, key_env", [
    (_one_esearch_request, EUTILS_KEY_ENV),
    (_one_completion_request, COMPLETION_KEY_ENV),
    (_one_embedding_request, EMBEDDING_KEY_ENV),
], ids=["esearch", "completion", "embedding"])
def test_each_live_stage_sends_the_same_request_bytes(full_run, tmp_path, fake_http,
                                                      monkeypatch, setup, key_env, key):
    # Pins the method, the full URL with its query order, the credential and
    # content-type headers and the body of one request to each remote service.
    for name in (EUTILS_KEY_ENV, COMPLETION_KEY_ENV, EMBEDDING_KEY_ENV):
        monkeypatch.delenv(name, raising=False)
    if key is not None:
        monkeypatch.setenv(key_env, key)
    cfg, stage, reply, (method, url, content_type, body) = setup(full_run, tmp_path / "run")
    sent = []

    def answer(request, **kwargs):
        sent.append((request.method, request.url, request.headers.get("Authorization"),
                     request.headers.get("Content-Type"), request.body))
        return reply

    fake_http(answer)
    run_stage(cfg, stage)
    if key is not None and key_env == EUTILS_KEY_ENV:
        url += "&api_key=k-123"
    authorization = None if key is None or key_env == EUTILS_KEY_ENV else "Bearer k-123"
    assert sent == [(method, url, authorization, content_type, body)]


def test_pca_variance_matches_svd_reference(full_run):
    store = FileEmbeddingStore.from_path(FIXTURE / "embeddings.jsonl")
    with open(full_run / "sample" / "split.jsonl", encoding="utf-8") as fh:
        train = [p for p in read_split_jsonl(fh) if p.split is Split.TRAIN]
    vectors = np.array(store.embed_many([p.term for p in train])
                       + store.embed_many([p.identifier for p in train]))
    singular = np.linalg.svd(vectors - vectors.mean(axis=0), compute_uv=False)
    shares = singular**2 / np.sum(singular**2)
    with open(full_run / "lexicalize" / "pca_variance.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["component", "explained_variance"]
    assert [r[0] for r in rows[1:]] == ["1", "2"]
    assert np.abs(np.array([float(r[1]) for r in rows[1:]]) - shares[:2]).max() < 1e-9
