import json
import shutil
from pathlib import Path

import pytest

from termbench.cli import main
from termbench.config import load_config
from termbench.pipeline import run_stage

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
        for path, digest in info["outputs"].items():
            assert Path(path).exists()
            assert len(digest) == 64


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
    manifest = json.loads((full_run / "manifest.json").read_text())
    inputs = [Path(p) for p in manifest["stages"]["report"]["inputs"]]
    summaries = sorted((full_run / "eval").glob("summary_*.json"))
    assert len(summaries) == 12
    assert sorted(inputs) == sorted([full_run / "classify" / "outcomes.jsonl", *summaries])


def test_report_takes_accuracy_from_summary_counts(full_run, tmp_path):
    # Without the results files and with a wrong `accuracy` field in every
    # summary, report still writes the same tables: it reads n_correct/n_items.
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


def test_report_bad_summary_exits_1(full_run, tmp_path, capsys):
    run_dir = tmp_path / "run"
    shutil.copytree(full_run, run_dir)
    path = run_dir / "eval" / "summary_baseline_hpo_term_to_id.json"
    summary = json.loads(path.read_text())
    del summary["n_correct"]
    path.write_text(json.dumps(summary))
    capsys.readouterr()
    assert main(["--config", str(CONFIG), "--run-dir", str(run_dir),
                 "--stage", "report"]) == 1
    err = capsys.readouterr().err
    assert "bad eval summary" in err and "n_correct" in err


def _rows(path):
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


class FakeResponse:
    def __init__(self, status_code, payload):
        self.status_code = status_code
        self.text = json.dumps(payload)


def _live_popularity(full_run, tmp_path, monkeypatch, concurrency):
    """Popularity over a fresh cache, with esearch answered from the fixture cache."""
    import requests

    counts = {row["query"]: row["count"] for row in _rows(FIXTURE / "pmc_cache.jsonl")}
    monkeypatch.setattr(requests, "get", lambda url, params, timeout: FakeResponse(
        200, {"esearchresult": {"count": str(counts[params["term"]])}}))
    run_dir = tmp_path / f"run_{concurrency}"
    shutil.copytree(full_run / "ingest", run_dir / "ingest")
    cfg = load_config(CONFIG, run_dir=run_dir)
    cfg.pmc_cache = None
    cfg.offline = False
    cfg.rate_per_second = 1e6
    cfg.concurrency = concurrency
    run_stage(cfg, "popularity")
    return run_dir / "popularity"


def test_popularity_outputs_do_not_depend_on_concurrency(full_run, tmp_path, monkeypatch):
    one = _live_popularity(full_run, tmp_path, monkeypatch, 1)
    four = _live_popularity(full_run, tmp_path, monkeypatch, 4)
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


def test_lexicalize_batches_http_embedding_requests(full_run, tmp_path, monkeypatch):
    import requests

    vectors = {row["text"]: row["vector"] for row in _rows(FIXTURE / "embeddings.jsonl")}
    batches = []

    def post(url, json, headers, timeout):
        batches.append(json["texts"])
        return FakeResponse(200, {"vectors": [vectors[t] for t in json["texts"]]})

    monkeypatch.setattr(requests, "post", post)
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
    inputs = [Path(p) for p in manifest["stages"]["classify"]["inputs"]]
    assert sorted(inputs) == sorted([run_dir / "sample" / "split.jsonl",
                                     *(run_dir / "eval").glob("results_*.jsonl")])
