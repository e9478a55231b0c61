#!/usr/bin/env python3
"""termbench's offline benchmark.

    python3 bench/run.py --workload replay-release --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 0

Run from the repository root. For each run it generates a seeded synthetic
corpus in a scratch directory under `.bench_work/` (untimed), runs the
nine-stage pipeline from `src/` in child processes, checks every run's
outputs against the planted truth, and prints one line per metric followed
by a JSON result line. With `--trace 0` the metrics are the end-to-end ones;
with `--trace 1` a traced run gives the per-layer ones and writes its spans
to `.bench_out/`. Workloads and metrics are described in bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

from check import REPORT_FILES, check_run, eval_counts

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

LATENCY_S = 0.005  # injected into every fake endpoint reply
SETUP_PROBES = 5  # set-up-only launches per run, on top of the pipeline launches
MAX_CLI_LAUNCHES = 24
LAUNCH_TIMEOUT_S = 150
# Reported on every untraced run but kept out of the JSON metrics: both are 0
# by construction on some workload (no remote calls on replay; no failures
# when the program is correct). failed_share is carried by attempted/failed.
PRINT_ONLY = ("requests_per_s", "failed_share")
SECRET_ENV = ("TERMBENCH_COMPLETION_API_KEY", "TERMBENCH_EMBEDDING_API_KEY", "NCBI_API_KEY")
# One BLAS thread per child. With its default of one per vCPU, OpenBLAS's
# spinning workers fought the pipeline's own thread for the two vCPUs, so
# wall time measured the scheduler more than the program.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


@dataclass(frozen=True)
class Workload:
    sizes: tuple[int, int, int]  # HPO, GO_CC, GENE terms
    n_bins: int
    per_bin: int
    store_format: str
    mode: str  # "replay": in-process runner; "cli": real CLI launches; "live": fakes


WORKLOADS = {
    # release-size terminologies: JSON artifact I/O and hashing dominate
    "replay-release": Workload((18_000, 4_000, 19_000), 20, 10, "jsonl", "replay"),
    # one CLI process per sampling seed: start-up, imports and stats dominate
    "desk-cli": Workload((300, 300, 300), 20, 5, "binary", "cli"),
    # live mode against fake endpoints: remote round trips dominate
    "live-fake": Workload((60, 60, 60), 10, 3, "jsonl", "live"),
}


class Bench:
    """One benchmark run of one workload inside a scratch directory."""

    def __init__(self, name: str, seed: int, seconds: float, work: Path):
        import corpus  # imports termbench, so only once main() has put src/ on the path

        self.workload = WORKLOADS[name]
        self.seconds = seconds
        self.work = work
        self.corpus = work / "corpus"
        n_seeds = MAX_CLI_LAUNCHES if self.workload.mode == "cli" else 1
        self.seeds = [corpus.derived_seed(seed, f"sampling:{i}") for i in range(n_seeds)]
        w = self.workload
        self.truth = corpus.generate(corpus.CorpusSpec(w.sizes, w.n_bins, w.per_bin,
                                                       w.store_format),
                                     seed, self.corpus, self.seeds)
        _settle(self.corpus)
        self.spans_path = ROOT / ".bench_out" / f"spans_{name}_{seed}.jsonl.gz"
        n_pairs = sum(len(t["records"]) for t in self.truth["terminologies"].values())
        self.items_per_run = 4 * n_pairs  # two phases, two directions, template 1
        self.env = {k: v for k, v in os.environ.items() if k not in SECRET_ENV}
        self.env.update(THREAD_ENV, PYTHONPATH=str(SRC))
        self.launches = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    # -- child processes ---------------------------------------------------

    def launch(self, argv: list[str]) -> tuple[int, float, float, float]:
        """Run one child through launch.py: (exit code, wall s, peak RSS MB, spawn time)."""
        self.launches += 1
        log_path = self.work / f"launch{self.launches}.log"
        proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "launch.py"), str(log_path),
             str(LAUNCH_TIMEOUT_S), *argv],
            stdout=subprocess.PIPE, env=self.env, cwd=self.work, start_new_session=True)
        try:
            out, _ = proc.communicate()
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        try:
            result = json.loads(out)
        except ValueError:
            result = {"code": -1, "wall": 0.0, "peak_rss_mb": 0.0, "t_spawn": 0.0}
        if result["code"] != 0:
            tail = (log_path.read_text(encoding="utf-8", errors="replace")[-2000:]
                    if log_path.exists() else "")
            print(f"launch {argv[1:4]} exited {result['code']}:\n{tail}", file=sys.stderr)
        return result["code"], result["wall"], result["peak_rss_mb"], result["t_spawn"]

    def runner(self, config: str, run_dir: Path, seed: int, **extra) -> tuple[dict | None, float]:
        """Launch runner.py; return (its measurements or None on failure, wall s)."""
        spec = {"config": str(self.corpus / config), "run_dir": str(run_dir), "seed": seed,
                "out": str(self.work / "runner_out.json"), **extra}
        spec_path = self.work / "runner_spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        code, wall, _, t_spawn = self.launch(
            [sys.executable, str(BENCH_DIR / "runner.py"), str(spec_path)])
        if code != 0:
            return None, wall
        out = json.loads(Path(spec["out"]).read_text(encoding="utf-8"))
        out["setup_s"] = out["t_setup"] - t_spawn
        return out, wall

    def setup_probes(self) -> list[float]:
        config = "live.cfg" if self.workload.mode == "live" else "replay.cfg"
        setups = []
        for _ in range(SETUP_PROBES):
            out, _ = self.runner(config, self.work / "probe", self.seeds[0], setup_only=True)
            if out is None:
                self.problems.append("set-up probe failed")
            else:
                setups.append(out["setup_s"])
        return setups

    # -- one pipeline pass ---------------------------------------------------

    def _account(self, run_dir: Path, seed: int, ok: bool, remote: dict | None,
                 replay_dir: Path | None = None) -> None:
        """Check one finished run and add its operations to attempted/failed."""
        problems = check_run(run_dir, self.truth, seed) if ok else ["the pipeline failed"]
        if ok and replay_dir is not None:
            for name in REPORT_FILES:
                live, replay = run_dir / "report" / name, replay_dir / "report" / name
                if not replay.exists() or live.read_bytes() != replay.read_bytes():
                    problems.append(f"report/{name}: live and replay runs differ")
        requests = sum(remote["requests"].values()) if remote else 0
        attempted = self.items_per_run + requests
        self.attempted += attempted
        if problems:
            self.failed += attempted
            self.problems.extend(problems)
        else:
            _, errors = eval_counts(run_dir)
            self.failed += errors + (remote["errors"] if remote else 0)

    def pipeline_pass(self, i: int, seed: int, trace: bool = False,
                      via_runner: bool = False) -> dict:
        """Run the nine stages once, check the outputs and return the samples.

        The CLI workload launches the real CLI unless `via_runner` is set;
        traced passes and their untraced reference always use runner.py.
        """
        mode = self.workload.mode
        run_dir = self.work / f"run{i}"
        if mode == "cli" and not via_runner:
            code, wall, rss, _ = self.launch(
                [sys.executable, "-m", "termbench.cli", "--config",
                 str(self.corpus / "replay.cfg"), "--run-dir", str(run_dir),
                 "--stage", "all", "--seed", str(seed)])
            _settle(run_dir)
            self._account(run_dir, seed, code == 0, None)
            return {"total_s": wall, "peak_rss_mb": rss, "wall": wall, "requests": 0,
                    "run_dir_mb": _dir_mb(run_dir)}
        extra = {}
        replay_dir = None
        config = "replay.cfg"
        if mode == "live":
            config = "live.cfg"
            (self.corpus / "live_pmc_cache.jsonl").write_text("", encoding="utf-8")
            replay_dir = self.work / f"replay{i}"
            extra["fake"] = {"corpus": str(self.corpus), "latency_s": LATENCY_S}
            extra["replay"] = {"config": str(self.corpus / "replay.cfg"),
                               "run_dir": str(replay_dir)}
        if trace:
            extra["trace"] = True
            extra["spans"] = str(self.spans_path)
        out, wall = self.runner(config, run_dir, seed, **extra)
        _settle(run_dir)
        if replay_dir is not None:
            _settle(replay_dir)
        remote = out["remote"] if out else None
        self._account(run_dir, seed, out is not None, remote, replay_dir)
        sample = {"wall": wall, "run_dir_mb": _dir_mb(run_dir)}
        if out is not None:
            sample.update(out)
            sample["requests"] = sum(remote["requests"].values()) if remote else 0
        return sample

    def passes(self, via_runner: bool = False) -> list[dict]:
        """Pipeline passes until the next one would overrun the measuring time.

        Seeds rotate only on the CLI workload, where each launch samples anew.
        """
        samples = []
        measured = 0.0
        for i in range(MAX_CLI_LAUNCHES):
            seed = self.seeds[i % len(self.seeds)]
            sample = self.pipeline_pass(i, seed, via_runner=via_runner)
            samples.append(sample)
            measured += sample["wall"]
            if measured + sample["wall"] > self.seconds:
                break
        return samples

    # -- results ---------------------------------------------------------------

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        probes = self.setup_probes()  # first, so that they also warm the page cache
        samples = [s for s in self.passes() if "total_s" in s]
        setups = [s["setup_s"] for s in samples if "setup_s" in s] + probes
        if not samples or not setups:
            raise SystemExit("no pipeline pass succeeded; nothing to report")
        total = sum(s["total_s"] for s in samples)
        return {
            "total_s": (statistics.median(s["total_s"] for s in samples), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (statistics.median(s["peak_rss_mb"] for s in samples), "MB"),
            "run_dir_mb": (statistics.median(s["run_dir_mb"] for s in samples), "MB"),
            "requests_per_s": (sum(s["requests"] for s in samples) / total, "1/s"),
            "failed_share": (self.failed / max(1, self.attempted), "ratio"),
        }

    def per_layer(self) -> dict[str, tuple[float, str]]:
        untraced = [s["total_s"] for s in self.passes(via_runner=True) if "total_s" in s]
        traced = self.pipeline_pass(MAX_CLI_LAUNCHES, self.seeds[0], trace=True,
                                    via_runner=True)
        if not untraced or "per_layer" not in traced:
            raise SystemExit("the traced or the reference pass failed; nothing to report")
        metrics = {k: tuple(v) for k, v in traced["per_layer"].items()}
        metrics["trace.overhead_s"] = (traced["total_s"] - statistics.median(untraced), "s")
        return metrics


def _settle(path: Path) -> None:
    """Flush the files under `path` to disk, so that their write-back does
    not land in a later timed pass. Run directories are removed only with the
    whole scratch directory at the end, for the same reason."""
    for parent, _, files in os.walk(path):
        for name in files:
            fd = os.open(os.path.join(parent, name), os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)


def _dir_mb(path: Path) -> float:
    total = 0
    for parent, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(parent, f)) for f in files)
    return total / 1e6


def run_one(name: str, seed: int, seconds: float, trace: bool, scratch: Path) -> dict:
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=scratch))
    try:
        bench = Bench(name, seed, seconds, work)
        metrics = bench.per_layer() if trace else bench.end_to_end()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in bench.problems[:20]:
        print(f"{name}: CHECK FAILED: {problem}", file=sys.stderr)
    print(f"# {name} seed={seed} trace={int(trace)} launches={bench.launches}")
    for metric, (value, unit) in metrics.items():
        print(f"{name:<15} {metric:<36} {value:>14.6f} {unit}")
    return {
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()
                    if m not in PRINT_ONLY},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time per run; at least one pipeline pass runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "termbench" / "__init__.py").is_file():
        print(f"error: no termbench sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # A terminated run unwinds like an interrupted one: launch() kills the
    # running child's process group and the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_one(name, args.seed, args.seconds, bool(args.trace), scratch)
               for name in names}
    try:
        scratch.rmdir()
    except OSError:
        pass
    result = results[names[0]] if len(names) == 1 else results
    print(json.dumps(result))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
