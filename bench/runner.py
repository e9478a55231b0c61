"""One pipeline process, launched by run.py: `python runner.py <spec.json>`.

It imports termbench and loads the config first, and stamps the monotonic
clock when that set-up ends, so the launcher can time set-up from process
start. With `"setup_only"` it stops there. Otherwise it installs the fake
endpoints and the tracer when the spec asks for them (after the stamp, so
neither counts as set-up), runs the nine stages in order, and writes its
measurements to `spec["out"]` as JSON.

For a live run with `"replay"` set, it then replays the same corpus and
seed into a second run directory; the launcher compares the two runs'
report tables.
"""

import json
import sys
import time


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    t_import = time.monotonic()
    import termbench.cli  # noqa: F401  the CLI's import: the whole pipeline
    from termbench.config import load_config
    t_config = time.monotonic()
    cfg = load_config(spec["config"], run_dir=spec["run_dir"])
    cfg.sampling_seed = spec["seed"]
    t_setup = time.monotonic()
    out = {"t_setup": t_setup, "import_s": t_config - t_import, "config_s": t_setup - t_config}
    if spec.get("setup_only"):
        return _write(spec, out)

    import resource
    from pathlib import Path

    from termbench.pipeline import STAGES, run_stage

    fake = tracer = None
    if spec.get("fake"):
        from fakes import FakeEndpoints
        fake = FakeEndpoints(Path(spec["fake"]["corpus"]), spec["fake"]["latency_s"])
        fake.install()
    if spec.get("trace"):
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()

    start = time.perf_counter()
    for stage in STAGES:
        if tracer is not None:
            tracer.run_stage(cfg, stage)
        else:
            run_stage(cfg, stage)
    out["total_s"] = time.perf_counter() - start
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["remote"] = fake.report() if fake is not None else None
    if tracer is not None:
        out["per_layer"] = tracer.per_layer(out, out["remote"])
        tracer.write_spans(Path(spec["spans"]))
    if spec.get("replay"):
        replay_cfg = load_config(spec["replay"]["config"], run_dir=spec["replay"]["run_dir"])
        replay_cfg.sampling_seed = spec["seed"]
        for stage in STAGES:
            run_stage(replay_cfg, stage)
    return _write(spec, out)


def _write(spec: dict, out: dict) -> int:
    with open(spec["out"], "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
