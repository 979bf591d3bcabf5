"""One measured `etafloor` invocation in a fresh interpreter.

    python3 child.py '<json spec>'

The spec gives the CLI argv (the report path already in it), whether to trace,
and where to write the spans.  The child times `import etafloor.cli` (setup_s)
and one `etafloor.cli.main(argv)` call (wall_s), then prints one JSON line.
"""

import json
import resource
import sys
import time


def _peak_rss_mb(workers: int) -> float:
    """This process's peak RSS plus, when it ran a pool, `workers` times the
    largest child's: an upper bound on the run's concurrent peak."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if workers > 1 else 0
    return (own + workers * children) / 1024.0


def main() -> None:
    spec = json.loads(sys.argv[1])
    t0 = time.perf_counter()
    import etafloor.cli
    setup_s = time.perf_counter() - t0

    tracer = None
    if spec["trace"]:
        from spans import Tracer
        tracer = Tracer(spec["run_id"])
        tracer.install()

    t1 = time.perf_counter()
    rc = etafloor.cli.main(spec["argv"])
    wall_s = time.perf_counter() - t1

    out = {
        "rc": rc,
        "wall_s": wall_s,
        "setup_s": setup_s,
        "peak_rss_mb": _peak_rss_mb(spec["workers"]),
        "module": etafloor.cli.__file__,
    }
    if tracer is not None:
        out["layers"] = tracer.metrics()
        out["installed"] = tracer.installed
        tracer.write(spec["spans_path"])
    print(json.dumps(out))


if __name__ == "__main__":
    main()
