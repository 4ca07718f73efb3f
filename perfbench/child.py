"""One measurement in a fresh process; the result goes to a JSON file.

    python3 perfbench/child.py setup RESULT CONFIG [H]
        time importing mfgnet, parsing CONFIG (with the spatial step
        overridden to H) and discretizing it
    python3 perfbench/child.py call RESULT TRACE -- MFGNET_ARGS...
        time one ``mfgnet.cli.main(MFGNET_ARGS)`` call; with TRACE = 1,
        record spans around the calls into each layer

The program is imported from ``src`` next to this directory.
"""

import time

_T0 = time.perf_counter()  # before anything of the program is imported

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def _max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def setup(config: str, h: str | None) -> dict:
    from dataclasses import replace

    import mfgnet.cli
    import mfgnet.mfg

    parsed = mfgnet.cli.parse_config(Path(config).read_text())
    spec = parsed.spec if h is None else replace(parsed.spec, h_target=float(h))
    mfgnet.mfg.discretize(spec)
    return {"setup_s": time.perf_counter() - _T0}


def call(trace: bool, argv: list[str]) -> dict:
    import mfgnet.cli

    tracer = None
    if trace:
        sys.path.insert(0, str(HERE))
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    if tracer is None:
        rc = mfgnet.cli.main(argv)
    else:
        rc = tracer.span("cli.main", mfgnet.cli.main, argv)
    wall = time.perf_counter() - start
    out = {"rc": rc, "wall_s": wall, "peak_rss_mb": _max_rss_mb()}
    if tracer is not None:
        out["spans"], out["trace_overhead_s"] = tracer.spans, tracer.overhead_s
    return out


def main(args: list[str]) -> None:
    mode, result = args[0], args[1]
    if mode == "setup":
        out = setup(args[2], args[3] if len(args) > 3 else None)
    elif mode == "call" and args[3] == "--":
        out = call(args[2] == "1", args[4:])
    else:
        raise SystemExit(f"usage: see {__file__}")
    Path(result).write_text(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
