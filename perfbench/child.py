"""One benchmark run in a fresh interpreter, making the same public calls
as `stmkernels run`: `cli.read_config` -> `harness.run_experiment` ->
`harness.emit_report`.

    python3 perfbench/child.py run CONFIG OUT_DIR RESULT_JSON SPAWN_TIME [SPANS_JSON]
    python3 perfbench/child.py dense CONFIG_JSON DATA_DIR

`run` writes RESULT_JSON with `setup_s` (SPAWN_TIME, the parent's
`time.time()` just before it started this process, until
`run_experiment` is called), `wall_s` (from the `run_experiment` call
until `emit_report` returns), its peak resident memory, and the numpy
version and BLAS thread count as found. With
SPANS_JSON it installs the tracer first and writes its spans there.

`dense` is benchmark preparation: it writes one dense container per
generated sample plus a manifest under DATA_DIR.
"""

import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def blas_info():
    """OpenBLAS version and thread count of the library numpy loaded."""
    import ctypes
    import glob

    import numpy as np

    info = {"blas": "unknown", "blas_threads": None}
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    info["blas"] = f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                info["blas_threads"] = int(fn())
                return info
    return info


def run(config, out_dir, result_path, spawn_time, spans_path=None):
    from stmkernels import cli, harness

    tracer = None
    if spans_path:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(harness)
    cfg = cli.read_config(config)
    t_call = time.time()
    t0 = time.perf_counter()
    report = harness.run_experiment(cfg)
    harness.emit_report(report, out_dir)
    wall = time.perf_counter() - t0
    if tracer is not None:
        tracer.dump(spans_path)
    import numpy as np

    result = {"setup_s": t_call - spawn_time, "wall_s": wall,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
              "numpy": np.__version__}
    result.update(blas_info())
    with open(result_path, "w") as fh:
        json.dump(result, fh)


def dense(config_path, data_dir):
    from stmkernels import harness, synth

    with open(config_path) as fh:
        cfg = synth.SynthConfig(**json.load(fh))
    harness.save_dataset(synth.generate(cfg), data_dir)


def main(argv):
    if not os.path.isdir(os.path.join(SRC, "stmkernels")):
        sys.exit(f"stmkernels sources not found under {SRC}")
    sys.path[:0] = [SRC, HERE]
    if argv and argv[0] == "run" and len(argv) in (5, 6):
        run(argv[1], argv[2], argv[3], float(argv[4]), *argv[5:])
    elif argv and argv[0] == "dense" and len(argv) == 3:
        dense(argv[1], argv[2])
    else:
        sys.exit(__doc__)


if __name__ == "__main__":
    main(sys.argv[1:])
