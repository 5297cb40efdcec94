"""Command-line front end.

Three subcommands:

* ``synth``  - generate a synthetic dataset and export it as tensor
  containers plus a manifest.
* ``run``    - execute an experiment described by a key = value config
  file and write report.csv / summary.json.
* ``report`` - re-render the CSV from a previously written summary.json.

On failure a single machine-readable JSON error line goes to stderr and
the exit code is nonzero.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import harness, synth

_TRUE = {"true", "yes", "on", "1"}
_FALSE = {"false", "no", "off", "0"}


def _parse_bool(text):
    low = text.lower()
    if low in _TRUE:
        return True
    if low in _FALSE:
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_int_list(text):
    """Comma list of ints, or an inclusive a:b range."""
    text = text.strip()
    if ":" in text and "," not in text:
        lo, hi = text.split(":", 1)
        return tuple(range(int(lo), int(hi) + 1))
    return tuple(int(v) for v in text.split(",") if v.strip())


def _parse_float_list(text):
    return tuple(float(v) for v in text.split(",") if v.strip())


def _parse_str_list(text):
    return tuple(v.strip() for v in text.split(",") if v.strip())


def _parse_pow2_grid(text):
    """Inclusive a:b range of exponents, or a comma list of exponents,
    expanded as powers of two."""
    exps = _parse_int_list(text)
    try:
        powers = tuple(2.0 ** e for e in exps)
    except OverflowError:
        raise ValueError(f"2**{max(exps)} overflows a float") from None
    if 0.0 in powers:
        raise ValueError(f"2**{min(exps)} underflows to 0")
    return powers


# config key -> parser of its value; the field it sets has the same name,
# except for the aliases below
_PARSERS = {
    "scenario": str,
    "mode_size": int,
    "r_exact": int,
    "r_approx": int,
    "samples_per_class": int,
    "freq_uniform": _parse_bool,
    "data_dir": str,
    "noise_grid": _parse_float_list,
    "kernels": _parse_str_list,
    "rank_grid": _parse_int_list,
    "c_grid": _parse_float_list,
    "g_grid": _parse_float_list,
    "c_grid_log2": _parse_pow2_grid,
    "g_grid_log2": _parse_pow2_grid,
    "repeats": int,
    "folds": int,
    "seed": int,
    "p": float,
    "threads": int,
    "measure_time": _parse_bool,
    "smo_tol": float,
    "output": str,
}
_ALIASES = {"c_grid_log2": "c_grid", "g_grid_log2": "g_grid"}

# keys that configure the synthetic generator (SynthConfig)
_SYNTH_KEYS = ("scenario", "mode_size", "r_exact", "r_approx",
               "samples_per_class", "freq_uniform")


def read_config(path):
    """Parse a flat `key = value` config file into an ExperimentConfig.

    Every field defaults to the reference protocol values; unknown keys
    are rejected, and so is a field set twice (an alias and its target
    count as one field). Lines starting with # are comments.
    """
    entries = {}  # field -> (line, key, value)
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, value = line.split("=", 1)
            key = key.strip()
            name = _ALIASES.get(key, key)
            if name in entries:
                raise ValueError(f"{path}:{lineno}: {name} is already set "
                                 f"on line {entries[name][0]}")
            entries[name] = (lineno, key, value.strip())

    values = {}
    for name, (_, key, value) in entries.items():
        if key not in _PARSERS:
            raise ValueError(f"{path}: unknown config key {key!r}")
        try:
            values[name] = _PARSERS[key](value)
        except ValueError as exc:
            raise ValueError(f"config key {key}: {exc}") from None

    synth_keys = {k: values.pop(k) for k in _SYNTH_KEYS if k in values}
    if "data_dir" in values:
        if synth_keys:
            raise ValueError(f"{path}: data_dir excludes synthetic keys")
        return harness.ExperimentConfig(**values)
    if "scenario" not in synth_keys:
        raise ValueError(f"{path}: either scenario or data_dir is required")
    synth_keys["seed"] = values.get("seed", 0)
    return harness.ExperimentConfig(synth=synth.SynthConfig(**synth_keys),
                                    **values)


def _cmd_synth(args):
    cfg = synth.SynthConfig(**{f.name: getattr(args, f.name)
                               for f in dataclasses.fields(synth.SynthConfig)})
    manifest = harness.save_dataset(synth.generate(cfg), args.out)
    print(manifest)
    return 0


def _cmd_run(args):
    cfg = read_config(args.config)
    if args.threads is not None:
        cfg = dataclasses.replace(cfg, threads=args.threads)
    report = harness.run_experiment(cfg)
    out_dir = args.output or cfg.output or "."
    csv_path, json_path = harness.emit_report(report, out_dir)
    print(csv_path)
    print(json_path)
    return 0


def _cmd_report(args):
    report = harness.load_report(args.summary)
    harness.render_csv(report.rows, args.out)
    print(args.out)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="stmkernels",
        description="Tensor-kernel SVM benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate and export synthetic data")
    p_synth.add_argument("--out", required=True, help="output directory")
    p_synth.add_argument("--scenario", choices=synth.SCENARIOS, default="leaf")
    p_synth.add_argument("--mode-size", type=int, default=100)
    p_synth.add_argument("--r-exact", type=int, default=3)
    p_synth.add_argument("--r-approx", type=int, default=3)
    p_synth.add_argument("--noise-variance", type=float, default=0.01)
    p_synth.add_argument("--samples-per-class", type=int, default=50)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--freq-uniform", action="store_true")
    p_synth.set_defaults(func=_cmd_synth)

    p_run = sub.add_parser("run", help="run an experiment from a config file")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--threads", type=int, default=None,
                       help="accepted and ignored")
    p_run.add_argument("--output", default=None)
    p_run.set_defaults(func=_cmd_run)

    p_report = sub.add_parser("report", help="re-render a CSV from summary.json")
    p_report.add_argument("--summary", required=True)
    p_report.add_argument("--out", required=True)
    p_report.set_defaults(func=_cmd_report)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - single CLI error boundary
        print(json.dumps({"error": f"{type(exc).__name__}: {exc}"}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
