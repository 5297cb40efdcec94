"""Command-line front end.

Three subcommands:

* ``synth``  - generate a synthetic dataset and export it as tensor
  containers plus a manifest, with one flag per SynthConfig field.
* ``run``    - execute an experiment described by a key = value config
  file and write report.csv / summary.json. Each key is a field of
  ExperimentConfig or SynthConfig, parsed by the type its annotation
  states.
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


# parser of a config value, by the (type, grid) of the field it sets
_PARSE = {(int, False): int, (float, False): float, (bool, False): _parse_bool,
          (str, False): str, (int, True): _parse_int_list,
          (float, True): _parse_float_list, (str, True): _parse_str_list}


def _parsers(cls):
    """{field of `cls`: parser of its config value}; a field of a type no
    config value spells (the generator config itself) is no key."""
    return {name: _PARSE[kind, grid] for name, (kind, grid, _)
            in synth._settings(cls).items() if (kind, grid) in _PARSE}


# config key -> parser of its value; the field it sets has the same name,
# except for the aliases below. The generator's own keys leave out its seed,
# which is the run's, and its noise_variance, which noise_grid sets.
_RUN_PARSERS = _parsers(harness.ExperimentConfig)
_SYNTH_PARSERS = {k: v for k, v in _parsers(synth.SynthConfig).items()
                  if k not in _RUN_PARSERS and k != "noise_variance"}
_ALIASES = {"c_grid_log2": "c_grid", "g_grid_log2": "g_grid"}
_PARSERS = {**_SYNTH_PARSERS, **_RUN_PARSERS,
            **dict.fromkeys(_ALIASES, _parse_pow2_grid)}


def read_config(path):
    """Parse a flat `key = value` config file into an ExperimentConfig.

    Every field defaults to the reference protocol values; unknown keys
    are rejected, and so is a field set twice (an alias and its target
    count as one field). A # starts a comment anywhere on a line, so a
    value cannot contain #.
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

    synth_keys = {k: values.pop(k) for k in _SYNTH_PARSERS if k in values}
    if "data_dir" in values:
        if synth_keys:
            raise ValueError(f"{path}: data_dir excludes synthetic keys")
        # a data directory has one dataset, of no stated noise level
        if "noise_grid" in values:
            raise ValueError(f"{path}: data_dir excludes noise_grid")
        return harness.ExperimentConfig(**values)
    if "scenario" not in synth_keys:
        raise ValueError(f"{path}: either scenario or data_dir is required")
    synth_keys["seed"] = values.get("seed", 0)
    return harness.ExperimentConfig(synth=synth.SynthConfig(**synth_keys),
                                    **values)


def _cmd_synth(args):
    cfg = synth.SynthConfig(**{k: v for k, v in vars(args).items()
                               if k in synth._settings(synth.SynthConfig)})
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

    # a flag per other SynthConfig field; one left out takes its default
    p_synth = sub.add_parser("synth", help="generate and export synthetic data",
                             argument_default=argparse.SUPPRESS)
    p_synth.add_argument("--out", required=True, help="output directory")
    p_synth.add_argument("--scenario", choices=synth.SCENARIOS, default="leaf")
    for name, (kind, _, _) in synth._settings(synth.SynthConfig).items():
        if name != "scenario":
            p_synth.add_argument("--" + name.replace("_", "-"), **(
                {"action": "store_true"} if kind is bool else {"type": kind}))
    p_synth.set_defaults(func=_cmd_synth)

    p_run = sub.add_parser("run", help="run an experiment from a config file")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--threads", type=int, default=None,
                       help="accepted and checked (at least 1) but changes "
                            "no byte: every run computes in the calling "
                            "thread")
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
