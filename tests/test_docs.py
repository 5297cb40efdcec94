"""README examples: the config example and the command lines parse, and
the quick start runs."""

import contextlib
import io
import os
import re
import shlex

from stmkernels.cli import build_parser, read_config
from stmkernels.harness import DEFAULT_C_GRID, DEFAULT_G_GRID

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def _blocks(language, after=""):
    """Fenced `language` code blocks of README.md following the line
    `after` (the whole file when empty)."""
    with open(README) as fh:
        text = fh.read()
    text = text[text.index(after):]
    return re.findall(rf"^```{language}\n(.*?)^```", text, re.M | re.S)


def test_config_example_parses(tmp_path):
    (example,) = _blocks("ini")
    path = tmp_path / "experiment.cfg"
    path.write_text(example)
    cfg = read_config(path)
    assert cfg.synth.scenario == "leaf"
    assert (cfg.synth.mode_size, cfg.synth.r_approx,
            cfg.synth.samples_per_class) == (50, 3, 20)
    assert cfg.noise_grid == (0.01, 0.1)
    assert cfg.kernels == ("gaussian", "dusk", "subspace", "wsek")
    assert cfg.rank_grid == (1, 2, 3, 4, 5)
    assert cfg.c_grid == DEFAULT_C_GRID
    assert cfg.g_grid == DEFAULT_G_GRID
    assert (cfg.repeats, cfg.folds, cfg.seed) == (5, 5, 0)
    assert cfg.measure_time is False
    assert cfg.output == "out/"


def test_library_quick_start_runs():
    example = _blocks("python", after="## Library quick start")[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(example, README, "exec"), {})
    assert out.getvalue().strip() in ("-1", "1")


def test_command_line_examples_parse():
    # the synth flags come from SynthConfig's fields, so a renamed field
    # fails here until README follows
    block = _blocks("sh", after="## Command line")[0]
    lines = block.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line) for line in lines
                if line.startswith("stmkernels ")]
    assert [argv[1] for argv in commands] == ["synth", "run", "report"]
    parser = build_parser()
    for argv in commands:
        assert parser.parse_args(argv[1:]).command == argv[1]
