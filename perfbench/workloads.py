"""The benchmark's workloads: experiment configs, dataset seeds and the
layers each one must exercise.

A run of a workload covers `datasets(seconds)` independent datasets. The
k-th dataset of benchmark seed `s` uses experiment seed `s * 1000 + k`
for generation and fold splits alike, so one benchmark seed always gives
the same inputs, and pooling several datasets per run keeps the
seed-to-seed spread of timings and accuracy small.

Sizes are scaled from the desk cells (mode 50, 20-30 samples per class,
17 x 17 grid) down to a few seconds per dataset on a 2-core machine,
keeping each workload's dominant layer.
The subspace-kernel workloads use the leaf scenario: in the core
scenario that kernel sits at chance, so mean_acc would neither guard the
decomposition nor hold still from seed to seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

ALL_KERNELS = "gaussian, dusk, subspace, wsek"

# layers every traced run of any workload must show
COMMON_LAYERS = ("decomp.weighted_hosvd", "kernels.gram_matrix", "svm.train",
                 "svm.predict_from_gram", "harness.run_experiment",
                 "harness.emit_report")
SYNTH_LAYERS = ("synth.generate", "decomp.tucker_reconstruct")


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict             # config-file keys, without seed/output/data_dir
    dataset_seconds: float   # nominal seconds per dataset on the reference machine
    expected_layers: tuple
    toy: dict                # overrides for --smoke
    dense: dict | None = None  # SynthConfig for datasets written as containers
    toy_dense: dict = field(default_factory=dict)

    def datasets(self, seconds):
        """Datasets per run: as many as fit in `seconds`, at least three."""
        return max(3, round(seconds / self.dataset_seconds))

    def config_text(self, seed, output, data_dir=None, smoke=False):
        keys = dict(self.config, **(self.toy if smoke else {}))
        keys["seed"] = seed
        keys["measure_time"] = "false"
        keys["output"] = output
        if data_dir is not None:
            keys["data_dir"] = data_dir
        return "".join(f"{k} = {v}\n" for k, v in keys.items())

    def dense_config(self, seed, smoke=False):
        return dict(self.dense, **(self.toy_dense if smoke else {}), seed=seed)


def dataset_seed(seed, k):
    return seed * 1000 + k


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="gram_sweep",
            config={
                "scenario": "leaf", "noise_grid": "0.1", "mode_size": 50,
                "r_approx": 3, "samples_per_class": 16, "kernels": ALL_KERNELS,
                "rank_grid": 3, "c_grid_log2": "0", "g_grid_log2": "-4:12",
                "repeats": 1, "folds": 5, "threads": 1,
            },
            dataset_seconds=5.9,
            expected_layers=COMMON_LAYERS + SYNTH_LAYERS + ("decomp.tucker_to_cp",),
            toy={"mode_size": 8, "samples_per_class": 5, "g_grid_log2": "-1:1"},
        ),
        Workload(
            name="decomp_ranks",
            config={
                "scenario": "leaf", "noise_grid": "0.1", "mode_size": 100,
                "r_approx": 3, "samples_per_class": 5, "kernels": "subspace",
                "rank_grid": "2, 4", "c_grid_log2": "-8, -4, 0, 4, 8",
                "g_grid_log2": "-4, 0, 4, 8, 12", "repeats": 1, "folds": 5,
                "threads": 2,
            },
            dataset_seconds=6.8,
            expected_layers=COMMON_LAYERS + SYNTH_LAYERS,
            toy={"mode_size": 10, "c_grid_log2": "0", "g_grid_log2": "0"},
        ),
        Workload(
            name="dense_dir",
            config={
                "kernels": "subspace, wsek", "rank_grid": "2, 4",
                "c_grid_log2": "-8, -4, 0, 4, 8",
                "g_grid_log2": "-4, 0, 4, 8, 12", "repeats": 2, "folds": 5,
                "threads": 1,
            },
            dataset_seconds=2.9,
            expected_layers=COMMON_LAYERS + ("tensor.load_tensor",),
            toy={"c_grid_log2": "0", "g_grid_log2": "0"},
            dense={"scenario": "leaf", "mode_size": 64, "r_approx": 3,
                   "noise_variance": 0.1, "samples_per_class": 8},
            toy_dense={"mode_size": 10, "samples_per_class": 5},
        ),
    )
}
