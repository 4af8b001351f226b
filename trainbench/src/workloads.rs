//! The named workloads. Each is one closed-loop `Engine::run` of a fixed
//! number of epochs from one process; `--seed` drives every generated
//! input (graph, features, partition, shuffles, model init).

use massivegnn::{EngineConfig, Mode, PrefetchConfig, ScoreLayout};
use mgnn_graph::{DatasetKind, Scale};
use mgnn_model::ModelKind;

/// One benchmark workload.
pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists: the layer it stresses.
    pub why: &'static str,
    pub dataset: DatasetKind,
    pub scale: Scale,
    pub batch_size: usize,
    pub num_parts: usize,
    pub trainers_per_part: usize,
    /// Epochs of one timed `Engine::run`.
    pub epochs: usize,
    pub mode: Mode,
    pub train_math: bool,
    /// Threaded schedule (one OS thread per trainer plus a prepare thread).
    pub parallel: bool,
}

impl Workload {
    /// The engine configuration of this workload at `seed`.
    pub fn config(&self, seed: u64) -> EngineConfig {
        EngineConfig {
            dataset: self.dataset,
            scale: self.scale,
            num_parts: self.num_parts,
            trainers_per_part: self.trainers_per_part,
            batch_size: self.batch_size,
            epochs: self.epochs,
            fanouts: vec![10, 25],
            hidden_dim: 64,
            model: ModelKind::Sage,
            mode: self.mode,
            seed,
            train_math: self.train_math,
            parallel: self.parallel,
            ..EngineConfig::default()
        }
    }

    pub fn world(&self) -> usize {
        self.num_parts * self.trainers_per_part
    }
}

/// The paper's default scoreboard with eviction every Δ = 16 steps and the
/// memory-efficient `S_A` layout — the setting where eviction fires often.
fn evict_config() -> PrefetchConfig {
    PrefetchConfig {
        delta: 16,
        layout: ScoreLayout::MemEfficient,
        ..PrefetchConfig::default()
    }
}

/// All workloads, in the order `BENCHMARK.json` lists them.
pub fn all() -> Vec<Workload> {
    vec![
        Workload {
            name: "train-products",
            why: "threaded deployment shape with model math on: mgnn-model and mgnn-tensor \
                  take most of the CPU time, the prefetcher little",
            dataset: DatasetKind::Products,
            scale: Scale::Small,
            batch_size: 128,
            num_parts: 2,
            trainers_per_part: 1,
            epochs: 2,
            mode: Mode::Prefetch(PrefetchConfig::default()),
            train_math: true,
            parallel: true,
        },
        Workload {
            name: "evict-papers",
            why: "prefetcher-bound: scoreboard probe, decay, eviction every 16 steps and gather \
                  dominate while the model does nothing",
            dataset: DatasetKind::Papers,
            scale: Scale::Bench,
            batch_size: 64,
            num_parts: 2,
            trainers_per_part: 2,
            epochs: 1,
            mode: Mode::Prefetch(evict_config()),
            train_math: false,
            parallel: false,
        },
        Workload {
            name: "lookahead-papers",
            why: "same graph through LookaheadPolicy: planned bulk pulls and Belady eviction \
                  replace reactive scoring, so policy.rs is measured",
            dataset: DatasetKind::Papers,
            scale: Scale::Bench,
            batch_size: 64,
            num_parts: 2,
            trainers_per_part: 2,
            epochs: 1,
            mode: Mode::Prefetch(evict_config().with_lookahead_policy(2)),
            train_math: false,
            parallel: false,
        },
        Workload {
            name: "baseline-reddit",
            why: "DistDGL baseline bypasses the prefetcher: every sampled 602-wide halo row is \
                  pulled over RPC, so mgnn-net and the gather dominate",
            dataset: DatasetKind::Reddit,
            scale: Scale::Small,
            batch_size: 128,
            num_parts: 2,
            trainers_per_part: 2,
            epochs: 4,
            mode: Mode::Baseline,
            train_math: false,
            parallel: false,
        },
    ]
}

/// The workload called `name`.
pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}
