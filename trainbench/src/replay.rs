//! The traced pass: the benchmark's own replay of a workload's set-up and
//! sequential step loop through public functions only, with one ledger
//! span per call into a layer.
//!
//! Per trainer-step the order is the engine's: `DataLoader::epoch` →
//! `Prefetcher::prepare_reuse` (or `baseline_prepare_reuse`) →
//! `forward_backward` (`Model::macs` with math off) → gradient write and
//! ring reduce → `Optimizer::step`. Sampling and the RPC pull run inside
//! `prepare` and cannot be wrapped from outside, so each prepare is
//! followed by re-issued `sample_into` on the same (seeds, epoch, step)
//! and `pull_grouped_checked` calls sized to the rows the step fetched
//! (its `CommMetrics` delta). Those spans stand in for the inner layers;
//! the prefetcher's self time is the remainder. The re-issued work is
//! duplicated, so it is excluded from the pass's wall time.

use crate::ledger::Ledger;
use crate::workloads::Workload;
use massivegnn::init::initialize_prefetcher;
use massivegnn::prefetcher::{baseline_prepare_reuse, PrepareScratch};
use massivegnn::{LookaheadPolicy, Mode, PrefetchPolicyKind, Prefetcher, PreparedBatch};
use mgnn_graph::Dataset;
use mgnn_model::train::forward_backward;
use mgnn_model::{Model, Optimizer, SageModel, Sgd};
use mgnn_net::metrics::MetricsSnapshot;
use mgnn_net::{CommMetrics, CostModel, RetryPolicy, SimCluster};
use mgnn_partition::{
    build_local_partitions, edge_cut, multilevel_partition, split_train_nodes, LocalPartition,
};
use mgnn_sampling::{DataLoader, NeighborSampler, SampledMinibatch, SamplerScratch};
use std::sync::Arc;
use std::time::Instant;

/// Outputs of the traced pass.
#[derive(Default)]
pub struct Replay {
    pub ledger: Ledger,
    pub halo_nodes: u64,
    pub edge_cut: u64,
    /// Wall of trainer construction plus the step loop, minus the
    /// re-issued inner calls.
    pub wall_s: f64,
    /// Trainer-steps replayed (`steps × world`).
    pub trainer_steps: u64,
    /// Training seeds consumed.
    pub seeds: u64,
    /// Sampled edges over all trainer-steps.
    pub edges: u64,
    /// Unique halo rows the re-issued samples touched.
    pub halo_sampled: u64,
    /// Buffer hits + misses the prepares reported.
    pub hits: u64,
    pub misses: u64,
    pub evicted: u64,
    pub replaced: u64,
    /// Bulk RPC calls, rows and bytes the prepares issued (set-up's
    /// initial buffer fill excluded).
    pub step_calls: u64,
    pub step_rows: u64,
    pub step_bytes: u64,
    /// Estimated multiply-accumulates over all trainer-steps.
    pub macs: f64,
    pub buffer_bytes: u64,
    pub peak_transient_bytes: u64,
    /// Replayed sample differed from the one `prepare` trained on.
    pub sample_mismatches: u64,
    pub metrics: MetricsSnapshot,
    pub final_params: Vec<f32>,
    pub epoch_loss: Vec<f32>,
}

struct Trainer {
    part: Arc<LocalPartition>,
    loader: DataLoader,
    sampler: NeighborSampler,
    metrics: CommMetrics,
    prefetcher: Option<Prefetcher>,
    model: Option<Box<dyn Model>>,
    opt: Sgd,
    scratch: PrepareScratch,
    carcass: Option<PreparedBatch>,
    pending: Option<PreparedBatch>,
    params: Vec<f32>,
}

/// The pass in progress: its outputs, the cluster it pulls from, and
/// scratch for the re-issued inner calls.
struct Pass<'a> {
    r: Replay,
    cluster: &'a SimCluster,
    cost: &'a CostModel,
    mb: SampledMinibatch,
    scratch: SamplerScratch,
    ids: Vec<u32>,
    /// Seconds spent in re-issued calls (excluded from the pass's wall).
    side_s: f64,
}

/// Replay workload `w` at `seed` with every layer call on the ledger.
pub fn run(w: &Workload, seed: u64) -> Replay {
    let cfg = w.config(seed);
    let mut ledger = Ledger::new();

    // Set-up: the calls `Engine::build` makes, in its order.
    let (ds, _) = ledger.time("graph.generate", None, None, || {
        Dataset::generate(cfg.dataset, cfg.scale, cfg.seed)
    });
    let (partitioning, _) = ledger.time("partition.multilevel", None, None, || {
        multilevel_partition(&ds.graph, cfg.num_parts, cfg.seed)
    });
    let (parts, _) = ledger.time("partition.halo_build", None, None, || {
        build_local_partitions(&ds.graph, &partitioning, &ds.train_nodes)
            .into_iter()
            .map(Arc::new)
            .collect::<Vec<_>>()
    });
    let (cluster, _) = ledger.time("net.cluster_spawn", None, None, || {
        SimCluster::with_faults(
            &ds.features,
            &partitioning.assignment,
            cfg.num_parts,
            None,
            RetryPolicy::default(),
        )
    });
    let mut shards: Vec<(usize, Vec<u32>)> = Vec::new();
    for (pid, part) in parts.iter().enumerate() {
        let split = split_train_nodes(
            &part.train_nodes,
            cfg.trainers_per_part,
            cfg.seed ^ (pid as u64).wrapping_mul(0x9e37),
        );
        for shard in split {
            let local = shard
                .iter()
                .map(|&g| part.local_id(g).expect("train node in its partition"))
                .collect();
            shards.push((pid, local));
        }
    }
    let world = shards.len();
    let spe = shards
        .iter()
        .map(|(_, s)| s.len().div_ceil(cfg.batch_size))
        .min()
        .unwrap_or(0);
    let total_steps = cfg.epochs * spe;
    let dims = [ds.features.dim(), cfg.hidden_dim, ds.features.num_classes()];

    let mut pass = Pass {
        r: Replay {
            ledger,
            halo_nodes: parts.iter().map(|p| p.num_halo() as u64).sum(),
            edge_cut: edge_cut(&ds.graph, &partitioning) as u64,
            trainer_steps: (total_steps * world) as u64,
            ..Replay::default()
        },
        cluster: &cluster,
        cost: &cfg.cost,
        mb: SampledMinibatch::default(),
        scratch: SamplerScratch::default(),
        ids: Vec::new(),
        side_s: 0.0,
    };

    // Everything `Engine::run` does from here on is timed.
    let t_run = Instant::now();

    // Trainer construction, as the engine builds its per-trainer state.
    let mut trainers: Vec<Trainer> = Vec::with_capacity(world);
    for (t, (pid, seeds)) in shards.into_iter().enumerate() {
        let ledger = &mut pass.r.ledger;
        let root = ledger.open("engine.trainer_init", None, Some(t));
        let part = Arc::clone(&parts[pid]);
        let mut metrics = CommMetrics::new();
        metrics.set_trace_rank(t as u64);
        let loader = DataLoader::new(
            seeds,
            cfg.batch_size,
            cfg.seed ^ (t as u64).wrapping_mul(0x517c_c1b7_2722_0a95),
        );
        let sampler = NeighborSampler::with_strategy(
            cfg.fanouts.clone(),
            cfg.sampling,
            cfg.seed ^ (t as u64).wrapping_mul(0xda94_2042_e4dd_58b5),
        );
        let prefetcher = match cfg.mode {
            Mode::Baseline => None,
            Mode::Prefetch(pcfg) => {
                let ((mut pf, _), _) = ledger.time("prefetcher.init", Some(root), Some(t), || {
                    initialize_prefetcher(
                        &part,
                        pcfg,
                        ds.num_nodes(),
                        &cluster,
                        &cfg.cost,
                        &metrics,
                    )
                });
                if let PrefetchPolicyKind::Lookahead { depth } = pcfg.policy {
                    pf.set_policy(Box::new(LookaheadPolicy::new(
                        depth,
                        loader.clone(),
                        sampler.clone(),
                        spe,
                        cfg.epochs,
                        part.num_halo(),
                    )));
                }
                Some(pf)
            }
        };
        let model = cfg.train_math.then(|| {
            ledger
                .time("model.init", Some(root), Some(t), || {
                    Box::new(SageModel::new(&dims, cfg.seed ^ 0x6d30_6465)) as Box<dyn Model>
                })
                .0
        });
        ledger.close(root);
        trainers.push(Trainer {
            part,
            loader,
            sampler,
            metrics,
            prefetcher,
            model,
            opt: Sgd::new(0.05),
            scratch: PrepareScratch::default(),
            carcass: None,
            pending: None,
            params: Vec::new(),
        });
    }
    // A shape-only model for MAC estimation when math is off, as the
    // engine keeps one.
    let shape_model = SageModel::new(&dims, cfg.seed ^ 0x6d30_6465);
    let num_params = shape_model.num_params();
    let mut slots = vec![vec![0.0f32; num_params]; world];
    let mut avg = vec![0.0f32; num_params];
    let prefetch = matches!(cfg.mode, Mode::Prefetch(_));

    // Prefetch mode prepares every trainer's first minibatch up front.
    if prefetch && total_steps > 0 {
        let step_span = pass.r.ledger.open("engine.step", None, None);
        for (t, ts) in trainers.iter_mut().enumerate() {
            ts.pending = Some(pass.prepare(ts, t, step_span, (0, 0, 0), None));
        }
        pass.r.ledger.close(step_span);
    }

    let mut global = 0u64;
    for epoch in 0..cfg.epochs as u64 {
        let (mut loss_sum, mut stat_count) = (0.0f64, 0usize);
        for step in 0..spe as u64 {
            let step_span = pass.r.ledger.open("engine.step", None, None);
            for (t, ts) in trainers.iter_mut().enumerate() {
                let batch = if prefetch {
                    ts.pending.take().expect("prepared batch queued")
                } else {
                    let carcass = ts.carcass.take();
                    pass.prepare(ts, t, step_span, (epoch, step, global), carcass)
                };
                let blocks = &batch.minibatch.blocks;
                let ledger = &mut pass.r.ledger;
                let macs = match ts.model.as_mut() {
                    Some(m) => {
                        let (st, _) =
                            ledger.time("model.forward_backward", Some(step_span), Some(t), || {
                                forward_backward(m.as_mut(), blocks, &batch.input, &batch.labels)
                            });
                        loss_sum += st.loss as f64;
                        stat_count += 1;
                        st.macs
                    }
                    None => {
                        ledger
                            .time("model.macs", Some(step_span), Some(t), || {
                                shape_model.macs(blocks)
                            })
                            .0
                    }
                };
                pass.r.macs += macs;
                let next = global + 1;
                if !prefetch {
                    ts.carcass = Some(batch);
                } else if (next as usize) < total_steps {
                    let at = (next / spe as u64, next % spe as u64, next);
                    ts.pending = Some(pass.prepare(ts, t, step_span, at, Some(batch)));
                }
            }
            if cfg.train_math {
                let ledger = &mut pass.r.ledger;
                ledger.time("model.allreduce", Some(step_span), None, || {
                    for (slot, ts) in slots.iter_mut().zip(&trainers) {
                        ts.model.as_ref().expect("math on").write_grads(slot);
                    }
                    let srcs: Vec<&[f32]> = slots.iter().map(Vec::as_slice).collect();
                    for c in 0..world {
                        mgnn_model::reduce_ring_chunk_average(&srcs, c, &mut avg);
                    }
                });
                for (t, ts) in trainers.iter_mut().enumerate() {
                    ledger.time("model.optimizer", Some(step_span), Some(t), || {
                        let m = ts.model.as_mut().expect("math on");
                        ts.params.clear();
                        ts.params.resize(m.num_params(), 0.0);
                        m.write_params(&mut ts.params);
                        ts.opt.step(&mut ts.params, &avg);
                        m.read_params(&ts.params);
                    });
                }
            }
            pass.r.ledger.close(step_span);
            global += 1;
        }
        if cfg.train_math && stat_count > 0 {
            pass.r
                .epoch_loss
                .push((loss_sum / stat_count as f64) as f32);
        }
    }

    let mut r = pass.r;
    r.wall_s = t_run.elapsed().as_secs_f64() - pass.side_s;
    r.metrics = trainers.iter().fold(MetricsSnapshot::default(), |a, ts| {
        a.merge(&ts.metrics.snapshot())
    });
    for pf in trainers.iter().filter_map(|ts| ts.prefetcher.as_ref()) {
        r.buffer_bytes += pf.heap_bytes() as u64;
        r.peak_transient_bytes += pf.peak_transient_bytes() as u64;
    }
    if let Some(m) = trainers.first().and_then(|ts| ts.model.as_ref()) {
        r.final_params = vec![0.0; m.num_params()];
        m.write_params(&mut r.final_params);
    }
    r
}

impl Pass<'_> {
    /// One preparation of `at = (epoch, step in epoch, global step)`: the
    /// epoch plan, the layer's prepare call (recycling `carcass`), and the
    /// re-issued sample and pulls beside it.
    fn prepare(
        &mut self,
        ts: &mut Trainer,
        t: usize,
        parent: usize,
        (epoch, step, global): (u64, u64, u64),
        carcass: Option<PreparedBatch>,
    ) -> PreparedBatch {
        let (cluster, cost) = (self.cluster, self.cost);
        let r = &mut self.r;
        let (plan, _) = r
            .ledger
            .time("sampling.epoch_plan", Some(parent), Some(t), || {
                ts.loader.epoch(epoch)
            });
        let seeds = Arc::clone(&plan[step as usize]);
        let before = ts.metrics.snapshot();
        let (batch, prep) = r
            .ledger
            .time("prefetcher.prepare", Some(parent), Some(t), || {
                match ts.prefetcher.as_mut() {
                    Some(pf) => pf.prepare_reuse(
                        carcass,
                        &ts.part,
                        &ts.sampler,
                        &seeds,
                        epoch,
                        global,
                        cluster,
                        cost,
                        &ts.metrics,
                    ),
                    None => baseline_prepare_reuse(
                        carcass,
                        &mut ts.scratch,
                        &ts.part,
                        &ts.sampler,
                        &seeds,
                        epoch,
                        global,
                        cluster,
                        cost,
                        &ts.metrics,
                    ),
                }
            });
        let after = ts.metrics.snapshot();

        // Re-issue the inner sample on the same inputs.
        let t0 = Instant::now();
        let (mb, scratch) = (&mut self.mb, &mut self.scratch);
        r.ledger.time("sampling.sample", Some(prep), Some(t), || {
            ts.sampler
                .sample_into(&ts.part, &seeds, epoch, global, mb, scratch)
        });
        let num_local = ts.part.num_local();
        self.ids.clear();
        self.ids.extend(
            mb.input_nodes
                .iter()
                .filter(|&&l| l as usize >= num_local)
                .map(|&l| ts.part.halo_nodes[l as usize - num_local]),
        );
        r.seeds += seeds.len() as u64;
        r.edges += mb.total_edges() as u64;
        r.halo_sampled += self.ids.len() as u64;
        r.hits += batch.counts.hits as u64;
        r.misses += batch.counts.misses as u64;
        r.evicted += batch.counts.evicted as u64;
        r.replaced += batch.counts.replaced as u64;
        if mb.input_nodes != batch.minibatch.input_nodes {
            r.sample_mismatches += 1;
        }

        // Re-issue the pulls: demand rows first (the sampled halo rows the
        // step fetched), then the planner's rows, one call each.
        r.step_calls += after.rpc_calls - before.rpc_calls;
        r.step_rows += after.remote_nodes_fetched - before.remote_nodes_fetched;
        r.step_bytes += after.remote_bytes - before.remote_bytes;
        let planned = after.planned_rows - before.planned_rows;
        let demand = after.remote_nodes_fetched - before.remote_nodes_fetched - planned;
        for rows in [demand, planned] {
            if rows > 0 {
                let ids = pull_ids(&self.ids, &ts.part.halo_nodes, rows as usize);
                r.ledger.time("net.pull", Some(prep), Some(t), || {
                    cluster.pull_grouped_checked(&ids)
                });
            }
        }
        self.side_s += t0.elapsed().as_secs_f64();
        batch
    }
}

/// `rows` remote ids for a re-issued pull: the step's sampled halo rows,
/// topped up from the partition's halo set when the step fetched more.
fn pull_ids(sampled: &[u32], halo: &[u32], rows: usize) -> Vec<u32> {
    sampled
        .iter()
        .chain(halo.iter().cycle())
        .take(rows)
        .copied()
        .collect()
}
