//! Training benchmark: runs one named workload through the real engine
//! (`Engine::build` + `Engine::run`), checks its outputs, and prints its
//! metrics by name with units. `--trace 0` reports the end-to-end
//! metrics with tracing off; `--trace 1` adds the outside-in traced pass
//! and reports the per-layer ledger. The last stdout line is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.
//!
//! Throughput and set-up are measured in CPU seconds of this process (all
//! threads), not wall seconds: on a small shared virtual machine the wall
//! clock also counts the time the host gives this machine's CPUs to other
//! tenants, which moved run times by up to 3× within minutes.
//!
//! ```text
//! cargo run --release --manifest-path trainbench/Cargo.toml -- \
//!     --workload evict-papers --seed 42 --seconds 10 --trace 0
//! ```
//!
//! See `trainbench/README.md` for the workloads and every metric.

mod ledger;
mod replay;
mod workloads;

use ledger::{median, quantile};
use massivegnn::{Engine, EngineConfig, Mode, RunReport};
use serde::{Serialize, Value};
use std::path::PathBuf;
use std::process::exit;
use std::time::{Duration, Instant};
use workloads::Workload;

/// Seed held out from tuning: a later claim must also hold on it.
const HELDOUT_SEED: u64 = 7919;
/// Engine builds per run; `setup_s` is their median.
const SETUP_BUILDS: usize = 3;
/// Fewest timed `Engine::run`s per run, however short `--seconds` is.
const MIN_REPS: usize = 3;
/// Kernel-pool width of every workload: one busy thread per schedule
/// thread keeps the run within the host's two cores.
const POOL_THREADS: usize = 1;

const USAGE: &str =
    "usage: trainbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out DIR]\n\
                     workloads: train-products evict-papers lookahead-papers baseline-reddit";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: 15.0,
        trace: false,
        out: PathBuf::from("trainbench/out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--out" => args.out = PathBuf::from(value()?),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// One reported number.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What a run measured: the end-to-end table (plus the two figures the
/// correctness gate pins, which are not bounded metrics), and the
/// per-layer table of a traced run.
struct Outcome {
    end_to_end: Vec<Metric>,
    final_loss: Option<f32>,
    failed_row_frac: f64,
    per_layer: Vec<Metric>,
    attempted: u64,
    /// Untraced `Engine::run` times and the trainer-steps of each.
    runs: Vec<Took>,
    trainer_steps: u64,
    /// Share of the host's CPU time stolen while they ran.
    host_steal: Option<f64>,
    /// The traced pass's spans.
    ledger: Option<ledger::Ledger>,
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("error: {e}\n{USAGE}");
        exit(2)
    });
    let Some(w) = workloads::by_name(&args.workload) else {
        eprintln!("error: unknown workload {}\n{USAGE}", args.workload);
        exit(2)
    };
    // Before anything touches the kernel pool, which reads it once.
    std::env::set_var("MGNN_THREADS", POOL_THREADS.to_string());
    let prov = provenance(&w, &args);
    println!(
        "trainbench {} seed={} trace={}",
        w.name,
        args.seed,
        u8::from(args.trace)
    );
    println!("  {}", w.why);
    println!("  provenance {}", serde_json::to_string(&prov));

    let run = if args.trace {
        per_layer(&w, &args)
    } else {
        end_to_end(&w, &args)
    };
    let out = match run {
        Ok(out) => out,
        Err(failures) => {
            for f in &failures {
                eprintln!("correctness gate: {f}");
            }
            exit(1)
        }
    };

    let (walls, cpus) = split(&out.runs);
    println!(
        "  {} timed Engine::run of {} trainer-steps ({} epochs, world {}): median {:.4} CPU s, {:.4} wall s",
        out.runs.len(),
        out.trainer_steps,
        w.epochs,
        w.world(),
        median(&cpus),
        median(&walls),
    );
    println!("    CPU s  {cpus:.3?}\n    wall s {walls:.3?}");
    if let Some(steal) = out.host_steal {
        println!(
            "  host CPU time stolen while timing: {:.1} %",
            steal * 100.0
        );
    }
    print_table("end to end (tracing off)", &out.end_to_end);
    let final_loss = out
        .final_loss
        .map_or("n/a (math off)".into(), |l| l.to_string());
    println!("  {:<32} {final_loss:>16}", "final_loss");
    println!(
        "  {:<32} {:>16} frac",
        "failed_row_frac", out.failed_row_frac
    );
    if args.trace {
        print_table("per layer (traced pass)", &out.per_layer);
    }
    let reported = if args.trace {
        &out.per_layer
    } else {
        &out.end_to_end
    };
    write_outputs(&w, &args, &prov, &out);
    let line = Value::obj([
        ("correct", true.to_value()),
        ("attempted", out.attempted.to_value()),
        ("failed", 0u64.to_value()),
        ("metrics", metrics_json(reported)),
    ]);
    println!("{}", serde_json::to_string(&line));
}

/// `--trace 0`: build and run once (the warm-up whose report the gate
/// checks and whose peak resident set is reported), set up again until
/// `SETUP_BUILDS` builds are timed, then time whole `Engine::run`s until
/// `--seconds` have passed.
fn end_to_end(w: &Workload, args: &Args) -> Result<Outcome, Vec<String>> {
    let cfg = w.config(args.seed);
    let mut fails = Vec::new();
    let (engine, s) = timed(|| Engine::build(cfg.clone()));
    let mut setup = vec![s];
    let warmup = engine.run();
    let peak_rss = peak_rss_mb();
    check_report(w, &cfg, &warmup, &mut fails);
    let (steps, seeds) = work_per_run(&engine, &cfg);
    drop(engine);
    // The threaded workload must match the sequential schedule of the
    // same config; that build is one more set-up sample.
    if w.parallel {
        let (engine, s) = timed(|| {
            Engine::build(EngineConfig {
                parallel: false,
                ..cfg.clone()
            })
        });
        setup.push(s);
        same_report(
            "threaded run vs the sequential schedule",
            &warmup,
            &engine.run(),
            &mut fails,
        );
    }
    let mut engine = None;
    while setup.len() < SETUP_BUILDS {
        drop(engine.take());
        let (e, s) = timed(|| Engine::build(cfg.clone()));
        setup.push(s);
        engine = Some(e);
    }
    let engine = engine.expect("a timed build");

    let (setup_walls, setup_cpus) = split(&setup);
    println!("  {SETUP_BUILDS} Engine::build: CPU s {setup_cpus:.3?}, wall s {setup_walls:.3?}");
    let (mut runs, host_steal) = timed_runs(&[&engine], args.seconds, &warmup, &mut fails);
    let runs = runs.swap_remove(0);
    if !fails.is_empty() {
        return Err(fails);
    }
    Ok(Outcome {
        end_to_end: end_to_end_metrics(steps, seeds, &runs, &setup, &warmup, peak_rss),
        final_loss: warmup.epoch_loss.last().copied(),
        failed_row_frac: failed_row_frac(&cfg, &warmup),
        per_layer: Vec::new(),
        attempted: runs.len() as u64 + 1,
        runs,
        trainer_steps: steps,
        host_steal,
        ledger: None,
    })
}

fn end_to_end_metrics(
    steps: u64,
    seeds: u64,
    runs: &[Took],
    setup: &[Took],
    report: &RunReport,
    peak_rss: f64,
) -> Vec<Metric> {
    let rate = |work: u64| median(&runs.iter().map(|r| work as f64 / r.cpu).collect::<Vec<_>>());
    vec![
        m("steps_per_cpu_s", rate(steps), "1/s"),
        m("seeds_per_cpu_s", rate(seeds), "1/s"),
        m("setup_s", median(&split(setup).1), "s"),
        m("modeled_makespan_s", report.makespan_s, "s"),
        m("peak_rss_mb", peak_rss, "MB"),
    ]
}

/// `--trace 1`: alternate untraced and traced `Engine::run`s for
/// `--seconds`, then replay the workload through the ledger.
fn per_layer(w: &Workload, args: &Args) -> Result<Outcome, Vec<String>> {
    let cfg = w.config(args.seed);
    let mut fails = Vec::new();
    let (off, s_off) = timed(|| Engine::build(cfg.clone()));
    let (on, s_on) = timed(|| {
        Engine::build(EngineConfig {
            trace: true,
            ..cfg.clone()
        })
    });
    let warmup = off.run();
    check_report(w, &cfg, &warmup, &mut fails);
    let (runs, host_steal) = timed_runs(&[&off, &on], args.seconds, &warmup, &mut fails);
    let peak_rss = peak_rss_mb();
    let (steps, seeds) = work_per_run(&off, &cfg);
    drop((off, on));

    let r = replay::run(w, args.seed);
    let agg = warmup.aggregate_metrics();
    if r.final_params != warmup.final_params || r.epoch_loss != warmup.epoch_loss {
        fails.push("traced pass trained different parameters than Engine::run".into());
    }
    if r.metrics != agg {
        fails.push(format!(
            "traced pass counters differ from Engine::run: {:?} vs {agg:?}",
            r.metrics
        ));
    }
    if r.sample_mismatches > 0 {
        fails.push(format!(
            "{} re-issued samples differ from prepare's",
            r.sample_mismatches
        ));
    }
    if r.hits + r.misses != r.halo_sampled {
        fails.push(format!(
            "hits + misses = {} but the pass sampled {} halo rows",
            r.hits + r.misses,
            r.halo_sampled
        ));
    }
    if r.seeds != seeds || r.trainer_steps != steps {
        fails.push(format!(
            "traced pass consumed {} seeds in {} trainer-steps, expected {seeds} in {steps}",
            r.seeds, r.trainer_steps
        ));
    }
    if !fails.is_empty() {
        return Err(fails);
    }

    let l = &r.ledger;
    let n = r.trainer_steps as f64;
    let ms = |x: f64| x * 1e3;
    let q = |name: &str, p: f64| ms(quantile(&l.durations(name), p));
    let model_call = if cfg.train_math {
        "model.forward_backward"
    } else {
        "model.macs"
    };
    // Self time per layer over the run (set-up excluded).
    let prepare_self: f64 = l.self_durations("prefetcher.prepare").iter().sum();
    let sampling = l.total_s("sampling.epoch_plan") + l.total_s("sampling.sample");
    let net = l.total_s("net.pull");
    let prefetcher = prepare_self + l.total_s("prefetcher.init");
    let model_step =
        l.total_s(model_call) + l.total_s("model.allreduce") + l.total_s("model.optimizer");
    let model = model_step + l.total_s("model.init");
    let layers = sampling + net + prefetcher + model;
    let share = |x: f64| if layers > 0.0 { x / layers } else { 0.0 };

    let (off_runs, on_runs) = (&runs[0], &runs[1]);
    let (off_walls, off_cpus) = split(off_runs);
    let on_cpus = split(on_runs).1;
    let residual = ms(median(&off_cpus) / n - layers / n);

    let modeled = warmup
        .trainers
        .iter()
        .fold(Modeled::default(), |a, t| a.add(&t.breakdown));
    let ratio = |measured: f64, modeled: f64| {
        if modeled > 0.0 {
            measured / modeled
        } else {
            0.0
        }
    };
    let hit_rate = ratio(r.hits as f64, (r.hits + r.misses) as f64);
    let gmacs = if cfg.train_math {
        ratio(r.macs, l.total_s(model_call)) * 1e-9
    } else {
        0.0
    };

    let per_layer = vec![
        m("graph.generate_s", l.total_s("graph.generate"), "s"),
        m(
            "partition.multilevel_s",
            l.total_s("partition.multilevel"),
            "s",
        ),
        m(
            "partition.halo_build_s",
            l.total_s("partition.halo_build"),
            "s",
        ),
        m("net.cluster_spawn_s", l.total_s("net.cluster_spawn"), "s"),
        m("partition.halo_nodes", r.halo_nodes as f64, "count"),
        m("partition.edge_cut", r.edge_cut as f64, "count"),
        m(
            "engine.trainer_init_ms",
            ms(l.total_s("engine.trainer_init")),
            "ms",
        ),
        m(
            "sampling.epoch_plan_ms",
            ms(l.total_s("sampling.epoch_plan") / n),
            "ms",
        ),
        m("sampling.sample_ms.p50", q("sampling.sample", 0.5), "ms"),
        m("sampling.sample_ms.p99", q("sampling.sample", 0.99), "ms"),
        m("sampling.edges_per_step", r.edges as f64 / n, "count"),
        m(
            "prefetcher.prepare_ms.p50",
            q("prefetcher.prepare", 0.5),
            "ms",
        ),
        m(
            "prefetcher.prepare_ms.p99",
            q("prefetcher.prepare", 0.99),
            "ms",
        ),
        m(
            "prefetcher.self_ms.p50",
            ms(median(&l.self_durations("prefetcher.prepare"))),
            "ms",
        ),
        m("prefetcher.hit_rate", hit_rate, "frac"),
        m("prefetcher.evicted_per_step", r.evicted as f64 / n, "count"),
        m(
            "prefetcher.replaced_per_step",
            r.replaced as f64 / n,
            "count",
        ),
        m(
            "policy.planned_rows_per_step",
            r.metrics.planned_rows as f64 / n,
            "count",
        ),
        m("prefetcher.buffer_bytes", r.buffer_bytes as f64, "bytes"),
        m(
            "prefetcher.peak_transient_bytes",
            r.peak_transient_bytes as f64,
            "bytes",
        ),
        m("net.pull_ms.p50", q("net.pull", 0.5), "ms"),
        m("net.pull_ms.p99", q("net.pull", 0.99), "ms"),
        m("net.calls_per_step", r.step_calls as f64 / n, "count"),
        m("net.rows_per_step", r.step_rows as f64 / n, "count"),
        m("net.bytes_per_step", r.step_bytes as f64 / n, "bytes"),
        m(
            "net.rows_per_needed_row",
            ratio(r.step_rows as f64, r.halo_sampled as f64),
            "ratio",
        ),
        m(
            "net.failed_rows",
            (agg.degraded_rows + agg.stale_served) as f64,
            "count",
        ),
        m("model.compute_ms.p50", q(model_call, 0.5), "ms"),
        m("model.compute_ms.p99", q(model_call, 0.99), "ms"),
        m("model.macs_per_step", r.macs / n, "count"),
        m("model.gmacs_per_s", gmacs, "GMAC/s"),
        m(
            "model.allreduce_share",
            share(l.total_s("model.allreduce")),
            "frac",
        ),
        m(
            "model.optimizer_share",
            share(l.total_s("model.optimizer")),
            "frac",
        ),
        m("engine.residual_ms_per_step", residual, "ms"),
        m(
            "engine.wall_steps_per_s",
            median(&off_walls.iter().map(|w| n / w).collect::<Vec<_>>()),
            "1/s",
        ),
        m(
            "engine.cpu_per_wall",
            median(&off_cpus) / median(&off_walls),
            "ratio",
        ),
        m(
            "obs.trace_overhead_frac",
            median(&on_cpus) / median(&off_cpus) - 1.0,
            "frac",
        ),
        m("trace.coverage_frac", layers / r.wall_s, "frac"),
        m("self_share.sampling", share(sampling), "frac"),
        m("self_share.prefetcher", share(prefetcher), "frac"),
        m("self_share.net", share(net), "frac"),
        m("self_share.model", share(model), "frac"),
        m(
            "gap.sampling",
            ratio(l.total_s("sampling.sample"), modeled.sampling),
            "ratio",
        ),
        m(
            "gap.prefetch",
            ratio(prepare_self, modeled.prefetch),
            "ratio",
        ),
        m("gap.rpc", ratio(net, modeled.rpc), "ratio"),
        m("gap.train", ratio(model_step, modeled.train), "ratio"),
    ];
    Ok(Outcome {
        end_to_end: end_to_end_metrics(steps, seeds, off_runs, &[s_off, s_on], &warmup, peak_rss),
        final_loss: warmup.epoch_loss.last().copied(),
        failed_row_frac: failed_row_frac(&cfg, &warmup),
        per_layer,
        attempted: (off_runs.len() + on_runs.len() + 2) as u64,
        runs: off_runs.clone(),
        trainer_steps: steps,
        host_steal,
        ledger: Some(r.ledger),
    })
}

/// Modeled seconds summed over trainers, grouped the way the ledger's
/// layers are.
#[derive(Default)]
struct Modeled {
    sampling: f64,
    prefetch: f64,
    rpc: f64,
    train: f64,
}

impl Modeled {
    fn add(self, b: &massivegnn::engine::Breakdown) -> Self {
        Modeled {
            sampling: self.sampling + b.sampling_s,
            prefetch: self.prefetch + b.lookup_s + b.scoring_s + b.evict_s + b.copy_s,
            rpc: self.rpc + b.rpc_s + b.planned_s,
            train: self.train + b.train_s,
        }
    }
}

/// Run the engines in turn, one `Engine::run` each per round, until
/// `seconds` have passed and every engine ran `MIN_REPS` times. Returns
/// each engine's run times and the host's steal share over them; every
/// report must equal `reference`.
fn timed_runs(
    engines: &[&Engine],
    seconds: f64,
    reference: &RunReport,
    fails: &mut Vec<String>,
) -> (Vec<Vec<Took>>, Option<f64>) {
    let mut runs = vec![Vec::new(); engines.len()];
    let before = cpu_steal();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while runs[0].len() < MIN_REPS || Instant::now() < deadline {
        for (e, r) in engines.iter().zip(&mut runs) {
            let (report, took) = timed(|| e.run());
            r.push(took);
            same_report("timed run vs the warm-up run", reference, &report, fails);
        }
    }
    let steal = before
        .zip(cpu_steal())
        .and_then(|((s0, t0), (s1, t1))| (t1 > t0).then(|| (s1 - s0) as f64 / (t1 - t0) as f64));
    (runs, steal)
}

/// (stolen, total) CPU ticks of this machine so far, from `/proc/stat`.
/// On a virtual machine, stolen time is time the host gave this
/// machine's CPUs to someone else: it slows every wall-clock figure and,
/// through shared caches, the CPU-time ones somewhat, so each run
/// reports its share next to its timings.
fn cpu_steal() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// Wall seconds and CPU seconds of this process (all threads) one call
/// took.
#[derive(Clone, Copy, Debug)]
struct Took {
    wall: f64,
    cpu: f64,
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, Took) {
    let (t, c) = (Instant::now(), cpu_time_s());
    let r = f();
    let cpu = cpu_time_s() - c;
    let wall = t.elapsed().as_secs_f64();
    (r, Took { wall, cpu })
}

/// (walls, CPU times) of `runs`.
fn split(runs: &[Took]) -> (Vec<f64>, Vec<f64>) {
    runs.iter().map(|r| (r.wall, r.cpu)).unzip()
}

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// CPU time this process has used so far, over all its threads, live and
/// ended. Time the host steals from the virtual CPUs is not counted.
fn cpu_time_s() -> f64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut t = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `t` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut t) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    t.sec as f64 + t.nsec as f64 * 1e-9
}

/// The reports must agree bit for bit on parameters, counters and the
/// simulated clock.
fn same_report(what: &str, a: &RunReport, b: &RunReport, fails: &mut Vec<String>) {
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    if bits(&a.final_params) != bits(&b.final_params) || a.epoch_loss != b.epoch_loss {
        fails.push(format!("{what}: final parameters or losses differ"));
    }
    if a.aggregate_metrics() != b.aggregate_metrics() {
        fails.push(format!("{what}: aggregate counters differ"));
    }
    if a.makespan_s.to_bits() != b.makespan_s.to_bits() {
        fails.push(format!(
            "{what}: makespan {} vs {}",
            a.makespan_s, b.makespan_s
        ));
    }
}

/// Checks on one report: every trainer ran every step, training
/// converged, and no row failed.
fn check_report(w: &Workload, cfg: &EngineConfig, report: &RunReport, fails: &mut Vec<String>) {
    let steps = cfg.epochs * report.steps_per_epoch;
    if report.world != w.world() || steps == 0 {
        fails.push(format!("world {} with {steps} steps", report.world));
    }
    for t in &report.trainers {
        if t.hits.len() != steps {
            fails.push(format!(
                "trainer {}/{} ran {} minibatches, expected {steps}",
                t.part_id,
                t.trainer_id,
                t.hits.len()
            ));
        }
    }
    if cfg.train_math {
        match (report.epoch_loss.first(), report.epoch_loss.last()) {
            (Some(first), Some(last)) if report.epoch_loss.len() == cfg.epochs => {
                if !last.is_finite() || last >= first {
                    fails.push(format!("final loss {last} not finite or not below {first}"));
                }
            }
            _ => fails.push(format!(
                "{} epoch losses, expected {}",
                report.epoch_loss.len(),
                cfg.epochs
            )),
        }
    }
    let failed = failed_row_frac(cfg, report);
    if failed != 0.0 {
        fails.push(format!("failed_row_frac {failed}"));
    }
}

/// (degraded + stale rows) ÷ halo rows the steps needed.
fn failed_row_frac(cfg: &EngineConfig, report: &RunReport) -> f64 {
    let a = report.aggregate_metrics();
    // Baseline pulls every sampled halo row; prefetch probes each once.
    let needed = match cfg.mode {
        Mode::Baseline => a.remote_nodes_fetched,
        Mode::Prefetch(_) => a.buffer_hits + a.buffer_misses,
    };
    (a.degraded_rows + a.stale_served) as f64 / needed.max(1) as f64
}

/// Trainer-steps and training seeds one `Engine::run` consumes: every
/// trainer runs the synchronized step count, and a shard's epoch is cut
/// to that many batches.
fn work_per_run(engine: &Engine, cfg: &EngineConfig) -> (u64, u64) {
    let spe = engine.steps_per_epoch();
    let tpp = cfg.trainers_per_part;
    let mut seeds = 0;
    for part in engine.partitions() {
        let n = part.train_nodes.len();
        for t in 0..tpp {
            let shard = n / tpp + usize::from(t < n % tpp);
            seeds += shard.min(spe * cfg.batch_size);
        }
    }
    (
        (cfg.epochs * spe * engine.world()) as u64,
        (cfg.epochs * seeds) as u64,
    )
}

/// Peak resident set of this process (VmHWM), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The repository's bench provenance plus this run's identity and
/// kernel-pool width.
fn provenance(w: &Workload, args: &Args) -> Value {
    let mut fields: Vec<(String, Value)> = match mgnn_bench::bench::provenance() {
        Value::Obj(f) => f,
        other => vec![("repo".into(), other)],
    };
    let mgnn_threads = std::env::var("MGNN_THREADS").ok();
    fields.extend([
        ("workload".into(), w.name.to_value()),
        ("seed".into(), args.seed.to_value()),
        ("heldout_seed".into(), HELDOUT_SEED.to_value()),
        ("seconds".into(), args.seconds.to_value()),
        (
            "pool_threads".into(),
            (rayon::current_num_threads() as u64).to_value(),
        ),
        ("mgnn_threads".into(), mgnn_threads.to_value()),
    ]);
    Value::Obj(fields)
}

/// `{"<name>": {"value": x, "unit": "u"}, ...}`
fn metrics_json(rows: &[Metric]) -> Value {
    Value::obj(rows.iter().map(|x| {
        (
            x.name,
            Value::obj([("value", x.value.to_value()), ("unit", x.unit.to_value())]),
        )
    }))
}

fn print_table(title: &str, rows: &[Metric]) {
    println!("{title}");
    for x in rows {
        println!("  {:<32} {:>16.6} {}", x.name, x.value, x.unit);
    }
}

/// Keep the run's report (and the traced pass's Chrome trace) under
/// `--out`, stamped with provenance.
fn write_outputs(w: &Workload, args: &Args, prov: &Value, out: &Outcome) {
    let stem = format!("{}-seed{}-trace{}", w.name, args.seed, u8::from(args.trace));
    let doc = Value::obj([
        ("provenance", prov.clone()),
        ("trainer_steps_per_run", out.trainer_steps.to_value()),
        ("run_walls_s", split(&out.runs).0.to_value()),
        ("run_cpu_s", split(&out.runs).1.to_value()),
        ("host_steal_frac", out.host_steal.to_value()),
        ("end_to_end", metrics_json(&out.end_to_end)),
        ("final_loss", out.final_loss.map(f64::from).to_value()),
        ("failed_row_frac", out.failed_row_frac.to_value()),
        ("per_layer", metrics_json(&out.per_layer)),
    ]);
    let write = |name: String, v: &Value| {
        let path = args.out.join(name);
        if let Err(e) = std::fs::create_dir_all(&args.out)
            .and_then(|()| std::fs::write(&path, serde_json::to_string_pretty(v)))
        {
            eprintln!("warning: could not write {}: {e}", path.display());
        }
    };
    write(format!("{stem}.json"), &doc);
    if let Some(l) = &out.ledger {
        write(format!("{stem}.trace.json"), &l.chrome_trace(prov.clone()));
    }
}
