//! Set-up and the timed rounds.
//!
//! The host this benchmark was tuned on slows down for seconds at a time
//! (see README.md), so every workload's operations, one optimization of
//! one circuit at one level, run in interleaved rounds: each round runs
//! every operation once, and a metric takes the median of each
//! operation's samples. A slow spell then stretches all circuits and
//! levels alike instead of whichever happened to run during it.

use crate::inputs::{self, Circuit, Workload};
use crate::tally::Tally;
use smartly_core::OptLevel;
use smartly_driver::{
    load_state, optimize_design, save_state, DesignReport, DriverOptions, KnowledgeState,
    ModuleOutcome, StoreKey,
};
use smartly_netlist::Design;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// The two levels every workload runs: the Yosys-equivalent baseline
/// and everything (the paper's headline comparison).
pub const LEVELS: [OptLevel; 2] = [OptLevel::Baseline, OptLevel::Full];

/// Set-ups per run, `setup_s` being their median: at least
/// `SETUPS_MIN`, then more until `SETUP_SECONDS` have passed, at most
/// `SETUPS_MAX`. A set-up of a few milliseconds is noisy, so the cheap
/// workloads take many.
const SETUPS_MIN: usize = 5;
const SETUPS_MAX: usize = 201;
const SETUP_SECONDS: f64 = 1.0;

/// What one run was asked to do.
pub struct Ctx {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    /// Scratch directory for knowledge files, removed at exit.
    pub work_dir: PathBuf,
}

impl Ctx {
    /// The knowledge file the warm set-up writes and every warm
    /// operation loads.
    pub fn primed_kb(&self) -> PathBuf {
        self.work_dir.join("primed.kb")
    }

    /// Where warm operations save their knowledge; never read back, so
    /// every operation starts from the same primed file.
    pub fn saved_kb(&self) -> PathBuf {
        self.work_dir.join("saved.kb")
    }

    /// The driver configuration of every operation: one worker, the
    /// workload's verification and warm-start settings, defaults
    /// otherwise.
    pub fn driver_options(
        &self,
        level: OptLevel,
        state: Option<Arc<KnowledgeState>>,
    ) -> DriverOptions {
        DriverOptions {
            level,
            jobs: 1,
            verify: self.workload.verifies(),
            knowledge_state: state,
            ..Default::default()
        }
    }
}

/// The knowledge-file key the `smartly` CLI uses for these options.
pub fn store_key(opts: &DriverOptions) -> StoreKey {
    StoreKey::current(opts.pipeline.sat.conflict_budget)
}

/// One operation: a circuit at a level.
#[derive(Copy, Clone)]
pub struct Op {
    pub circuit: usize,
    pub level: OptLevel,
}

pub fn ops(circuits: &[Circuit]) -> Vec<Op> {
    (0..circuits.len())
        .flat_map(|circuit| LEVELS.map(|level| Op { circuit, level }))
        .collect()
}

/// What one operation produced.
pub struct Outcome {
    pub design: Design,
    pub report: DesignReport,
    pub digest: String,
}

impl Outcome {
    fn new(design: Design, report: DesignReport) -> Self {
        Outcome {
            digest: report.digest(),
            design,
            report,
        }
    }
}

/// The compiled inputs, plus (warm workloads) the cold priming run's
/// outcome per operation.
pub struct Setup {
    pub circuits: Vec<Circuit>,
    pub cold: Vec<Outcome>,
}

/// Median set-up times (seconds).
pub struct SetupTimes {
    pub total: f64,
    pub generate: f64,
    pub compile: f64,
}

/// Generates and compiles the inputs several times (and, warm, runs the
/// cold priming pass that writes the knowledge file), keeping the last
/// set-up.
pub fn setup(ctx: &Ctx) -> Result<(Setup, SetupTimes), String> {
    let (mut total, mut generate, mut compile) = (Vec::new(), Vec::new(), Vec::new());
    let mut last = None;
    let start = Instant::now();
    while total.len() < SETUPS_MIN
        || (total.len() < SETUPS_MAX && start.elapsed().as_secs_f64() < SETUP_SECONDS)
    {
        let t0 = Instant::now();
        let sources = inputs::generate(ctx.workload, ctx.seed);
        let t1 = Instant::now();
        let circuits = inputs::compile(&sources)?;
        let t2 = Instant::now();
        let cold = if ctx.workload.warm() {
            prime(ctx, &circuits)?
        } else {
            Vec::new()
        };
        total.push(t0.elapsed().as_secs_f64());
        generate.push(t1.duration_since(t0).as_secs_f64());
        compile.push(t2.duration_since(t1).as_secs_f64());
        last = Some(Setup { circuits, cold });
    }
    let times = SetupTimes {
        total: median(&mut total),
        generate: median(&mut generate),
        compile: median(&mut compile),
    };
    Ok((last.expect("at least one set-up"), times))
}

/// The cold priming run: every operation once against one shared cold
/// knowledge state, which is then saved as the warm operations' file.
fn prime(ctx: &Ctx, circuits: &[Circuit]) -> Result<Vec<Outcome>, String> {
    let defaults = ctx.driver_options(OptLevel::Full, None);
    let state = Arc::new(KnowledgeState::cold(defaults.knowledge_capacity));
    let mut cold = Vec::new();
    for op in ops(circuits) {
        let mut design = circuits[op.circuit].design.clone();
        let opts = ctx.driver_options(op.level, Some(state.clone()));
        let report = optimize_design(&mut design, &opts).map_err(|e| e.to_string())?;
        cold.push(Outcome::new(design, report));
    }
    save_state(
        &ctx.primed_kb(),
        &state,
        &store_key(&defaults),
        defaults.pipeline.sat.cex_bank_capacity,
    )
    .map_err(|e| format!("cannot write the primed knowledge file: {e}"))?;
    Ok(cold)
}

/// One timed operation: the seconds it took in total (for warm
/// operations: load, optimize, save), in `optimize_design` alone, and
/// outside the module pipelines.
pub struct Sample {
    pub total: f64,
    pub optimize: f64,
    pub driver_overhead: f64,
}

/// Runs one operation on a fresh copy of its circuit. A netlist error
/// is a failed operation and yields `None`.
pub fn run_op(ctx: &Ctx, setup: &Setup, op: Op, tally: &mut Tally) -> Option<(Sample, Outcome)> {
    let mut design = setup.circuits[op.circuit].design.clone();
    let defaults = ctx.driver_options(op.level, None);
    let t0 = Instant::now();
    let state = ctx.workload.warm().then(|| {
        Arc::new(load_state(
            &ctx.primed_kb(),
            &store_key(&defaults),
            defaults.knowledge_capacity,
        ))
    });
    let opts = ctx.driver_options(op.level, state.clone());
    let t1 = Instant::now();
    let result = optimize_design(&mut design, &opts);
    let optimize = t1.elapsed().as_secs_f64();
    let saved = state.as_ref().map(|s| {
        save_state(
            &ctx.saved_kb(),
            s,
            &store_key(&defaults),
            defaults.pipeline.sat.cex_bank_capacity,
        )
    });
    let total = t0.elapsed().as_secs_f64();

    let name = &setup.circuits[op.circuit].name;
    let what = format!("{name} at {}", op.level.name());
    if let Some(Err(e)) = saved {
        tally.fail_op(&format!("{what}: knowledge save failed: {e}"));
    }
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            tally.fail_op(&format!("{what}: {e}"));
            return None;
        }
    };
    for m in &report.modules {
        let ok = matches!(
            m.outcome,
            ModuleOutcome::Optimized | ModuleOutcome::MemoHit { .. }
        );
        tally.op(ok, || {
            format!("{what}: module {} {}", m.name, m.outcome.tag())
        });
        if ctx.workload.verifies() {
            let eq = m.verified_equivalent();
            tally.check(eq == Some(true), || {
                format!("{what}: module {} equivalence {eq:?}", m.name)
            });
        }
    }
    let pipelines: f64 = report.modules.iter().map(|m| m.wall.as_secs_f64()).sum();
    let sample = Sample {
        total,
        optimize,
        driver_overhead: optimize - pipelines,
    };
    Some((sample, Outcome::new(design, report)))
}

/// Per-operation samples and first-round outcomes of the rounds run.
pub struct Rounds<T> {
    pub rounds: usize,
    pub samples: Vec<Vec<T>>,
    pub first: Vec<Option<Outcome>>,
    /// The process's peak resident memory once set-up and the first
    /// round were done (MB). Later rounds only repeat the same work, and
    /// the memory the allocator keeps across the driver's short-lived
    /// worker threads varies between otherwise identical processes the
    /// more of them a run starts.
    pub peak_rss_mb: f64,
}

/// Runs whole rounds of every operation until another round would
/// overrun `ctx.seconds` (at least one round). `each` runs one
/// operation and returns its sample; later rounds must reproduce the
/// first round's digest.
pub fn rounds<T>(
    ctx: &Ctx,
    setup: &Setup,
    tally: &mut Tally,
    mut each: impl FnMut(Op, &mut Tally) -> Option<(T, Outcome)>,
) -> Rounds<T> {
    let ops = ops(&setup.circuits);
    let mut out = Rounds {
        rounds: 0,
        samples: ops.iter().map(|_| Vec::new()).collect(),
        first: Vec::new(),
        peak_rss_mb: 0.0,
    };
    let start = Instant::now();
    loop {
        for (i, &op) in ops.iter().enumerate() {
            let Some((sample, outcome)) = each(op, tally) else {
                if out.rounds == 0 {
                    out.first.push(None);
                }
                continue;
            };
            out.samples[i].push(sample);
            if out.rounds == 0 {
                out.first.push(Some(outcome));
            } else if let Some(first) = &out.first[i] {
                tally.check(first.digest == outcome.digest, || {
                    format!(
                        "{} at {}: round {} digest differs from round 0",
                        setup.circuits[op.circuit].name,
                        op.level.name(),
                        out.rounds
                    )
                });
            }
        }
        if out.rounds == 0 {
            out.peak_rss_mb = peak_rss_mb();
        }
        out.rounds += 1;
        let spent = start.elapsed().as_secs_f64();
        if spent + spent / out.rounds as f64 > ctx.seconds {
            return out;
        }
    }
}

/// Peak resident memory of this process in MB, from the kernel's
/// `VmHWM` line (0 where there is none).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let kb = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
            kb.trim().trim_end_matches("kB").trim().parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The median of `v` (mean of the middle two for even lengths; 0 when
/// empty).
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Sum over operations of the median of `field` over each operation's
/// samples, optionally only over operations at `level`.
pub fn sum_of_medians<T>(
    ops: &[Op],
    samples: &[Vec<T>],
    level: Option<OptLevel>,
    field: impl Fn(&T) -> f64,
) -> f64 {
    ops.iter()
        .zip(samples)
        .filter(|(op, _)| level.is_none_or(|l| op.level == l))
        .map(|(_, s)| median(&mut s.iter().map(&field).collect::<Vec<_>>()))
        .sum()
}
