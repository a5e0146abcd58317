//! The traced run: per-layer figures timed from outside the program.
//!
//! Each operation runs twice per round: once through `optimize_design`
//! untraced, and once as a replay of `Pipeline::run_with_deadline`'s
//! call order through the public pass functions, with a timer around
//! each call. The replay must end at the untraced run's area; if the
//! pipeline's order ever changes, that check fails and says so.

use crate::inputs::Circuit;
use crate::measure::{self, sum_of_medians, Ctx, Op, Outcome, Sample, Setup, SetupTimes};
use crate::tally::Tally;
use crate::Metric;
use smartly_aig::{aig_area, check_equiv, EquivOptions, EquivResult};
use smartly_core::sat_pass::SatPassStats;
use smartly_core::{
    restructure, sat_redundancy_with, Layer, OptLevel, SharedCexBank, SharedVerdictStore,
    SweepContext,
};
use smartly_driver::{load_state, save_state, KnowledgeState};
use smartly_opt::{baseline_optimize, clean_pipeline};
use std::sync::Arc;
use std::time::Instant;

/// The cleanup iteration bound `Pipeline::run_with_deadline` passes to
/// every `clean_pipeline` call.
const CLEAN_ITERS: usize = 8;

/// The timed calls, in the order a replay meets them.
#[derive(Copy, Clone)]
enum Call {
    Load,
    Area,
    Baseline,
    Restructure,
    Clean,
    BeginRound,
    Sweep,
    Rebaseline,
    Cec,
    Save,
}

/// Each call's metric name; indexed by `Call as usize`.
const CALL_METRICS: [&str; 10] = [
    "persist.load_s",
    "aig.area_s",
    "opt.baseline_s",
    "core.restructure_s",
    "opt.clean_s",
    "core.begin_round_s",
    "core.sweep_s",
    "opt.rebaseline_s",
    "aig.cec_s",
    "persist.save_s",
];

/// What one replay measured and counted.
#[derive(Default)]
pub struct Trace {
    total: f64,
    calls: [f64; CALL_METRICS.len()],
    baseline_rewrites: usize,
    cells_cleaned: usize,
    rebuilt: usize,
    sat: SatPassStats,
    disk_hits: u64,
    entries_written: usize,
    area_after: usize,
    equivalent: bool,
}

impl Trace {
    fn timed<T>(&mut self, call: Call, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let r = f();
        self.calls[call as usize] += t.elapsed().as_secs_f64();
        r
    }
}

/// Replays one operation on a fresh copy of its circuit.
fn replay(ctx: &Ctx, circuit: &Circuit, level: OptLevel) -> Result<Trace, String> {
    assert!(
        measure::LEVELS.contains(&level),
        "replay mirrors yosys and full only"
    );
    let opts = ctx.driver_options(level, None);
    let pipe = &opts.pipeline;
    let key = measure::store_key(&opts);
    let mut t = Trace {
        equivalent: true,
        ..Default::default()
    };
    let mut design = circuit.design.clone();
    let start = Instant::now();
    let state = if ctx.workload.warm() {
        t.timed(Call::Load, || {
            load_state(&ctx.primed_kb(), &key, opts.knowledge_capacity)
        })
    } else {
        KnowledgeState::cold(opts.knowledge_capacity)
    };
    let bank: Arc<dyn SharedCexBank> = state.bank.clone();
    let verdicts: Arc<dyn SharedVerdictStore> = state.verdicts.clone();
    let netlist = |e: smartly_netlist::NetlistError| format!("{}: {e}", circuit.name);
    for module in design.modules_mut() {
        let original = opts.verify.then(|| module.clone());
        t.timed(Call::Area, || aig_area(module)).map_err(netlist)?;
        t.baseline_rewrites += t.timed(Call::Baseline, || baseline_optimize(module));
        let mut sweep = SweepContext::new(Some(bank.clone()), Some(verdicts.clone()));
        // only `full` runs rounds; at `yosys` the pipeline's first round
        // changes nothing and stops
        for _ in 0..if level == OptLevel::Full {
            pipe.rounds
        } else {
            0
        } {
            let st = t.timed(Call::Restructure, || restructure(module, &pipe.rebuild));
            let mut changed = st.rebuilt > 0;
            t.rebuilt += st.rebuilt;
            t.cells_cleaned += t.timed(Call::Clean, || clean_pipeline(module, CLEAN_ITERS));
            if pipe.sat.incremental {
                t.timed(Call::BeginRound, || sweep.begin_round(module));
            }
            let st = t.timed(Call::Sweep, || {
                sat_redundancy_with(module, &pipe.sat, &mut sweep)
            });
            changed |= st.rewrites > 0;
            t.sat.absorb(&st);
            t.cells_cleaned += t.timed(Call::Clean, || clean_pipeline(module, CLEAN_ITERS));
            t.baseline_rewrites += t.timed(Call::Rebaseline, || baseline_optimize(module));
            if !changed {
                break;
            }
        }
        t.cells_cleaned += t.timed(Call::Clean, || clean_pipeline(module, CLEAN_ITERS));
        t.area_after += t.timed(Call::Area, || aig_area(module)).map_err(netlist)?;
        if let Some(original) = original {
            let r = t
                .timed(Call::Cec, || {
                    check_equiv(&original, module, &EquivOptions::default())
                })
                .map_err(netlist)?;
            t.equivalent &= r == EquivResult::Equivalent;
        }
    }
    if ctx.workload.warm() {
        let saved = t.timed(Call::Save, || {
            save_state(&ctx.saved_kb(), &state, &key, pipe.sat.cex_bank_capacity)
        });
        t.entries_written = saved
            .map_err(|e| format!("{}: knowledge save failed: {e}", circuit.name))?
            .entries_written();
        t.disk_hits = state.kb_report().disk_hits;
    }
    t.total = start.elapsed().as_secs_f64();
    Ok(t)
}

/// One round's work for one operation in the traced run.
pub struct Traced {
    sample: Sample,
    trace: Trace,
}

/// Runs `op` untraced, then replays it; the replay must reach the same
/// area (and, when verifying, prove its result equivalent).
pub fn traced_op(ctx: &Ctx, setup: &Setup, op: Op, tally: &mut Tally) -> Option<(Traced, Outcome)> {
    let (sample, outcome) = measure::run_op(ctx, setup, op, tally)?;
    let circuit = &setup.circuits[op.circuit];
    let what = format!("{} at {}", circuit.name, op.level.name());
    let trace = match replay(ctx, circuit, op.level) {
        Ok(t) => t,
        Err(e) => {
            tally.fail_op(&format!("{what}: replay failed: {e}"));
            return None;
        }
    };
    let untraced = outcome.report.area_after();
    tally.check(trace.area_after == untraced, || {
        format!(
            "{what}: traced area {} differs from untraced area {untraced}; \
             the replay no longer follows the pipeline",
            trace.area_after
        )
    });
    if ctx.workload.verifies() {
        tally.check(trace.equivalent, || {
            format!("{what}: replayed result not equivalent")
        });
    }
    Some((Traced { sample, trace }, outcome))
}

/// The per-layer metrics of a traced run. For each operation, the
/// replay with the median total supplies every layer figure, so the
/// layer times and the unattributed remainder add up to the total.
pub fn per_layer(ops: &[Op], samples: &[Vec<Traced>], setup: &SetupTimes) -> Vec<Metric> {
    let chosen: Vec<&Trace> = samples
        .iter()
        .filter(|s| !s.is_empty())
        .map(|s| {
            let mut v: Vec<&Trace> = s.iter().map(|x| &x.trace).collect();
            v.sort_by(|a, b| a.total.total_cmp(&b.total));
            v[(v.len() - 1) / 2]
        })
        .collect();
    let sum = |f: &dyn Fn(&Trace) -> f64| chosen.iter().map(|t| f(t)).sum::<f64>();
    let sat = |f: &dyn Fn(&SatPassStats) -> f64| sum(&|t| f(&t.sat));
    let layer_us = |l: Layer| sat(&|s| s.profile.latency_by_layer[l.index()].sum() as f64);
    let driver = |level| sum_of_medians(ops, samples, level, |s| s.sample.optimize);

    let mut m = vec![
        Metric::new("workloads.generate_s", setup.generate, "s"),
        Metric::new("verilog.compile_s", setup.compile, "s"),
        Metric::new("driver.yosys_s", driver(Some(OptLevel::Baseline)), "s"),
        Metric::new("driver.full_s", driver(Some(OptLevel::Full)), "s"),
        Metric::new(
            "driver.overhead_s",
            sum_of_medians(ops, samples, None, |s| s.sample.driver_overhead),
            "s",
        ),
    ];
    let mut attributed = 0.0;
    for (i, name) in CALL_METRICS.iter().enumerate() {
        let v = sum(&|t| t.calls[i]);
        attributed += v;
        m.push(Metric::new(name, v, "s"));
    }
    let sat_calls = sat(&|s| s.profile.sat_call_us.count() as f64);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    m.extend([
        Metric::new(
            "opt.baseline_rewrites",
            sum(&|t| t.baseline_rewrites as f64),
            "count",
        ),
        Metric::new(
            "opt.cells_cleaned",
            sum(&|t| t.cells_cleaned as f64),
            "count",
        ),
        Metric::new(
            "core.restructure_rebuilt",
            sum(&|t| t.rebuilt as f64),
            "count",
        ),
        Metric::new("core.sat_rewrites", sat(&|s| s.rewrites as f64), "count"),
        Metric::new("core.queries", sat(&|s| s.queries as f64), "count"),
        Metric::new(
            "core.by_inference",
            sat(&|s| s.by_inference as f64),
            "count",
        ),
        Metric::new("core.by_memo", sat(&|s| s.by_memo as f64), "count"),
        Metric::new(
            "core.by_disk_verdict",
            sat(&|s| s.by_disk_verdict as f64),
            "count",
        ),
        Metric::new(
            "core.by_prefilter",
            sat(&|s| s.by_prefilter as f64),
            "count",
        ),
        Metric::new("core.by_sim", sat(&|s| s.by_sim as f64), "count"),
        Metric::new("core.by_sat", sat(&|s| s.by_sat as f64), "count"),
        Metric::new("core.memo_us", layer_us(Layer::Memo), "us"),
        Metric::new("core.prefilter_us", layer_us(Layer::Prefilter), "us"),
        Metric::new("core.sim_us", layer_us(Layer::Simulation), "us"),
        Metric::new("core.disk_verdict_us", layer_us(Layer::DesignVerdict), "us"),
        Metric::new(
            "core.prefilter_yield",
            ratio(
                sat(&|s| s.by_prefilter as f64),
                sat(&|s| s.prefilter_rounds as f64),
            ),
            "ratio",
        ),
        Metric::new("sat.calls", sat_calls, "count"),
        Metric::new(
            "sat.conflicts",
            sat(&|s| s.solver_conflicts as f64),
            "count",
        ),
        Metric::new(
            "sat.propagations",
            sat(&|s| s.solver_propagations as f64),
            "count",
        ),
        Metric::new(
            "sat.call_us",
            sat(&|s| s.profile.sat_call_us.sum() as f64),
            "us",
        ),
        Metric::new(
            "sat.proved_share",
            ratio(sat(&|s| s.by_sat as f64), sat_calls),
            "ratio",
        ),
        Metric::new("persist.disk_hits", sum(&|t| t.disk_hits as f64), "count"),
        Metric::new(
            "persist.entries_written",
            sum(&|t| t.entries_written as f64),
            "count",
        ),
    ]);
    let total = sum(&|t| t.total);
    // the untraced operations' time, as opt_s counts it
    let untraced = sum_of_medians(ops, samples, None, |s| s.sample.total);
    m.extend([
        Metric::new("trace.total_s", total, "s"),
        Metric::new("trace.unattributed_s", total - attributed, "s"),
        Metric::new("trace.overhead_s", total - untraced, "s"),
    ]);
    m
}
