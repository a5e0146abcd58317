//! End-to-end and per-layer benchmark for the smartly optimizer.
//!
//! ```text
//! smartly-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload single-threaded for about `--seconds` seconds,
//! checks every output against computations made apart from the
//! optimizer, and prints as its last line one JSON object with the
//! operations attempted and failed and the end-to-end (`--trace 0`) or
//! per-layer (`--trace 1`) metrics. README.md explains the workloads,
//! the metrics and the timing scheme.

mod check;
mod inputs;
mod measure;
mod replay;
mod rng;
mod tally;

use inputs::Workload;
use measure::{Ctx, Op, Outcome, Setup};
use rng::SplitMix64;
use smartly_aig::{check_equiv, EquivOptions, EquivResult};
use smartly_core::OptLevel;
use smartly_driver::emit_design;
use std::path::PathBuf;
use std::process::ExitCode;
use tally::Tally;

/// Clock cycles of 64 random vectors per co-simulation.
const COSIM_CYCLES: usize = 8;
/// Passes of 64 random operand vectors per known-answer check.
const KNOWN_ANSWER_PASSES: usize = 16;
/// Seeded single-cell mutants per optimized circuit (verifying
/// workloads only).
const MUTANTS_PER_CIRCUIT: usize = 3;

/// One reported metric.
pub struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::CorpusMedium,
        seed: 1,
        seconds: 20.0,
        trace: false,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got '{value}'");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => args.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| bad("expected a positive number"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown option '{flag}'")),
        }
    }
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    let name = workload.ok_or_else(|| format!("--workload is required ({})", names.join("|")))?;
    args.workload = Workload::from_name(&name)
        .ok_or_else(|| format!("unknown workload '{name}' ({})", names.join("|")))?;
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("smartly-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let work_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join(".work")
        .join(format!("{}-{}", args.workload.name(), std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work_dir) {
        eprintln!(
            "smartly-benchmark: cannot create {}: {e}",
            work_dir.display()
        );
        return ExitCode::FAILURE;
    }
    let ctx = Ctx {
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        work_dir,
    };
    let result = run(&ctx, args.trace);
    // best effort: a leftover scratch directory is harmless and ignored;
    // the shared parent goes only once no other run is using it
    let _ = std::fs::remove_dir_all(&ctx.work_dir);
    if let Some(parent) = ctx.work_dir.parent() {
        let _ = std::fs::remove_dir(parent);
    }
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("smartly-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs the workload and renders the result line.
fn run(ctx: &Ctx, trace: bool) -> Result<String, String> {
    let (setup, setup_times) = measure::setup(ctx)?;
    let ops = measure::ops(&setup.circuits);
    let mut tally = Tally::default();
    let (first, metrics) = if trace {
        let r = measure::rounds(ctx, &setup, &mut tally, |op, t| {
            replay::traced_op(ctx, &setup, op, t)
        });
        eprintln!("{}: {} traced rounds", ctx.workload.name(), r.rounds);
        (r.first, replay::per_layer(&ops, &r.samples, &setup_times))
    } else {
        let r = measure::rounds(ctx, &setup, &mut tally, |op, t| {
            measure::run_op(ctx, &setup, op, t)
        });
        eprintln!("{}: {} timed rounds", ctx.workload.name(), r.rounds);
        let opt_s = measure::sum_of_medians(&ops, &r.samples, None, |s| s.total);
        let mut m = vec![
            Metric::new("opt_s", opt_s, "s"),
            Metric::new("setup_s", setup_times.total, "s"),
        ];
        m.extend(area_metrics(&ops, &r.first));
        m.push(Metric::new("peak_rss_mb", r.peak_rss_mb, "MB"));
        (r.first, m)
    };
    check_outputs(ctx, &setup, &ops, &first, &mut tally);
    print_summary(ctx, &setup, &ops, &first);
    Ok(result_line(&tally, &metrics))
}

/// `area_after` (summed `full` area) and `reduction_vs_yosys_pct`.
fn area_metrics(ops: &[Op], first: &[Option<Outcome>]) -> Vec<Metric> {
    let sum = |level: OptLevel| -> f64 {
        ops.iter()
            .zip(first)
            .filter(|(op, _)| op.level == level)
            .filter_map(|(_, o)| o.as_ref())
            .map(|o| o.report.area_after() as f64)
            .sum()
    };
    let (yosys, full) = (sum(OptLevel::Baseline), sum(OptLevel::Full));
    let reduction = if yosys > 0.0 {
        100.0 * (yosys - full) / yosys
    } else {
        0.0
    };
    vec![
        Metric::new("area_after", full, "aig_nodes"),
        Metric::new("reduction_vs_yosys_pct", reduction, "%"),
    ]
}

/// Checks the first round's outputs: co-simulation against the input,
/// the area properties, the miters' known answers, warm against cold,
/// and (verifying workloads) that the equivalence checker rejects
/// mutants co-simulation tells apart.
fn check_outputs(
    ctx: &Ctx,
    setup: &Setup,
    ops: &[Op],
    first: &[Option<Outcome>],
    tally: &mut Tally,
) {
    let mut rng = SplitMix64::new(ctx.seed ^ 0xc0_5117);
    for (op, outcome) in ops.iter().zip(first) {
        let Some(out) = outcome else { continue };
        let circuit = &setup.circuits[op.circuit];
        let what = format!("{} at {}", circuit.name, op.level.name());
        for (gold, gate) in circuit.design.modules().iter().zip(out.design.modules()) {
            tally.check_result(check::cosim(gold, gate, rng.next_u64(), COSIM_CYCLES));
        }
        let (before, after) = (out.report.area_before(), out.report.area_after());
        tally.check(after <= before, || {
            format!("{what}: area grew from {before} to {after}")
        });
        if !circuit.known.is_empty() {
            for m in out.design.modules() {
                tally.check_result(check::known_answers(
                    m,
                    &circuit.known,
                    rng.next_u64(),
                    KNOWN_ANSWER_PASSES,
                ));
            }
        }
    }
    for pair in ops.chunks(2).zip(first.chunks(2)) {
        if let ([y, f], [Some(yo), Some(fo)]) = pair {
            debug_assert!(y.level == OptLevel::Baseline && f.level == OptLevel::Full);
            let (ya, fa) = (yo.report.area_after(), fo.report.area_after());
            tally.check(fa <= ya, || {
                format!(
                    "{}: full area {fa} exceeds yosys area {ya}",
                    setup.circuits[y.circuit].name
                )
            });
        }
    }
    if ctx.workload.warm() {
        check_warm_against_cold(setup, ops, first, tally);
    }
    if ctx.workload.verifies() {
        check_mutants(setup, ops, first, &mut rng, tally);
    }
}

/// Warm operations must reproduce the cold priming run byte for byte,
/// and must actually have been served from the knowledge file.
fn check_warm_against_cold(
    setup: &Setup,
    ops: &[Op],
    first: &[Option<Outcome>],
    tally: &mut Tally,
) {
    let mut disk_hits = 0;
    for ((op, cold), warm) in ops.iter().zip(&setup.cold).zip(first) {
        let Some(warm) = warm else { continue };
        disk_hits += warm.report.kb.as_ref().map_or(0, |kb| kb.disk_hits);
        let what = format!("{} at {}", setup.circuits[op.circuit].name, op.level.name());
        let same_area = cold.report.area_after() == warm.report.area_after();
        tally.check(same_area && cold.digest == warm.digest, || {
            format!("{what}: warm report differs from the cold priming run")
        });
        tally.check(
            emit_design(&cold.design) == emit_design(&warm.design),
            || format!("{what}: warm netlist differs from the cold priming run"),
        );
    }
    tally.check(disk_hits > 0, || {
        "warm operations made no disk hits".to_string()
    });
}

/// Mutates each `full`-level output; every mutant that co-simulation
/// tells apart from the input must be reported inequivalent.
fn check_mutants(
    setup: &Setup,
    ops: &[Op],
    first: &[Option<Outcome>],
    rng: &mut SplitMix64,
    tally: &mut Tally,
) {
    let (mut made, mut detected) = (0, 0);
    for (op, outcome) in ops.iter().zip(first) {
        let (OptLevel::Full, Some(out)) = (op.level, outcome) else {
            continue;
        };
        let circuit = &setup.circuits[op.circuit];
        for (gold, gate) in circuit.design.modules().iter().zip(out.design.modules()) {
            for _ in 0..MUTANTS_PER_CIRCUIT {
                let Some((bad, what)) = check::mutant(gate, rng) else {
                    continue;
                };
                made += 1;
                // a co-simulation of a mutant is an operation that cannot fail
                tally.op(true, String::new);
                if check::cosim(gold, &bad, rng.next_u64(), COSIM_CYCLES).is_ok() {
                    continue;
                }
                detected += 1;
                let verdict = check_equiv(gold, &bad, &EquivOptions::default());
                tally.check(
                    matches!(verdict, Ok(EquivResult::NotEquivalent { .. })),
                    || format!("{}: mutant ({what}) differs in simulation but check_equiv says {verdict:?}", circuit.name),
                );
            }
        }
    }
    eprintln!("mutants: {made} made, {detected} told apart by co-simulation");
}

/// A human-readable per-circuit table on stderr.
fn print_summary(ctx: &Ctx, setup: &Setup, ops: &[Op], first: &[Option<Outcome>]) {
    eprintln!("{} (seed {}):", ctx.workload.name(), ctx.seed);
    for (op, o) in ops.iter().zip(first) {
        if let Some(o) = o {
            eprintln!(
                "  {:<20} {:<6} area {:>7} -> {:>7}",
                setup.circuits[op.circuit].name,
                op.level.name(),
                o.report.area_before(),
                o.report.area_after()
            );
        }
    }
}

/// The result line: one JSON object.
fn result_line(tally: &Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.wrong == 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

/// JSON has no NaN or infinity; neither can arise from the sums and
/// ratios above, but a broken clock must not produce an unparsable line.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}
