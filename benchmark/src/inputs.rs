//! The workloads' inputs: which circuits each workload optimizes, how
//! they are generated from the seed, and how they are compiled.

use crate::rng::SplitMix64;
use smartly_netlist::{Design, Module};
use smartly_workloads::{public_corpus, Scale};

/// One named workload (see README.md for why each exists).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Workload {
    /// A fixed subset of the Medium public corpus, run cold.
    CorpusMedium,
    /// All ten Tiny circuits with equivalence checking on.
    VerifyTiny,
    /// Adder-identity miter designs, run cold.
    SolverMiters,
    /// Miter designs of the same family, warm-started from a knowledge
    /// file written during set-up.
    WarmMiters,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::CorpusMedium,
        Workload::VerifyTiny,
        Workload::SolverMiters,
        Workload::WarmMiters,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CorpusMedium => "corpus_medium",
            Workload::VerifyTiny => "verify_tiny",
            Workload::SolverMiters => "solver_miters",
            Workload::WarmMiters => "warm_miters",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the driver runs its equivalence check on every module.
    pub fn verifies(self) -> bool {
        self == Workload::VerifyTiny
    }

    /// Whether the optimizations run warm from a knowledge file.
    pub fn warm(self) -> bool {
        self == Workload::WarmMiters
    }
}

/// The Medium circuits `corpus_medium` optimizes: the two cheapest of
/// the ten, so that one round of both levels takes about 2 s at one job
/// and a run holds enough rounds for steady medians.
pub const MEDIUM_SUBSET: [&str; 2] = ["wb_dma", "ac97_ctrl"];

/// Miter operand widths: one miter per width, so no two miters share a
/// cone shape and the verdict memo cannot answer one from another.
pub const MITER_WIDTHS: std::ops::RangeInclusive<u32> = 11..=40;
/// Single-module designs the miters are spread over.
pub const MITER_DESIGNS: usize = 3;
/// Width of the mux data operands behind each miter select.
const MITER_DATA_WIDTH: u32 = 8;

/// A select that holds by arithmetic identity: the benchmark knows the
/// mux output `y` must always equal its true-branch data input `p`.
#[derive(Clone, Debug)]
pub struct KnownAnswer {
    pub y: String,
    pub p: String,
}

/// One generated input before compilation.
pub struct Source {
    pub name: String,
    pub verilog: String,
    pub known: Vec<KnownAnswer>,
}

/// One compiled input circuit.
#[derive(Clone)]
pub struct Circuit {
    pub name: String,
    pub design: Design,
    pub known: Vec<KnownAnswer>,
}

/// Generates the workload's sources. Only the miter workloads draw on
/// `seed`; the corpus circuits are fixed.
pub fn generate(workload: Workload, seed: u64) -> Vec<Source> {
    match workload {
        Workload::CorpusMedium => public_corpus(Scale::Medium)
            .into_iter()
            .filter(|c| MEDIUM_SUBSET.contains(&c.name.as_str()))
            .map(|c| Source {
                name: c.name,
                verilog: c.source,
                known: Vec::new(),
            })
            .collect(),
        Workload::VerifyTiny => public_corpus(Scale::Tiny)
            .into_iter()
            .map(|c| Source {
                name: c.name,
                verilog: c.source,
                known: Vec::new(),
            })
            .collect(),
        // the two miter workloads draw distinct streams from one seed, so
        // the warm designs group and order the widths differently
        Workload::SolverMiters => miter_sources(seed, "cold"),
        Workload::WarmMiters => miter_sources(seed ^ 0x5741_524d, "warm"),
    }
}

/// Compiles every source through the Verilog frontend.
pub fn compile(sources: &[Source]) -> Result<Vec<Circuit>, String> {
    sources
        .iter()
        .map(|s| {
            let design = smartly_verilog::compile(&s.verilog)
                .map_err(|e| format!("{}: cannot compile generated source: {e}", s.name))?;
            Ok(Circuit {
                name: s.name.clone(),
                design,
                known: s.known.clone(),
            })
        })
        .collect()
}

/// The miter family: every width in [`MITER_WIDTHS`] once, dealt in a
/// seeded order over [`MITER_DESIGNS`] modules. Widths are paired
/// (11/12, 13/14, ...) and the seed decides which of each pair gets
/// which identity, so both kinds stay equally common on every seed.
fn miter_sources(seed: u64, family: &str) -> Vec<Source> {
    let mut rng = SplitMix64::new(seed);
    let mut miters: Vec<(u32, bool)> = Vec::new();
    let widths: Vec<u32> = MITER_WIDTHS.collect();
    for pair in widths.chunks(2) {
        let flip = rng.next_u64() & 1 == 1;
        for (i, &w) in pair.iter().enumerate() {
            miters.push((w, (i == 0) ^ flip));
        }
    }
    rng.shuffle(&mut miters);
    let per_design = miters.len().div_ceil(MITER_DESIGNS);
    miters
        .chunks(per_design)
        .enumerate()
        .map(|(d, chunk)| {
            let name = format!("{family}_miters_{d}");
            let (module, known) = miter_module(&name, chunk);
            Source {
                verilog: smartly_verilog::emit_verilog(&module),
                name,
                known,
            }
        })
        .collect()
}

/// One module holding a mux per miter: `y_i = sel_i ? p_i : q_i`, where
/// `sel_i` is `((a_i + b_i) - b_i) == a_i` (`add_first`) or
/// `((a_i - b_i) + b_i) == a_i`.
fn miter_module(name: &str, miters: &[(u32, bool)]) -> (Module, Vec<KnownAnswer>) {
    let mut m = Module::new(name);
    let mut known = Vec::new();
    for (i, &(width, add_first)) in miters.iter().enumerate() {
        let a = m.add_input(&format!("a{i}"), width);
        let b = m.add_input(&format!("b{i}"), width);
        let p = m.add_input(&format!("p{i}"), MITER_DATA_WIDTH);
        let q = m.add_input(&format!("q{i}"), MITER_DATA_WIDTH);
        let t = if add_first {
            let s = m.add(&a, &b);
            m.sub(&s, &b)
        } else {
            let d = m.sub(&a, &b);
            m.add(&d, &b)
        };
        let sel = m.eq(&t, &a);
        let y = m.mux(&q, &p, &sel);
        m.add_output(&format!("y{i}"), &y);
        known.push(KnownAnswer {
            y: format!("y{i}"),
            p: format!("p{i}"),
        });
    }
    (m, known)
}
