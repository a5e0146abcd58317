//! Counts of operations attempted and failed over one run.

/// Operations are module optimizations, equivalence checks and output
/// checks. A failed optimization (error, poisoned or timed-out module)
/// produced no output; a failed check found a wrong one.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Failed checks: outputs shown to be wrong.
    pub wrong: u64,
}

impl Tally {
    /// Counts an optimization that `ok` says finished.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("failed: {}", what());
        }
    }

    pub fn fail_op(&mut self, what: &str) {
        self.op(false, || what.to_string());
    }

    /// Counts a check of an output that `ok` says passed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.wrong += 1;
            eprintln!("wrong: {}", what());
        }
    }

    pub fn check_result(&mut self, result: Result<(), String>) {
        let ok = result.is_ok();
        self.check(ok, || result.unwrap_err());
    }
}
