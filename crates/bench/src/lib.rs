//! Shared workload generators, timing, and reporting helpers for the
//! experiment harness (see DESIGN.md's experiment index and EXPERIMENTS.md
//! for the recorded results).
//!
//! Each binary under `src/bin/` regenerates one or more experiments: it
//! prints the experiment's table(s) to stdout (captured into
//! EXPERIMENTS.md) and writes a [`RunReport`] holding the same numbers.

pub mod gate;

use dosn_core::privacy::{
    AbeGroupScheme, AccessScheme, IbbeGroupScheme, PkeGroupScheme, SymmetricGroupScheme,
};
use dosn_crypto::chacha::SecureRng;
use dosn_obs::RunReport;
use std::path::Path;
use std::time::Instant;

/// The `[--fast] [OUT]` command line every experiment binary takes.
pub struct BenchArgs {
    /// `--fast`: the reduced workload CI runs and the committed baselines
    /// were generated with.
    pub fast: bool,
    /// Report path: `OUT`, or the binary's default.
    pub out: String,
}

impl BenchArgs {
    /// Reads the process arguments; `default_out` applies when no `OUT`
    /// is given.
    pub fn parse(default_out: &str) -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        BenchArgs {
            fast: args.iter().any(|a| a == "--fast"),
            out: args
                .iter()
                .find(|a| !a.starts_with("--"))
                .cloned()
                .unwrap_or_else(|| default_out.to_string()),
        }
    }

    /// Writes `report` to the report path and says where it went.
    pub fn save(&self, report: &RunReport) {
        report
            .save(Path::new(&self.out))
            .expect("write bench report");
        println!("wrote {}", self.out);
    }
}

/// Mean wall time per call of `f` in nanoseconds over `iters` calls,
/// after one untimed warm-up call that keeps lazy initialization out of
/// the mean.
pub fn time_ns<F: FnMut()>(iters: u32, mut f: F) -> f64 {
    f();
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_nanos() as f64 / f64::from(iters)
}

/// Group sizes swept by E1/E2.
pub const GROUP_SIZES: &[usize] = &[1, 4, 16, 64];

/// Payload used by E1 (1 KiB, a typical post).
pub fn post_payload() -> Vec<u8> {
    (0..1024u32).map(|i| (i % 251) as u8).collect()
}

/// Deterministic member names `m0..m{n}`.
pub fn member_names(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("m{i}")).collect()
}

/// Instantiates every [`AccessScheme`] with `n` registered identities.
///
/// IBBE setup shares one 256-bit PKG across calls (Cocks setup is slow and
/// not part of the measured operations).
pub fn all_schemes(n: usize) -> Vec<Box<dyn AccessScheme>> {
    let mut rng = SecureRng::seed_from_u64(0xE1E2);
    let names: Vec<String> = member_names(n);
    let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
    vec![
        Box::new(SymmetricGroupScheme::new([11u8; 32])),
        Box::new(PkeGroupScheme::with_fresh_identities(&name_refs, &mut rng)),
        Box::new(AbeGroupScheme::new([12u8; 32])),
        Box::new(IbbeGroupScheme::with_test_pkg()),
    ]
}

/// Prints a markdown-ish table header used by every experiment printout.
pub fn table_header(title: &str, columns: &[&str]) {
    println!("\n### {title}");
    println!("| {} |", columns.join(" | "));
    println!(
        "|{}|",
        columns.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
}

/// Prints one table row.
pub fn table_row(cells: &[String]) {
    println!("| {} |", cells.join(" | "));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_is_1kib() {
        assert_eq!(post_payload().len(), 1024);
    }

    #[test]
    fn member_names_shape() {
        let names = member_names(3);
        assert_eq!(names, vec!["m0", "m1", "m2"]);
    }

    #[test]
    fn all_schemes_work_end_to_end() {
        for mut scheme in all_schemes(4) {
            let g = scheme.create_group(&member_names(4)).unwrap();
            let ct = scheme.encrypt(&g, b"bench smoke").unwrap();
            assert_eq!(scheme.decrypt_as(&g, "m0", &ct).unwrap(), b"bench smoke");
        }
    }
}
