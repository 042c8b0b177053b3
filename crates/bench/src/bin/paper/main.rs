//! The paper's experiments: Table I (T1), the survey's qualitative claims
//! (E1–E8), and the ablations over this workspace's own design choices
//! (E9–E11).
//!
//! Prints every experiment's tables (captured into EXPERIMENTS.md) and
//! times the operations they summarize, then writes each table cell and
//! each timing as a row of one `RunReport`. The report is not gated: the
//! tables are the result, the timings are for the record.
//!
//! Usage: `cargo run --release -p dosn-bench --bin paper [--fast] [OUT]`
//!
//! `--fast` times each operation over 2 calls instead of 10 (the tables
//! are the same either way); `OUT` overrides the output path (default
//! `BENCH_paper.json` in the working directory).

mod e10_churn_lookup;
mod e11_fault_tolerance;
mod e1_privacy_schemes;
mod e2_access_control;
mod e3_integrity;
mod e4_fork_detection;
mod e5_overlay_lookup;
mod e6_availability;
mod e7_secure_search;
mod e8_blind_subscription;
mod e9_ablations;
mod table1_taxonomy;

use dosn_bench::{table_header, table_row, time_ns, BenchArgs};
use dosn_obs::{RunReport, Value};
use std::collections::BTreeMap;

/// Prints the experiments' tables and timings and records each one as a
/// report row.
pub struct Paper {
    report: RunReport,
    /// Timed calls per operation (after one warm-up call).
    iters: u32,
    table: String,
    columns: Vec<String>,
}

impl Paper {
    /// Prints a table header; the rows that follow are recorded under
    /// `title`, one field per column.
    pub fn table(&mut self, title: &str, columns: &[&str]) {
        table_header(title, columns);
        self.begin(title, columns);
    }

    /// Like [`Paper::table`] for a table the caller prints itself.
    pub fn begin(&mut self, title: &str, columns: &[&str]) {
        self.table = title.to_owned();
        self.columns = columns.iter().map(|c| (*c).to_owned()).collect();
    }

    /// Prints one row of the current table and records it.
    pub fn row(&mut self, cells: &[String]) {
        table_row(cells);
        self.record(cells);
    }

    /// Records one row of the current table without printing it.
    pub fn record(&mut self, cells: &[String]) {
        let mut row = BTreeMap::new();
        row.insert("table".to_owned(), Value::from(self.table.as_str()));
        for (column, cell) in self.columns.iter().zip(cells) {
            row.insert(column.clone(), Value::from(cell.as_str()));
        }
        self.report.add_row(row);
    }

    /// The number of timed calls [`Paper::time`] makes per operation.
    pub fn iters(&self) -> u32 {
        self.iters
    }

    /// Times `f` with [`time_ns`], prints the mean per call, and records
    /// it as a `bench` row.
    pub fn time(&mut self, label: &str, f: impl FnMut()) {
        let ns = time_ns(self.iters, f);
        println!(
            "bench {label:<48} {ns:>12.0} ns/iter ({} iters)",
            self.iters
        );
        let mut row = BTreeMap::new();
        row.insert("bench".to_owned(), Value::from(label));
        row.insert("ns_per_iter".to_owned(), Value::from(ns));
        row.insert("iters".to_owned(), Value::from(u64::from(self.iters)));
        self.report.add_row(row);
    }
}

fn main() {
    let args = BenchArgs::parse("BENCH_paper.json");
    let mut paper = Paper {
        report: RunReport::new("Paper experiments T1, E1-E11", args.fast),
        iters: if args.fast { 2 } else { 10 },
        table: String::new(),
        columns: Vec::new(),
    };
    e10_churn_lookup::run(&mut paper);
    e11_fault_tolerance::run(&mut paper);
    e1_privacy_schemes::run(&mut paper);
    e2_access_control::run(&mut paper);
    e3_integrity::run(&mut paper);
    e4_fork_detection::run(&mut paper);
    e5_overlay_lookup::run(&mut paper);
    e6_availability::run(&mut paper);
    e7_secure_search::run(&mut paper);
    e8_blind_subscription::run(&mut paper);
    e9_ablations::run(&mut paper);
    table1_taxonomy::run(&mut paper);
    args.save(&paper.report);
}
