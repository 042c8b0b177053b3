//! Experiment T1: regenerate the paper's Table I from the taxonomy
//! registry, proving every row maps to an implemented module.

use crate::Paper;
use dosn_core::taxonomy::{render_table1, table1};
use std::hint::black_box;

pub fn run(p: &mut Paper) {
    // Print the reproduced table once (captured into EXPERIMENTS.md).
    println!("{}", render_table1());
    let rows = table1();
    p.begin(
        "T1: Table I",
        &["category", "aspect", "implemented by", "experiment"],
    );
    for row in &rows {
        p.record(&[
            row.category.display().to_owned(),
            row.aspect.to_owned(),
            row.implemented_by.to_owned(),
            row.experiment.to_owned(),
        ]);
    }
    println!(
        "rows: {} (paper: 13 — 6 privacy, 3 integrity, 4 search)\n",
        rows.len()
    );
    p.time("t1/render_table1", || {
        black_box(render_table1());
    });
}
