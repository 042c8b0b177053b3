//! Experiment E6 (survey §I/§II): availability vs replication under churn.
//!
//! The survey motivates DOSN replication with "users cannot guarantee full
//! time data availability by relying on their system's ability". The table
//! sweeps replication factor × node uptime; availability should rise with
//! both and saturate, and repair should suppress data loss.

use crate::Paper;
use dosn_overlay::churn::{run_availability, ChurnConfig};
use std::hint::black_box;

fn sweep_tables(p: &mut Paper) {
    // Availability vs replicas at three uptime levels.
    p.table(
        "E6: mean availability vs replication factor (7 simulated days)",
        &["replicas", "uptime≈20%", "uptime≈50%", "uptime≈80%"],
    );
    for replicas in [1usize, 2, 3, 4, 6, 8] {
        let mut cells = vec![replicas.to_string()];
        for (on, off) in [(60.0, 240.0), (120.0, 120.0), (240.0, 60.0)] {
            let report = run_availability(&ChurnConfig {
                nodes: 256,
                objects: 80,
                replicas,
                mean_online_min: on,
                mean_offline_min: off,
                leave_probability: 0.01,
                repair_lag_min: Some(30.0),
                duration_min: 7 * 24 * 60,
                seed: 6,
            });
            cells.push(format!("{:.3}", report.mean_availability));
        }
        p.row(&cells);
    }

    // Data loss with and without repair.
    p.table(
        "E6: objects permanently lost (3 replicas, 20% departure-per-offline)",
        &[
            "repair",
            "objects lost",
            "repairs performed",
            "mean availability",
        ],
    );
    for (label, lag) in [
        ("none", None),
        ("30 min lag", Some(30.0)),
        ("6 h lag", Some(360.0)),
    ] {
        let report = run_availability(&ChurnConfig {
            nodes: 256,
            objects: 80,
            replicas: 3,
            leave_probability: 0.2,
            repair_lag_min: lag,
            duration_min: 7 * 24 * 60,
            seed: 66,
            ..ChurnConfig::default()
        });
        p.row(&[
            label.to_owned(),
            report.objects_lost.to_string(),
            report.repairs.to_string(),
            format!("{:.3}", report.mean_availability),
        ]);
    }
    println!();
}

pub fn run(p: &mut Paper) {
    sweep_tables(p);
    p.time("e6/one_day_run/256_nodes_3_replicas", || {
        black_box(run_availability(&ChurnConfig {
            nodes: 256,
            objects: 50,
            replicas: 3,
            duration_min: 24 * 60,
            seed: 9,
            ..ChurnConfig::default()
        }));
    });
}
