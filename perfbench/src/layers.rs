//! The per-layer metrics every traced run reports. A layer the workload
//! never calls reports 0, so every traced run prints the same names.

use crate::out::Report;
use std::collections::HashMap;

/// Every per-layer metric with its unit, in report order. Times are
/// self times measured around public calls, normalised by the unit
/// named in `perfbench/README.md`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("serve.gate.admit_us", "us"),
    ("serve.conn.pump_self_us", "us"),
    ("serve.conn.pumps", "per_session"),
    ("serve.conn.finish_us", "us"),
    ("serve.stats.push_us", "us"),
    ("serve.stats.render_ms", "ms"),
    ("sshwire.input_self_us", "us"),
    ("sshwire.bytes_in", "bytes"),
    ("honeypot.shell.exec_us", "us"),
    ("honeypot.shell.commands", "per_session"),
    ("honeypot.auth_us", "us"),
    ("honeypot.auth.attempts", "per_session"),
    ("honeypot.collector.ingest_self_us", "us"),
    ("sessiondb.store.append_us_p50", "us"),
    ("sessiondb.store.append_us_p99", "us"),
    ("sessiondb.store.bytes_per_session", "bytes"),
    ("sessiondb.wal.append_us", "us"),
    ("sessiondb.wal.sync_us", "us"),
    ("sessiondb.wal.syncs", "per_session"),
    ("sessiondb.wal.bytes_per_session", "bytes"),
    ("sessiondb.segment.seal_ms", "ms"),
    ("sessiondb.segment.seals", "count"),
    ("sessiondb.segment.open_ms", "ms"),
    ("sessiondb.segment.decode_us_per_krow", "us"),
    ("core.classify.build_ms", "ms"),
    ("core.classify_us_per_kcmd", "us"),
    ("core.classify.budget_exhaustions", "count"),
    ("core.accum.taxonomy_us_per_krow", "us"),
    ("core.accum.categories_us_per_krow", "us"),
    ("core.accum.passwords_us_per_krow", "us"),
    ("core.accum.probes_us_per_krow", "us"),
    ("core.accum.downloads_us_per_krow", "us"),
    ("core.accum.mdrfckr_us_per_krow", "us"),
    ("core.merge_ms", "ms"),
    ("core.cluster.signatures", "count"),
    ("core.cluster.dedup_ms", "ms"),
    ("core.cluster.matrix_ms", "ms"),
    ("core.cluster.sweep_ms", "ms"),
    ("botnet.generate_s", "s"),
    ("trace.unit_wall_ms", "ms"),
    ("trace.accounted_share", "ratio"),
];

/// Per-layer values of one traced run.
#[derive(Debug, Default)]
pub struct Layers {
    values: HashMap<&'static str, f64>,
}

impl Layers {
    /// Sets one metric; the name must be listed in [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "per-layer metric {name} is not in PER_LAYER"
        );
        self.values.insert(name, value);
    }

    /// Adds every per-layer metric to `r`, 0 where unset.
    pub fn emit(&self, r: &mut Report) {
        for &(name, unit) in PER_LAYER {
            r.metric(name, self.values.get(name).copied().unwrap_or(0.0), unit);
        }
    }
}

/// One bench-side stage that is not a layer, with its share of the
/// traced wall time: what `trace.accounted_share` leaves out.
pub fn gap_note(accounted: f64, stages: &[(&str, f64)]) -> String {
    let listed: Vec<String> = stages
        .iter()
        .map(|(name, share)| format!("{name} {share:.3}"))
        .collect();
    if accounted < 0.9 {
        let (worst, _) = stages
            .iter()
            .copied()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .unwrap_or(("unknown", 0.0));
        format!(
            "trace accounted_share {accounted:.3} < 0.9: missing stage is {worst} (unaccounted shares: {})",
            listed.join(", ")
        )
    } else {
        format!(
            "trace accounted_share {accounted:.3} (unaccounted shares: {})",
            listed.join(", ")
        )
    }
}
