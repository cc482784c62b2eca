//! The `study` workload: a seeded sessiondb store generated in set-up,
//! then repeated study passes — `AnalysisBuilder` with all six reports on
//! two threads, followed by §6 clustering of the file-dropping sessions.

use crate::layers::{gap_note, Layers};
use crate::out::{median, net_of_steal, ns, ratio, steal_between, Gate, Report, Setups, WINDOW};
use crate::serve_wl::store_bytes;
use crate::sys;
use crate::Params;
use botnet::{generate_dataset_into, DriverConfig};
use honeylab_core::cluster::{self, DistanceMatrix};
use honeylab_core::logins::{ProbeAccumulator, TopPasswordsAccumulator};
use honeylab_core::mdrfckr::TimelineAccumulator;
use honeylab_core::report::{is_command_session, ClassificationAccumulator};
use honeylab_core::storage_analysis::DownloadAccumulator;
use honeylab_core::taxonomy::TaxonomyAccumulator;
use honeylab_core::{
    tokens, AnalysisBuilder, AnalysisReport, Classifier, ReportKind, SessionSource,
};
use honeypot::SessionRecord;
use sessiondb::{SegmentReader, Store, StoreWriter};
use std::collections::HashMap;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Paper sessions per generated session: about 40k sessions in 5
/// segments, which fits in the page cache.
const SESSION_SCALE: u64 = 16_000;
/// Store generations before the timed passes; the last one is studied.
const SETUPS_BEFORE: usize = 5;
/// Store generations after the gates, each into a scratch directory.
const SETUPS_AFTER: usize = 4;
/// Analysis threads of the timed passes.
const THREADS: usize = 2;
/// The k-selection sweep of the experiments binary (Figs. 5/6).
const KS: &[usize] = &[10, 30, 60, 90, 120];
/// Seed of the k-medoids sweep, as in the experiments binary.
const SWEEP_SEED: u64 = 42;
/// Passwords kept by the Fig. 10 report (`AnalysisBuilder`'s default).
const TOP_N: usize = 10;

/// What set-up cost.
#[derive(Default)]
struct SetupCost {
    setups: Setups,
    generate_s: Vec<f64>,
}

impl SetupCost {
    /// Generates the seeded store into a fresh `dir` and opens it,
    /// recording the set-up time.
    fn generate(&mut self, p: &Params, dir: &Path) -> Result<Store, String> {
        let mut cfg = DriverConfig::default_scale(p.seed);
        cfg.session_scale = SESSION_SCALE;
        let _ = std::fs::remove_dir_all(dir);
        let started = Setups::start(p.cpu);
        let writer = StoreWriter::create(dir).map_err(|e| format!("create store: {e}"))?;
        generate_dataset_into(&cfg, Box::new(writer)).map_err(|e| format!("generate: {e}"))?;
        let generated = started.elapsed();
        let store = Store::open(dir).map_err(|e| format!("open store: {e}"))?;
        self.setups.push(started, p.cpu);
        self.generate_s.push(generated.as_secs_f64());
        Ok(store)
    }
}

/// Generates the store `SETUPS_BEFORE` times into a fresh directory and
/// keeps the last.
fn setup(p: &Params) -> Result<(Store, SetupCost), String> {
    let dir = p.data_dir.join("store");
    let mut cost = SetupCost::default();
    let mut store = cost.generate(p, &dir)?;
    for _ in 1..SETUPS_BEFORE {
        store = cost.generate(p, &dir)?;
    }
    Ok((store, cost))
}

fn environment(p: &Params) -> Vec<String> {
    vec![
        p.host_line(),
        format!(
            "env store_dir={} fsync=none (batch generation) rows_per_segment={}",
            p.data_dir.join("store").display(),
            sessiondb::DEFAULT_ROWS_PER_SEGMENT
        ),
        format!("env session_scale={SESSION_SCALE} analysis_threads={THREADS} ks={KS:?}"),
    ]
}

/// Signature-deduplicated corpus of file-dropping command sessions, as
/// the §6 pipeline builds it.
#[derive(Default)]
struct Corpus {
    index: HashMap<Vec<String>, usize>,
    signatures: Vec<Vec<String>>,
    weights: Vec<u64>,
}

impl Corpus {
    fn push(&mut self, s: &SessionRecord) {
        if !is_command_session(s) || s.dropped_hashes().next().is_none() || s.uris.is_empty() {
            return;
        }
        let sig = tokens::signature(&s.command_text());
        match self.index.get(&sig) {
            Some(&i) => self.weights[i] += 1,
            None => {
                self.index.insert(sig.clone(), self.signatures.len());
                self.signatures.push(sig);
                self.weights.push(1);
            }
        }
    }
}

/// Bit-exact checksum of a sweep's (k, wcss, silhouette) tuples.
fn sweep_checksum(sweep: &[(usize, f64, f64)]) -> u64 {
    sweep.iter().fold(0u64, |acc, &(k, w, s)| {
        acc.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(k as u64)
            .wrapping_add(w.to_bits())
            .wrapping_add(s.to_bits())
    })
}

fn ks_for(n: usize) -> Vec<usize> {
    let ks: Vec<usize> = KS.iter().copied().filter(|&k| k <= n).collect();
    if ks.is_empty() {
        vec![1]
    } else {
        ks
    }
}

/// Clusters the store's file-dropping sessions; returns the sweep
/// checksum and the number of distinct signatures.
fn cluster_pass(store: &Store) -> Result<(u64, usize), String> {
    let mut corpus = Corpus::default();
    for rec in store.scan().records() {
        corpus.push(&rec.map_err(|e| format!("scan: {e}"))?);
    }
    let n = corpus.signatures.len();
    let m = DistanceMatrix::build_with_threads(&corpus.signatures, THREADS);
    let sweep = cluster::sweep_k(&m, &corpus.weights, &ks_for(n), SWEEP_SEED);
    Ok((sweep_checksum(&sweep), n))
}

fn analyze(store: &Store, threads: usize) -> Result<AnalysisReport, String> {
    AnalysisBuilder::new(SessionSource::Store(store))
        .reports(ReportKind::ALL)
        .threads(threads)
        .run()
        .map_err(|e| format!("analyze: {e}"))
}

/// The report as compared by the determinism gate: its v1 document plus
/// the full download-event list the document only counts.
fn fingerprint(r: &AnalysisReport) -> String {
    format!(
        "{}\n{:?}",
        honeylab_core::api::analysis_json(r).render(),
        r.downloads
    )
}

/// One untraced study pass.
struct Pass {
    sessions: u64,
    analyze_ns: u64,
    cluster_ns: u64,
    /// Process CPU during the analysis and the clustering.
    cpu_ns: u64,
}

/// Runs `study` with tracing off.
pub fn run(p: &Params) -> Result<Report, String> {
    let (store, mut cost) = setup(p)?;
    let store = &store;
    let rows = store.summary().rows;
    let mut r = Report {
        notes: environment(p),
        ..Report::default()
    };

    let mut passes: Vec<Pass> = Vec::new();
    let mut checksums = Vec::new();
    let mut last = None;
    let mut signatures = 0;
    let origin = Instant::now();
    let deadline = origin + WINDOW * p.seconds as u32;
    let ticks = sys::cpu_ticks(p.cpu);
    while Instant::now() < deadline || passes.is_empty() {
        let c0 = sys::process_cpu_ns();
        let t0 = Instant::now();
        let report = analyze(store, THREADS)?;
        let t1 = Instant::now();
        let (checksum, n) = cluster_pass(store)?;
        let t2 = Instant::now();
        passes.push(Pass {
            sessions: report.sessions,
            analyze_ns: ns(t1 - t0),
            cluster_ns: ns(t2 - t1),
            cpu_ns: sys::process_cpu_ns().saturating_sub(c0),
        });
        checksums.push(checksum);
        signatures = n;
        last = Some(report);
    }
    let wall = origin.elapsed().as_secs_f64();
    let steal = steal_between(ticks, sys::cpu_ticks(p.cpu));
    let last = last.expect("at least one pass");
    r.attempted = passes.len() as u64;
    r.failed = 0;

    let serial = analyze(store, 1)?;
    r.gates.push(Gate::new(
        "2-thread report equals 1-thread report",
        fingerprint(&serial) == fingerprint(&last),
        format!("{} vs {} sessions", last.sessions, serial.sessions),
    ));
    let short = passes.iter().filter(|x| x.sessions != rows).count();
    r.gates.push(Gate::new(
        "every pass analyses the whole store",
        short == 0,
        format!(
            "{short} of {} passes analysed other than {rows} stored sessions",
            passes.len()
        ),
    ));
    let (again, _) = cluster_pass(store)?;
    r.gates.push(Gate::new(
        "clustering sweep checksum repeats",
        checksums.iter().all(|&c| c == again),
        format!("{} passes + 1 repeat, checksum {again:#018x}", passes.len()),
    ));

    let total = |f: fn(&Pass) -> u64| passes.iter().map(f).sum::<u64>() as f64;
    let col = |f: fn(&Pass) -> u64| passes.iter().map(|x| f(x) as f64).collect::<Vec<_>>();
    let sessions = total(|x| x.sessions);
    let cpu_us = ratio(total(|x| x.cpu_ns) / 1e3, sessions);
    r.metric("cpu_us_per_session", net_of_steal(cpu_us, steal), "us");
    r.metric(
        "store_bytes_per_session",
        ratio(store_bytes(store) as f64, rows as f64),
        "bytes",
    );

    r.detail("sessions_per_s", ratio(sessions, wall), "sessions/s");
    r.detail(
        "analyze_sessions_per_s",
        ratio(sessions, total(|x| x.analyze_ns) / 1e9),
        "sessions/s",
    );
    r.detail(
        "pass_median_ms",
        median(&col(|x| x.analyze_ns + x.cluster_ns)) / 1e6,
        "ms",
    );
    r.detail("analyze_s", median(&col(|x| x.analyze_ns)) / 1e9, "s");
    r.detail("cluster_s", median(&col(|x| x.cluster_ns)) / 1e9, "s");
    r.detail("passes", passes.len() as f64, "passes");
    r.detail("cpu_us_per_session_raw", cpu_us, "us");
    r.detail("steal", steal, "ratio");

    r.detail("store_sessions", rows as f64, "sessions");
    r.detail(
        "store_segments",
        store.summary().segments as f64,
        "segments",
    );
    r.detail("cluster_signatures", signatures as f64, "signatures");
    r.detail(
        "budget_exhaustions",
        last.budget_exhaustions as f64,
        "count",
    );
    let scratch = p.data_dir.join("store-after");
    for _ in 0..SETUPS_AFTER {
        cost.generate(p, &scratch)?;
    }
    cost.setups.report(&mut r);
    Ok(r)
}

/// Self times of one traced pass, summed over passes.
#[derive(Debug, Default)]
struct Spans {
    wall: u64,
    passes: u64,
    build: u64,
    opens: u64,
    open: u64,
    rows: u64,
    decode: u64,
    cmds: u64,
    classify: u64,
    /// Wall time of the separate classify loop, which only exists to
    /// time `Classifier::classify` and is left out of the pass wall.
    classify_probe: u64,
    exhaustions: u64,
    accum: [u64; 6],
    merge: u64,
    finish: u64,
    /// Freeing decoded batches.
    drop: u64,
    dedup: u64,
    matrix: u64,
    sweep: u64,
    signatures: usize,
}

/// The six report accumulators of one segment.
struct Accs<'c> {
    taxonomy: TaxonomyAccumulator,
    categories: ClassificationAccumulator<'c>,
    passwords: TopPasswordsAccumulator,
    probes: ProbeAccumulator,
    downloads: DownloadAccumulator,
    mdrfckr: TimelineAccumulator,
}

impl<'c> Accs<'c> {
    fn new(cl: &'c Classifier) -> Self {
        Accs {
            taxonomy: TaxonomyAccumulator::new(),
            categories: ClassificationAccumulator::new(cl),
            passwords: TopPasswordsAccumulator::new(TOP_N),
            probes: ProbeAccumulator::new(),
            downloads: DownloadAccumulator::new(),
            mdrfckr: TimelineAccumulator::new(),
        }
    }

    /// Pushes `batch` through each accumulator in turn, timing each.
    fn push_timed(&mut self, batch: &[SessionRecord], accum: &mut [u64; 6]) {
        fn timed(slot: &mut u64, f: impl FnOnce()) {
            let t = Instant::now();
            f();
            *slot += ns(t.elapsed());
        }
        timed(&mut accum[0], || {
            batch.iter().for_each(|r| self.taxonomy.push(r))
        });
        timed(&mut accum[1], || {
            batch.iter().for_each(|r| self.categories.push(r))
        });
        timed(&mut accum[2], || {
            batch.iter().for_each(|r| self.passwords.push(r))
        });
        timed(&mut accum[3], || {
            batch.iter().for_each(|r| self.probes.push(r))
        });
        timed(&mut accum[4], || {
            batch.iter().for_each(|r| self.downloads.push(r))
        });
        timed(&mut accum[5], || {
            batch.iter().for_each(|r| self.mdrfckr.push(r))
        });
    }

    fn finish(self) {
        black_box(self.taxonomy.finish());
        black_box(self.categories.coverage());
        black_box(self.categories.finish());
        black_box(self.passwords.finish());
        black_box(self.probes.finish());
        black_box(self.downloads.finish());
        black_box(self.mdrfckr.finish());
    }

    fn merge(&mut self, o: Self) {
        self.taxonomy.merge(o.taxonomy);
        self.categories.merge(o.categories);
        self.passwords.merge(o.passwords);
        self.probes.merge(o.probes);
        self.downloads.merge(o.downloads);
        self.mdrfckr.merge(o.mdrfckr);
    }
}

/// One study pass from the public pieces `AnalysisBuilder` and the §6
/// pipeline call, one decode worker, a span around each call.
fn traced_pass(store: &Store, sp: &mut Spans) -> Result<(), String> {
    let t_pass = Instant::now();
    let segments: Vec<_> = store.segments().map(|m| m.path.clone()).collect();
    let read = |path: &Path, sp: &mut Spans| -> Result<Vec<SessionRecord>, String> {
        let t = Instant::now();
        let reader = SegmentReader::open(path).map_err(|e| e.to_string())?;
        let t_open = Instant::now();
        let batch = reader.read_all().map_err(|e| e.to_string())?;
        sp.open += ns(t_open - t);
        sp.decode += ns(t_open.elapsed());
        sp.opens += 1;
        sp.rows += batch.len() as u64;
        Ok(batch)
    };

    let t = Instant::now();
    let cl = Classifier::table1();
    sp.build += ns(t.elapsed());
    let t = Instant::now();
    let probe_cl = Classifier::table1();
    sp.classify_probe += ns(t.elapsed());
    let mut parts = Vec::with_capacity(segments.len());
    for path in &segments {
        let batch = read(path, sp)?;
        let t_probe = Instant::now();
        for rec in batch.iter().filter(|r| is_command_session(r)) {
            let text = rec.command_text();
            let t = Instant::now();
            black_box(probe_cl.classify(&text));
            sp.classify += ns(t.elapsed());
            sp.cmds += 1;
        }
        sp.classify_probe += ns(t_probe.elapsed());
        let mut acc = Accs::new(&cl);
        acc.push_timed(&batch, &mut sp.accum);
        parts.push(acc);
        let t = Instant::now();
        drop(batch);
        sp.drop += ns(t.elapsed());
    }
    sp.exhaustions += probe_cl.budget_exhaustions();
    let t = Instant::now();
    let mut parts = parts.into_iter();
    let merged = parts.next().map(|mut acc| {
        for part in parts {
            acc.merge(part);
        }
        acc
    });
    let t_merged = Instant::now();
    if let Some(acc) = merged {
        acc.finish();
    }
    sp.merge += ns(t_merged - t);
    sp.finish += ns(t_merged.elapsed());

    let mut corpus = Corpus::default();
    for path in &segments {
        let batch = read(path, sp)?;
        let t = Instant::now();
        batch.iter().for_each(|r| corpus.push(r));
        let t_pushed = Instant::now();
        drop(batch);
        sp.dedup += ns(t_pushed - t);
        sp.drop += ns(t_pushed.elapsed());
    }
    let t = Instant::now();
    let m = DistanceMatrix::build_with_threads(&corpus.signatures, THREADS);
    let t_sweep = Instant::now();
    black_box(cluster::sweep_k(
        &m,
        &corpus.weights,
        &ks_for(corpus.signatures.len()),
        SWEEP_SEED,
    ));
    sp.matrix += ns(t_sweep - t);
    sp.sweep += ns(t_sweep.elapsed());
    sp.signatures = corpus.signatures.len();
    sp.wall += ns(t_pass.elapsed());
    sp.passes += 1;
    Ok(())
}

/// Runs `study` traced.
pub fn run_traced(p: &Params) -> Result<Report, String> {
    let (store, cost) = setup(p)?;
    let store = &store;
    let rows = store.summary().rows;
    let mut r = Report {
        notes: environment(p),
        ..Report::default()
    };
    let mut sp = Spans::default();
    let deadline = Instant::now() + Duration::from_secs(p.seconds);
    while Instant::now() < deadline || sp.passes == 0 {
        traced_pass(store, &mut sp)?;
    }
    r.attempted = sp.passes;
    r.gates.push(Gate::new(
        "every traced pass decodes the whole store",
        sp.rows == 2 * rows * sp.passes,
        format!(
            "{} rows decoded over {} passes of {rows}",
            sp.rows, sp.passes
        ),
    ));

    let passes = sp.passes as f64;
    // Rows are decoded twice per pass: once for the reports, once for
    // the clustering corpus.
    let krows = sp.rows as f64 / 2.0 / 1e3;
    let mut l = Layers::default();
    l.set(
        "sessiondb.store.bytes_per_session",
        ratio(store_bytes(store) as f64, rows as f64),
    );
    l.set(
        "sessiondb.segment.open_ms",
        ratio(sp.open as f64 / 1e6, sp.opens as f64),
    );
    l.set(
        "sessiondb.segment.decode_us_per_krow",
        ratio(sp.decode as f64 / 1e3, krows * 2.0),
    );
    l.set("core.classify.build_ms", sp.build as f64 / 1e6 / passes);
    l.set(
        "core.classify_us_per_kcmd",
        ratio(sp.classify as f64 / 1e3, sp.cmds as f64 / 1e3),
    );
    l.set(
        "core.classify.budget_exhaustions",
        sp.exhaustions as f64 / passes,
    );
    let names = [
        "core.accum.taxonomy_us_per_krow",
        "core.accum.categories_us_per_krow",
        "core.accum.passwords_us_per_krow",
        "core.accum.probes_us_per_krow",
        "core.accum.downloads_us_per_krow",
        "core.accum.mdrfckr_us_per_krow",
    ];
    for (i, name) in names.into_iter().enumerate() {
        // Categories' own share: its push minus the classifier call.
        let self_ns = if i == 1 {
            sp.accum[1].saturating_sub(sp.classify)
        } else {
            sp.accum[i]
        };
        l.set(name, ratio(self_ns as f64 / 1e3, krows));
    }
    l.set("core.merge_ms", sp.merge as f64 / 1e6 / passes);
    l.set("core.cluster.signatures", sp.signatures as f64);
    l.set("core.cluster.dedup_ms", sp.dedup as f64 / 1e6 / passes);
    l.set("core.cluster.matrix_ms", sp.matrix as f64 / 1e6 / passes);
    l.set("core.cluster.sweep_ms", sp.sweep as f64 / 1e6 / passes);
    l.set("botnet.generate_s", median(&cost.generate_s));

    let wall = sp.wall.saturating_sub(sp.classify_probe).max(1) as f64;
    let accounted = sp.build
        + sp.open
        + sp.decode
        + sp.accum.iter().sum::<u64>()
        + sp.merge
        + sp.dedup
        + sp.matrix
        + sp.sweep;
    let share = accounted as f64 / wall;
    l.set("trace.unit_wall_ms", wall / 1e6 / passes);
    l.set("trace.accounted_share", share);
    let finish = sp.finish as f64 / wall;
    let dropped = sp.drop as f64 / wall;
    r.notes.push(gap_note(
        share,
        &[
            ("freeing decoded batches", dropped),
            ("report finish", finish),
            (
                "segment listing and loop",
                (1.0 - share - finish - dropped).max(0.0),
            ),
        ],
    ));
    r.detail("traced_passes", passes, "passes");
    l.emit(&mut r);
    Ok(r)
}
