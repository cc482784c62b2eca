//! Results: named metrics with units, correctness gates, and the one-line
//! JSON summary that ends every run.

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// One correctness check over the run's outputs.
#[derive(Debug, Clone)]
pub struct Gate {
    /// What was checked.
    pub name: &'static str,
    /// Whether it held.
    pub ok: bool,
    /// The compared values.
    pub detail: String,
}

impl Gate {
    /// A gate that holds iff `ok`.
    pub fn new(name: &'static str, ok: bool, detail: impl Into<String>) -> Self {
        Gate {
            name,
            ok,
            detail: detail.into(),
        }
    }
}

/// Everything one run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Units of work attempted (sessions or study passes).
    pub attempted: u64,
    /// Units of work that failed.
    pub failed: u64,
    /// The metrics this mode reports.
    pub metrics: Vec<Metric>,
    /// Correctness gates.
    pub gates: Vec<Gate>,
    /// Further figures printed for the reader but not scored, as
    /// `(name, value, unit)`.
    pub details: Vec<(String, f64, String)>,
    /// Free-text lines (run environment, trace gaps).
    pub notes: Vec<String>,
}

impl Report {
    /// Adds a scored metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Adds an unscored figure.
    pub fn detail(&mut self, name: impl Into<String>, value: f64, unit: impl Into<String>) {
        self.details.push((name.into(), value, unit.into()));
    }

    /// Adds the gate every run shares: some work was attempted.
    pub fn gate_work_done(&mut self) {
        self.gates.push(Gate::new(
            "some work was attempted",
            self.attempted > 0,
            format!("{} attempted", self.attempted),
        ));
    }

    /// Whether every gate held.
    pub fn correct(&self) -> bool {
        self.gates.iter().all(|g| g.ok)
    }

    /// Prints the human-readable lines and then the JSON summary as the
    /// last line of standard output. A run that failed a gate prints no
    /// metrics.
    pub fn print(&self) {
        for n in &self.notes {
            println!("{n}");
        }
        for (name, value, unit) in &self.details {
            println!("detail {name} = {} {unit}", num(*value));
        }
        for g in &self.gates {
            let verdict = if g.ok { "ok" } else { "FAILED" };
            println!("gate {}: {verdict} ({})", g.name, g.detail);
        }
        let correct = self.correct();
        let mut metrics = Vec::new();
        if correct {
            for m in &self.metrics {
                println!("metric {} = {} {}", m.name, num(m.value), m.unit);
                metrics.push(format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    num(m.value),
                    m.unit
                ));
            }
        }
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

/// A JSON number with every digit Rust's shortest round-trip form keeps;
/// non-finite values (never expected) print as 0.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// Nearest-rank quantile of an ascending slice (0 for an empty one).
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The figures of one second of a timed phase.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    /// Units completed in the window.
    pub done: usize,
    /// Throughput over the window.
    pub sessions_per_s: f64,
    /// Median latency of the window's units.
    pub p50_ms: f64,
    /// 99th-percentile latency of the window's units.
    pub p99_ms: f64,
    /// CPU per unit, net of the window's steal (see [`net_of_steal`]).
    pub cpu_us_per_session: f64,
    /// Share of the run's CPU time the host stole during the window.
    pub steal: f64,
}

/// Length of one window.
pub const WINDOW: std::time::Duration = std::time::Duration::from_secs(1);

/// Adds the wall-clock figures as details (medians over the windows),
/// and one line per figure with every window's value. The wall-clock
/// figures are not scored; see "Bounds and noise" in
/// `perfbench/README.md`.
pub fn wall_details(r: &mut Report, ws: &[Window]) {
    let col = |f: fn(&Window) -> f64| ws.iter().map(f).collect::<Vec<_>>();
    r.detail("windows", ws.len() as f64, "windows");
    r.detail(
        "window_median_sessions_per_s",
        median(&col(|w| w.sessions_per_s)),
        "sessions/s",
    );
    r.detail(
        "window_median_latency_p50_ms",
        median(&col(|w| w.p50_ms)),
        "ms",
    );
    r.detail(
        "window_median_latency_p99_ms",
        median(&col(|w| w.p99_ms)),
        "ms",
    );
    r.detail("window_median_steal", median(&col(|w| w.steal)), "ratio");
    let line = |f: fn(&Window) -> String| ws.iter().map(f).collect::<Vec<_>>().join(" ");
    r.notes.push(format!(
        "window sessions/s: {}",
        line(|w| format!("{:.0}", w.sessions_per_s))
    ));
    r.notes.push(format!(
        "window p99 ms: {}",
        line(|w| format!("{:.3}", w.p99_ms))
    ));
    r.notes.push(format!(
        "window net cpu us/session: {}",
        line(|w| format!("{:.1}", w.cpu_us_per_session))
    ));
    r.notes.push(format!(
        "window steal: {}",
        line(|w| format!("{:.3}", w.steal))
    ));
}

/// Share of a CPU's time the host stole between two
/// [`crate::sys::cpu_ticks`] samples.
pub fn steal_between(before: (u64, u64), after: (u64, u64)) -> f64 {
    ratio(
        after.0.saturating_sub(before.0) as f64,
        after.1.saturating_sub(before.1) as f64,
    )
}

/// Removes host contention from a CPU time measured while the host
/// stole `steal` of the run's CPU: the time times `1 - steal`. On the
/// shared bench box a session's CPU time rises with the host's load, by
/// about `1 / (1 - steal)`; see "Bounds and noise" in
/// `perfbench/README.md`.
pub fn net_of_steal(cpu_time: f64, steal: f64) -> f64 {
    cpu_time * (1.0 - steal)
}

/// The set-ups of one run, each measured in process CPU seconds and in
/// wall seconds.
#[derive(Debug, Default)]
pub struct Setups {
    cpu_s: Vec<f64>,
    wall_s: Vec<f64>,
    /// Steal and total ticks of the run's CPU summed over the set-ups.
    ticks: (u64, u64),
}

/// A set-up in progress; see [`Setups::start`].
pub struct SetupStart {
    cpu_ns: u64,
    at: std::time::Instant,
    ticks: (u64, u64),
}

impl SetupStart {
    /// Wall time since the set-up began.
    pub fn elapsed(&self) -> std::time::Duration {
        self.at.elapsed()
    }
}

impl Setups {
    /// Starts timing one set-up on `cpu`; pass the result to
    /// [`Setups::push`].
    pub fn start(cpu: usize) -> SetupStart {
        SetupStart {
            cpu_ns: crate::sys::process_cpu_ns(),
            at: std::time::Instant::now(),
            ticks: crate::sys::cpu_ticks(cpu),
        }
    }

    /// Records the set-up begun at `started` on `cpu`.
    pub fn push(&mut self, started: SetupStart, cpu: usize) {
        let cpu_ns = crate::sys::process_cpu_ns().saturating_sub(started.cpu_ns);
        let ticks = crate::sys::cpu_ticks(cpu);
        self.cpu_s.push(cpu_ns as f64 / 1e9);
        self.wall_s.push(started.at.elapsed().as_secs_f64());
        self.ticks.0 += ticks.0.saturating_sub(started.ticks.0);
        self.ticks.1 += ticks.1.saturating_sub(started.ticks.1);
    }

    /// Adds `setup_s`: the median CPU time of a set-up, net of the steal
    /// measured across all of them (one set-up is too short for the
    /// kernel's 10 ms steal ticks). The raw median and the median wall
    /// time go in details.
    pub fn report(&self, r: &mut Report) {
        let steal = steal_between((0, 0), self.ticks);
        let cpu = median(&self.cpu_s);
        r.metric("setup_s", net_of_steal(cpu, steal), "s");
        r.detail("setups", self.cpu_s.len() as f64, "set-ups");
        r.detail("setup_cpu_median_raw_s", cpu, "s");
        r.detail("setup_steal", steal, "ratio");
        r.detail("setup_wall_median_s", median(&self.wall_s), "s");
    }
}

/// Median of unsorted values (0 for none).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// A duration in whole nanoseconds.
pub fn ns(d: std::time::Duration) -> u64 {
    d.as_nanos() as u64
}

/// `part / whole`, or 0 when `whole` is 0.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}
