//! What the benchmark reads from the host: CPU time per thread and per
//! process, and the facts every result records about where it ran.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;

/// Whether a thread belongs to the server under test, by its `comm`
/// name: `accept-*`, `shard-*` (the supervisor included) and
/// `serve-aggregator`. Linux keeps 15 bytes of a thread name, hence the
/// prefix match.
pub fn is_server_thread(comm: &str) -> bool {
    comm.starts_with("accept-") || comm.starts_with("shard-") || comm.starts_with("serve-aggreg")
}

/// CPU nanoseconds consumed so far by every live server thread of this
/// process, keyed by thread id, with the thread's name.
pub fn server_thread_cpu() -> HashMap<u32, (String, u64)> {
    let mut out = HashMap::new();
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in dir.flatten() {
        let Some(tid) = entry
            .file_name()
            .to_str()
            .and_then(|s| s.parse::<u32>().ok())
        else {
            continue;
        };
        let path = entry.path();
        let comm = std::fs::read_to_string(path.join("comm")).unwrap_or_default();
        let comm = comm.trim();
        if !is_server_thread(comm) {
            continue;
        }
        if let Some(ns) = task_cpu_ns(&path) {
            out.insert(tid, (comm.to_string(), ns));
        }
    }
    out
}

/// Server CPU spent between two [`server_thread_cpu`] samples, per
/// thread name. Threads born after `before` count from zero.
pub fn server_cpu_by_name(
    before: &HashMap<u32, (String, u64)>,
    after: &HashMap<u32, (String, u64)>,
) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for (tid, (comm, ns)) in after {
        let base = before.get(tid).map_or(0, |(_, b)| *b);
        *out.entry(comm.clone()).or_default() += ns.saturating_sub(base);
    }
    out
}

/// CPU nanoseconds the calling thread has consumed.
pub fn own_thread_cpu_ns() -> u64 {
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// On-CPU nanoseconds of one task: `schedstat`'s first field, or
/// `stat`'s utime + stime (clock ticks) where schedstat is missing.
fn task_cpu_ns(task: &Path) -> Option<u64> {
    if let Ok(s) = std::fs::read_to_string(task.join("schedstat")) {
        if let Some(ns) = s.split_whitespace().next().and_then(|v| v.parse().ok()) {
            return Some(ns);
        }
    }
    let stat = std::fs::read_to_string(task.join("stat")).ok()?;
    ticks_to_ns(&stat)
}

/// utime + stime (fields 14 and 15 of a `stat` line) in nanoseconds.
fn ticks_to_ns(stat: &str) -> Option<u64> {
    // The command name may hold spaces; fields restart after its ')'.
    let rest = &stat[stat.rfind(')')? + 1..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = f.get(11)?.parse().ok()?;
    let stime: u64 = f.get(12)?.parse().ok()?;
    // USER_HZ is 100 on every Linux ABI this benchmark runs on.
    Some((utime + stime) * 10_000_000)
}

/// CPU nanoseconds of the whole process, exited threads included. Like
/// the per-thread figures it leaves out time the host stole from the VM.
pub fn process_cpu_ns() -> u64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// Reads one of the kernel's CPU-time clocks (0 if the call fails).
fn cpu_clock_ns(clock: i32) -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const _: () = assert!(std::mem::size_of::<usize>() == 8, "64-bit timespec layout");
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration,
    // laid out as the 64-bit Linux ABI defines it.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    if rc != 0 {
        return 0;
    }
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Pins the calling thread, and so every thread it starts afterwards,
/// to the first CPU it may run on. Returns that CPU.
///
/// `main` calls it before any other thread starts, so the server, the
/// clients and every other thread of a run share one CPU.
pub fn pin_to_one_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of `size` bytes; pid 0 is the
    // calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..mask.len() * 64).find(|&c| mask[c / 64] & (1 << (c % 64)) != 0)?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of `size` bytes.
    (unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0).then_some(cpu)
}

/// Steal and total ticks of one CPU so far, from its `/proc/stat` line:
/// the time the host ran something else while that CPU wanted to run,
/// and all the CPU's time.
pub fn cpu_ticks(cpu: usize) -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let prefix = format!("cpu{cpu} ");
    let Some(line) = stat.lines().find(|l| l.starts_with(&prefix)) else {
        return (0, 0);
    };
    // user nice system idle iowait irq softirq steal …
    let f: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|v| v.parse().ok())
        .collect();
    (f.get(7).copied().unwrap_or(0), f.iter().sum())
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The running kernel's release string.
pub fn kernel() -> String {
    std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into())
}

/// Filesystem type and source device of the mount holding `path`, from
/// the longest matching mount point in `/proc/self/mountinfo`.
pub fn filesystem_of(path: &Path) -> String {
    let Ok(abs) = std::fs::canonicalize(path) else {
        return "unknown".into();
    };
    let Ok(info) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".into();
    };
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let Some(sep) = fields.iter().position(|&f| f == "-") else {
            continue;
        };
        let (Some(mount), Some(fstype), Some(source)) =
            (fields.get(4), fields.get(sep + 1), fields.get(sep + 2))
        else {
            continue;
        };
        if abs.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() >= *len) {
            best = Some((mount.len(), format!("{fstype} on {source}")));
        }
    }
    best.map_or_else(|| "unknown".into(), |(_, s)| s)
}
