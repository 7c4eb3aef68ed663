//! What the process and the host did while a workload ran: CPU time,
//! context switches and peak RSS from `getrusage`, plus two quick host
//! probes (a fixed spin loop and a sleep overshoot) taken before and
//! after the workload to flag a disturbed run.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// x86_64 / aarch64 Linux `struct rusage`: two `timeval`s then fourteen
/// `long`s.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    /// maxrss, ixrss, idrss, isrss, minflt, majflt, nswap, inblock,
    /// oublock, msgsnd, msgrcv, nsignals.
    _unused: [i64; 12],
    /// Voluntary then involuntary context switches.
    ctx_switches: [i64; 2],
}

const RUSAGE_SELF: i32 = 0;

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The CPUs (0–63) the calling thread may run on, as a bit mask.
/// Threads inherit it when spawned, which is how a workload places the
/// program's threads without touching the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Affinity(u64);

impl Affinity {
    /// Only `cpu`.
    pub fn only(cpu: u32) -> Affinity {
        Affinity(1 << cpu)
    }

    /// The calling thread's current mask.
    pub fn current() -> Affinity {
        let mut mask = 0u64;
        // SAFETY: pid 0 is the calling thread; the kernel writes at
        // most the 8 bytes it is told `mask` has.
        let rc = unsafe { sched_getaffinity(0, 8, &mut mask) };
        // A host with more than 64 CPUs refuses an 8-byte mask; "the
        // first 64" is then the closest mask this type can restore.
        Affinity(if rc == 0 { mask } else { u64::MAX })
    }

    /// Restrict the calling thread to this mask. Returns `false` (and
    /// changes nothing) when the host does not allow it — fewer CPUs, a
    /// container's cpuset — so a caller can carry on unpinned.
    #[must_use = "a refused mask means the caller runs unpinned"]
    pub fn apply(self) -> bool {
        // SAFETY: pid 0 is the calling thread; the kernel reads the 8
        // bytes of `self.0` and zero-extends them to its own mask width.
        unsafe { sched_setaffinity(0, 8, &self.0) == 0 }
    }
}

/// Process-wide resource use so far, threads that already exited
/// included (which `/proc/self/task/*` would miss: `crawl()` joins its
/// scoped workers before anyone can read them).
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcUsage {
    /// User-mode CPU seconds.
    pub user_s: f64,
    /// Kernel-mode CPU seconds.
    pub sys_s: f64,
    /// Voluntary + involuntary context switches.
    pub ctx_switches: u64,
}

impl ProcUsage {
    /// Read the counters now.
    pub fn now() -> ProcUsage {
        let mut raw = RUsage::default();
        // SAFETY: `getrusage` writes one `struct rusage` through the
        // pointer; `RUsage` is `repr(C)` with that struct's 64-bit Linux
        // layout (144 bytes), owned by this frame, and RUSAGE_SELF is a
        // valid `who`.
        let rc = unsafe { getrusage(RUSAGE_SELF, &mut raw) };
        assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
        let secs = |tv: [i64; 2]| tv[0] as f64 + tv[1] as f64 / 1e6;
        ProcUsage {
            user_s: secs(raw.utime),
            sys_s: secs(raw.stime),
            ctx_switches: (raw.ctx_switches[0] + raw.ctx_switches[1]) as u64,
        }
    }

    /// Total CPU seconds, both modes.
    pub fn cpu_s(&self) -> f64 {
        self.user_s + self.sys_s
    }

    /// The counters accrued since `earlier`.
    pub fn since(&self, earlier: &ProcUsage) -> ProcUsage {
        ProcUsage {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            ctx_switches: self.ctx_switches - earlier.ctx_switches,
        }
    }

    /// Add another window's deltas to this one.
    pub fn add(&mut self, other: &ProcUsage) {
        self.user_s += other.user_s;
        self.sys_s += other.sys_s;
        self.ctx_switches += other.ctx_switches;
    }

    /// Kernel share of the CPU time (0 when no CPU time accrued).
    pub fn sys_share(&self) -> f64 {
        if self.cpu_s() > 0.0 {
            self.sys_s / self.cpu_s()
        } else {
            0.0
        }
    }
}

/// Peak resident set size of the process in MiB: `VmHWM` of
/// `/proc/self/status`.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Restart the peak-RSS high-water mark from the current resident set
/// (`echo 5 > /proc/self/clear_refs`), so the peak read after a
/// workload is the workload's and not its set-up's. Returns `false`
/// where the kernel or the sandbox refuses; the peak then covers the
/// whole process.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Entries the reference loop formats, hashes and sorts.
const REFERENCE_ENTRIES: u64 = 4_000;

/// Milliseconds [`spin_ms`] reads on the benchmark host while it is
/// undisturbed. Every timing is scaled to this speed (see
/// [`host_speed`]), so the constant only fixes the scale: changing it
/// rescales every metric of every run alike.
pub const REF_SPIN_MS: f64 = 1.3;

/// Wall milliseconds of the reference loop on the calling thread's
/// core, best of three (a preemption inside one pass would otherwise
/// double the reading).
///
/// The loop is a fixed piece of ordinary code — format
/// [`REFERENCE_ENTRIES`] domain-like strings, count them in a
/// `HashMap`, sort the keys — because that is what the host's slow
/// phases slow down: measured side by side over 90 s, a chain of
/// dependent integer operations kept its speed within 1.2 % while this
/// loop and the program's own `analyze_domain` / `check_host` slowed by
/// up to 1.8× together (their ratio held within 4–7 %). It allocates,
/// hashes and chases pointers as the program does, and calls none of
/// the program, so no change to the program can move it.
pub fn spin_ms() -> f64 {
    (0..3)
        .map(|_| {
            let started = Instant::now();
            let mut counts: HashMap<String, u64> = HashMap::new();
            for i in 0..REFERENCE_ENTRIES {
                let name = format!("{}.example{}.com", i * 2_654_435_761 % 100_003, i % 97);
                *counts.entry(name).or_default() += i;
            }
            let mut names: Vec<&String> = counts.keys().collect();
            names.sort();
            black_box(names.iter().map(|name| name.len()).sum::<usize>());
            started.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}

/// The host's speed across an interval bracketed by two [`spin_ms`]
/// readings, relative to the reference: 1.0 undisturbed, down to about
/// 0.55 in the guest's slow phases.
pub fn host_speed(spin_before_ms: f64, spin_after_ms: f64) -> f64 {
    REF_SPIN_MS / ((spin_before_ms + spin_after_ms) / 2.0)
}

/// One reading of the two host probes.
#[derive(Debug, Clone, Copy)]
pub struct HostProbe {
    /// [`spin_ms`]: rises when the host slows the guest down.
    pub spin_ms: f64,
    /// Median overshoot of a 100 µs sleep in microseconds: the host's
    /// timer + wake-up latency.
    pub wakeup_us: f64,
}

impl HostProbe {
    /// Take both probes (about 12 ms).
    pub fn take() -> HostProbe {
        let nap = Duration::from_micros(100);
        let overshoots: Vec<f64> = (0..41)
            .map(|_| {
                let started = Instant::now();
                std::thread::sleep(nap);
                started.elapsed().saturating_sub(nap).as_secs_f64() * 1e6
            })
            .collect();
        HostProbe {
            spin_ms: spin_ms(),
            wakeup_us: crate::stats::median(&overshoots).expect("41 samples"),
        }
    }

    /// Whether either probe moved by more than 25 % between `self`
    /// (before the workload) and `after`.
    pub fn disturbed(&self, after: &HostProbe) -> bool {
        let moved = |before: f64, after: f64| (after - before).abs() > 0.25 * before;
        moved(self.spin_ms, after.spin_ms) || moved(self.wakeup_us, after.wakeup_us)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rusage_layout_is_the_kernel_one() {
        assert_eq!(std::mem::size_of::<RUsage>(), 144);
    }

    #[test]
    fn usage_advances_with_work_and_reports_rss() {
        let before = ProcUsage::now();
        let started = Instant::now();
        let mut x = 1u64;
        while started.elapsed() < Duration::from_millis(30) {
            x = black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        let used = ProcUsage::now().since(&before);
        assert!(used.cpu_s() > 0.01, "{used:?}");
        assert!(peak_rss_mib() > 1.0);
        assert!((0.0..=1.0).contains(&used.sys_share()));
    }

    #[test]
    fn affinity_narrows_and_restores() {
        let before = Affinity::current();
        if Affinity::only(0).apply() {
            assert_eq!(Affinity::current(), Affinity::only(0));
        }
        assert!(before.apply());
        assert_eq!(Affinity::current(), before);
    }

    #[test]
    fn disturbance_needs_more_than_a_quarter() {
        let before = HostProbe {
            spin_ms: 10.0,
            wakeup_us: 60.0,
        };
        let quiet = HostProbe {
            spin_ms: 11.0,
            wakeup_us: 70.0,
        };
        let noisy = HostProbe {
            spin_ms: 10.0,
            wakeup_us: 90.0,
        };
        assert!(!before.disturbed(&quiet));
        assert!(before.disturbed(&noisy));
    }
}
