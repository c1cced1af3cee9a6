//! Clocks and host diagnostics.
//!
//! Timed metrics are the calling thread's CPU seconds, not wall time: on
//! a small virtual machine with hypervisor steal, wall time of one
//! workflow spreads far more than the thread's own CPU time. The clock
//! is the scheduler's per-thread runtime, the figure
//! `/proc/thread-self/schedstat` reports, read through
//! `CLOCK_THREAD_CPUTIME_ID`: the proc file only advances at scheduler
//! ticks (4 ms steps on a 250 Hz kernel), while the clock is brought up
//! to date on every read, so millisecond set-ups and sub-millisecond
//! spans are measured exactly.

use std::fs;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// Linux's per-thread CPU-time clock id.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU seconds the calling thread has run.
pub fn thread_cpu_s() -> f64 {
    thread_cpu_ns() as f64 / 1e9
}

/// CPU nanoseconds the calling thread has run, exact at the call.
pub fn thread_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that outlives the call, and the clock id is
    // a constant the kernel defines.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "CLOCK_THREAD_CPUTIME_ID is supported on Linux");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Host-wide steal seconds so far: the `steal` column of the `cpu` line
/// of `/proc/stat`, in clock ticks of 1/100 s. `None` off Linux.
pub fn steal_s() -> Option<f64> {
    let text = fs::read_to_string("/proc/stat").ok()?;
    let line = text.lines().find(|l| l.starts_with("cpu "))?;
    let ticks: u64 = line.split_whitespace().nth(8)?.parse().ok()?;
    Some(ticks as f64 / 100.0)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM is reported in kB");
    kib / 1024.0
}
