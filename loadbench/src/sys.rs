//! What the standard library does not expose: process CPU time, peak
//! resident memory, the kernel's timer slack and thread CPU affinity.
//! Linux only, like the rest of the benchmark.

use std::ffi::{c_int, c_long, c_ulong};
use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: c_long,
}

extern "C" {
    fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
    fn prctl(option: c_int, ...) -> c_int;
    fn sched_setaffinity(pid: c_int, size: usize, mask: *const u64) -> c_int;
}

const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
const PR_SET_TIMERSLACK: c_int = 29;

/// User plus system CPU time used so far by every thread of this
/// process (servers, router and load generator alike).
///
/// # Panics
/// If the kernel rejects the clock, which Linux always supports.
#[must_use]
pub fn process_cpu() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on x86-64 and aarch64 Linux) for the whole call, and the
    // call writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Lets the calling thread's sleeps wake within a nanosecond of their
/// deadline instead of Linux's default 50 µs slack, so an open-loop
/// generator keeps its schedule by sleeping rather than spinning. Best
/// effort: if the call fails, sends run later, which the generator's
/// send-lag figure shows.
pub fn tighten_timer_slack() {
    // SAFETY: PR_SET_TIMERSLACK reads one `unsigned long` argument and
    // changes only the calling thread's timer slack.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1 as c_ulong);
    }
}

/// Peak resident set size of this process so far (`VmHWM`), in MiB; 0
/// if `/proc` is unreadable.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Pins the calling thread to CPU `cpu` (below 1024). Best effort: if
/// the kernel refuses, the thread stays free to move.
pub fn pin_to_cpu(cpu: usize) {
    let mut mask = [0u64; 16];
    mask[(cpu / 64) % mask.len()] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live 1024-bit cpu_set_t for the whole call,
    // and pid 0 names the calling thread.
    unsafe {
        sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr());
    }
}
