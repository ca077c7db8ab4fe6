//! Process resource usage: CPU time and peak resident memory from
//! `getrusage(2)`, and the online CPU count.

use std::time::Duration;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads getrusage(2) with the 64-bit Linux struct layout");

#[repr(C)]
#[derive(Default, Clone, Copy)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then 14 longs starting
/// with `ru_maxrss` (kilobytes).
#[repr(C)]
#[derive(Default, Clone, Copy)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

const RUSAGE_SELF: i32 = 0;
const RUSAGE_THREAD: i32 = 1;

/// `cpu_set_t`: a 1024-bit mask.
type CpuSet = [u64; 16];

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

fn rusage(who: i32) -> Rusage {
    let mut usage = Rusage::default();
    // SAFETY: `usage` is a live, writable `struct rusage` with the C layout
    // of this target (checked by the `compile_error!` gate above), and
    // `who` is one of the two values the kernel accepts here.
    let status = unsafe { getrusage(who, &mut usage) };
    assert_eq!(status, 0, "getrusage({who}) failed");
    usage
}

fn cpu(usage: &Rusage) -> Duration {
    let micros = |t: &Timeval| t.sec as u64 * 1_000_000 + t.usec as u64;
    Duration::from_micros(micros(&usage.utime) + micros(&usage.stime))
}

/// User plus system CPU time of the whole process so far.
pub fn process_cpu() -> Duration {
    cpu(&rusage(RUSAGE_SELF))
}

/// User plus system CPU time of the calling thread so far.
pub fn thread_cpu() -> Duration {
    cpu(&rusage(RUSAGE_THREAD))
}

/// Peak resident set size of the process so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    rusage(RUSAGE_SELF).maxrss as f64 / 1024.0
}

/// Pins the calling thread, and every thread it spawns afterwards, to the
/// lowest-numbered CPU it may run on; returns that CPU.
///
/// # Errors
///
/// The affinity cannot be read or set.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let mut allowed: CpuSet = [0; 16];
    // SAFETY: `allowed` is a writable `cpu_set_t`-sized buffer and the size
    // passed is its size in bytes; pid 0 names the calling thread.
    let status = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut allowed) };
    if status != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = (0..1024)
        .find(|&c| allowed[c / 64] & (1 << (c % 64)) != 0)
        .ok_or("the affinity mask is empty")?;
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable `cpu_set_t`-sized buffer and the size
    // passed is its size in bytes; pid 0 names the calling thread.
    let status = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) };
    if status != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}

/// Online CPUs, from `/sys/devices/system/cpu/online` (e.g. `0-1,4`).
pub fn nproc() -> usize {
    let Ok(text) = std::fs::read_to_string("/sys/devices/system/cpu/online") else {
        return 0;
    };
    text.trim()
        .split(',')
        .filter_map(|range| match range.split_once('-') {
            Some((a, b)) => Some(b.parse::<usize>().ok()? + 1 - a.parse::<usize>().ok()?),
            None => range.parse::<usize>().ok().map(|_| 1),
        })
        .sum()
}
