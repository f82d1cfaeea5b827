//! Facts about the host and this process, read from `/proc`: how much
//! CPU the process burned, its peak memory, and what machine produced the
//! numbers (so a surprising one can be audited from the log alone).

use std::fs;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Process CPU seconds (user + system, every thread, exited ones too):
/// `clock_gettime(CLOCK_PROCESS_CPUTIME_ID)`, exact to the nanosecond up
/// to the instant of the call (`/proc/self/stat` ticks at 10 ms).
pub fn cpu_seconds() -> f64 {
    const CLOCK_PROCESS_CPUTIME_ID: usize = 2;
    clock_seconds(CLOCK_PROCESS_CPUTIME_ID)
}

/// The kernel's id of the calling thread.
pub fn thread_id() -> usize {
    // SAFETY: gettid takes no arguments and cannot fail.
    unsafe { raw_syscall3(SYS_GETTID, 0, 0, 0) as usize }
}

/// CPU seconds of thread `tid` of this process, readable from any of its
/// threads: the per-thread CPU clock `MAKE_THREAD_CPUCLOCK(tid,
/// CPUCLOCK_SCHED)` of `<linux/posix-timers.h>`, which is what
/// `pthread_getcpuclockid` hands out.
pub fn thread_cpu_seconds(tid: usize) -> f64 {
    const CPUCLOCK_PERTHREAD_SCHED: usize = 4 | 2;
    clock_seconds((!tid << 3) | CPUCLOCK_PERTHREAD_SCHED)
}

fn clock_seconds(clock: usize) -> f64 {
    // struct timespec { tv_sec, tv_nsec } on 64-bit Linux.
    let mut ts = [0i64; 2];
    // SAFETY: clock_gettime writes one 16-byte timespec at the pointer,
    // which is a live, exclusively borrowed, 8-aligned [i64; 2].
    let ret = unsafe { raw_syscall3(SYS_CLOCK_GETTIME, clock, ts.as_mut_ptr() as usize, 0) };
    assert_eq!(ret, 0, "clock_gettime({clock:#x}) failed");
    ts[0] as f64 + ts[1] as f64 / 1e9
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("/proc/self/status unreadable");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .expect("no VmHWM in /proc/self/status");
    let kib: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .expect("malformed VmHWM line");
    kib / 1024.0
}

pub fn kernel_release() -> String {
    fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_owned(), |s| s.trim().to_owned())
}

/// Filesystem type and device of the mount holding `path` (longest
/// mount-point prefix in `/proc/mounts`).
pub fn filesystem_of(path: &Path) -> String {
    let abs = fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mounts = fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (dev, point, kind) = (f.next()?, f.next()?, f.next()?);
            abs.starts_with(point)
                .then(|| (point.len(), format!("{kind} on {dev}")))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_owned(), |(_, s)| s)
}

/// The checked-out commit, when the benchmark runs inside a git work
/// tree (the driver's checkout is not one).
pub fn commit(repo_root: &Path) -> String {
    let head = match fs::read_to_string(repo_root.join(".git/HEAD")) {
        Ok(h) => h.trim().to_owned(),
        Err(_) => return "unknown (not a git checkout)".to_owned(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => fs::read_to_string(repo_root.join(".git").join(r))
            .map_or(head.clone(), |s| s.trim().to_owned()),
        None => head,
    }
}

/// Seconds for a chain of `steps` dependent integer operations, which
/// neither caches nor neighbours touch much: a reading of the core's
/// current speed.
fn alu_chain_seconds(steps: u64) -> f64 {
    let t0 = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for i in 0..steps {
        x = (x ^ i).wrapping_mul(0x2545_f491_4f6c_dd1d).rotate_left(17);
    }
    std::hint::black_box(x);
    t0.elapsed().as_secs_f64()
}

/// Milliseconds for a fixed L1-resident integer loop: nearly flat across
/// runs while loopback throughput swings, so it separates "the host's CPU
/// was slower" from "the scheduler/network path was noisier".
pub fn calib_alu_ms() -> f64 {
    alu_chain_seconds(20_000_000) * 1e3
}

/// Microseconds for a chain of 20 000 dependent integer steps, cheap
/// enough to take at every slice boundary: a reading of the core's clock.
/// A step is five cycles of latency (xor, multiply, rotate), so ~100 000
/// cycles. On this host it sits on crisp levels 100 MHz apart by that count
/// (29.43 µs, 32.28, 33.4, 34.5, 35.8 µs: the turbo steps the host's other
/// tenants push the core through, for seconds to minutes at a time), and
/// the store-less workloads' undisturbed throughput follows it (two sets
/// of ten `hot_read` runs a quarter of an hour apart, one at 29.4 and one
/// at 32.3 µs: medians 12.6 % apart as timed, 2.7 % apart scaled by the
/// tick). A neighbour's burst can only lengthen a reading, so the fastest
/// of a few readings, or a low quantile of many, is the clock.
pub fn core_speed_tick_us() -> f64 {
    alu_chain_seconds(20_000) * 1e6
}

/// The tick at the reference clock that every time-based end-to-end figure
/// is scaled to.
pub const REFERENCE_TICK_US: f64 = 30.0;

/// How many times slower than the reference clock the core ran when the
/// tick read `tick_us`. A time divided by it, or a rate multiplied by it,
/// is what the same core cycles take at the reference clock.
pub fn clock_factor(tick_us: f64) -> f64 {
    tick_us / REFERENCE_TICK_US
}

/// Median microseconds of a 4 KiB append + `fsync` in `dir`: the floor
/// under every group commit on this filesystem.
pub fn fsync_probe_us(dir: &Path) -> f64 {
    fs::create_dir_all(dir).expect("cannot create the probe directory");
    let path = dir.join("fsync.probe");
    let mut file = fs::File::create(&path).expect("cannot create the probe file");
    let block = [0xa5u8; 4096];
    let samples: Vec<f64> = (0..64)
        .map(|_| {
            let t0 = Instant::now();
            file.write_all(&block).expect("probe write failed");
            file.sync_all().expect("probe fsync failed");
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    drop(file);
    let _ = fs::remove_file(&path);
    crate::stats::median(&samples)
}

/// The CPUs the process was allowed to run on when first asked (before
/// any thread pinned itself), lowest first.
pub fn allowed_cpus() -> &'static [usize] {
    static CPUS: std::sync::OnceLock<Vec<usize>> = std::sync::OnceLock::new();
    CPUS.get_or_init(|| {
        let mut mask = [0u64; 16];
        // SAFETY: sched_getaffinity(0, len, mask) writes at most `len`
        // bytes at `mask`, a live, exclusively borrowed array of that size.
        let ret = unsafe {
            raw_syscall3(
                SYS_SCHED_GETAFFINITY,
                0,
                std::mem::size_of_val(&mask),
                mask.as_mut_ptr() as usize,
            )
        };
        if ret <= 0 {
            return Vec::new();
        }
        (0..mask.len() * 64)
            .filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
            .collect()
    })
}

/// Restricts the calling thread (and every thread it later spawns) to
/// `cpus`. Returns whether the kernel accepted it.
pub fn pin_current_thread(cpus: &[usize]) -> bool {
    let mut mask = [0u64; 16];
    for &cpu in cpus.iter().filter(|&&c| c < 16 * 64) {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: sched_setaffinity(0, len, mask) only reads `len` bytes at
    // `mask`, a live array of that size.
    let ret = unsafe {
        raw_syscall3(
            SYS_SCHED_SETAFFINITY,
            0,
            std::mem::size_of_val(&mask),
            mask.as_ptr() as usize,
        )
    };
    ret == 0
}

// The standard library has neither an affinity call nor a CPU-time clock,
// and the build has no libc crate (nothing may be fetched), so these are
// raw Linux system calls, on the one platform the benchmark is specified
// for.
#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
compile_error!(
    "the benchmark pins itself and reads CPU clocks through raw x86-64 Linux system calls"
);

const SYS_GETTID: usize = 186;
const SYS_SCHED_SETAFFINITY: usize = 203;
const SYS_SCHED_GETAFFINITY: usize = 204;
const SYS_CLOCK_GETTIME: usize = 228;

/// A three-argument Linux system call; returns the kernel's result
/// (negative errno on failure).
///
/// # Safety
///
/// The caller must pass arguments that are valid for system call `nr`: a
/// pointer argument must point to memory the kernel may read or write to
/// the extent that call does.
unsafe fn raw_syscall3(nr: usize, a: usize, b: usize, c: usize) -> isize {
    let ret: isize;
    // SAFETY: the kernel's x86-64 convention — number in rax, arguments in
    // rdi/rsi/rdx, rcx and r11 clobbered; argument validity is the
    // caller's contract.
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") nr as isize => ret,
            in("rdi") a,
            in("rsi") b,
            in("rdx") c,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack)
        );
    }
    ret
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A core at half the reference clock takes twice as long over the
    /// same cycles: the factor its times are divided by is 2.
    #[test]
    fn clock_factor_is_the_slow_down_against_the_reference_clock() {
        assert_eq!(clock_factor(REFERENCE_TICK_US), 1.0);
        assert_eq!(clock_factor(2.0 * REFERENCE_TICK_US), 2.0);
        let tick = core_speed_tick_us();
        assert!((1.0..1_000.0).contains(&tick), "tick of {tick} us");
    }
}
