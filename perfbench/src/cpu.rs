//! The clocks the benchmark's host costs are read from: the CPU time of the
//! whole process, and a reference kernel that measures how fast the host
//! is at the moment.
//!
//! Wall time on a shared virtual machine includes the time the hypervisor
//! runs other guests on our virtual CPUs (steal time), which moves a
//! seconds-long run by ±25 % from one run to the next. CPU time counts only
//! the time this process's threads actually ran, but it still follows the
//! host's speed, which drifts over minutes; host costs are therefore stated
//! at a reference speed measured next to each run.

use std::time::Duration;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!(
    "the benchmark reads CLOCK_PROCESS_CPUTIME_ID with the 64-bit Linux timespec layout"
);

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

unsafe extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// User + system CPU time of every thread of this process so far, exited
/// threads included.
pub fn process_cpu_time() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` only writes one `struct timespec` through the
    // pointer, which points at a live, exclusively borrowed value whose
    // layout matches the C struct on 64-bit Linux (checked above).
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(
        u64::try_from(ts.tv_sec).expect("CPU time is not negative"),
        u32::try_from(ts.tv_nsec).expect("nanoseconds are below one second"),
    )
}

/// CPU seconds `f` took, with its result.
pub fn cpu_seconds<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = process_cpu_time();
    let out = f();
    (out, (process_cpu_time() - start).as_secs_f64())
}

/// Passes of the reference kernel over its buffer; about 30 ms of CPU.
const REFERENCE_ROUNDS: usize = 400;

/// The reference kernel's usual CPU seconds on a two-core Intel Xeon KVM
/// guest: the unit host costs are stated in.
pub const REFERENCE_NOMINAL_S: f64 = 0.03;

/// CPU seconds of a fixed integer-and-memory kernel that runs no simulator
/// code: how fast the host is right now. On a shared virtual machine the
/// same work takes up to twice the CPU time in one minute as in another, and
/// the simulator slows down with it.
pub fn reference_seconds() -> f64 {
    let mut buf = vec![1u64; 1 << 15];
    let (acc, s) = cpu_seconds(|| {
        let mut x = 0x9E37_79B9_7F4A_7C15_u64;
        let mut acc = 0u64;
        for _ in 0..REFERENCE_ROUNDS {
            for v in std::hint::black_box(&mut buf).iter_mut() {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                *v = v.wrapping_mul(x | 1) ^ (*v >> 3);
                acc = acc.wrapping_add(*v);
            }
        }
        acc
    });
    std::hint::black_box(acc);
    s
}

/// `cpu_s` CPU seconds measured while the reference kernel took
/// `reference_s`, restated at the nominal reference speed.
pub fn at_reference_speed(cpu_s: f64, reference_s: f64) -> f64 {
    cpu_s * REFERENCE_NOMINAL_S / reference_s
}
