//! Process CPU clock, and the core count spans record.
//!
//! `clock_gettime(CLOCK_PROCESS_CPUTIME_ID)` counts the CPU time of every
//! thread of the process, including threads that have already exited, so
//! the difference of two reads is exactly the CPU the whole process spent
//! in between: a span's own thread, the pool's workers, anything it spawned
//! and joined. One read is one system call (about 0.4 µs on a 2-vCPU
//! x86-64 VM). The workspace is offline, so the function is bound directly
//! from the platform C library, which std always links.

#[cfg(target_os = "linux")]
mod sys {
    use std::ffi::{c_int, c_long};

    pub const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
    #[cfg(test)]
    pub const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }

    extern "C" {
        /// `clock_gettime(2)` from the platform C library.
        fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
    }

    /// Read `clock` in nanoseconds; `None` if the call fails.
    pub fn read(clock: c_int) -> Option<u64> {
        #[cfg(test)]
        super::READS.with(|n| n.set(n.get() + 1));
        let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
        // SAFETY: `ts` is a valid, writable `struct timespec` (two C longs
        // on Linux) for the duration of the call.
        if unsafe { clock_gettime(clock, &mut ts) } != 0 {
            return None;
        }
        Some((ts.tv_sec as u64).saturating_mul(1_000_000_000).saturating_add(ts.tv_nsec as u64))
    }
}

#[cfg(test)]
thread_local! {
    /// Clock reads made by this thread (tests check that a disabled
    /// collector makes none).
    pub(crate) static READS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// CPU time the whole process has used so far, nanoseconds (`None` where
/// the process CPU clock is unavailable, i.e. off Linux).
pub fn process_cpu_ns() -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        sys::read(sys::CLOCK_PROCESS_CPUTIME_ID)
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

#[cfg(test)]
thread_local! {
    /// [`available_cores`] calls made by this thread (tests check that a
    /// disabled collector makes none).
    pub(crate) static CORE_LOOKUPS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Times this process asked the standard library for its core count.
#[cfg(test)]
pub(crate) static CORE_READS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// The number of cores this process may use
/// ([`std::thread::available_parallelism`], 1 where it is unknown), read
/// once per process. On Linux every call of the standard function re-reads
/// the cgroup CPU quota files, about 19 µs, which is 50 times what a span
/// open costs otherwise.
pub fn available_cores() -> usize {
    static CORES: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    #[cfg(test)]
    CORE_LOOKUPS.with(|n| n.set(n.get() + 1));
    *CORES.get_or_init(|| {
        #[cfg(test)]
        CORE_READS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        std::thread::available_parallelism().map_or(1, |n| n.get())
    })
}

/// CPU time the calling thread has used so far, nanoseconds.
#[cfg(all(test, target_os = "linux"))]
pub(crate) fn thread_cpu_ns() -> Option<u64> {
    sys::read(sys::CLOCK_THREAD_CPUTIME_ID)
}
