//! Thread CPU time, read beside wall time.
//!
//! On a shared host a wall-clock interval also counts the time the thread
//! waited for a CPU, so two timings of the same work can differ by the
//! host's load. The thread's own CPU clock advances only while it runs:
//! a ratio of CPU times compares the work, and the wall ratio beside it
//! shows what the host added.

use std::time::Duration;

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod sys {
    /// `struct timespec` on 64-bit Linux.
    #[repr(C)]
    pub struct Timespec {
        pub tv_sec: i64,
        pub tv_nsec: i64,
    }

    pub const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

    extern "C" {
        pub fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
}

/// CPU time the calling thread has used since it started, from
/// `clock_gettime(CLOCK_THREAD_CPUTIME_ID)`; `None` where that clock is
/// not available (any target but 64-bit Linux). A call costs a few
/// hundred nanoseconds, so read it per phase, not per inner step.
pub fn thread_cpu_time() -> Option<Duration> {
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    {
        let mut ts = sys::Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a valid, writable `timespec` for the call, and
        // the clock id is a constant the kernel defines.
        let rc = unsafe { sys::clock_gettime(sys::CLOCK_THREAD_CPUTIME_ID, &mut ts) };
        (rc == 0).then(|| Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32))
    }
    #[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
    {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_thread_clock_advances_with_work_and_not_with_sleep() {
        let Some(start) = thread_cpu_time() else {
            return; // no thread clock on this target
        };
        // Spin until the thread has run 5 ms; a stopped clock would spin
        // until the wall-clock guard gives up.
        let guard = std::time::Instant::now();
        let mut x = 0u64;
        while thread_cpu_time().expect("clock") - start < Duration::from_millis(5) {
            assert!(guard.elapsed() < Duration::from_secs(30), "clock stopped");
            x = std::hint::black_box(x.wrapping_add(1));
        }
        let before = thread_cpu_time().expect("clock");
        std::thread::sleep(Duration::from_millis(50));
        let slept = thread_cpu_time().expect("clock") - before;
        assert!(slept < Duration::from_millis(25), "{slept:?}");
    }
}
