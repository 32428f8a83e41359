//! Waking the second core before timing.
//!
//! On a virtual machine an idle core can take seconds of demand before it
//! runs threads again: after an idle period two busy threads share one
//! core, and a workload that is mostly serial (REDEEM keeps 1.2 cores
//! busy) never asks hard enough — it then runs in a "single-core mode" for
//! a minute, 20 % slower at the same CPU time. Measured runs therefore
//! start by keeping two threads busy until they really run side by side.
//! This is warm-up, like letting caches fill: it is neither timed nor set-up.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Two threads count as running side by side above this speed-up.
const PARALLEL_ENOUGH: f64 = 1.6;
/// Give up waking after this long and measure what there is.
const PATIENCE: Duration = Duration::from_secs(5);

fn spin(iterations: u64) -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..iterations {
        x = black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
    }
    x
}

/// Speed-up of two threads over one on a fixed amount of spinning: 2.0
/// when each has a core, 1.0 when they share one.
fn two_thread_speedup(iterations: u64) -> f64 {
    let t0 = Instant::now();
    black_box(spin(iterations));
    let single = t0.elapsed();
    let t0 = Instant::now();
    std::thread::scope(|s| {
        s.spawn(|| black_box(spin(iterations)));
        black_box(spin(iterations));
    });
    2.0 * single.as_secs_f64() / t0.elapsed().as_secs_f64()
}

/// Keep two threads busy until two bursts in a row run in parallel (or
/// patience runs out). Returns the last speed-up seen and the seconds spent.
pub fn wake_cores() -> (f64, f64) {
    let start = Instant::now();
    // About 20 ms of spinning per burst.
    let t0 = Instant::now();
    black_box(spin(1_000_000));
    let iterations = (0.02 / t0.elapsed().as_secs_f64().max(1e-6) * 1e6) as u64;
    let mut good = 0;
    let mut speedup = 0.0;
    while good < 2 && start.elapsed() < PATIENCE {
        speedup = two_thread_speedup(iterations.max(1));
        good = if speedup >= PARALLEL_ENOUGH { good + 1 } else { 0 };
    }
    (speedup, start.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn waking_reports_a_speedup_and_gives_up_in_time() {
        let (speedup, waited_s) = wake_cores();
        assert!(speedup > 0.0 && speedup < 4.0, "{speedup}");
        assert!(waited_s < PATIENCE.as_secs_f64() + 1.0, "{waited_s}");
    }
}
