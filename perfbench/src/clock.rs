//! A cheap clock for per-call timing.
//!
//! Reading `Instant::now()` costs ~50 ns on a virtualized host — as much
//! as the cache operations being timed. On x86-64 this reads the
//! time-stamp counter instead (~20 ns) and converts ticks to nanoseconds
//! with a ratio measured against `Instant` once per process.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// The current tick count.
#[cfg(target_arch = "x86_64")]
#[inline]
pub fn ticks() -> u64 {
    // SAFETY: RDTSC has no preconditions; every x86-64 CPU provides it.
    unsafe { core::arch::x86_64::_rdtsc() }
}

/// The current tick count (nanoseconds since first use off x86-64).
#[cfg(not(target_arch = "x86_64"))]
#[inline]
pub fn ticks() -> u64 {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Nanoseconds per tick, measured once against `Instant` over 20 ms.
pub fn ns_per_tick() -> f64 {
    static RATIO: OnceLock<f64> = OnceLock::new();
    *RATIO.get_or_init(|| {
        let (i0, t0) = (Instant::now(), ticks());
        std::thread::sleep(Duration::from_millis(20));
        let (i1, t1) = (Instant::now(), ticks());
        i1.duration_since(i0).as_nanos() as f64 / (t1.wrapping_sub(t0)).max(1) as f64
    })
}

/// Nanoseconds between two tick readings.
#[inline]
pub fn ns_between(start: u64, end: u64) -> u64 {
    (end.saturating_sub(start) as f64 * ns_per_tick()) as u64
}

/// What an empty span measures: the clock's own cost inside every timed
/// call, in nanoseconds (median of five batches).
pub fn empty_span_ns() -> f64 {
    let mut batches: Vec<f64> = (0..5)
        .map(|_| {
            const N: u64 = 100_000;
            let mut total = 0u64;
            for _ in 0..N {
                let t0 = ticks();
                total += ticks().saturating_sub(t0);
            }
            ns_between(0, total) as f64 / N as f64
        })
        .collect();
    batches.sort_by(f64::total_cmp);
    batches[2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ticks_convert_to_wall_time() {
        ns_per_tick();
        let t0 = ticks();
        let i0 = Instant::now();
        std::thread::sleep(Duration::from_millis(5));
        let ns = ns_between(t0, ticks());
        let wall = i0.elapsed().as_nanos() as u64;
        assert!(ns > wall / 2 && ns < wall * 2, "{ns} ns vs {wall} ns");
    }
}
