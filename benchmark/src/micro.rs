//! The std-only micro-kernel: unit costs of single calls.
//!
//! Warm up, size a batch so one timed batch lasts at least a millisecond
//! (so `Instant`'s resolution and call overhead vanish), time at least 30
//! batches, report the median per-call cost and its MAD. Inputs and results
//! pass through `black_box` so the optimiser can neither hoist nor delete
//! the measured call.

use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::stats;

/// Batches timed per kernel.
pub const SAMPLES: usize = 30;
/// Minimum wall time of one timed batch.
pub const MIN_BATCH: Duration = Duration::from_millis(1);

/// One kernel's measured unit cost.
#[derive(Debug, Clone, Copy)]
pub struct UnitCost {
    /// Median nanoseconds per call.
    pub ns: f64,
    /// Median absolute deviation of the per-batch figures, nanoseconds.
    pub mad_ns: f64,
    /// Calls per timed batch.
    pub batch: usize,
}

fn time_batch<R>(batch: usize, call: &mut impl FnMut(usize) -> R, next: &mut usize) -> Duration {
    let start = Instant::now();
    for _ in 0..batch {
        black_box(call(black_box(*next)));
        *next = next.wrapping_add(1);
    }
    start.elapsed()
}

/// Measures `call(i)`, where `i` counts calls so the kernel can cycle
/// through captured inputs (`inputs[i % inputs.len()]`).
pub fn measure<R>(mut call: impl FnMut(usize) -> R) -> UnitCost {
    let mut next = 0usize;
    // Warm-up doubles as batch sizing: grow until one batch spans MIN_BATCH.
    let mut batch = 1usize;
    loop {
        let took = time_batch(batch, &mut call, &mut next);
        if took >= MIN_BATCH || batch >= 1 << 30 {
            break;
        }
        let scale = MIN_BATCH.as_secs_f64() / took.as_secs_f64().max(1e-9);
        batch = ((batch as f64 * scale * 1.2).ceil() as usize).max(batch * 2);
    }
    let mut per_call: Vec<f64> = (0..SAMPLES)
        .map(|_| time_batch(batch, &mut call, &mut next).as_secs_f64() * 1e9 / batch as f64)
        .collect();
    let ns = stats::median(&mut per_call);
    UnitCost {
        ns,
        mad_ns: stats::mad(&per_call, ns),
        batch,
    }
}

/// Measures a call over captured inputs, cycling through them.
pub fn over<T, R>(inputs: &[T], mut call: impl FnMut(&T) -> R) -> UnitCost {
    assert!(!inputs.is_empty(), "a kernel needs at least one input");
    measure(|i| call(&inputs[i % inputs.len()]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(d: Duration) {
        let start = Instant::now();
        while start.elapsed() < d {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn calibrated_spin_measures_its_nominal_length() {
        let nominal = Duration::from_micros(200);
        let cost = measure(|_| spin(nominal));
        let ratio = cost.ns / nominal.as_nanos() as f64;
        assert!((0.8..=1.2).contains(&ratio), "measured {} ns", cost.ns);
        assert!(
            cost.batch >= 5,
            "batch {} is below a millisecond",
            cost.batch
        );
    }

    #[test]
    fn inputs_are_cycled_in_order() {
        let inputs = [1u64, 2, 3];
        let mut seen = Vec::new();
        over(&inputs, |v| {
            if seen.len() < 6 {
                seen.push(*v);
            }
            spin(Duration::from_micros(20));
        });
        assert_eq!(seen, [1, 2, 3, 1, 2, 3]);
    }
}
