//! The host's speed, measured from inside the run.
//!
//! On a shared virtual machine the same code runs up to twice as slow in
//! spells that last from seconds to minutes. CPU time per request rises
//! with wall time in those spells, so the cause is the host (a busy
//! sibling hyperthread, a lower clock), not steal, and every run that falls
//! in a spell reads slow from end to end. A fixed reference kernel, timed
//! between primary calls, slows with it (README, "Host speed"). The
//! end-to-end metrics divide each stretch of the run by the kernel's
//! slowdown in that stretch: they report the program's time as it would
//! read on a core that runs the kernel in [`REFERENCE`].

use std::hint::black_box;
use std::time::{Duration, Instant};

/// The kernel's time on an unloaded core of the 2-vCPU Intel Xeon virtual
/// machine the benchmark was defined on. It fixes the scale of the
/// reported figures only; any comparison between two commits cancels it.
pub const REFERENCE: Duration = Duration::from_micros(38);

/// Kernel samples per measured-phase block: one every 50 ms, about 0.1%
/// of the run.
pub const SAMPLE_EVERY: Duration = Duration::from_millis(50);

/// Limbs of the kernel's operands: 1024 bits.
const LIMBS: usize = 16;
/// Multiplications per kernel run.
const ROUNDS: usize = 200;

/// Times one run of the reference kernel: `ROUNDS` 1024-bit schoolbook
/// multiplications on 64-bit limbs, each folding its product back into
/// the next operand. Wide multiply-accumulate is the bulk of the program's
/// modular exponentiation, so the kernel meets the same contention; it is
/// written here, so no change to the program moves it.
pub fn kernel() -> Duration {
    let started = Instant::now();
    let mut a: [u64; LIMBS] = black_box(std::array::from_fn(|i| {
        0x9E37_79B9_7F4A_7C15u64.wrapping_mul(2 * i as u64 + 1)
    }));
    let b = a;
    for _ in 0..ROUNDS {
        let mut r = [0u64; 2 * LIMBS];
        for i in 0..LIMBS {
            let mut carry = 0u128;
            for j in 0..LIMBS {
                let m = u128::from(a[i]) * u128::from(b[j]) + u128::from(r[i + j]) + carry;
                r[i + j] = m as u64;
                carry = m >> 64;
            }
            r[i + LIMBS] = carry as u64;
        }
        for i in 0..LIMBS {
            a[i] = r[i] ^ r[i + LIMBS];
        }
    }
    black_box(a);
    started.elapsed()
}

/// Kernel samples taken over one stretch of a run.
#[derive(Debug, Default)]
pub struct Gauge {
    samples: Vec<Duration>,
    spent: Duration,
}

impl Gauge {
    pub fn sample(&mut self) {
        let d = kernel();
        self.samples.push(d);
        self.spent += d;
    }

    pub fn burst(&mut self, n: usize) {
        for _ in 0..n {
            self.sample();
        }
    }

    /// Ends the stretch: its slowdown against [`REFERENCE`] (the median
    /// sample over `REFERENCE`; one sample is taken if there is none), and
    /// the time the samples took, which is not the program's.
    pub fn take(&mut self) -> (f64, Duration) {
        if self.samples.is_empty() {
            self.sample();
        }
        self.samples.sort_unstable();
        let median = self.samples[self.samples.len() / 2];
        let spent = self.spent;
        *self = Gauge::default();
        (median.as_secs_f64() / REFERENCE.as_secs_f64(), spent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_is_the_median_sample_over_the_reference() {
        let mut g = Gauge {
            samples: vec![REFERENCE * 3, REFERENCE, REFERENCE * 2],
            spent: REFERENCE * 6,
        };
        let (slowdown, spent) = g.take();
        assert!((slowdown - 2.0).abs() < 1e-9);
        assert_eq!(spent, REFERENCE * 6);
        assert!(g.samples.is_empty() && g.spent.is_zero());
    }

    #[test]
    fn kernel_is_not_folded_away() {
        assert!(kernel() > Duration::from_micros(1));
        let mut g = Gauge::default();
        g.burst(3);
        assert_eq!(g.samples.len(), 3);
        assert!(g.take().0 > 0.0);
    }
}
