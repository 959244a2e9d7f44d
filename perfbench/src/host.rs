//! A host-speed probe, so that timings taken on a shared machine can be
//! compared from one run to the next.
//!
//! The benchmark runs on a virtual machine whose neighbours share the
//! physical host. On the 2-vCPU machine it was written on, the speed the
//! host gave it changed by up to 2× over minutes with no change to the
//! work: serial-suite ran anywhere from 4.0 M to 11.5 M accesses/s. The
//! drift is slower than any run, so neither a longer run nor a median
//! within a run removes it.
//!
//! The probe times a fixed chain of dependent register-only xorshift
//! steps, about 1 ms, before every operation (never inside a timed span).
//! It touches no memory, so nothing the profiler did before it can change
//! its reading; only the speed the host gives the core can. A timing `t`
//! taken while the probe read `p` ns per step is reported at the
//! reference core speed as `t × REFERENCE_NS / p`. A change to the
//! profiler moves the scaled time exactly as it moves the raw one. Raw
//! figures and the probe's readings are printed beside the scaled ones.

use std::hint::black_box;
use std::time::Instant;

/// Probe reading, ns per step, that scaled timings are reported at:
/// about the median the probe read on the machine the benchmark was
/// written on.
pub const REFERENCE_NS: f64 = 2.2;

/// Steps of one sample: about 1 ms.
const STEPS: u64 = 400_000;

/// The probe and the samples taken since the last [`Probe::take`].
pub struct Probe {
    state: u64,
    nanos: u64,
    steps: u64,
}

impl Default for Probe {
    fn default() -> Self {
        Probe { state: 0x2545_f491_4f6c_dd1d, nanos: 0, steps: 0 }
    }
}

impl Probe {
    /// Times one chain of [`STEPS`] dependent xorshift steps.
    pub fn sample(&mut self) {
        let mut x = self.state;
        let t = Instant::now();
        for _ in 0..STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        self.nanos += t.elapsed().as_nanos() as u64;
        self.steps += STEPS;
        self.state = black_box(x);
    }

    /// Mean ns per step over the samples since the last call, which it
    /// forgets. At least one sample must have been taken.
    pub fn take(&mut self) -> f64 {
        assert!(self.steps > 0, "probe read before it was sampled");
        let ns = self.nanos as f64 / self.steps as f64;
        (self.nanos, self.steps) = (0, 0);
        ns
    }
}

/// A timing (any unit) taken while the probe read `probe_ns`, scaled to
/// [`REFERENCE_NS`].
pub fn at_reference(timing: f64, probe_ns: f64) -> f64 {
    timing * REFERENCE_NS / probe_ns
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_slow_host_scales_timings_down() {
        assert_eq!(at_reference(10.0, REFERENCE_NS), 10.0);
        // The probe ran twice as slow as usual: so did the timed work.
        assert_eq!(at_reference(10.0, 2.0 * REFERENCE_NS), 5.0);
        assert_eq!(at_reference(10.0, 0.5 * REFERENCE_NS), 20.0);
    }

    #[test]
    fn take_averages_and_forgets() {
        let mut p = Probe::default();
        p.sample();
        p.sample();
        assert_eq!(p.steps, 2 * STEPS);
        let ns = p.take();
        assert!(ns > 0.0 && ns.is_finite(), "{ns}");
        assert_eq!((p.nanos, p.steps), (0, 0));
    }
}
