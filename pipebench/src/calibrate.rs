//! Host-speed calibration.
//!
//! On a shared virtual machine the host's speed drifts: on the 2-vCPU
//! guest the baseline was taken on, a fixed sort took anywhere from 19 to
//! 32 ms across invocations a minute apart, and the pipeline's throughput
//! moved with it. Longer runs do not average that out, because the drift
//! is slower than a run. So right before every timed run the harness
//! times a fixed pass of its own code, and divides each end-to-end time
//! by how much slower than [`REFERENCE`] that pass ran. The metrics then
//! read as times on a host that runs the pass in [`REFERENCE`].
//!
//! The pass shares no code with the system under test, so a change to
//! the pipeline moves the metrics and not the yardstick. It sorts with
//! the standard library's unstable sort, whose mix of branches and
//! memory traffic tracked the decode-bound workloads best of the
//! kernels tried (sort, hash-map updates, pointer chasing).

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Time of one pass on the reference host.
pub const REFERENCE: Duration = Duration::from_millis(100);

/// Elements sorted per round: 8 MiB of `u64`.
const LEN: usize = 1 << 20;

/// Rounds per pass, so one pass samples about 100 ms of host time.
const ROUNDS: u64 = 4;

/// The calibration pass and its buffer. The buffer is allocated once and
/// kept for the whole invocation: freeing a buffer this large would
/// raise the allocator's mmap threshold and change how the pipeline's
/// own allocations are served.
pub struct Calibration {
    buf: Vec<u64>,
}

impl Default for Calibration {
    fn default() -> Self {
        Self::new()
    }
}

impl Calibration {
    /// Allocates the buffer and runs one untimed pass, so the first
    /// timed pass finds its pages resident.
    pub fn new() -> Calibration {
        let mut calibration = Calibration { buf: vec![0; LEN] };
        calibration.pass();
        calibration
    }

    /// Times one pass: four sorts of the same pseudo-random data.
    pub fn pass(&mut self) -> Duration {
        let mut total = Duration::ZERO;
        for round in 0..ROUNDS {
            // SplitMix64: the same input on every host and every pass.
            let mut state = round.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            for slot in &mut self.buf {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                *slot = z ^ (z >> 31);
            }
            let started = Instant::now();
            self.buf.sort_unstable();
            total += started.elapsed();
            black_box(&self.buf);
        }
        total
    }

    /// How many times slower than [`REFERENCE`] the host runs a pass
    /// now. Divide a time by it, or multiply a rate, to get its value on
    /// the reference host.
    pub fn host_factor(&mut self) -> f64 {
        self.pass().as_secs_f64() / REFERENCE.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_pass_sorts_and_takes_time() {
        let mut calibration = Calibration::new();
        assert!(calibration.pass() > Duration::ZERO);
        assert!(calibration.buf.windows(2).all(|w| w[0] <= w[1]));
        assert!(calibration.host_factor() > 0.0);
    }
}
