//! The host's current speed, from a fixed reference computation that
//! shares no code with the system under test.
//!
//! Shared cloud hosts change speed under their neighbours' load: on the
//! 2-vCPU x86-64 host this benchmark was built on, the same call ran
//! 2.3 times as fast a few minutes apart, and process CPU time tracked
//! wall time (no steal: the core itself ran slower). Timing the
//! reference between measured calls gives the factor by which the host
//! ran slower than its reference speed; throughputs are reported at that
//! speed, and the raw figure is printed beside them.

use std::hint::black_box;
use std::time::Instant;

use crate::stats::median;

/// Reference-chunk milliseconds that define speed factor 1.
const NOMINAL_MS: f64 = 2.25;
/// Chunks per measurement (about 0.1 s of the host's time).
const CHUNKS: usize = 40;

/// One chunk of the reference: a cache-resident 48×48 single-precision
/// matrix product and repeated sums over a 256 KiB buffer (small, so the
/// reference barely moves the process's peak memory).
fn chunk(a: &[f32], b: &[f32], c: &mut [f32], stream: &[f32]) -> f32 {
    const N: usize = 48;
    for _ in 0..36 {
        for i in 0..N {
            for k in 0..N {
                let aik = a[i * N + k];
                for j in 0..N {
                    c[i * N + j] += aik * b[k * N + j];
                }
            }
        }
        black_box(&mut *c);
    }
    let mut sum = 0.0;
    for _ in 0..32 {
        sum += black_box(stream).iter().sum::<f32>();
    }
    sum + c[N + 1]
}

/// How much slower than its reference speed the host runs right now
/// (1 = nominal, 2 = half speed): the mean of forty timed chunks. The
/// host's slowdowns come in bursts shorter than a measured call, which
/// the call pays on average; a median would skip them.
pub fn factor() -> f64 {
    let a: Vec<f32> = (0..48 * 48).map(|i| (i % 7) as f32 * 0.25).collect();
    let b: Vec<f32> = (0..48 * 48).map(|i| (i % 5) as f32 * 0.5).collect();
    let mut c = vec![0.0f32; 48 * 48];
    let stream: Vec<f32> = (0..1 << 16).map(|i| (i % 3) as f32).collect();
    black_box(chunk(&a, &b, &mut c, &stream));
    let t = Instant::now();
    for _ in 0..CHUNKS {
        black_box(chunk(
            black_box(&a),
            black_box(&b),
            &mut c,
            black_box(&stream),
        ));
    }
    t.elapsed().as_secs_f64() * 1e3 / CHUNKS as f64 / NOMINAL_MS
}

/// Prints the raw throughput and the host's speed factors beside the
/// reported (reference-speed) figures.
pub fn note(r: &mut crate::report::Report, raw_rounds_per_s: f64, factors: &[f64]) {
    r.note("rounds_per_s_raw", raw_rounds_per_s, "1/s");
    r.note("host_slowdown", median(factors), "x");
}
