//! How fast the machine runs at the moment, gauged by a fixed reference
//! kernel timed between operations.
//!
//! The benchmark runs on shared hosts whose speed drifts by tens of percent
//! over minutes, with CPU time tracking wall time to within a percent: the
//! cores run slower, nobody takes them away. The kernel is the benchmark's own code, so no
//! change to the checker moves it; timing it next to the operations tells
//! how slow the machine was while they ran. Every end-to-end time is reported
//! at reference speed: its wall time times `REFERENCE_PROBE_MS` over the
//! median probe of the stretch of work it belongs to (a round or a set-up).

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use crate::stats::median;

/// The speed the metrics are reported at: one probe's time, in milliseconds.
/// About the probe's median on a quiet 2-vCPU Intel Xeon VM, where medians
/// of whole runs read 0.9–1.1 ms.
pub const REFERENCE_PROBE_MS: f64 = 1.0;

/// Ordered-map inserts and lookups keyed by short vectors, a sort and
/// short-lived allocations: the kind of work the checker's automata code
/// does.
fn kernel() -> u64 {
    const KEYS: u32 = 2048;
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let key_of = |r: u64| -> Vec<u32> {
        (0..r % 6 + 1)
            .map(|j| (r >> (j * 8)) as u32 & 0x3ff)
            .collect()
    };
    let mut map: BTreeMap<Vec<u32>, u32> = BTreeMap::new();
    let mut draws = Vec::with_capacity(KEYS as usize);
    for i in 0..KEYS {
        let r = next();
        draws.push(r);
        map.insert(key_of(r), i);
    }
    draws.sort_unstable();
    let mut acc = 0u64;
    for (i, &r) in draws.iter().enumerate() {
        acc = acc.wrapping_add(u64::from(map.get(&key_of(r)).copied().unwrap_or(0)) ^ i as u64);
    }
    acc
}

/// The probes taken over one stretch of work.
#[derive(Default)]
pub struct Gauge {
    probes: Vec<f64>,
}

impl Gauge {
    /// Times one run of the kernel.
    pub fn probe(&mut self) {
        let t = Instant::now();
        black_box(kernel());
        self.probes.push(t.elapsed().as_secs_f64() * 1e3);
    }

    /// Wall time spent probing, in milliseconds.
    pub fn spent_ms(&self) -> f64 {
        self.probes.iter().sum()
    }

    /// The median probe, in milliseconds.
    pub fn median_ms(&self) -> f64 {
        median(&self.probes)
    }

    /// The factor that takes this stretch's wall times to reference speed.
    pub fn scale(&self) -> f64 {
        REFERENCE_PROBE_MS / self.median_ms()
    }
}
