//! Small helpers: order statistics, digests, memory and metric output.

use std::fmt::Write as _;

/// Median of `values` (mean of the middle pair for even counts); 0 for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The highest whole percentile that leaves at least ten samples above
/// it, with its nearest-rank value: `(percentile, value)`. With fewer
/// than eleven samples no such percentile exists and the maximum is
/// reported as percentile 100.
pub fn tail(values: &[f64]) -> (u32, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n <= 10 {
        return (100, v.last().copied().unwrap_or(0.0));
    }
    // Nearest rank of percentile p is ceil(p * n / 100); at least ten
    // samples must sit above that rank.
    let mut best = 0;
    for p in 1..100u32 {
        let rank = (p as usize * n).div_ceil(100);
        if n - rank >= 10 {
            best = p;
        }
    }
    let rank = (best as usize * n).div_ceil(100).max(1);
    (best, v[rank - 1])
}

/// FNV-1a 64 of `text`, with its length: the pinned form of an artefact.
pub fn digest(text: &str) -> String {
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
    for byte in text.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    format!("fnv1a64:{hash:016x}:{}", text.len())
}

/// Peak resident set size of this process in MiB (`VmHWM`), 0 when the
/// kernel does not expose it.
pub fn peak_rss_mb() -> f64 {
    peak_rss_kb() as f64 / 1024.0
}

/// Peak resident set size of this process in KiB.
pub fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

#[repr(C)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

#[repr(C)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    rest: [i64; 14],
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
const RUSAGE_CHILDREN: i32 = -1;

fn cpu_clock_ns(clock: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `struct timespec` (two 64-bit
    // fields on 64-bit Linux, matching `Timespec`) through a pointer to a
    // live local; the clock ids are the kernel's fixed constants.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// On-CPU time of the calling thread, ns. On a paravirtualised guest
/// the kernel leaves out time stolen by the hypervisor, which wall time
/// cannot.
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// On-CPU time of this process (every thread, live or exited), ns.
pub fn process_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// On-CPU time, user plus system, of this process's reaped children, ns.
pub fn children_cpu_ns() -> u64 {
    let mut ru = Rusage {
        ru_utime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        ru_stime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        rest: [0; 14],
    };
    // SAFETY: `getrusage` fills one `struct rusage` (two timevals then
    // fourteen longs on 64-bit Linux, the layout of `Rusage`) through a
    // pointer to a live local.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut ru) };
    assert_eq!(rc, 0, "getrusage failed");
    let us = |t: &Timeval| t.tv_sec as u64 * 1_000_000 + t.tv_usec as u64;
    (us(&ru.ru_utime) + us(&ru.ru_stime)) * 1_000
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// An ordered metric list.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn add(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// The `metrics` object of the result line. Values print with every
    /// digit Rust's shortest round-trip formatting gives.
    pub fn json(&self) -> String {
        let mut out = String::from("{");
        for (i, m) in self.0.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(value),
                m.unit
            );
        }
        out.push('}');
        out
    }
}

/// A finite `f64` as a JSON number (integers keep a `.0`-free form).
pub fn json_number(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Escapes a string for a JSON literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 is rank 90: exactly ten samples above it.
        assert_eq!(tail(&v), (90, 90.0));
        assert_eq!(tail(&[1.0, 2.0]), (100, 2.0));
    }

    #[test]
    fn digest_is_fnv1a_with_length() {
        assert_eq!(digest(""), "fnv1a64:cbf29ce484222325:0");
        assert_ne!(digest("a"), digest("b"));
    }
}
