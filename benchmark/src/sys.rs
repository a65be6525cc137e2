//! Process probes (`/proc/self`), order statistics, seed derivation and
//! the reference kernel.

use std::time::Instant;

/// A `VmHWM`/`VmRSS`-style field of `/proc/self/status`, in MiB.
fn status_mib(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Peak resident set size of this process so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    status_mib("VmHWM:")
}

/// Current resident set size, in MiB.
pub fn rss_mb() -> f64 {
    status_mib("VmRSS:")
}

/// User plus system CPU time of the whole process (exited threads
/// included), in seconds. Resolution is one clock tick (10 ms).
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / 100.0
}

/// Makes glibc malloc keep up to 256 MiB of freed memory at the top of
/// the heap (`M_TOP_PAD`) instead of returning it to the system. With the
/// default, whether a large op's buffers come back as fresh pages (one page
/// fault per 4 KiB) or from the retained heap depends on the allocation
/// history of the run: the same p = 1024 `lp_scaling` ops took 39 ms in
/// some runs and 58 ms in others. With the pad every run stays in the
/// retained-heap state. No-op on other targets.
pub fn retain_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_TOP_PAD: i32 = -2;
        // SAFETY: mallopt only sets a malloc tuning parameter; glibc
        // serializes it against concurrent allocation.
        unsafe {
            mallopt(M_TOP_PAD, 256 << 20);
        }
    }
}

/// Worker threads `par_map` uses on this machine.
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Linear-interpolated quantile (`q` in `[0, 1]`) of unsorted samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Mean of the samples left after dropping the lowest and the highest
/// `trim` share (rounded down) of them.
pub fn trimmed_mean(samples: &[f64], trim: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = (trim * v.len() as f64) as usize;
    mean(&v[cut..v.len() - cut])
}

/// SplitMix64 finalizer: derives independent seeds from
/// `(benchmark seed, stream, index)`.
pub fn mix(seed: u64, stream: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(index.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `true` when `a` and `b` agree within `tol` relative to the larger.
pub fn rel_close(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol * a.abs().max(b.abs()).max(f64::MIN_POSITIVE)
}

/// Seed of the warm-up ops' inputs. It does not depend on the benchmark
/// seed, so every run's set-up does the same work and `setup_s` compares
/// across runs.
pub const WARM_UP_SEED: u64 = 0;

/// Scale of machine-normalized times: a time is reported as its raw value
/// times this over the run's mean kernel run time. Normalized times of
/// one workload compare across runs and commits; the kernel's working set
/// differs between workloads, so they do not compare across workloads.
pub const REFERENCE_KERNEL_S: f64 = 0.007;

/// Words a kernel run reads at random and sorts, whatever its working set.
const KERNEL_WORK: usize = 1 << 19;

/// A fixed CPU workload that does not depend on the program: random
/// gathers over a working set of `words` 64-bit words and sorts of its
/// 32 KiB slices, repeated until `KERNEL_WORK` words were read. Its run
/// time tracks how fast the shared machine is at the moment, including the
/// cache contention from other tenants that a working set of that size
/// feels; buffers are built once, so a run allocates nothing.
pub struct ReferenceKernel {
    data: Vec<u64>,
    idx: Vec<u32>,
    slice: Vec<u64>,
}

impl ReferenceKernel {
    pub fn new(words: usize) -> Self {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let data: Vec<u64> = (0..words).map(|_| next()).collect();
        let idx: Vec<u32> = (0..words).map(|_| (next() % words as u64) as u32).collect();
        ReferenceKernel {
            data,
            idx,
            slice: vec![0; 1 << 12],
        }
    }

    /// One run; returns its wall time in seconds.
    pub fn run(&mut self) -> f64 {
        let started = Instant::now();
        let mut acc = 0u64;
        for _ in 0..(KERNEL_WORK / self.data.len()).max(1) {
            for &i in &self.idx {
                acc = acc.wrapping_add(self.data[i as usize]);
            }
            for chunk in self.data.chunks_exact(self.slice.len()) {
                self.slice.copy_from_slice(chunk);
                self.slice.sort_unstable();
                acc = acc.wrapping_add(self.slice[17]);
            }
        }
        std::hint::black_box(acc);
        started.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert!(rel_close(median(&v), 2.5, 1e-12));
        assert!(rel_close(quantile(&v, 0.0), 1.0, 1e-12));
        assert!(rel_close(quantile(&v, 1.0), 4.0, 1e-12));
        assert!(rel_close(mean(&v), 2.5, 1e-12));
        let w = [1.0, 2.0, 3.0, 4.0, 100.0];
        assert!(rel_close(trimmed_mean(&w, 0.2), 3.0, 1e-12));
        assert!(rel_close(trimmed_mean(&w, 0.1), mean(&w), 1e-12));
    }

    #[test]
    fn mix_separates_streams_and_indices() {
        assert_ne!(mix(1, 0, 0), mix(1, 1, 0));
        assert_ne!(mix(1, 0, 0), mix(1, 0, 1));
        assert_eq!(mix(7, 2, 3), mix(7, 2, 3));
    }

    #[test]
    fn reference_kernel_times_itself() {
        assert!(ReferenceKernel::new(1 << 13).run() > 0.0);
    }

    #[test]
    fn proc_probes_read_this_process() {
        assert!(peak_rss_mb() > 0.0);
        assert!(rss_mb() > 0.0);
        assert!(process_cpu_s() >= 0.0);
    }
}
