//! A self-contained micro-benchmark harness exposing the slice of the
//! Criterion API our benches use (`benchmark_group`, `bench_function`,
//! `bench_with_input`, `iter`, `iter_batched`, `black_box`,
//! `criterion_group!`, `criterion_main!`).
//!
//! The workspace must build offline, so the real `criterion` crate is not
//! available; this harness keeps the bench sources nearly unchanged while
//! providing honest wall-clock measurements:
//!
//! * per benchmark, the iteration count is calibrated until one sample takes
//!   at least [`MIN_SAMPLE_NS`], then `sample_size` samples are collected;
//! * the **median** ns/iter is reported (robust to scheduler noise), along
//!   with min/max;
//! * every result is also printed as a machine-readable
//!   `BENCH {"id":...,"ns_per_iter":...}` line so scripts can scrape
//!   results without a JSON parser.
//!
//! Command-line: any non-flag argument is a substring filter on the full
//! benchmark id (`group/function/param`); flags (e.g. the `--bench` cargo
//! passes) are ignored.

use std::fmt::Display;
use std::time::Instant;

/// Re-exported for drop-in compatibility with `criterion::black_box`.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Minimum duration of one timed sample, in nanoseconds.
pub const MIN_SAMPLE_NS: f64 = 5_000_000.0;

/// Batch sizing hint; accepted for compatibility, not used.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Small inputs: setup per iteration is cheap.
    SmallInput,
    /// Large inputs.
    LargeInput,
    /// Per-iteration batches.
    PerIteration,
}

/// Identifies one benchmark within a group.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    function: Option<String>,
    parameter: Option<String>,
}

impl BenchmarkId {
    /// A `function/parameter` id.
    pub fn new(function: impl Into<String>, parameter: impl Display) -> Self {
        BenchmarkId {
            function: Some(function.into()),
            parameter: Some(parameter.to_string()),
        }
    }

    /// A parameter-only id.
    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId {
            function: None,
            parameter: Some(parameter.to_string()),
        }
    }

    fn suffix(&self) -> String {
        match (&self.function, &self.parameter) {
            (Some(f), Some(p)) => format!("{f}/{p}"),
            (Some(f), None) => f.clone(),
            (None, Some(p)) => p.clone(),
            (None, None) => String::new(),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(name: &str) -> Self {
        BenchmarkId {
            function: Some(name.to_string()),
            parameter: None,
        }
    }
}

impl From<String> for BenchmarkId {
    fn from(name: String) -> Self {
        BenchmarkId {
            function: Some(name),
            parameter: None,
        }
    }
}

impl From<&String> for BenchmarkId {
    fn from(name: &String) -> Self {
        BenchmarkId {
            function: Some(name.clone()),
            parameter: None,
        }
    }
}

/// Times the body of one benchmark sample.
pub struct Bencher {
    iters: u64,
    elapsed_ns: f64,
}

impl Bencher {
    /// Times `routine` over this sample's iteration count.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(routine());
        }
        self.elapsed_ns = start.elapsed().as_nanos() as f64;
    }

    /// Times `routine` with a fresh un-timed `setup` product per iteration.
    /// The routine's output is dropped after the clock stops, so a routine
    /// that returns its input keeps freeing it out of the timing.
    pub fn iter_batched<I, O, S: FnMut() -> I, R: FnMut(I) -> O>(
        &mut self,
        mut setup: S,
        mut routine: R,
        _size: BatchSize,
    ) {
        let mut total = 0.0f64;
        for _ in 0..self.iters {
            let input = setup();
            let start = Instant::now();
            let output = black_box(routine(input));
            total += start.elapsed().as_nanos() as f64;
            drop(output);
        }
        self.elapsed_ns = total;
    }
}

/// One measured benchmark result.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Full id: `group/function/parameter`.
    pub id: String,
    /// Median nanoseconds per iteration.
    pub ns_per_iter: f64,
    /// Fastest sample, ns/iter.
    pub min_ns: f64,
    /// Slowest sample, ns/iter.
    pub max_ns: f64,
    /// Iterations per sample.
    pub iters: u64,
    /// Number of samples.
    pub samples: usize,
}

/// The harness entry point (mirrors `criterion::Criterion`).
pub struct Criterion {
    filter: Option<String>,
    results: Vec<BenchResult>,
}

impl Default for Criterion {
    fn default() -> Self {
        let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
        Criterion {
            filter,
            results: Vec::new(),
        }
    }
}

impl Criterion {
    /// Opens a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            sample_size: 20,
        }
    }

    /// Prints a closing summary (called by `criterion_main!`).
    pub fn final_summary(&self) {
        eprintln!("{} benchmarks measured", self.results.len());
    }

    /// All results measured so far.
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    fn run_benchmark<F: FnMut(&mut Bencher)>(&mut self, id: String, sample_size: usize, mut f: F) {
        if let Some(filter) = &self.filter {
            if !id.contains(filter.as_str()) {
                return;
            }
        }
        // Calibrate: grow the per-sample iteration count until one sample
        // takes at least MIN_SAMPLE_NS (the first call doubles as warm-up).
        let mut iters = 1u64;
        let per_iter = loop {
            let mut b = Bencher {
                iters,
                elapsed_ns: 0.0,
            };
            f(&mut b);
            if b.elapsed_ns >= MIN_SAMPLE_NS || iters >= 1 << 30 {
                break b.elapsed_ns / iters as f64;
            }
            // Jump close to the target, at least doubling.
            let scale = (MIN_SAMPLE_NS / b.elapsed_ns.max(1.0)).ceil() as u64;
            iters = (iters * scale.clamp(2, 1024)).min(1 << 30);
        };
        let _ = per_iter;
        let mut samples: Vec<f64> = (0..sample_size.max(1))
            .map(|_| {
                let mut b = Bencher {
                    iters,
                    elapsed_ns: 0.0,
                };
                f(&mut b);
                b.elapsed_ns / iters as f64
            })
            .collect();
        samples.sort_by(|a, b| a.partial_cmp(b).expect("sample times are finite"));
        let median = samples[samples.len() / 2];
        let result = BenchResult {
            id: id.clone(),
            ns_per_iter: median,
            min_ns: samples[0],
            max_ns: samples[samples.len() - 1],
            iters,
            samples: samples.len(),
        };
        println!(
            "{:<60} {:>14} ns/iter  (min {:.0}, max {:.0}, {} iters x {} samples)",
            result.id,
            format!("{:.1}", result.ns_per_iter),
            result.min_ns,
            result.max_ns,
            result.iters,
            result.samples,
        );
        println!(
            "BENCH {{\"id\":\"{}\",\"ns_per_iter\":{:.3},\"min_ns\":{:.3},\"max_ns\":{:.3},\"iters\":{},\"samples\":{}}}",
            result.id, result.ns_per_iter, result.min_ns, result.max_ns, result.iters, result.samples,
        );
        self.results.push(result);
    }
}

/// A group of related benchmarks sharing a name prefix.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n;
        self
    }

    /// Measures a named benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl Into<BenchmarkId>,
        f: F,
    ) -> &mut Self {
        let id = id.into();
        let full = format!("{}/{}", self.name, id.suffix());
        let sample_size = self.sample_size;
        self.criterion.run_benchmark(full, sample_size, f);
        self
    }

    /// Measures a benchmark parameterized by `input`.
    pub fn bench_with_input<I, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        let full = format!("{}/{}", self.name, id.suffix());
        let sample_size = self.sample_size;
        self.criterion
            .run_benchmark(full, sample_size, |b| f(b, input));
        self
    }

    /// Ends the group (kept for API compatibility).
    pub fn finish(self) {}
}

/// Declares a benchmark group function from target functions.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name(c: &mut $crate::Criterion) {
            $( $target(c); )+
        }
    };
}

/// Declares the bench binary's `main`, running the listed groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:ident),+ $(,)?) => {
        fn main() {
            let mut c = $crate::Criterion::default();
            $( $group(&mut c); )+
            c.final_summary();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_something_positive() {
        let mut c = Criterion {
            filter: None,
            results: Vec::new(),
        };
        {
            let mut group = c.benchmark_group("smoke");
            group.sample_size(3);
            group.bench_function("sum", |b| {
                b.iter(|| (0..1000u64).sum::<u64>());
            });
            group.bench_with_input(BenchmarkId::new("param", 42), &42u64, |b, &n| {
                b.iter_batched(|| n, |x| x * 2, BatchSize::SmallInput);
            });
            group.finish();
        }
        assert_eq!(c.results().len(), 2);
        assert!(c.results().iter().all(|r| r.ns_per_iter > 0.0));
        assert_eq!(c.results()[0].id, "smoke/sum");
        assert_eq!(c.results()[1].id, "smoke/param/42");
    }

    #[test]
    fn filter_skips_non_matching() {
        let mut c = Criterion {
            filter: Some("other".into()),
            results: Vec::new(),
        };
        let mut group = c.benchmark_group("smoke");
        group.sample_size(2);
        group.bench_function("sum", |b| b.iter(|| 1 + 1));
        group.finish();
        assert!(c.results().is_empty());
    }
}
