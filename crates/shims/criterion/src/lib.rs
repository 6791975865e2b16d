//! Offline shim for the subset of the `criterion` API this workspace uses.
//!
//! The build environment has no registry access, so the benchmark targets
//! link against this minimal harness instead of the real `criterion`. It
//! supports the same source-level API (`criterion_group!`/`criterion_main!`,
//! benchmark groups, `bench_function`, `bench_with_input`, `Bencher::iter`,
//! `black_box`). It times every iteration and reports the median with the
//! 10th and 90th percentiles and the iteration count; it performs no
//! outlier rejection, regression analysis or HTML reporting.

use std::fmt::Display;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Label for one benchmark within a group.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// `function_name/parameter` style id.
    pub fn new(function_name: impl Into<String>, parameter: impl Display) -> Self {
        BenchmarkId {
            id: format!("{}/{}", function_name.into(), parameter),
        }
    }

    /// Id consisting of the parameter alone.
    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId { id: s.to_string() }
    }
}

impl From<String> for BenchmarkId {
    fn from(id: String) -> Self {
        BenchmarkId { id }
    }
}

/// Timing loop handle passed to benchmark closures.
pub struct Bencher {
    target: Duration,
    max_iters: u64,
    /// Per-iteration wall-clock times of the last `iter` call, sorted.
    samples: Vec<Duration>,
}

impl Bencher {
    /// Calls `routine` repeatedly and records each call's wall-clock time:
    /// one warm-up call, then calls until the time budget is spent.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        black_box(routine()); // warm-up, also primes caches/allocators
        self.samples.clear();
        let start = Instant::now();
        while start.elapsed() < self.target && (self.samples.len() as u64) < self.max_iters {
            let t = Instant::now();
            black_box(routine());
            self.samples.push(t.elapsed());
        }
        self.samples.sort_unstable();
    }

    /// The `q`-quantile of the recorded times (nearest rank).
    fn quantile(&self, q: f64) -> Duration {
        let n = self.samples.len();
        if n == 0 {
            return Duration::ZERO;
        }
        self.samples[((q * n as f64).ceil() as usize).clamp(1, n) - 1]
    }
}

fn run_benchmark(full_id: &str, sample_size: usize, f: impl FnOnce(&mut Bencher)) {
    let mut b = Bencher {
        // Scale the budget with the requested sample count, within reason:
        // the default 100-sample config gets ~1 s, `sample_size(10)` ~300 ms.
        target: Duration::from_millis(100 + 9 * sample_size.min(100) as u64),
        max_iters: 1_000_000,
        samples: Vec::new(),
    };
    f(&mut b);
    println!(
        "{full_id:<55} time: [median {:>11.3?}  p10 {:>11.3?}  p90 {:>11.3?}  n={}]",
        b.quantile(0.5),
        b.quantile(0.1),
        b.quantile(0.9),
        b.samples.len()
    );
}

/// A named collection of related benchmarks.
pub struct BenchmarkGroup<'a> {
    name: String,
    sample_size: usize,
    _criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Sets the per-benchmark sample-count hint (scales the time budget).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n;
        self
    }

    /// Runs one benchmark.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        let mut f = f;
        run_benchmark(&format!("{}/{}", self.name, id.id), self.sample_size, |b| {
            f(b)
        });
        self
    }

    /// Runs one benchmark with a shared input value.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let id = id.into();
        let mut f = f;
        run_benchmark(&format!("{}/{}", self.name, id.id), self.sample_size, |b| {
            f(b, input)
        });
        self
    }

    /// Ends the group.
    pub fn finish(self) {}
}

/// The benchmark harness entry point.
#[derive(Default)]
pub struct Criterion {}

impl Criterion {
    /// Opens a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            sample_size: 100,
            _criterion: self,
        }
    }

    /// Runs one stand-alone benchmark.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        let mut f = f;
        run_benchmark(&id.id, 100, |b| f(b));
        self
    }
}

/// Declares a function that runs a list of benchmark functions.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Declares the benchmark binary's `main`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_measures_something() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("shim");
        group.sample_size(10);
        let mut ran = false;
        group.bench_function("noop", |b| {
            b.iter(|| black_box(1 + 1));
            ran = true;
        });
        group.finish();
        assert!(ran);
    }

    #[test]
    fn quantiles_come_from_the_sorted_samples() {
        let mut b = Bencher {
            target: Duration::ZERO,
            max_iters: 0,
            samples: (1..=10).map(Duration::from_millis).collect(),
        };
        assert_eq!(b.quantile(0.5), Duration::from_millis(5));
        assert_eq!(b.quantile(0.1), Duration::from_millis(1));
        assert_eq!(b.quantile(0.9), Duration::from_millis(9));
        b.samples.clear();
        assert_eq!(b.quantile(0.5), Duration::ZERO);
    }

    #[test]
    fn benchmark_id_formats() {
        assert_eq!(BenchmarkId::new("f", 8).id, "f/8");
        assert_eq!(BenchmarkId::from_parameter("28x30").id, "28x30");
        assert_eq!(BenchmarkId::from("plain").id, "plain");
    }
}
