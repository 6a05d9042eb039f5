//! Offline stand-in for the `criterion` crate.
//!
//! Implements the subset the workspace's benches use — `criterion_group!`,
//! `criterion_main!`, benchmark groups with `bench_function` /
//! `bench_with_input`, `sample_size`, `measurement_time` — with a plain
//! mean-of-samples timer instead of criterion's statistical machinery.
//! Each benchmark prints `group/id: mean ± spread over N samples`.

#![forbid(unsafe_code)]

use std::fmt;
use std::time::{Duration, Instant};

/// Top-level benchmark driver.
#[derive(Debug, Default)]
pub struct Criterion {}

impl Criterion {
    /// Starts a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup {
        println!("== {name} ==");
        BenchmarkGroup {
            name: name.to_string(),
            sample_size: 10,
            measurement_time: Duration::from_secs(3),
        }
    }
}

/// A named benchmark identifier (`function_name/parameter`).
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    text: String,
}

impl BenchmarkId {
    /// An id combining a function name and a parameter display.
    pub fn new<P: fmt::Display>(function_name: &str, parameter: P) -> BenchmarkId {
        BenchmarkId {
            text: format!("{function_name}/{parameter}"),
        }
    }

    /// An id from a parameter alone.
    pub fn from_parameter<P: fmt::Display>(parameter: P) -> BenchmarkId {
        BenchmarkId {
            text: parameter.to_string(),
        }
    }
}

impl fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.text)
    }
}

/// Accepts both `&str` and [`BenchmarkId`] where criterion does.
pub trait IntoBenchmarkId {
    /// The display text of the id.
    fn into_text(self) -> String;
}

impl IntoBenchmarkId for &str {
    fn into_text(self) -> String {
        self.to_string()
    }
}

impl IntoBenchmarkId for String {
    fn into_text(self) -> String {
        self
    }
}

impl IntoBenchmarkId for BenchmarkId {
    fn into_text(self) -> String {
        self.text
    }
}

/// A group of related benchmarks sharing sampling settings.
#[derive(Debug)]
pub struct BenchmarkGroup {
    name: String,
    sample_size: usize,
    measurement_time: Duration,
}

impl BenchmarkGroup {
    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Caps the total measurement time per benchmark.
    pub fn measurement_time(&mut self, t: Duration) -> &mut Self {
        self.measurement_time = t;
        self
    }

    /// Runs a benchmark closure.
    pub fn bench_function<I: IntoBenchmarkId, F: FnMut(&mut Bencher)>(
        &mut self,
        id: I,
        mut f: F,
    ) -> &mut Self {
        self.run(id.into_text(), |b| f(b));
        self
    }

    /// Runs a benchmark closure over a borrowed input.
    pub fn bench_with_input<I, T, F>(&mut self, id: I, input: &T, mut f: F) -> &mut Self
    where
        I: IntoBenchmarkId,
        F: FnMut(&mut Bencher, &T),
    {
        self.run(id.into_text(), |b| f(b, input));
        self
    }

    fn run<F: FnMut(&mut Bencher)>(&mut self, id: String, mut f: F) {
        let mut bencher = Bencher {
            samples: Vec::new(),
            sample_budget: self.sample_size,
            deadline: Instant::now() + self.measurement_time,
        };
        f(&mut bencher);
        let n = bencher.samples.len().max(1);
        let mean = bencher.samples.iter().sum::<Duration>() / n as u32;
        let spread = bencher
            .samples
            .iter()
            .map(|s| s.abs_diff(mean))
            .max()
            .unwrap_or_default();
        println!(
            "{}/{id}: {:.3?} ± {:.3?} over {n} samples",
            self.name, mean, spread
        );
    }

    /// Ends the group (print-only in the shim).
    pub fn finish(&mut self) {}
}

/// Times one closure repeatedly.
#[derive(Debug)]
pub struct Bencher {
    samples: Vec<Duration>,
    sample_budget: usize,
    deadline: Instant,
}

impl Bencher {
    /// Runs `routine` `sample_size` times (or until the measurement budget
    /// expires, at least once) and records per-run wall time.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        for i in 0..self.sample_budget {
            let t = Instant::now();
            let out = routine();
            self.samples.push(t.elapsed());
            std::hint::black_box(&out);
            drop(out);
            if i > 0 && Instant::now() >= self.deadline {
                break;
            }
        }
    }
}

/// Declares a benchmark group runner, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut c = $crate::Criterion::default();
            $( $target(&mut c); )+
        }
    };
}

/// Declares `main` for a bench binary (`harness = false`).
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

    fn trivial(c: &mut Criterion) {
        let mut group = c.benchmark_group("shim");
        group.sample_size(3);
        group.measurement_time(Duration::from_millis(50));
        group.bench_function("noop", |b| b.iter(|| 1 + 1));
        group.bench_with_input(BenchmarkId::new("sq", 4), &4u64, |b, &x| b.iter(|| x * x));
        group.finish();
    }

    #[test]
    fn group_runs_and_records() {
        let mut c = Criterion::default();
        trivial(&mut c);
    }

    criterion_group!(benches, trivial);

    #[test]
    fn macro_generates_runner() {
        benches();
    }
}
