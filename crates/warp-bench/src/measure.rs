//! Measurement plumbing shared by the bench harnesses.
//!
//! The best-of-N wall-clock helper and the `--smoke`/`--out` CLI
//! handling were previously duplicated between the `simperf` and
//! `onlineperf` halves of the crate; they live here so the two
//! harnesses (and any future one) cannot drift apart on methodology.

use std::time::Instant;

/// The gate lookup the harness binaries pass to `check`: the number the
/// environment variable `name` holds, if it is set. A set value that is
/// not a finite number exits the process nonzero, naming the variable
/// and its value, so a malformed gate fails the run instead of switching
/// itself off. The binaries look up each of their gates once before
/// they measure, so such a run fails at once.
#[must_use]
pub fn env_gate(name: &str) -> Option<f64> {
    let value = std::env::var_os(name)?;
    let value = value.to_string_lossy();
    let Some(gate) = parse_gate(&value) else {
        eprintln!("gate {name}={value:?} is not a finite number");
        std::process::exit(1);
    };
    Some(gate)
}

/// A gate's value: a finite number, or `None` for anything else,
/// including trailing text (`1.5x`), the empty string, and the NaN and
/// infinities that `f64`'s parser accepts (no floor compares below NaN).
fn parse_gate(value: &str) -> Option<f64> {
    value.parse::<f64>().ok().filter(|v| v.is_finite())
}

/// The count the environment variable `name` holds, or `default` when
/// it is unset. A set value that is not a positive whole number exits
/// the process nonzero, naming the variable and its value, as
/// [`env_gate`] does for a malformed gate.
#[must_use]
pub fn env_count(name: &str, default: usize) -> usize {
    let Some(value) = std::env::var_os(name) else {
        return default;
    };
    let value = value.to_string_lossy();
    let Some(count) = parse_count(&value) else {
        eprintln!("{name}={value:?} is not a positive whole number");
        std::process::exit(1);
    };
    count
}

/// A count's value: a whole number above zero, or `None` for anything
/// else, including `0`, the empty string, and words.
fn parse_count(value: &str) -> Option<usize> {
    value.parse::<usize>().ok().filter(|&n| n > 0)
}

/// Names every gate violation on stderr and exits nonzero if there is
/// one. Call it after [`BenchCli::write_json`]: a failed run keeps its
/// document.
pub fn exit_on_violations(violations: &[String]) {
    for violation in violations {
        eprintln!("gate failed: {violation}");
    }
    if !violations.is_empty() {
        std::process::exit(1);
    }
}

/// Best-of-`reps` wall-clock seconds of `run`. Single runs are ~1 ms,
/// so repetitions are cheap and taking the minimum filters scheduler
/// noise — the same methodology for every mode keeps ratios honest.
pub fn best_of_seconds(reps: usize, mut run: impl FnMut()) -> f64 {
    best_of_seconds_with(reps, || (), |()| run(), |()| {})
}

/// Like [`best_of_seconds`], but each repetition's `setup` (building
/// the measured subject) and `verify` (checking `run`'s result) execute
/// *outside* the timed region — only `run` itself is on the clock.
/// Single runs are ~1 ms, so a constant setup cost left inside the
/// timer would inflate the fast modes proportionally more than the slow
/// ones and quietly compress every speedup ratio.
pub fn best_of_seconds_with<T, R>(
    reps: usize,
    mut setup: impl FnMut() -> T,
    mut run: impl FnMut(T) -> R,
    mut verify: impl FnMut(R),
) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let subject = setup();
        let start = Instant::now();
        let result = run(subject);
        best = best.min(start.elapsed().as_secs_f64());
        verify(result);
    }
    best
}

/// The `--smoke`/`--out` arguments shared by the bench binaries.
#[derive(Clone, Debug)]
pub struct BenchCli {
    /// Run with CI-sized iteration counts.
    pub smoke: bool,
    /// Where to write the JSON document.
    pub out_path: String,
}

impl BenchCli {
    /// Parses `--smoke` (also settable through `smoke_env`, e.g.
    /// `SIMPERF_SMOKE=1`) and `--out <path>` (defaulting to
    /// `default_out`) from the process arguments. A `--out` with no path
    /// after it exits the process nonzero, naming the flag, so a run
    /// never falls back to overwriting the default document.
    #[must_use]
    pub fn parse(smoke_env: &str, default_out: &str) -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let smoke_env = std::env::var(smoke_env).is_ok_and(|v| v != "0" && !v.is_empty());
        Self::from_args(&args, smoke_env, default_out).unwrap_or_else(|err| {
            eprintln!("{err}");
            std::process::exit(1);
        })
    }

    /// The CLI that `args` ask for, or the error naming a `--out` that
    /// no path follows (the end of the arguments, or another flag).
    fn from_args(args: &[String], smoke_env: bool, default_out: &str) -> Result<Self, String> {
        let smoke = smoke_env || args.iter().any(|a| a == "--smoke");
        let out_path = match args.iter().position(|a| a == "--out") {
            None => default_out.to_string(),
            Some(i) => match args.get(i + 1) {
                Some(path) if !path.starts_with("--") => path.clone(),
                _ => return Err("--out needs a path after it".to_string()),
            },
        };
        Ok(BenchCli { smoke, out_path })
    }

    /// Writes the rendered JSON document to the chosen path and prints
    /// the confirmation line the harness binaries end with.
    ///
    /// # Panics
    ///
    /// Panics when the path cannot be written — a bench run without its
    /// document is a failed run.
    pub fn write_json(&self, json: &str) {
        std::fs::write(&self.out_path, json)
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", self.out_path));
        println!("wrote {} ({} bytes)", self.out_path, json.len());
    }
}

/// One row of a harness's gate table: the gates set (standing in for
/// [`env_gate`]), the text its one violation carries, and the breakage.
#[cfg(test)]
pub(crate) type GateCase<T> = (&'static [(&'static str, f64)], &'static str, fn(&mut T));

/// Runs a gate table against a fixture that passes `check`. Each
/// case's gates alone must pass the fixture; after its breakage `check`
/// must report exactly one violation, carrying the case's text, and
/// none once the case's gates are unset.
#[cfg(test)]
pub(crate) fn assert_gate_table<T: Clone>(
    fixture: &T,
    check: impl Fn(&T, &dyn Fn(&str) -> Option<f64>) -> Vec<String>,
    cases: &[GateCase<T>],
) {
    assert_eq!(check(fixture, &|_| None), Vec::<String>::new());
    for (gates, expected, breaks) in cases {
        let gate = |name: &str| gates.iter().find(|(g, _)| *g == name).map(|(_, v)| *v);
        let mut broken = fixture.clone();
        assert!(check(&broken, &gate).is_empty(), "{expected}: the gates alone must pass");
        breaks(&mut broken);
        let violations = check(&broken, &gate);
        assert!(
            violations.len() == 1 && violations[0].contains(expected),
            "{expected}: {violations:?}"
        );
        if !gates.is_empty() {
            assert!(check(&broken, &|_| None).is_empty(), "{expected}: unset gates must pass");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_values_must_be_finite_numbers() {
        for malformed in ["1.5x", "", "nan", "NaN", "inf", "-inf", "infinity"] {
            assert_eq!(parse_gate(malformed), None, "{malformed:?} must be rejected");
        }
        assert_eq!(parse_gate("2"), Some(2.0));
        assert_eq!(parse_gate("1.25"), Some(1.25));
    }

    #[test]
    fn counts_must_be_positive_whole_numbers() {
        for malformed in ["four", "", "0", "-1", "1.5"] {
            assert_eq!(parse_count(malformed), None, "{malformed:?} must be rejected");
        }
        assert_eq!(parse_count("1"), Some(1));
        assert_eq!(parse_count("4"), Some(4));
    }

    #[test]
    fn out_needs_a_path_after_it() {
        let parse = |args: &[&str], smoke_env: bool| {
            let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
            BenchCli::from_args(&args, smoke_env, "BENCH_x.json")
        };
        let cli = parse(&["--out", "run.json", "--smoke"], false).unwrap();
        assert_eq!((cli.smoke, cli.out_path.as_str()), (true, "run.json"));
        let cli = parse(&[], true).unwrap();
        assert_eq!((cli.smoke, cli.out_path.as_str()), (true, "BENCH_x.json"));
        let cli = parse(&["--smoke"], false).unwrap();
        assert_eq!(cli.out_path, "BENCH_x.json");
        for args in [&["--out"][..], &["--smoke", "--out"], &["--out", "--smoke"]] {
            let err = parse(args, false).unwrap_err();
            assert!(err.contains("--out"), "{args:?}: {err}");
        }
    }

    #[test]
    fn best_of_takes_the_minimum() {
        let mut calls = 0;
        let s = best_of_seconds(3, || calls += 1);
        assert_eq!(calls, 3);
        assert!(s >= 0.0 && s.is_finite());
        // Zero reps still measures once.
        let mut calls = 0;
        best_of_seconds(0, || calls += 1);
        assert_eq!(calls, 1);
    }

    #[test]
    fn setup_and_verify_bracket_every_rep() {
        let (mut setups, mut runs, mut verifies) = (0, 0, 0);
        let s = best_of_seconds_with(
            4,
            || {
                setups += 1;
                setups
            },
            |n| {
                runs += 1;
                n * 2
            },
            |r| {
                verifies += 1;
                assert_eq!(r, verifies * 2);
            },
        );
        assert_eq!((setups, runs, verifies), (4, 4, 4));
        assert!(s >= 0.0 && s.is_finite());
    }
}
