//! Online-runtime benchmark harness.
//!
//! Where `simperf` measures *host* throughput, this harness measures
//! the **simulated timeline** of the online warp runtime per workload:
//! time-to-warp, the warp-event sequence (including re-warps and
//! evictions on the phased workload), end-to-end online speedup over a
//! software-only timeline, and the offline amortization numbers next to
//! it. Everything here is a function of simulated cycles, so —
//! unlike `simperf` — the measurements are bit-deterministic and CI can
//! validate them strictly (including across `WARP_CAD_THREADS`
//! settings — the background CAD workers never touch the modeled
//! timeline). [`OnlinePerf::to_json`] emits `BENCH_online.json`
//! (schema `warp-mb/bench-online/v2`, documented in the README's
//! "Online warp runtime" section). v2 adds the incremental-CAD columns
//! per event — clusters replayed from the sub-kernel caches, nets
//! re-routed, detection-to-patch overlap — and the
//! `rewarp_cad_ratio` aggregate CI gates on: the phased workload's
//! re-warp of a shifted-but-similar kernel must charge at most half
//! the modeled CAD cycles of its from-scratch first warp.

use std::sync::Arc;

use warp_core::pipeline;
use warp_core::WarpOptions;
use warp_online::{
    NeverPolicy, OnlineConfig, OnlineReport, OnlineSession, ThresholdPolicy, TopKPolicy,
};
use warp_profiler::Profiler;
use workloads::Workload;

/// One warp event, flattened for the JSON document.
#[derive(Clone, Copy, Debug)]
pub struct EventPerf {
    /// Warped region.
    pub head: u32,
    /// Warped region tail.
    pub tail: u32,
    /// Timeline cycle of OCPM commitment.
    pub detected_cycle: u64,
    /// Lean-processor CAD budget charged to the timeline.
    pub cad_cycles: u64,
    /// Timeline cycle the patch landed.
    pub patched_cycle: u64,
    /// Whether the circuit came from the cache.
    pub cache_hit: bool,
    /// LUT clusters replayed from the sub-kernel CAD caches.
    pub reused_clusters: u64,
    /// Total LUT clusters in the mapped netlist.
    pub total_clusters: u64,
    /// Nets whose first-pass route was computed fresh.
    pub rerouted_nets: usize,
    /// Total routed nets.
    pub total_nets: usize,
    /// Modeled cycles between detection and the landed patch (the
    /// compilation-overlaps-simulation window).
    pub cad_overlap_cycles: u64,
    /// Region evicted by this warp, if any.
    pub evicted: Option<(u32, u32)>,
}

/// One workload's online measurement.
#[derive(Clone, Debug)]
pub struct OnlineWorkloadPerf {
    /// Workload name.
    pub name: String,
    /// Application repeats folded into the timeline.
    pub repeats: u32,
    /// OCPM clock used (scaled per workload so the CAD budget fits the
    /// timeline; the same clock feeds the offline amortization column).
    pub dpm_clock_hz: u64,
    /// Software-only cycles for the same repeat sequence.
    pub sw_cycles: u64,
    /// Online-runtime cycles.
    pub online_cycles: u64,
    /// Cycles to the first landed patch (`None` if never warped).
    pub time_to_first_warp: Option<u64>,
    /// Landed warps in timeline order.
    pub events: Vec<EventPerf>,
    /// Offline steady-state speedup of the same (first) kernel.
    pub offline_steady_speedup: f64,
    /// Runs the offline stop-the-world flow needs to break even.
    pub offline_break_even_runs: u64,
}

impl OnlineWorkloadPerf {
    /// End-to-end online speedup over software-only execution.
    #[must_use]
    pub fn online_speedup(&self) -> f64 {
        self.sw_cycles as f64 / self.online_cycles.max(1) as f64
    }
}

/// The whole suite's online measurements.
#[derive(Clone, Debug)]
pub struct OnlinePerf {
    /// `true` when run with smoke-mode sizes (CI).
    pub smoke: bool,
    /// Per-workload results.
    pub workloads: Vec<OnlineWorkloadPerf>,
}

impl OnlinePerf {
    /// Mean online speedup across workloads.
    #[must_use]
    pub fn mean_online_speedup(&self) -> f64 {
        if self.workloads.is_empty() {
            return 0.0;
        }
        self.workloads.iter().map(OnlineWorkloadPerf::online_speedup).sum::<f64>()
            / self.workloads.len() as f64
    }

    /// Total landed warp events.
    #[must_use]
    pub fn total_events(&self) -> usize {
        self.workloads.iter().map(|w| w.events.len()).sum()
    }

    /// Modeled CAD cycles of the phased workload's re-warp relative to
    /// its from-scratch first warp — the incremental-CAD payoff CI
    /// gates on (`None` when the phased timeline has fewer than two
    /// warps). The second warp compiles a shifted-but-similar kernel
    /// through the sub-kernel caches its first warp populated, so it
    /// should charge a small fraction of the first warp's budget.
    #[must_use]
    pub fn rewarp_cad_ratio(&self) -> Option<f64> {
        let phased = self.workloads.iter().find(|w| w.name == "phased")?;
        let (first, second) = (phased.events.first()?, phased.events.get(1)?);
        Some(second.cad_cycles as f64 / first.cad_cycles.max(1) as f64)
    }

    /// The `BENCH_online.json` gates, one message per violation. Every
    /// number is simulated, so every gate always applies; the re-warp
    /// ceiling is what `gate` returns for `ONLINEPERF_REWARP_RATIO`, or 0.5.
    #[must_use]
    pub fn check(&self, gate: impl Fn(&str) -> Option<f64>) -> Vec<String> {
        let mut violations = Vec::new();
        let mut require = |ok: bool, violation: String| {
            if !ok {
                violations.push(violation);
            }
        };
        for w in &self.workloads {
            let (name, speedup) = (&w.name, w.online_speedup());
            require(!w.events.is_empty(), format!("{name} never warped"));
            require(speedup > 1.0, format!("{name}: online speedup {speedup:.3} <= 1"));
            require(w.time_to_first_warp.is_some(), format!("{name}: no time to first warp"));
            for e in &w.events {
                let lands = e.patched_cycle >= e.detected_cycle + e.cad_cycles;
                let overlaps = e.cad_overlap_cycles >= e.cad_cycles;
                let counts =
                    e.reused_clusters <= e.total_clusters && e.rerouted_nets <= e.total_nets;
                require(lands && overlaps && counts, format!("{name}: inconsistent {e:?}"));
            }
        }
        match self.workloads.iter().find(|w| w.name == "phased").map(|w| &w.events[..]) {
            Some([_, a2, b]) => {
                require(a2.evicted.is_some() && b.evicted.is_some(), "phased: no eviction".into());
                require(a2.reused_clusters > 0, "phased: A' reused none of A's clusters".into());
            }
            Some(events) => require(false, format!("phased: {} warp events, not 3", events.len())),
            None => require(false, "no phased workload".into()),
        }
        // `None` only when the match above already failed.
        if let Some(ratio) = self.rewarp_cad_ratio() {
            let ceiling = gate("ONLINEPERF_REWARP_RATIO").unwrap_or(0.5);
            require(ratio <= ceiling, format!("ONLINEPERF_REWARP_RATIO: {ratio:.4} > {ceiling}"));
        }
        violations
    }

    /// Renders the `BENCH_online.json` document.
    #[must_use]
    pub fn to_json(&self) -> String {
        let event_json = |e: &EventPerf| {
            format!(
                r#"{{"head": {}, "tail": {}, "detected_cycle": {}, "cad_cycles": {}, "patched_cycle": {}, "cache_hit": {}, "reused_clusters": {}, "total_clusters": {}, "rerouted_nets": {}, "total_nets": {}, "cad_overlap_cycles": {}, "evicted": {}}}"#,
                e.head,
                e.tail,
                e.detected_cycle,
                e.cad_cycles,
                e.patched_cycle,
                e.cache_hit,
                e.reused_clusters,
                e.total_clusters,
                e.rerouted_nets,
                e.total_nets,
                e.cad_overlap_cycles,
                e.evicted.map_or("null".into(), |(h, t)| format!("[{h}, {t}]")),
            )
        };
        let mut out = String::from("{\n");
        out.push_str("  \"schema\": \"warp-mb/bench-online/v2\",\n");
        out.push_str(&format!("  \"mode\": \"{}\",\n", if self.smoke { "smoke" } else { "full" }));
        out.push_str(&format!("  \"mb_clock_hz\": {},\n", mb_sim::MB_CLOCK_HZ));
        out.push_str("  \"workloads\": [\n");
        for (i, w) in self.workloads.iter().enumerate() {
            let events: Vec<String> = w.events.iter().map(&event_json).collect();
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"repeats\": {}, \"dpm_clock_hz\": {}, \
                 \"sw_cycles\": {}, \"online_cycles\": {}, \"online_speedup\": {:.3}, \
                 \"time_to_first_warp_cycles\": {}, \
                 \"offline_steady_speedup\": {:.3}, \"offline_break_even_runs\": {}, \
                 \"warp_events\": [{}]}}{}\n",
                w.name,
                w.repeats,
                w.dpm_clock_hz,
                w.sw_cycles,
                w.online_cycles,
                w.online_speedup(),
                w.time_to_first_warp.map_or("null".into(), |c| c.to_string()),
                w.offline_steady_speedup,
                w.offline_break_even_runs,
                events.join(", "),
                if i + 1 == self.workloads.len() { "" } else { "," },
            ));
        }
        out.push_str("  ],\n");
        out.push_str(&format!(
            "  \"aggregate\": {{\"workloads\": {}, \"total_warp_events\": {}, \
             \"mean_online_speedup\": {:.3}, \"rewarp_cad_ratio\": {}}}\n",
            self.workloads.len(),
            self.total_events(),
            self.mean_online_speedup(),
            self.rewarp_cad_ratio().map_or("null".into(), |r| format!("{r:.4}")),
        ));
        out.push_str("}\n");
        out
    }

    /// Renders the human-readable table the binary prints.
    #[must_use]
    pub fn render_table(&self) -> String {
        let mut out = format!(
            "{:>10} | {:>4} {:>12} {:>12} {:>8} {:>12} {:>6} {:>9} {:>10}\n",
            "benchmark",
            "reps",
            "sw cycles",
            "online cyc",
            "speedup",
            "1st warp @",
            "warps",
            "steady",
            "break-even"
        );
        out.push_str(&"-".repeat(96));
        out.push('\n');
        for w in &self.workloads {
            out.push_str(&format!(
                "{:>10} | {:>4} {:>12} {:>12} {:>7.2}x {:>12} {:>6} {:>8.2}x {:>10}\n",
                w.name,
                w.repeats,
                w.sw_cycles,
                w.online_cycles,
                w.online_speedup(),
                w.time_to_first_warp.map_or("never".into(), |c| c.to_string()),
                w.events.len(),
                w.offline_steady_speedup,
                w.offline_break_even_runs,
            ));
        }
        out
    }
}

/// The offline staged reference for one workload, with the OCPM clock
/// pre-scaled so that an online run can land the warp within a few
/// repeats.
///
/// Shared between the `onlineperf` harness and the root convergence
/// test (`tests/online_warp.rs`), so the scaling rule and the
/// amortization columns cannot drift apart.
#[derive(Clone, Debug)]
pub struct OfflineReference {
    /// [`WarpOptions`] with `dpm_clock_hz` scaled in decade steps until
    /// the CAD budget, converted to MicroBlaze timeline cycles, fits
    /// inside half a software run — idct's CAD is ~110M lean-processor
    /// cycles, three orders beyond brev's. The same options feed the
    /// offline amortization numbers, so the comparison stays
    /// self-consistent.
    pub options: WarpOptions,
    /// The offline pipeline's report (software + warped run, energy,
    /// amortization inputs).
    pub report: warp_core::WarpReport,
    /// The decompiled kernel's stable fingerprint.
    pub fingerprint: u64,
    /// The compiled circuit's cycle model.
    pub model: warp_wcla::ExecModel,
    /// The OCPM's modeled cost breakdown.
    pub dpm: warp_core::dpm::DpmReport,
    /// The annotated kernel's backward-branch total over one software
    /// run. Used as the online detection threshold: the kernel is the
    /// hottest region of a run (`profiler_agrees`), so it is the first
    /// to *reach* its own total — init loops that run earlier carry
    /// strictly less heat, and any region tying the kernel (g3fax's
    /// checksum) only finishes accumulating after the kernel already
    /// crossed.
    pub kernel_heat: u64,
    /// Runs the offline stop-the-world flow needs to break even, at the
    /// scaled clock.
    pub break_even_runs: u64,
}

/// Runs the offline staged pipeline on a built workload and derives the
/// online measurement preconditions (scaled OCPM clock, detection
/// threshold, amortization columns).
///
/// # Panics
///
/// Panics if any offline stage fails or the profiler's hottest region
/// is not the annotated kernel (harness preconditions, pinned by the
/// root test suite).
#[must_use]
pub fn offline_reference(built: &workloads::BuiltWorkload) -> OfflineReference {
    let mut options = WarpOptions::default();

    let traced = pipeline::trace_software(built, &options).expect("software run");
    let hot = pipeline::profile_trace(&traced, &options).expect("hot region");
    let decompiled = pipeline::decompile(built, &hot).expect("decompile");
    assert!(decompiled.profiler_agrees, "{}: hottest region must be the kernel", built.name);
    let compiled = pipeline::compile_circuit(&decompiled).expect("compile");

    let sw_cycles = traced.outcome.cycles;
    let mb_hz = mb_sim::MB_CLOCK_HZ;
    let dpm_total = compiled.dpm.total_cycles();
    let on_timeline =
        |dpm_hz: u64| (u128::from(dpm_total) * u128::from(mb_hz) / u128::from(dpm_hz)) as u64;
    while on_timeline(options.dpm_clock_hz) > sw_cycles / 2 {
        options.dpm_clock_hz *= 10;
    }

    let patched = pipeline::plan_patch(built, &compiled).expect("patch plan");
    let report =
        pipeline::execute_and_measure(built, &traced, &decompiled, &compiled, &patched, &options)
            .expect("offline warp")
            .report;

    let mut profiler = Profiler::new(options.profiler);
    profiler.observe_trace(&traced.trace);
    let kernel_heat = profiler.hot_regions()[0].count;

    let break_even_runs = OnlineReport::offline_break_even_runs(
        report.sw_seconds,
        report.warped_seconds,
        report.dpm_seconds(),
    );
    OfflineReference {
        options,
        fingerprint: decompiled.fingerprint,
        model: compiled.circuit.model,
        dpm: compiled.dpm,
        report,
        kernel_heat,
        break_even_runs,
    }
}

/// Measures one single-kernel workload: threshold at the kernel's
/// per-run heat, OCPM clock scaled until the CAD budget fits half a
/// run, `repeats` runs on one timeline.
///
/// # Panics
///
/// Panics if the workload fails the offline pipeline or the online run
/// (these are measurement harness preconditions, pinned by the root
/// test suite).
#[must_use]
pub fn measure_single_kernel(workload: &Workload, repeats: u32) -> OnlineWorkloadPerf {
    let built = workload.build(mb_isa::MbFeatures::paper_default());
    let offline = offline_reference(&built);

    let config = OnlineConfig {
        options: offline.options.clone(),
        slice_cycles: 10_000,
        decay_interval: 0,
        repeats,
        ..OnlineConfig::default()
    };
    let report = OnlineSession::new(Arc::new(built), config)
        .with_policy(TopKPolicy { k: 1, min_count: offline.kernel_heat })
        .run()
        .expect("online run");

    perf_from(
        report,
        u64::from(repeats) * offline.report.sw_cycles,
        offline.options.dpm_clock_hz,
        offline.report.speedup(),
        offline.break_even_runs,
    )
}

/// Measures the phased workload: one long run, threshold policy, decay
/// on — the timeline must show the warp → evict → re-warp sequence.
///
/// # Panics
///
/// Panics if the online or software-only arm fails.
#[must_use]
pub fn measure_phased(
    outer_a: u32,
    outer_a2: u32,
    outer_b: u32,
    min_count: u64,
) -> OnlineWorkloadPerf {
    let built = Arc::new(workloads::phased::build_scaled(
        mb_isa::MbFeatures::paper_default(),
        outer_a,
        outer_a2,
        outer_b,
    ));
    let config = OnlineConfig {
        slice_cycles: 20_000,
        decay_interval: 8,
        repeats: 1,
        ..OnlineConfig::default()
    };
    let report = OnlineSession::new(Arc::clone(&built), config.clone())
        .with_policy(ThresholdPolicy { min_count })
        .run()
        .expect("phased online run");
    let software = OnlineSession::new(built, config)
        .with_policy(NeverPolicy)
        .run()
        .expect("phased software run");

    let dpm_clock = WarpOptions::default().dpm_clock_hz;
    // The offline flow warps only the whole-run-hottest kernel; for the
    // phased workload the honest steady-state column is the software
    // baseline ratio of the online run itself, so report the measured
    // end-to-end ratio and no break-even (CAD amortizes on the timeline).
    perf_from(report, software.cycles, dpm_clock, 0.0, 0)
}

fn perf_from(
    report: OnlineReport,
    sw_cycles: u64,
    dpm_clock_hz: u64,
    offline_steady_speedup: f64,
    offline_break_even_runs: u64,
) -> OnlineWorkloadPerf {
    OnlineWorkloadPerf {
        name: report.name.clone(),
        repeats: report.repeats,
        dpm_clock_hz,
        sw_cycles,
        online_cycles: report.cycles,
        time_to_first_warp: report.time_to_first_warp(),
        events: report
            .events
            .iter()
            .map(|e| EventPerf {
                head: e.head,
                tail: e.tail,
                detected_cycle: e.detected_cycle,
                cad_cycles: e.cad_cycles,
                patched_cycle: e.patched_cycle,
                cache_hit: e.cache_hit,
                reused_clusters: e.reused_clusters,
                total_clusters: e.total_clusters,
                rerouted_nets: e.rerouted_nets,
                total_nets: e.total_nets,
                cad_overlap_cycles: e.cad_overlap_cycles,
                evicted: e.evicted,
            })
            .collect(),
        offline_steady_speedup,
        offline_break_even_runs,
    }
}

/// Measures the whole suite: every single-kernel workload plus the
/// phased re-warp scenario.
#[must_use]
pub fn measure_suite(smoke: bool) -> OnlinePerf {
    let repeats = if smoke { 2 } else { 4 };
    let mut results: Vec<OnlineWorkloadPerf> = workloads::all()
        .iter()
        .filter(|w| w.name != "phased")
        .map(|w| measure_single_kernel(w, repeats))
        .collect();
    results.push(if smoke {
        measure_phased(150, 75, 350, 1500)
    } else {
        measure_phased(300, 150, 700, 3000)
    });
    OnlinePerf { smoke, workloads: results }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::assert_gate_table;

    fn synthetic() -> OnlinePerf {
        OnlinePerf {
            smoke: true,
            workloads: vec![OnlineWorkloadPerf {
                name: "phased".into(),
                repeats: 2,
                dpm_clock_hz: 85_000_000,
                sw_cycles: 200_000,
                online_cycles: 80_000,
                time_to_first_warp: Some(40_000),
                events: vec![
                    EventPerf {
                        head: 0x14,
                        tail: 0xA4,
                        detected_cycle: 20_000,
                        cad_cycles: 14_000,
                        patched_cycle: 40_000,
                        cache_hit: false,
                        reused_clusters: 0,
                        total_clusters: 32,
                        rerouted_nets: 8,
                        total_nets: 8,
                        cad_overlap_cycles: 20_000,
                        evicted: None,
                    },
                    EventPerf {
                        head: 0x100,
                        tail: 0x140,
                        detected_cycle: 50_000,
                        cad_cycles: 3_500,
                        patched_cycle: 60_000,
                        cache_hit: false,
                        reused_clusters: 30,
                        total_clusters: 32,
                        rerouted_nets: 1,
                        total_nets: 8,
                        cad_overlap_cycles: 10_000,
                        evicted: Some((0x14, 0xA4)),
                    },
                    EventPerf {
                        head: 0x200,
                        tail: 0x240,
                        detected_cycle: 64_000,
                        cad_cycles: 14_000,
                        patched_cycle: 79_000,
                        cache_hit: false,
                        reused_clusters: 0,
                        total_clusters: 16,
                        rerouted_nets: 4,
                        total_nets: 4,
                        cad_overlap_cycles: 15_000,
                        evicted: Some((0x100, 0x140)),
                    },
                ],
                offline_steady_speedup: 16.9,
                offline_break_even_runs: 1,
            }],
        }
    }

    #[test]
    fn json_has_schema_and_balanced_structure() {
        let json = synthetic().to_json();
        assert!(json.contains("\"schema\": \"warp-mb/bench-online/v2\""));
        assert!(json.contains("\"warp_events\""));
        assert!(json.contains("\"evicted\": [20, 164]"));
        assert!(json.contains("\"reused_clusters\": 30"));
        assert!(json.contains("\"rerouted_nets\": 1"));
        assert!(json.contains("\"cad_overlap_cycles\": 20000"));
        assert!(json.contains("\"rewarp_cad_ratio\": 0.2500"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert_eq!(json.matches('"').count() % 2, 0, "quotes must pair");
        assert!(!json.contains("NaN") && !json.contains("inf"));
    }

    #[test]
    fn speedup_and_aggregates_follow_the_cycles() {
        let p = synthetic();
        assert!((p.workloads[0].online_speedup() - 2.5).abs() < 1e-9);
        assert!((p.mean_online_speedup() - 2.5).abs() < 1e-9);
        assert_eq!(p.total_events(), 3);
        assert!((p.rewarp_cad_ratio().unwrap() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn check_reports_exactly_the_broken_gate() {
        assert_gate_table(
            &synthetic(),
            |p, gate| p.check(gate),
            &[
                (&[], "brev never warped", |p| {
                    let mut never = p.workloads[0].clone();
                    never.name = "brev".into();
                    never.events.clear();
                    p.workloads.push(never);
                }),
                (&[], "online speedup 0.667", |p| p.workloads[0].online_cycles = 300_000),
                (&[], "no time to first warp", |p| p.workloads[0].time_to_first_warp = None),
                (&[], "patched_cycle: 30000", |p| {
                    p.workloads[0].events[0].patched_cycle = 30_000;
                }),
                (&[], "cad_overlap_cycles: 10000", |p| {
                    p.workloads[0].events[0].cad_overlap_cycles = 10_000;
                }),
                (&[], "reused_clusters: 40", |p| p.workloads[0].events[0].reused_clusters = 40),
                (&[], "rerouted_nets: 9", |p| p.workloads[0].events[0].rerouted_nets = 9),
                (&[], "no phased workload", |p| p.workloads[0].name = "brev".into()),
                (&[], "2 warp events, not 3", |p| p.workloads[0].events.truncate(2)),
                (&[], "phased: no eviction", |p| p.workloads[0].events[2].evicted = None),
                (&[], "reused none of A's clusters", |p| {
                    p.workloads[0].events[1].reused_clusters = 0;
                }),
                // The ceiling defaults to 0.5 when the gate is unset...
                (&[], "ONLINEPERF_REWARP_RATIO", |p| p.workloads[0].events[1].cad_cycles = 10_000),
                // ...and the gate tightens it.
                (
                    &[("ONLINEPERF_REWARP_RATIO", 0.3)],
                    "ONLINEPERF_REWARP_RATIO: 0.4000 > 0.3",
                    |p| {
                        p.workloads[0].events[1].cad_cycles = 5_600;
                    },
                ),
            ],
        );
    }

    #[test]
    fn table_lists_workloads_and_warp_counts() {
        let table = synthetic().render_table();
        assert!(table.contains("phased"));
        assert!(table.contains("2.50x"));
    }
}
