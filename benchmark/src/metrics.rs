//! The metric catalogue: every name and unit the benchmark prints, in one
//! place. `BENCHMARK.json` lists the same names; a unit test holds the two
//! together.

use std::collections::BTreeMap;

/// `(name, unit)` of the end-to-end metrics, printed by the untraced run
/// of every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p99_ms", "ms"),
    ("peak_rss_mib", "MiB"),
];

/// `(name, unit)` of the per-layer metrics, printed by the traced run of
/// every workload. A layer the workload never enters reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    // minic: frontend per program set, VM per pass.
    ("minic.parse_us", "us"),
    ("minic.analyze_us", "us"),
    ("minic.machine_new_us", "us"),
    ("minic.vm_s", "s"),
    ("minic.vm_instr", "count"),
    ("minic.vm_ns_per_instr", "ns"),
    ("minic.vm_dispatch_mem", "count"),
    ("minic.vm_dispatch_idx", "count"),
    ("minic.vm_dispatch_alu", "count"),
    ("minic.vm_dispatch_ctrl", "count"),
    ("minic.vm_dispatch_call", "count"),
    ("minic.vm_dispatch_misc", "count"),
    // core: translator and driver per program set, runner per pass.
    ("core.transform_us", "us"),
    ("core.transform_kernels", "count"),
    ("core.transform_kernel_bytes", "bytes"),
    ("core.ompicc_us", "us"),
    ("core.ompicc_self_us", "us"),
    ("core.cudacc_us", "us"),
    ("core.runner_new_us", "us"),
    ("core.runner_call_s", "s"),
    ("core.runner_residual_s", "s"),
    // nvccsim and sptx per program set.
    ("nvccsim.compile_us", "us"),
    ("nvccsim.link_us", "us"),
    ("nvccsim.sptx_insts", "count"),
    ("sptx.print_us", "us"),
    ("sptx.parse_us", "us"),
    ("sptx.verify_us", "us"),
    ("sptx.cubin_encode_us", "us"),
    ("sptx.cubin_decode_us", "us"),
    ("sptx.cubin_bytes", "bytes"),
    // cudadev.
    ("cudadev.init_us", "us"),
    ("cudadev.modload_cubin_us", "us"),
    ("cudadev.modload_ptx_cold_us", "us"),
    ("cudadev.modload_ptx_warm_us", "us"),
    ("cudadev.jit_cache_hit_share", "share"),
    ("cudadev.map_s", "s"),
    ("cudadev.unmap_s", "s"),
    ("cudadev.update_s", "s"),
    ("cudadev.h2d_bytes", "bytes"),
    ("cudadev.d2h_bytes", "bytes"),
    ("cudadev.copy_gib_per_s", "GiB/s"),
    ("cudadev.launches", "count"),
    ("cudadev.launch_overhead_us", "us"),
    ("cudadev.pressure_evict", "count"),
    ("cudadev.pressure_stage", "count"),
    ("cudadev.pressure_tile", "count"),
    ("cudadev.overlap_s", "sim_s"),
    ("cudadev.retries", "count"),
    // gpusim.
    ("gpusim.launch_s", "s"),
    ("gpusim.lane_insts", "count"),
    ("gpusim.lane_minstr_per_s", "M/s"),
    ("gpusim.blocks_simulated", "count"),
    ("gpusim.mem_transactions", "count"),
    ("gpusim.divergent_branches", "count"),
    ("gpusim.launch_fixed_us", "us"),
    ("gpusim.memcpy_h2d_gib_per_s", "GiB/s"),
    ("gpusim.memcpy_d2h_gib_per_s", "GiB/s"),
    // serve.
    ("serve.submit_us", "us"),
    ("serve.register_program_us", "us"),
    ("serve.standalone_job_us", "us"),
    ("serve.queue_wait_est_us", "us"),
    ("serve.affinity_hit_share", "share"),
    ("serve.rejected", "count"),
    // obs, the process, the benchmark itself.
    ("obs.enabled_overhead_share", "share"),
    ("proc.user_s", "s"),
    ("proc.sys_s", "s"),
    ("proc.minor_faults", "count"),
    ("bench.calib_ms", "ms"),
    ("bench.trace_overhead_share", "share"),
    ("bench.off_cpu_share", "share"),
    // The paper's metric (simulated seconds, deterministic).
    ("sim.offload_s", "sim_s"),
    ("sim.ompi_over_cuda", "ratio"),
];

/// Metric values by name, filled by the harness, the workloads and the
/// layer drives; [`render`] checks the set against a catalogue.
#[derive(Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.0.entry(name).or_insert(0.0) += value;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Every catalogue metric in catalogue order; unset ones read 0. A
    /// value under a name the catalogue lacks is a bug in the benchmark.
    pub fn in_catalogue(
        &self,
        catalogue: &[(&'static str, &'static str)],
    ) -> Result<Vec<(&'static str, &'static str, f64)>, String> {
        if let Some(stray) = self.0.keys().find(|k| !catalogue.iter().any(|(n, _)| n == *k)) {
            return Err(format!("metric `{stray}` is not in the catalogue"));
        }
        Ok(catalogue.iter().map(|&(n, u)| (n, u, self.get(n))).collect())
    }
}

/// The last stdout line: the result object the driver parses.
pub fn render(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&'static str, &'static str, f64)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, u, v)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", json_number(*v)))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// All the digits Rust prints (shortest round-trip); JSON has no NaN/inf.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(n: &str) -> bool {
        let mut cs = n.chars();
        cs.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.len() <= 64
            && cs.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn catalogue_names_and_units_meet_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for (n, u) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(n), "bad name {n}");
            assert!(valid_unit(u), "bad unit {u} of {n}");
            assert!(seen.insert(*n), "duplicate name {n}");
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END.contains(&("setup_s", "s")));
    }

    /// The names, units and order in `BENCHMARK.json` are the catalogue's.
    #[test]
    fn benchmark_json_lists_the_catalogue() {
        let text = include_str!("../../BENCHMARK.json");
        let json = obs::json::parse(text).expect("BENCHMARK.json parses");
        for (key, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = json
                .get(key)
                .and_then(|a| a.as_array())
                .expect("metric array")
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(|v| v.as_str()).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect();
            let want: Vec<(String, String)> =
                catalogue.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect();
            assert_eq!(listed, want, "{key}");
        }
        let workloads: Vec<&str> = json
            .get("workloads")
            .and_then(|a| a.as_array())
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(|v| v.as_str()).unwrap())
            .collect();
        assert_eq!(workloads, crate::workloads::NAMES);
    }

    #[test]
    fn result_line_is_one_json_object_with_the_four_keys() {
        let mut v = Values::default();
        v.set("cpu_s", 1.25);
        v.add("setup_s", 0.5);
        let line = render(true, 10, 0, &v.in_catalogue(END_TO_END).unwrap());
        assert!(!line.contains('\n'));
        let json = obs::json::parse(&line).expect("result parses");
        assert_eq!(json.get("correct").and_then(|c| c.as_bool()), Some(true));
        assert_eq!(json.get("attempted").and_then(|c| c.as_f64()), Some(10.0));
        assert_eq!(json.get("failed").and_then(|c| c.as_f64()), Some(0.0));
        let m = json.get("metrics").unwrap();
        for (n, u) in END_TO_END {
            let e = m.get(n).unwrap_or_else(|| panic!("{n} missing"));
            assert_eq!(e.get("unit").and_then(|x| x.as_str()), Some(*u));
            assert!(e.get("value").and_then(|x| x.as_f64()).is_some());
        }
        assert_eq!(m.get("cpu_s").unwrap().get("value").unwrap().as_f64(), Some(1.25));
    }

    #[test]
    fn a_stray_metric_name_is_refused() {
        let mut v = Values::default();
        v.set("not_in_catalogue", 1.0);
        assert!(v.in_catalogue(END_TO_END).is_err());
    }
}
