//! Memory-pressure golden tests: every tier-1 app, run with the device
//! arena capped below its working set, must produce results bit-identical
//! to the uncapped run (relative-error tolerance only for apps with float
//! reductions, whose device-side atomics reorder the accumulation), and
//! the observability layer must record which ladder rung — evict, tile,
//! or host fallback — resolved each pressure event.

use ompi_nano::unibench::{
    all_apps, app_by_name, build_variant_cfg, max_rel_err, run_once, runner_config, App, Variant,
};

/// Run one app at size `n` through the OMPi/cudadev variant with the given
/// device-arena size; returns the outputs and the device-0 metric counters.
fn run_with_arena(app: &App, n: u32, device_mem: Option<usize>) -> (Vec<f32>, Vec<(String, u64)>) {
    let tag = device_mem.map_or("uncapped".to_string(), |m| m.to_string());
    let work = std::env::temp_dir().join(format!(
        "ompinano-mempress-{}-{}-{tag}",
        std::process::id(),
        app.name
    ));
    let obs = obs::Obs::enabled();
    let mut cfg = runner_config((app.footprint)(n));
    cfg.obs = Some(obs.clone());
    if let Some(m) = device_mem {
        cfg.device_mem = Some(m);
    }
    let built = build_variant_cfg(app, Variant::OmpiCudadev, &work, &cfg);
    let out = run_once(app, &built.runner, n)
        .unwrap_or_else(|e| panic!("{} (arena {tag}) failed at n={n}: {e}", app.name));
    (out, obs.metrics.counters_for(0))
}

fn pressure_rungs(counters: &[(String, u64)]) -> Vec<(String, u64)> {
    counters
        .iter()
        .filter(|(k, _)| k.starts_with("pressure."))
        .map(|(k, v)| (k.clone(), *v))
        .collect()
}

/// The acceptance-criteria sweep: each app runs at its functional test size
/// with the arena capped to half its footprint. The cap is below the mapped
/// working set, so at least one pressure event must fire, and the governor
/// must degrade (through whatever rung applies) without changing results.
#[test]
fn capped_arena_is_bit_identical_for_every_app() {
    for app in all_apps() {
        let n = app.test_size;
        let cap = ((app.footprint)(n) / 2) as usize;
        let (baseline, base_counters) = run_with_arena(&app, n, None);
        let (capped, counters) = run_with_arena(&app, n, Some(cap));

        assert!(
            pressure_rungs(&base_counters).is_empty(),
            "{}: uncapped run must not hit memory pressure, got {base_counters:?}",
            app.name
        );
        let rungs = pressure_rungs(&counters);
        assert!(
            !rungs.is_empty(),
            "{}: arena capped to {cap} bytes must trigger at least one pressure \
             event, counters: {counters:?}",
            app.name
        );

        assert_eq!(baseline.len(), capped.len(), "{}: output length", app.name);
        if app.name == "gramschmidt" {
            // Float reductions are device-side atomics: accumulation order
            // differs between the device and the host-fallback rung.
            let err = max_rel_err(&baseline, &capped);
            assert!(
                err <= app.tolerance,
                "{}: capped run drifted {err:.2e} > {:.1e} (rungs {rungs:?})",
                app.name,
                app.tolerance
            );
        } else {
            for (i, (a, b)) in baseline.iter().zip(&capped).enumerate() {
                assert!(
                    a.to_bits() == b.to_bits(),
                    "{}: output[{i}] differs under pressure: {a} vs {b} (rungs {rungs:?})",
                    app.name
                );
            }
        }
    }
}

/// At n=1024 atax's first kernel maps a 4 MiB matrix with a sliceable
/// row-major access (`a[i*n+j]`, distribute variable `i`), so a 2 MiB arena
/// must be resolved by the **tile** rung — not by falling all the way back
/// to the host — and the results must still be bit-identical. The second
/// kernel walks the matrix by columns (distribute variable `j`), which is
/// not sliceable, so the same run must also record an annotated fallback.
#[test]
fn atax_large_resolves_via_tiling() {
    let app = app_by_name("atax").expect("atax");
    let n = 1024;
    let (baseline, _) = run_with_arena(&app, n, None);
    let (capped, counters) = run_with_arena(&app, n, Some(2 << 20));

    let get = |k: &str| counters.iter().find(|(name, _)| name == k).map_or(0, |(_, v)| *v);
    assert!(get("pressure.tile") >= 1, "tile rung must fire, counters: {counters:?}");
    assert!(get("tile_launches") >= 2, "the tiled kernel must split into >1 tile");
    assert!(
        get("pressure.fallback") >= 1,
        "the column-walk kernel is unsliceable and must fall back"
    );

    for (i, (a, b)) in baseline.iter().zip(&capped).enumerate() {
        assert!(a.to_bits() == b.to_bits(), "output[{i}] differs: {a} vs {b}");
    }
}

/// The trace must record the rung that resolved each pressure event: every
/// `pressure` instant carries a `rung` argument from the ladder vocabulary.
#[test]
fn trace_names_the_resolving_rung() {
    let app = app_by_name("atax").expect("atax");
    let n = 1024;
    let work = std::env::temp_dir().join(format!("ompinano-mempress-{}-trace", std::process::id()));
    let obs = obs::Obs::enabled();
    let mut cfg = runner_config((app.footprint)(n));
    cfg.obs = Some(obs.clone());
    cfg.device_mem = Some(2 << 20);
    let built = build_variant_cfg(&app, Variant::OmpiCudadev, &work, &cfg);
    run_once(&app, &built.runner, n).expect("capped atax run");

    let path =
        std::env::temp_dir().join(format!("ompinano-mempress-trace-{}.json", std::process::id()));
    built.runner.write_trace(&path).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    let parsed = obs::json::parse(&text).expect("trace must be valid JSON");
    let arr = parsed.as_array().expect("Chrome trace array form");

    // The `pressure` category also carries `map pending` deferral markers;
    // only the `pressure` instants themselves resolve through a rung.
    let rungs: Vec<String> = arr
        .iter()
        .filter(|e| {
            e.get("cat").and_then(|c| c.as_str()) == Some("pressure")
                && e.get("name").and_then(|n| n.as_str()) == Some("pressure")
        })
        .map(|e| {
            e.get("args")
                .and_then(|a| a.get("rung"))
                .and_then(|r| r.as_str())
                .expect("every pressure event names its rung")
                .to_string()
        })
        .collect();
    assert!(!rungs.is_empty(), "capped run must emit pressure events");
    for r in &rungs {
        assert!(["evict", "tile", "fallback"].contains(&r.as_str()), "unknown rung `{r}`");
    }
    assert!(rungs.iter().any(|r| r == "tile"), "tile rung must appear, got {rungs:?}");
}
