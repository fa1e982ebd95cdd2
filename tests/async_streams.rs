//! Async command-stream integration tests: bit-identical results with a
//! lower simulated total under double-buffered tiling, per-stream trace
//! tracks that only appear in async mode, and the `nowait`/`taskwait`
//! path overlapping two target regions on the simulated clock.

use ompi_nano::unibench::{
    app_by_name, build_variant_cfg, measure, runner_config, Measurement, Variant,
};
use ompi_nano::{Ompicc, Runner, RunnerConfig, Value};

/// Stream tracks start here in the Chrome trace (`tid = 100 + stream id`).
const STREAM_TRACK_BASE: u64 = 100;

/// Run atax at n=1024 with the device arena capped to 3 MiB — small enough
/// to force the governor's tile rung, large enough for it to double-buffer
/// when async streams are on. Returns the measurement, the device-0
/// counters, and the parsed trace-event array.
fn run_atax(async_streams: bool, tag: &str) -> (Measurement, Vec<(String, u64)>, Vec<obs::Json>) {
    let app = app_by_name("atax").expect("atax");
    let n = 1024;
    let work = std::env::temp_dir().join(format!("ompinano-async-{}-{tag}", std::process::id()));
    let obs = obs::Obs::enabled();
    let mut cfg = runner_config((app.footprint)(n));
    cfg.obs = Some(obs.clone());
    cfg.device_mem = Some(3 << 20);
    cfg.async_streams = Some(async_streams);
    let built = build_variant_cfg(&app, Variant::OmpiCudadev, &work, &cfg);
    let m = measure(&app, &built, n);

    let path = std::env::temp_dir()
        .join(format!("ompinano-async-trace-{}-{tag}.json", std::process::id()));
    built.runner.write_trace(&path).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    let parsed = obs::json::parse(&text).expect("trace must be valid JSON");
    let arr = parsed.as_array().expect("Chrome trace array form").to_vec();
    (m, obs.metrics.counters_for(0), arr)
}

fn counter(counters: &[(String, u64)], key: &str) -> u64 {
    counters.iter().find(|(k, _)| k == key).map_or(0, |(_, v)| *v)
}

fn num(e: &obs::Json, key: &str) -> f64 {
    e.get(key).and_then(|v| v.as_f64()).unwrap_or_else(|| panic!("event missing `{key}`"))
}

fn name_of(e: &obs::Json) -> &str {
    e.get("name").and_then(|v| v.as_str()).unwrap_or("")
}

/// Complete (ph="X") events on device 0's stream tracks.
fn stream_events(arr: &[obs::Json]) -> Vec<&obs::Json> {
    arr.iter()
        .filter(|e| {
            e.get("ph").and_then(|p| p.as_str()) == Some("X")
                && num(e, "pid") as u64 == 0
                && num(e, "tid") as u64 >= STREAM_TRACK_BASE
        })
        .collect()
}

/// Whether two complete events on *different* stream tracks overlap in time.
fn overlapping_pair<'a>(
    xs: &'a [&'a obs::Json],
    ys: &'a [&'a obs::Json],
) -> Option<(&'a obs::Json, &'a obs::Json)> {
    for x in xs {
        let (xs0, xs1) = (num(x, "ts"), num(x, "ts") + num(x, "dur"));
        for y in ys {
            if num(x, "tid") == num(y, "tid") {
                continue;
            }
            let (ys0, ys1) = (num(y, "ts"), num(y, "ts") + num(y, "dur"));
            if xs0 < ys1 - 1e-9 && ys0 < xs1 - 1e-9 {
                return Some((x, y));
            }
        }
    }
    None
}

/// The tentpole acceptance criterion: with the arena capped so atax tiles,
/// the async run double-buffers the tile pipeline, hides transfer time
/// under compute (lower simulated total, `overlap_s > 0`), and produces
/// bit-identical output to the synchronous run.
#[test]
fn async_tiled_atax_is_bit_identical_and_faster() {
    let (sync, sync_counters, _) = run_atax(false, "sync-meas");
    let (asy, async_counters, _) = run_atax(true, "async-meas");

    assert_eq!(sync.checksum, asy.checksum, "async scheduling must not change a single output bit");
    assert_eq!(sync.overlap_s, 0.0, "synchronous runs cannot overlap anything");
    assert!(asy.overlap_s > 0.0, "the double-buffered pipeline must hide some transfer time");
    assert!(
        asy.time_s < sync.time_s,
        "async simulated total {} must beat sync {}",
        asy.time_s,
        sync.time_s
    );
    // Busy time rises slightly in async mode (double-buffering halves the
    // tile size, so there are more per-op overheads), yet the pipeline
    // still wins: the elapsed total is what the hidden time pays back.
    assert!(asy.time_s + asy.overlap_s >= sync.time_s - 1e-9);

    assert_eq!(counter(&sync_counters, "tile_double_buffered"), 0);
    assert!(
        counter(&async_counters, "tile_double_buffered") >= 1,
        "the tile rung must report double-buffering, counters: {async_counters:?}"
    );
    assert!(counter(&async_counters, "tile_launches") >= 2, "still a multi-tile run");
}

/// Stream tracks are an async-mode artifact: the synchronous trace draws
/// copies as B/E spans on the driver track and nothing at tid >= 100,
/// while the async trace schedules copies and kernels as complete events
/// on per-stream tracks — with a copy overlapping a kernel on another
/// stream (the pipeline the trace exists to show).
#[test]
fn trace_shows_stream_tracks_only_in_async_mode() {
    let (_, _, sync_arr) = run_atax(false, "sync-trace");
    let (_, _, async_arr) = run_atax(true, "async-trace");

    assert!(stream_events(&sync_arr).is_empty(), "sync traces must not draw stream tracks");
    let streamed = stream_events(&async_arr);
    assert!(!streamed.is_empty(), "async traces must draw ops on stream tracks");

    let copies: Vec<_> =
        streamed.iter().copied().filter(|e| matches!(name_of(e), "h2d" | "d2h")).collect();
    let kernels: Vec<_> =
        streamed.iter().copied().filter(|e| name_of(e).starts_with("kernel ")).collect();
    assert!(!copies.is_empty() && !kernels.is_empty());
    let (c, k) = overlapping_pair(&copies, &kernels)
        .expect("a memcpy must overlap a kernel on a different stream track");
    assert_ne!(num(c, "tid") as u64, num(k, "tid") as u64);
}

/// Two independent loops, both `nowait`, then a `taskwait` barrier. Under
/// async streams each region gets its own stream; the second region's
/// transfers schedule under the first region's kernel on the simulated
/// clock. Results are exact either way (execution is eager — only the
/// virtual timestamps defer).
const NOWAIT_TWO_REGIONS: &str = r#"
int main() {
    int n = 4096;
    float a[4096]; float b[4096];
    for (int i = 0; i < n; i++) { a[i] = 1.0f; b[i] = 2.0f; }
    #pragma omp target teams distribute parallel for nowait map(tofrom: a[0:n])
    for (int i = 0; i < n; i++)
        a[i] = 2.0f * a[i] + 1.0f;
    #pragma omp target teams distribute parallel for nowait map(tofrom: b[0:n])
    for (int i = 0; i < n; i++)
        b[i] = 2.0f * b[i] + 1.0f;
    #pragma omp taskwait
    for (int i = 0; i < n; i++) {
        if (a[i] != 3.0f) return 1;
        if (b[i] != 5.0f) return 2;
    }
    return 0;
}
"#;

fn compile_nowait(tag: &str) -> ompi_nano::CompiledApp {
    let dir = std::env::temp_dir().join(format!("ompinano-nowait-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    Ompicc::new(&dir).compile(NOWAIT_TWO_REGIONS).unwrap()
}

/// The `nowait` acceptance criterion: the async trace of the two-region
/// program shows device spans from different streams overlapping, and the
/// aggregate clock reports the hidden time. `taskwait` drains the queues,
/// so reading the clock after the run needs no extra sync.
#[test]
fn nowait_regions_overlap_on_separate_streams() {
    let app = compile_nowait("async");
    let obs = obs::Obs::enabled();
    let cfg =
        RunnerConfig { async_streams: Some(true), obs: Some(obs.clone()), ..Default::default() };
    let runner = Runner::new(&app, &cfg).unwrap();
    assert_eq!(runner.run_main().unwrap(), Value::I32(0), "nowait must not change results");

    let clk = runner.dev_clock();
    assert!(clk.overlap_s > 0.0, "the second region must schedule under the first");

    let path =
        std::env::temp_dir().join(format!("ompinano-nowait-trace-{}.json", std::process::id()));
    runner.write_trace(&path).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    let parsed = obs::json::parse(&text).expect("trace must be valid JSON");
    let arr = parsed.as_array().expect("Chrome trace array form");

    let streamed = stream_events(arr);
    let tracks: std::collections::BTreeSet<u64> =
        streamed.iter().map(|e| num(e, "tid") as u64).collect();
    assert!(tracks.len() >= 2, "each nowait region gets its own stream track, got {tracks:?}");
    let (x, y) = overlapping_pair(&streamed, &streamed)
        .expect("spans from the two regions must overlap in simulated time");
    assert_ne!(num(x, "tid") as u64, num(y, "tid") as u64);
}

/// The same program in synchronous mode: `nowait` and `taskwait` are
/// accepted and results are identical — the clauses only matter for the
/// simulated schedule, never for correctness.
#[test]
fn nowait_and_taskwait_are_harmless_without_async_streams() {
    let app = compile_nowait("sync");
    let runner = Runner::new(&app, &RunnerConfig::default()).unwrap();
    assert_eq!(runner.run_main().unwrap(), Value::I32(0));
    assert_eq!(runner.dev_clock().overlap_s, 0.0);
}

/// One combined region whose grid (32 teams of 256 threads) is four times
/// what the SM holds at once (8 blocks of 256 threads), so it runs in four
/// waves.
const FOUR_WAVES: &str = r#"
int main() {
    int n = 8192;
    float v[8192];
    for (int i = 0; i < n; i++) v[i] = 0.0f;
    #pragma omp target teams distribute parallel for num_teams(32) thread_limit(256) \
        map(tofrom: v[0:n])
    for (int i = 0; i < n; i++) v[i] = (float) i * 0.5f;
    return (int) v[n - 1];
}
"#;

/// A launch records the same occupancy data whether it finishes on the
/// synchronous clock or on an async stream: the `occupancy_limited_blocks`
/// counter, and `resident_blocks`/`waves` on its kernel event.
#[test]
fn async_launches_record_occupancy_like_sync_ones() {
    let dir = std::env::temp_dir().join(format!("ompinano-waves-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let app = Ompicc::new(&dir).compile(FOUR_WAVES).unwrap();
    for async_streams in [false, true] {
        let obs = obs::Obs::enabled();
        let cfg = RunnerConfig {
            async_streams: Some(async_streams),
            obs: Some(obs.clone()),
            ..Default::default()
        };
        let runner = Runner::new(&app, &cfg).unwrap();
        assert_eq!(runner.run_main().unwrap(), Value::I32(4095));
        assert_eq!(runner.dev_clock().launches, 1, "the region must run on the device");
        let limited = obs.metrics.counter(0, "occupancy_limited_blocks");
        assert_eq!(limited, 32 - 8, "occupancy_limited_blocks, async = {async_streams}");

        let path = dir.join(format!("trace-{async_streams}.json"));
        runner.write_trace(&path).unwrap();
        let parsed = obs::json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let kernel = parsed
            .as_array()
            .expect("Chrome trace array form")
            .iter()
            .find(|e| name_of(e).starts_with("kernel ") && num(e, "pid") as u64 == 0)
            .expect("a kernel event on device 0")
            .clone();
        let args = kernel.get("args").expect("kernel event args");
        let arg = |k: &str| args.get(k).and_then(|v| v.as_f64());
        assert_eq!(arg("waves"), Some(4.0), "async = {async_streams}");
        assert_eq!(arg("resident_blocks"), Some(8.0), "async = {async_streams}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
