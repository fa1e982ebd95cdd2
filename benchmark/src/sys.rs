//! Process-level facts: environment scrubbing, `/proc/self` readers, the
//! calibration loop, and the scratch directory.

use std::path::{Path, PathBuf};
use std::time::Instant;

/// Remove every `OMPI_*` variable so stray environment (a fault plan, an
/// engine override, a trace path) cannot change a run. Call before any
/// thread exists.
pub fn scrub_env() -> Vec<String> {
    let stray: Vec<String> =
        std::env::vars_os().filter_map(|(k, _)| k.into_string().ok()).collect();
    let stray: Vec<String> = stray.into_iter().filter(|k| k.starts_with("OMPI_")).collect();
    for k in &stray {
        std::env::remove_var(k);
    }
    stray
}

fn status_kib(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line[field.len()..].trim().trim_end_matches("kB").trim().parse().ok()
}

/// Peak resident set size (`VmHWM`) in MiB since the last
/// [`reset_peak_rss`] (since process start where the kernel refuses that).
pub fn peak_rss_mib() -> Result<f64, String> {
    status_kib("VmHWM:").map(|k| k / 1024.0).ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// Restart the kernel's high-water mark at the current resident set, so
/// each timed pass reports its own peak and one pass's spike cannot set the
/// run's number.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// CPU seconds and minor faults of this process so far.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProcTimes {
    pub user_s: f64,
    pub sys_s: f64,
    pub minor_faults: f64,
}

impl ProcTimes {
    /// From `/proc/self/stat`; all threads, in clock ticks of 1/100 s (the
    /// Linux `USER_HZ` constant on every supported architecture).
    pub fn now() -> Result<ProcTimes, String> {
        let stat = std::fs::read_to_string("/proc/self/stat").map_err(|e| e.to_string())?;
        parse_stat(&stat).ok_or_else(|| "unparsable /proc/self/stat".into())
    }

    pub fn since(&self, earlier: &ProcTimes) -> ProcTimes {
        ProcTimes {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            minor_faults: self.minor_faults - earlier.minor_faults,
        }
    }
}

fn parse_stat(stat: &str) -> Option<ProcTimes> {
    // The command name (field 2) may hold spaces; fields 3.. follow the
    // last ')'.
    let rest: Vec<&str> = stat[stat.rfind(')')? + 1..].split_whitespace().collect();
    let field = |n: usize| rest.get(n - 3)?.parse::<f64>().ok();
    Some(ProcTimes {
        minor_faults: field(10)?,
        user_s: field(14)? / 100.0,
        sys_s: field(15)? / 100.0,
    })
}

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

// From the C library std already links; Linux only, like the `/proc`
// readers above.
extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, bytes: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, bytes: usize, mask: *const u64) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn clock_s(clock: i32) -> f64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid timespec for the C library to fill.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock})");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// CPU seconds all threads of this process, ended ones too, have run so far.
fn process_cpu_s() -> f64 {
    clock_s(CLOCK_PROCESS_CPUTIME_ID)
}

/// Confine the process to one CPU, the first its affinity mask allows, and
/// return that CPU's number. Call before any thread exists: threads inherit
/// the mask.
///
/// The box gives the benchmark two vCPUs of a shared host. With both in
/// use, gpusim's two block workers times eight warp threads and the server's
/// workers measured the scheduler and the neighbours: identical code spread
/// 30 % in `dev_kernels`, against 3 % on one CPU under the same
/// interference. What this gives up: a change that makes more host threads
/// run at once shows no gain here.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let mut mask = [0u64; 16];
    let bytes = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is `bytes` long; pid 0 is the calling thread.
    if unsafe { sched_getaffinity(0, bytes, mask.as_mut_ptr()) } != 0 {
        return Err("sched_getaffinity failed".to_string());
    }
    let word = mask.iter().position(|w| *w != 0).ok_or("empty affinity mask")?;
    let bit = mask[word].trailing_zeros() as usize;
    let mut one = [0u64; 16];
    one[word] = 1 << bit;
    // SAFETY: as above.
    if unsafe { sched_setaffinity(0, bytes, one.as_ptr()) } != 0 {
        return Err("sched_setaffinity failed".to_string());
    }
    Ok(word * 64 + bit)
}

/// What [`speed_probe_s`] reads on the box the benchmark was sized on in its
/// usual state (1.8 ns per step): the reference core speed.
pub const PROBE_REF_S: f64 = 450e-6;

/// CPU seconds a short fixed integer loop takes right now: the least of
/// three runs of 250 000 dependent xorshift steps (about half a millisecond
/// each) on the calling thread's CPU clock. The loop touches no memory and
/// runs no repo code, so it tracks the core's clock speed and nothing else.
///
/// The box's cores change speed for minutes at a time (the probe has read
/// from 350 to 460 µs on an idle box, and every op moved with it), which
/// no estimator inside a 25 s run can average away.
pub fn speed_probe_s() -> f64 {
    let one = || {
        let t = clock_s(CLOCK_THREAD_CPUTIME_ID);
        let mut x = std::hint::black_box(0x9e37_79b9_7f4a_7c15u64);
        for _ in 0..250_000u32 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        std::hint::black_box(x);
        clock_s(CLOCK_THREAD_CPUTIME_ID) - t
    };
    one().min(one()).min(one())
}

/// What [`timed`] measured around one op or set-up.
#[derive(Clone, Copy, Debug)]
pub struct Timing {
    /// *Reference CPU seconds*: CPU seconds of all the process's threads ×
    /// [`PROBE_REF_S`] / the mean of a speed probe before and one after.
    /// With the process on one CPU this is what a stopwatch would read on
    /// an otherwise idle core at the reference speed, less the time no
    /// thread of the process was runnable (sleeps, disk waits): it leaves
    /// out what the neighbours took, which stopwatch time cannot.
    pub cpu_s: f64,
    /// Stopwatch seconds, uncorrected.
    pub stopwatch_s: f64,
    /// Share of the stopwatch seconds some thread of the process was on the
    /// CPU. The rest went to the neighbours or to the process's own waits;
    /// `cpu_s` cannot see either, so a change that adds sleeping shows here.
    pub on_cpu_share: f64,
}

impl Timing {
    /// What a stopwatch time taken inside the measured interval (a served
    /// job's latency) is multiplied by to read in reference CPU seconds:
    /// the share of the interval the process was on the CPU, times the
    /// speed correction.
    pub fn scale(&self) -> f64 {
        self.cpu_s / self.stopwatch_s
    }
}

/// Run `f` between two speed probes, on both clocks.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Timing) {
    let before = speed_probe_s();
    let cpu = process_cpu_s();
    let t = Instant::now();
    let out = f();
    let stopwatch_s = t.elapsed().as_secs_f64();
    let cpu = process_cpu_s() - cpu;
    let probe_s = (before + speed_probe_s()) / 2.0;
    let on_cpu_share = cpu / stopwatch_s;
    (out, Timing { cpu_s: cpu * PROBE_REF_S / probe_s, stopwatch_s, on_cpu_share })
}

/// A fixed integer loop, in milliseconds (median of three). It runs no
/// repo code: when it moves between two runs, the machine moved, not the
/// code under test.
pub fn calib_ms() -> f64 {
    let one = || {
        let t = Instant::now();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..30_000_000u32 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        std::hint::black_box(x);
        t.elapsed().as_secs_f64() * 1e3
    };
    crate::stats::median(&[one(), one(), one()])
}

/// The run's scratch directory, `benchmark/out/work-<pid>` under the
/// checkout root (the working directory). Removed on drop.
///
/// The issue asked for `/dev/shm`; the benchmark contract allows writes
/// inside the checkout only, so compile output goes to the checkout's disk.
pub struct WorkDir {
    path: PathBuf,
}

impl WorkDir {
    pub fn create() -> Result<WorkDir, String> {
        let root = std::env::current_dir().map_err(|e| e.to_string())?.join("benchmark");
        if !root.join("Cargo.toml").is_file() {
            return Err(format!(
                "run from the checkout root: {} has no Cargo.toml",
                root.display()
            ));
        }
        let path = root.join("out").join(format!("work-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(WorkDir { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Where traces are written (`benchmark/out`); outlives the run.
    pub fn out_dir(&self) -> &Path {
        self.path.parent().expect("work dir has a parent")
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_survive_a_spacey_command_name() {
        let stat = "4242 (my (odd) name) S 1 2 3 4 5 6 111 8 9 10 250 75 13 14 15 16";
        let t = parse_stat(stat).unwrap();
        assert_eq!(t.minor_faults, 111.0);
        assert_eq!(t.user_s, 2.5);
        assert_eq!(t.sys_s, 0.75);
    }

    #[test]
    fn a_sleep_shows_as_time_off_the_cpu_and_not_as_cpu_seconds() {
        let (_, busy) = timed(calib_ms);
        assert!(busy.cpu_s > 0.0 && busy.on_cpu_share > 0.0 && busy.on_cpu_share < 1.5);
        let (_, idle) = timed(|| std::thread::sleep(std::time::Duration::from_millis(50)));
        assert!(idle.stopwatch_s >= 0.05);
        assert!(idle.cpu_s < 0.025 && idle.on_cpu_share < 0.5, "{idle:?}");
        assert!((idle.scale() - idle.cpu_s / idle.stopwatch_s).abs() < 1e-12);
    }

    #[test]
    fn pinning_leaves_one_cpu_to_the_thread_and_its_children() {
        // Affinity is per thread: this pins the test's thread only.
        pin_to_one_cpu().unwrap();
        assert_eq!(std::thread::available_parallelism().unwrap().get(), 1);
        let child = std::thread::spawn(|| std::thread::available_parallelism().unwrap().get());
        assert_eq!(child.join().unwrap(), 1);
    }

    #[test]
    fn proc_readers_work_on_this_kernel() {
        assert!(peak_rss_mib().unwrap() > 0.0);
        // A buffer touched and dropped raises the mark; a reset takes it
        // back near the resident set (where the kernel allows the reset).
        let big = std::hint::black_box(vec![1u8; 64 << 20]);
        let with_big = peak_rss_mib().unwrap();
        assert!(with_big >= 64.0);
        drop(big);
        reset_peak_rss();
        assert!(peak_rss_mib().unwrap() <= with_big);
        let a = ProcTimes::now().unwrap();
        let b = ProcTimes::now().unwrap();
        assert!(b.since(&a).user_s >= 0.0);
    }
}
