//! The host-side barrier deadlock timeout is the caller's argument, so a
//! deadlocked guest is observable here in ~200 ms instead of the 30 s
//! production constant (`BARRIER_HOST_TIMEOUT`).

use std::sync::Arc;
use std::time::{Duration, Instant};

use gpusim::barrier::NamedBarrier;

#[test]
fn deadlocked_barrier_times_out_quickly() {
    let timeout = Duration::from_millis(200);

    // One warp arrives at a barrier expecting two warps (64 threads); the
    // second warp never comes — a guest deadlock.
    let b = Arc::new(NamedBarrier::new(3));
    let start = Instant::now();
    let mut cycles = 0u64;
    let err = b.sync(64, &mut cycles, timeout).expect_err("lone warp must time out");
    let waited = start.elapsed();

    assert_eq!(err.barrier, 3);
    assert_eq!(err.expected_threads, 64);
    assert_eq!(err.arrived_threads, 32);
    assert!(waited.as_millis() >= 180, "returned before the timeout: {waited:?}");
    assert!(
        waited.as_secs() < 5,
        "the caller's 200 ms timeout was not honoured: waited {waited:?}"
    );

    // The failed arrival was undone, so a matching second warp can still
    // complete the barrier afterwards.
    let b2 = b.clone();
    let t = std::thread::spawn(move || {
        let mut c = 0u64;
        b2.sync(64, &mut c, timeout).map(|_| c)
    });
    let mut c = 0u64;
    b.sync(64, &mut c, timeout).expect("retry after timeout must succeed");
    t.join().unwrap().expect("peer warp must be released");
}
