//! Memory-governor tests: fragmentation-induced OOM at the allocator
//! level, LRU eviction reclaiming contiguous arena space, a copy-back that
//! fails leaving the host untouched, transfer reuse from the cache and
//! when it must not fire, and the typed `InvalidFree` error under fault
//! injection.

use std::sync::Arc;

use cudadev::{CudaDev, CudaDevConfig, CudadevError, MapKind};
use gpusim::fault::FaultPlan;
use gpusim::ExecMode;
use vmcommon::alloc::AllocError;
use vmcommon::{addr, BlockAllocator, MemArena};

fn dev_with(obs: Arc<obs::Obs>, tag: &str, f: impl FnOnce(&mut CudaDevConfig)) -> CudaDev {
    let base = std::env::temp_dir().join(format!("cudadev-gov-{}-{tag}", std::process::id()));
    let mut cfg = CudaDevConfig {
        global_mem: 16 << 20,
        kernel_dir: base.join("k"),
        jit_cache_dir: base.join("j"),
        exec_mode: ExecMode::Functional,
        obs,
        ..Default::default()
    };
    f(&mut cfg);
    CudaDev::new(cfg)
}

fn counter(obs: &obs::Obs, name: &str) -> u64 {
    obs.metrics.counter(0, name)
}

/// Interleaved alloc/free leaves the arena with plenty of total free space
/// but no contiguous run large enough: the allocator must report OOM for
/// the request, and freeing the separator block must coalesce the holes so
/// the same request then succeeds. This is the failure mode the governor's
/// evict rung exists to repair.
#[test]
fn fragmentation_causes_oom_despite_sufficient_total_free() {
    let mut a = BlockAllocator::new(0, 4096);
    let big1 = a.alloc(1024).unwrap();
    let sep1 = a.alloc(256).unwrap();
    let big2 = a.alloc(1024).unwrap();
    let _sep2 = a.alloc(256).unwrap();
    let _big3 = a.alloc(1024).unwrap();

    a.free(big1).unwrap();
    a.free(big2).unwrap();
    assert!(a.bytes_free() >= 2048, "total free space covers the request");
    assert!(a.largest_free() < 2048, "but no single hole does");
    assert_eq!(a.alloc(2048), Err(AllocError::OutOfMemory { requested: 2048 }));

    // Freeing the separator merges the two holes into one contiguous run.
    a.free(sep1).unwrap();
    assert!(a.largest_free() >= 2048, "coalescing must merge adjacent holes");
    a.alloc(2048).expect("the coalesced hole satisfies the request");
}

/// The peak-usage watermark never decreases, and tracks the maximum
/// bytes-in-use exactly across an interleaved alloc/free sequence.
#[test]
fn high_water_mark_is_monotone() {
    let mut a = BlockAllocator::new(0, 1 << 20);
    let mut peak = 0u64;
    let mut live = Vec::new();
    let sizes = [4096u64, 1024, 8192, 512, 2048, 16384];
    for (i, &sz) in sizes.iter().enumerate() {
        live.push(a.alloc(sz).unwrap());
        peak = peak.max(a.bytes_in_use());
        assert_eq!(a.high_water(), peak, "after alloc #{i}");
        if i % 2 == 1 {
            let prev = a.high_water();
            a.free(live.remove(0)).unwrap();
            assert_eq!(a.high_water(), prev, "free must never lower the watermark");
        }
    }
    assert_eq!(a.high_water(), peak);
}

/// The evict rung: a zero-refcount buffer parked in the LRU cache still
/// occupies the arena; when a new mapping cannot fit, the governor evicts
/// it and retries, so the map succeeds instead of going pending.
#[test]
fn evict_reclaims_contiguous_arena_space() {
    let obs = obs::Obs::enabled();
    let dev = dev_with(obs.clone(), "evict", |cfg| cfg.global_mem = 1 << 20);
    let host = MemArena::new(2 << 20);
    let a = addr::make(addr::Space::Host, 256);
    let b = addr::make(addr::Space::Host, 1 << 20);
    let len = 600 << 10; // two of these cannot coexist in a 1 MiB arena

    dev.map(&host, a, len, MapKind::To).unwrap();
    dev.unmap(&host, a, MapKind::To).unwrap();
    assert_eq!(dev.cached_bytes(), len, "unmapped buffer parks in the cache");

    let d = dev.map(&host, b, len, MapKind::To).unwrap();
    assert_ne!(d, 0, "the map must be resolved by eviction, not go pending");
    assert_eq!(counter(&obs, "pressure.evict"), 1, "exactly one eviction");
    assert_eq!(dev.cached_bytes(), 0, "the cached buffer was the victim");
    assert_eq!(counter(&obs, "maps_pending"), 0);
    dev.unmap(&host, b, MapKind::To).unwrap();
}

/// The host bytes `[off, off+len)`.
fn host_bytes(host: &MemArena, off: u64, len: u64) -> Vec<u8> {
    let mut out = vec![0u8; len as usize];
    host.read_bytes(off, &mut out).unwrap();
    out
}

/// A copy-back is checked before any byte lands. With a terminal fault
/// on it the unmap fails and the host range is byte-identical to its
/// state before the unmap — the runtime re-executes the region there.
/// With a transient fault it is retried once and every byte lands.
#[test]
fn failed_copy_back_leaves_the_host_range_untouched() {
    let (base, len) = (4096u64, 16u64 << 10);
    let ha = addr::make(addr::Space::Host, base);
    for (plan, terminal) in [("d2h@1x*", true), ("d2h@1", false)] {
        let obs = obs::Obs::enabled();
        let dev = dev_with(obs.clone(), &format!("copyback-{terminal}"), |cfg| {
            cfg.fault_plan = Some(Arc::new(FaultPlan::parse(plan).unwrap()));
        });
        let host = MemArena::new(1 << 16);
        for i in 0..len / 4 {
            host.store_u32(base + 4 * i, i as u32).unwrap();
        }
        let dp = dev.map(&host, ha, len, MapKind::ToFrom).unwrap();
        // Stand in for a kernel: every byte of the device copy changes.
        let results: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
        dev.device().memcpy_h2d(dp, &results).unwrap();
        let before = host_bytes(&host, base, len);

        let unmapped = dev.unmap(&host, ha, MapKind::From);
        if terminal {
            let err = unmapped.expect_err("the copy-back is lost");
            assert!(err.is_device_lost(), "{plan}: got {err}");
            assert_eq!(host_bytes(&host, base, len), before, "{plan}: no byte may land");
            assert_eq!(dev.clock.lock().d2h_bytes, 0, "{plan}: nothing was copied back");
        } else {
            unmapped.expect("a transient fault is retried");
            assert_eq!(counter(&obs, "retries.d2h"), 1, "{plan}");
            assert_eq!(host_bytes(&host, base, len), results, "{plan}: every byte lands");
            assert_eq!(dev.clock.lock().d2h_bytes, len, "{plan}");
        }
    }
}

/// Transfer reuse: re-mapping a host buffer whose cached device copy is
/// provably in sync (the unmap copied it back, and the host range still
/// equals the device range) skips the upload entirely.
#[test]
fn remap_of_synced_buffer_skips_the_upload() {
    let obs = obs::Obs::enabled();
    let dev = dev_with(obs.clone(), "reuse", |cfg| cfg.global_mem = 1 << 20);
    let host = MemArena::new(1 << 16);
    // An unaligned host offset and an odd length: the compare walks a
    // byte head, words and a byte tail.
    let (off, len) = (259u64, 251u64);
    let ha = addr::make(addr::Space::Host, off);
    for i in 0..len {
        host.store_u8(off + i, (i * 7 + 3) as u8).unwrap();
    }

    dev.map(&host, ha, len, MapKind::ToFrom).unwrap();
    dev.unmap(&host, ha, MapKind::From).unwrap(); // copy-back: device == host
    let h2d_before = dev.clock.lock().h2d_bytes;

    dev.map(&host, ha, len, MapKind::To).unwrap();
    assert_eq!(counter(&obs, "cache.reuse"), 1);
    assert_eq!(counter(&obs, "transfer_reuse"), 1, "contents match: no re-upload");
    assert_eq!(dev.clock.lock().h2d_bytes, h2d_before, "no h2d traffic on reuse");

    // Copy back again, so the entry is synced, then change the host's
    // *last* byte: the compare must see it and the next map re-upload.
    dev.unmap(&host, ha, MapKind::From).unwrap();
    let last = off + len - 1;
    host.store_u8(last, host.load_u8(last).unwrap() ^ 0x5a).unwrap();
    let dp = dev.map(&host, ha, len, MapKind::To).unwrap();
    assert_eq!(counter(&obs, "cache.reuse"), 2, "the buffer itself is still reused");
    assert_eq!(counter(&obs, "transfer_reuse"), 1, "stale contents must not reuse");
    assert_eq!(dev.clock.lock().h2d_bytes, h2d_before + len, "the changed buffer re-uploads");
    let mut on_device = vec![0u8; len as usize];
    dev.device().memcpy_d2h(&mut on_device, dp).unwrap();
    assert_eq!(on_device, host_bytes(&host, off, len));
    dev.unmap(&host, ha, MapKind::To).unwrap();
}

/// A `map(to:)`-only buffer is never copied back, so its cached device
/// copy proves nothing about the host: the re-map reuses the allocation
/// but uploads again, even though the bytes happen to be equal.
#[test]
fn remap_without_copy_back_uploads_again() {
    let obs = obs::Obs::enabled();
    let dev = dev_with(obs.clone(), "reuse-to", |cfg| cfg.global_mem = 1 << 20);
    let host = MemArena::new(1 << 16);
    let ha = addr::make(addr::Space::Host, 512);
    host.write_bytes(512, &[7u8; 256]).unwrap();

    dev.map(&host, ha, 256, MapKind::To).unwrap();
    dev.unmap(&host, ha, MapKind::To).unwrap();
    dev.map(&host, ha, 256, MapKind::To).unwrap();
    assert_eq!(counter(&obs, "cache.reuse"), 1, "the allocation is reused");
    assert_eq!(counter(&obs, "transfer_reuse"), 0, "no copy-back, no reuse");
    assert_eq!(dev.clock.lock().h2d_bytes, 512, "both maps upload");
    dev.unmap(&host, ha, MapKind::To).unwrap();
}

/// A recovery reset clears the transfer-reuse cache: a synced buffer
/// re-mapped after the reset is allocated and uploaded afresh, even if
/// the reset arena still holds equal bytes where it used to live.
#[test]
fn remap_after_recovery_reset_uploads_again() {
    let obs = obs::Obs::enabled();
    let dev = dev_with(obs.clone(), "reuse-reset", |cfg| {
        cfg.global_mem = 1 << 20;
        // The second upload hangs once: watchdog, reset, replay, probe.
        cfg.fault_plan = Some(Arc::new(FaultPlan::parse("hang@h2d@2").unwrap()));
    });
    let host = MemArena::new(1 << 16);
    let (a, b) = (addr::make(addr::Space::Host, 256), addr::make(addr::Space::Host, 4096));
    host.write_bytes(256, &[3u8; 512]).unwrap();
    host.write_bytes(4096, &[4u8; 512]).unwrap();

    dev.map(&host, a, 512, MapKind::ToFrom).unwrap();
    dev.unmap(&host, a, MapKind::From).unwrap(); // synced and cached
    dev.map(&host, b, 512, MapKind::To).unwrap(); // hangs, recovers
    assert_eq!(counter(&obs, "recovery.reset"), 1);
    assert_eq!(dev.cached_bytes(), 0, "the reset dropped the cache");

    let h2d_before = dev.clock.lock().h2d_bytes;
    dev.map(&host, a, 512, MapKind::To).unwrap();
    assert_eq!(counter(&obs, "cache.reuse"), 0);
    assert_eq!(counter(&obs, "transfer_reuse"), 0);
    assert_eq!(dev.clock.lock().h2d_bytes, h2d_before + 512, "the re-map uploads");
    assert!(!dev.is_broken());
}

/// Unmapping or updating an address with no live mapping is a typed
/// `NotMapped` error — a host bookkeeping bug, not a device failure — so
/// the device stays usable and the address survives into the diagnostic.
#[test]
fn unmap_and_update_of_unmapped_address_are_typed_errors() {
    let dev = dev_with(obs::Obs::disabled(), "notmapped", |_| {});
    let host = MemArena::new(1 << 16);
    let never_mapped = addr::make(addr::Space::Host, 256);

    let err = dev.unmap(&host, never_mapped, MapKind::From).expect_err("nothing is mapped");
    assert!(
        matches!(err, CudadevError::NotMapped { host_addr } if host_addr == never_mapped),
        "typed NotMapped with the offending address, got: {err}"
    );
    let err = dev.update(&host, never_mapped, 64, true).expect_err("still nothing mapped");
    assert!(matches!(err, CudadevError::NotMapped { .. }), "update path too, got: {err}");
    assert!(!dev.is_broken(), "a bookkeeping error must not latch the device");

    // Double-unmap: the first releases the mapping, the second is typed.
    dev.map(&host, never_mapped, 512, MapKind::To).unwrap();
    dev.unmap(&host, never_mapped, MapKind::Delete).unwrap();
    let err = dev.unmap(&host, never_mapped, MapKind::Delete).expect_err("already unmapped");
    assert!(matches!(err, CudadevError::NotMapped { .. }));
}

/// An injected `free@1` fault surfaces as the typed `InvalidFree` error —
/// a host bookkeeping bug, not a device failure — so the device stays
/// usable and the rejection is counted.
#[test]
fn injected_invalid_free_is_typed_and_non_fatal() {
    let obs = obs::Obs::enabled();
    let dev = dev_with(obs.clone(), "invfree", |cfg| {
        cfg.fault_plan = Some(Arc::new(FaultPlan::parse("free@1").unwrap()));
    });
    let host = MemArena::new(1 << 16);
    let ha = addr::make(addr::Space::Host, 256);

    dev.map(&host, ha, 512, MapKind::To).unwrap();
    dev.unmap(&host, ha, MapKind::To).unwrap();
    let err = dev.trim_cache().expect_err("the injected fault must surface");
    assert!(
        matches!(err, CudadevError::InvalidFree { dev_ptr } if dev_ptr != 0),
        "typed InvalidFree with the rejected pointer, got: {err}"
    );
    assert_eq!(counter(&obs, "invalid_frees"), 1);
    assert!(!dev.is_broken(), "an invalid free must not latch the device");

    // The device keeps working: a fresh map/unmap/trim cycle is clean.
    dev.map(&host, ha, 512, MapKind::To).unwrap();
    dev.unmap(&host, ha, MapKind::To).unwrap();
    dev.trim_cache().expect("only call #1 was poisoned");
}
