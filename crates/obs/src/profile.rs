//! The plain-text per-device profile table (`Runner::profile_table`,
//! `fig4 --profile`): simulated time attributed to the offload phases the
//! paper's evaluation breaks down, one row per device.

/// One device's time breakdown. The seven time columns are exactly the
/// `DevClock` accumulators, so a row's [`ProfileRow::total_s`] equals the
/// device clock's `total_s()`: the phase columns keep full attribution
/// (what each engine was busy doing) while `overlap_s` — time where async
/// streams ran a copy under a kernel — is subtracted once from the total.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ProfileRow {
    pub label: String,
    pub init_s: f64,
    pub modload_s: f64,
    pub h2d_s: f64,
    pub kernel_s: f64,
    pub d2h_s: f64,
    pub retry_backoff_s: f64,
    pub fallback_s: f64,
    pub overlap_s: f64,
    pub launches: u64,
    pub retries: u64,
    pub fallbacks: u64,
    /// Offload region latency percentiles in simulated microseconds, from
    /// the `region_latency_us` histogram ([`crate::Hist::percentile`]).
    /// Zero when the device ran no regions (e.g. the host-fallback row).
    pub lat_p50_us: u64,
    pub lat_p95_us: u64,
    pub lat_p99_us: u64,
}

impl ProfileRow {
    /// Sum of every time column, minus the transfer/compute overlap — the
    /// device's aggregate simulated (wall) time.
    pub fn total_s(&self) -> f64 {
        self.init_s
            + self.modload_s
            + self.h2d_s
            + self.kernel_s
            + self.d2h_s
            + self.retry_backoff_s
            + self.fallback_s
            - self.overlap_s
    }
}

/// Render the profile table. Times are in milliseconds of simulated time.
pub fn render_profile(rows: &[ProfileRow]) -> String {
    let cols = [
        "device",
        "init",
        "modload",
        "h2d",
        "kernel",
        "d2h",
        "retry",
        "fallback",
        "overlap",
        "total",
        "launches",
        "retries",
        "fallbacks",
        "p50us",
        "p95us",
        "p99us",
    ];
    let mut table: Vec<Vec<String>> = vec![cols.iter().map(|s| s.to_string()).collect()];
    for r in rows {
        table.push(vec![
            r.label.clone(),
            ms(r.init_s),
            ms(r.modload_s),
            ms(r.h2d_s),
            ms(r.kernel_s),
            ms(r.d2h_s),
            ms(r.retry_backoff_s),
            ms(r.fallback_s),
            ms(r.overlap_s),
            ms(r.total_s()),
            r.launches.to_string(),
            r.retries.to_string(),
            r.fallbacks.to_string(),
            r.lat_p50_us.to_string(),
            r.lat_p95_us.to_string(),
            r.lat_p99_us.to_string(),
        ]);
    }
    let widths: Vec<usize> =
        (0..cols.len()).map(|c| table.iter().map(|row| row[c].len()).max().unwrap_or(0)).collect();
    let mut out = String::from("per-device profile (simulated ms)\n");
    for (i, row) in table.iter().enumerate() {
        let line: Vec<String> = row
            .iter()
            .zip(&widths)
            .enumerate()
            .map(
                |(c, (cell, w))| {
                    if c == 0 {
                        format!("{cell:<w$}")
                    } else {
                        format!("{cell:>w$}")
                    }
                },
            )
            .collect();
        out.push_str(&line.join("  "));
        out.push('\n');
        if i == 0 {
            let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
            out.push_str(&"-".repeat(total));
            out.push('\n');
        }
    }
    out
}

fn ms(s: f64) -> String {
    format!("{:.3}", s * 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_sums_all_time_columns() {
        let r = ProfileRow {
            label: "dev0".into(),
            init_s: 1.0,
            modload_s: 2.0,
            h2d_s: 3.0,
            kernel_s: 4.0,
            d2h_s: 5.0,
            retry_backoff_s: 6.0,
            fallback_s: 7.0,
            ..ProfileRow::default()
        };
        assert!((r.total_s() - 28.0).abs() < 1e-12);
        let overlapped = ProfileRow { overlap_s: 2.5, ..r };
        assert!((overlapped.total_s() - 25.5).abs() < 1e-12);
    }

    #[test]
    fn render_includes_every_phase_column_and_row_label() {
        let rows = vec![
            ProfileRow {
                label: "dev0".into(),
                kernel_s: 0.001,
                launches: 3,
                lat_p50_us: 511,
                lat_p95_us: 2047,
                lat_p99_us: 2047,
                ..Default::default()
            },
            ProfileRow {
                label: "host".into(),
                fallback_s: 0.002,
                fallbacks: 1,
                ..Default::default()
            },
        ];
        let text = render_profile(&rows);
        for col in [
            "init", "modload", "h2d", "kernel", "d2h", "retry", "fallback", "overlap", "total",
            "p50us", "p95us", "p99us",
        ] {
            assert!(text.contains(col), "missing column {col}:\n{text}");
        }
        assert!(text.contains("dev0"));
        assert!(text.contains("host"));
        assert!(text.contains("1.000"), "kernel ms:\n{text}");
        assert!(text.contains("2.000"), "fallback ms:\n{text}");
        assert!(text.contains("511"), "p50 column:\n{text}");
        assert!(text.contains("2047"), "p95/p99 columns:\n{text}");
    }
}
