//! Guest-source "hot lines" report.
//!
//! The VM attributes its instruction/dispatch counters to guest source
//! lines through the compiler's pc→line tables; this module renders the
//! result as a per-function table: instructions per line, share of the
//! function's total, cumulative share, and the per-category breakdown
//! (`mem`/`idx`/`alu`/`ctrl`/`call`/`misc`). The counts are deterministic
//! — the same program and inputs always produce the same table — so tests
//! can assert on attribution shares exactly.

/// Dispatch-category labels, matching `minic`'s `OP_CATS` order (this
/// crate cannot depend on `minic`; the runner's tests cross-check them).
pub const CAT_LABELS: [&str; 6] = ["mem", "idx", "alu", "ctrl", "call", "misc"];

/// VM dispatch attributed to one guest source line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HotLine {
    /// Function name (one table section per function).
    pub func: String,
    /// 1-based source line (0 = no line info).
    pub line: u32,
    /// Instructions dispatched on this line.
    pub instructions: u64,
    /// Per-category counts, indexed like [`CAT_LABELS`].
    pub dispatch: [u64; 6],
}

/// Render the hotspot table. Functions are ordered by total instructions
/// (descending), lines within a function likewise; ties break on name and
/// line number so the output is fully deterministic.
pub fn render_hotspots(title: &str, rows: &[HotLine]) -> String {
    let mut out = String::new();
    let grand: u64 = rows.iter().map(|r| r.instructions).sum();
    out.push_str(&format!("hotspots: {title} ({grand} instructions)\n"));
    if rows.is_empty() {
        out.push_str(
            "  (no attribution recorded — was `--hotspots` or `Machine::set_hotspots` on?)\n",
        );
        return out;
    }

    // Group rows per function, keeping per-function totals for ordering.
    let mut funcs: Vec<(String, u64, Vec<&HotLine>)> = Vec::new();
    for r in rows {
        match funcs.iter_mut().find(|(name, _, _)| *name == r.func) {
            Some((_, total, lines)) => {
                *total += r.instructions;
                lines.push(r);
            }
            None => funcs.push((r.func.clone(), r.instructions, vec![r])),
        }
    }
    funcs.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));

    for (name, total, mut lines) in funcs {
        lines.sort_by(|a, b| b.instructions.cmp(&a.instructions).then(a.line.cmp(&b.line)));
        out.push_str(&format!("\n  {name} — {total} instructions\n"));
        out.push_str(&format!(
            "  {:>5} {:>12} {:>6} {:>6}  {}\n",
            "line",
            "instrs",
            "share",
            "cum",
            CAT_LABELS.map(|c| format!("{c:>8}")).join(" ")
        ));
        let mut cum = 0u64;
        for l in lines {
            cum += l.instructions;
            let share = 100.0 * l.instructions as f64 / total.max(1) as f64;
            let cumsh = 100.0 * cum as f64 / total.max(1) as f64;
            let line = if l.line == 0 { "?".to_string() } else { l.line.to_string() };
            out.push_str(&format!(
                "  {:>5} {:>12} {:>5.1}% {:>5.1}%  {}\n",
                line,
                l.instructions,
                share,
                cumsh,
                l.dispatch.map(|d| format!("{d:>8}")).join(" ")
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hl(func: &str, line: u32, instrs: u64) -> HotLine {
        let mut dispatch = [0u64; 6];
        dispatch[2] = instrs; // all alu, for simplicity
        HotLine { func: func.to_string(), line, instructions: instrs, dispatch }
    }

    #[test]
    fn renders_functions_and_lines_by_weight() {
        let rows =
            vec![hl("helper", 3, 10), hl("run", 12, 900), hl("run", 8, 50), hl("run", 13, 50)];
        let s = render_hotspots("gemm", &rows);
        assert!(s.starts_with("hotspots: gemm (1010 instructions)"));
        // `run` (1000) comes before `helper` (10).
        let run_at = s.find("run —").unwrap();
        let helper_at = s.find("helper —").unwrap();
        assert!(run_at < helper_at);
        // Within `run`, line 12 leads; the tie between 8 and 13 breaks on
        // line number.
        let l12 = s.find("\n     12").unwrap();
        let l8 = s.find("\n      8").unwrap();
        let l13 = s.find("\n     13").unwrap();
        assert!(l12 < l8 && l8 < l13);
        assert!(s.contains("90.0%"));
    }

    #[test]
    fn empty_profile_renders_hint() {
        let s = render_hotspots("gemm", &[]);
        assert!(s.contains("no attribution recorded"));
    }
}
