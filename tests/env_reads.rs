//! Source guard: `crates/core/src/runner/config.rs` is the only file under
//! `crates/*/src` that touches the process environment. Every layer below
//! the config snapshot takes explicit values, so a `setenv` after
//! construction cannot reconfigure anything (`config_precedence.rs` holds
//! the behavioural half of that promise). The binaries in
//! `crates/bench/src/bin` are exempt from the read ban, but nothing in
//! `crates/bench` may *write* the environment — it is not a global
//! variable. `scripts/check.sh` mirrors both checks with `grep`.

use std::path::{Path, PathBuf};

const ALLOWED: &str = "crates/core/src/runner/config.rs";
const BINS: &str = "crates/bench/src/bin";
const WRITE: &str = "set_var";
const READS: [&str; 3] = ["env::var", "env::vars", "var_os"];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn only_the_config_snapshot_touches_the_environment() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for krate in std::fs::read_dir(root.join("crates")).unwrap() {
        let src = krate.unwrap().path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    assert!(files.len() > 50, "the walk found only {} source files", files.len());

    let mut hits = Vec::new();
    for file in files {
        let rel = file.strip_prefix(root).unwrap().to_string_lossy().replace('\\', "/");
        if rel == ALLOWED {
            continue;
        }
        // Outside `crates/*/src`, and in the binaries, only writes are banned.
        let reads_allowed = rel.starts_with(BINS) || !rel.contains("/src/");
        let text = std::fs::read_to_string(&file).unwrap();
        for (i, line) in text.lines().enumerate() {
            let read = !reads_allowed && READS.iter().any(|r| line.contains(r));
            if read || line.contains(WRITE) {
                hits.push(format!("{rel}:{}: {}", i + 1, line.trim()));
            }
        }
    }
    assert!(
        hits.is_empty(),
        "environment access outside {ALLOWED} (take the value from `ResolvedConfig` instead):\n{}",
        hits.join("\n")
    );
}
