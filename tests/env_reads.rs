//! Source guard: configuration is `RunnerConfig`, not the environment.
//! Under `crates/*/src` — the `fig4` binary in `crates/unibench/src/bin`
//! included — the one environment access is `crates/core/src/runner/config.rs`
//! reading `OMP_NUM_THREADS`, the OpenMP specification's initializer of
//! `nthreads-var`. Nothing there writes the environment either.
//! `scripts/check.sh` mirrors this with `grep`.

use std::path::{Path, PathBuf};

const CONFIG: &str = "crates/core/src/runner/config.rs";
const FIG4: &str = "crates/unibench/src/bin/fig4.rs";
const ALLOWED_READ: &str = "env::var(\"OMP_NUM_THREADS\")";
const ACCESS: [&str; 5] = ["env::var", "env::vars", "var_os", "set_var", "remove_var"];

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
    let rels: Vec<String> = files
        .iter()
        .map(|f| f.strip_prefix(root).unwrap().to_string_lossy().replace('\\', "/"))
        .collect();
    for must in [CONFIG, FIG4] {
        assert!(rels.iter().any(|r| r == must), "the walk missed {must}");
    }

    let mut allowed = 0;
    let mut hits = Vec::new();
    for (file, rel) in files.iter().zip(&rels) {
        let text = std::fs::read_to_string(file).unwrap();
        for (i, line) in text.lines().enumerate() {
            if !ACCESS.iter().any(|a| line.contains(a)) {
                continue;
            }
            if rel == CONFIG && line.contains(ALLOWED_READ) {
                allowed += 1;
            } else {
                hits.push(format!("{rel}:{}: {}", i + 1, line.trim()));
            }
        }
    }
    assert!(
        hits.is_empty(),
        "environment access other than {CONFIG}'s `OMP_NUM_THREADS` read \
         (take the value from `RunnerConfig` instead):\n{}",
        hits.join("\n")
    );
    assert_eq!(allowed, 1, "{CONFIG} reads `OMP_NUM_THREADS` exactly once");
}
