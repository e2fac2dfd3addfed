//! Helpers shared by the integration-test binaries: bit-exact front
//! rendering, golden-snapshot record/replay, and per-run scratch
//! directories. Each test binary pulls this in with `mod common;`, so
//! any one binary may use only a subset of it.
#![allow(dead_code)]

use analog_dse::moea::individual::Individual;
use std::path::PathBuf;

/// Renders a front with exact bit patterns: one member per line, gene
/// bits then objective bits, all as 16-digit hex of `f64::to_bits`.
pub fn render_front(front: &[Individual]) -> String {
    let hex = |vs: &[f64]| {
        vs.iter()
            .map(|v| format!("{:016x}", v.to_bits()))
            .collect::<Vec<_>>()
            .join(" ")
    };
    let mut out = String::new();
    for m in front {
        out.push_str(&format!("{} | {}\n", hex(&m.genes), hex(m.objectives())));
    }
    out
}

/// The committed snapshot path for `name` under `tests/golden/`.
pub fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join(name)
}

/// Compares against the committed snapshot, or re-records it when the
/// `UPDATE_GOLDEN` environment variable is set.
pub fn check_golden(name: &str, rendered: &str) {
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, rendered).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {}: {e}; record it with UPDATE_GOLDEN=1",
            path.display()
        )
    });
    assert_eq!(
        rendered,
        expected,
        "output diverged from committed snapshot {}",
        path.display()
    );
}

/// A scratch directory unique to this test run, wiped on entry.
/// `prefix` namespaces the owning test binary (`server-it`, ...).
pub fn scratch_dir(prefix: &str, name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("{prefix}-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Deterministic pseudo-random unit-cube batch of 15-gene candidates (no
/// RNG dependency, so fixtures are stable across toolchains).
pub fn pseudo_batch(n: usize, salt: u64) -> Vec<Vec<f64>> {
    (0..n)
        .map(|i| {
            (0..15)
                .map(|j| {
                    let x = (i as f64 + 1.0) * 12.9898 + j as f64 * 78.233 + salt as f64 * 0.517;
                    (x.sin() * 43758.5453).fract().abs()
                })
                .collect()
        })
        .collect()
}
