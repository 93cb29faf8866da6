//! The build target the trainer's f32 kernels are compiled for.
//!
//! `.cargo/config.toml` builds x86-64 Linux for `target-cpu=x86-64-v3`, so
//! that the kernels run 8 lanes wide (AVX2) rather than baseline SSE2's 4.
//! No result depends on it — CI reruns the trainer suite and the experiments
//! smoke at the baseline target against the same golden — so only this test
//! notices if the setting goes missing.

#[test]
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
fn x86_64_linux_builds_for_avx2_and_fma() {
    let features = [
        ("avx2", cfg!(target_feature = "avx2")),
        ("fma", cfg!(target_feature = "fma")),
    ];
    let missing: Vec<&str> = features
        .iter()
        .filter(|(_, enabled)| !enabled)
        .map(|(name, _)| *name)
        .collect();
    assert!(
        missing.is_empty(),
        "built without {missing:?}: .cargo/config.toml must set \
         `-C target-cpu=x86-64-v3` for x86_64-unknown-linux-gnu, and no \
         RUSTFLAGS may override it"
    );
}
