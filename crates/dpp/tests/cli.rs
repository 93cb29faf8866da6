//! Flag validation of the `recd-dpp` binary: a rejected value exits 2 with a
//! named error.

use std::net::TcpListener;
use std::process::Command;

#[test]
fn tail_late_frac_outside_the_unit_interval_is_rejected() {
    for value in ["nan", "1.5", "-0.1", "inf"] {
        let out = Command::new(env!("CARGO_BIN_EXE_recd-dpp"))
            .args(["--preset", "tiny", "--quiet", "--tail-late-frac", value])
            .output()
            .expect("recd-dpp runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{value}: {stderr}");
        assert!(
            stderr.contains("--tail-late-frac must be a fraction in [0, 1]"),
            "{value}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{value}: nothing runs");
    }
}

#[test]
fn a_busy_metrics_port_is_rejected() {
    let busy = TcpListener::bind(("127.0.0.1", 0)).expect("bind a free port");
    let port = busy.local_addr().expect("bound address").port().to_string();
    let out = Command::new(env!("CARGO_BIN_EXE_recd-dpp"))
        .args(["--preset", "tiny", "--quiet", "--metrics-port", &port])
        .output()
        .expect("recd-dpp runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.starts_with(&format!("recd-dpp: --metrics-port {port}: ")),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
}
