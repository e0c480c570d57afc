//! The experiment binaries' shared options (`ExpOptions::from_args`).

/// An option the binaries do not take — `--serve` among them — exits 2,
/// naming it, before any simulation runs.
#[test]
fn unknown_option_exits_2_naming_it() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_fig13_ncalc"))
        .args(["--quick", "--serve", "127.0.0.1:1"])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("unknown option `--serve`"), "{stderr}");
    assert!(out.stdout.is_empty(), "nothing ran");
}
