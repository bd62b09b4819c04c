//! The `faultline` command line: an exhibit name is checked before
//! anything is simulated or loaded.

use std::process::{Command, Output};

fn faultline(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_faultline"))
        .args(args)
        .output()
        .expect("run the faultline binary")
}

#[test]
fn an_unknown_exhibit_is_refused_before_simulating() {
    for args in [
        ["report", "--scale", "tiny", "--exhibit", "figure1"].as_slice(),
        [
            "analyze",
            "--archive",
            "no-such-archive.json",
            "--exhibit",
            "table9",
        ]
        .as_slice(),
    ] {
        let out = faultline(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}");
        assert!(!stderr.contains("simulating"), "{args:?}: {stderr}");
        assert!(stderr.starts_with("usage:"), "{args:?}: {stderr}");
    }
}

#[test]
fn a_known_exhibit_prints_that_exhibit() {
    let out = faultline(&["report", "--scale", "tiny", "--exhibit", "table4"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Table 4"), "{stdout}");
}
