//! Bakes build provenance into the binary: the compiler's `-V` line and
//! the `[profile.release]` table of this package's manifest.

use std::process::Command;

fn main() {
    println!("cargo:rerun-if-changed=Cargo.toml");
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = Command::new(&rustc)
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        );
    println!("cargo:rustc-env=WALLBENCH_RUSTC={version}");

    let manifest = std::fs::read_to_string("Cargo.toml").expect("read the package manifest");
    let profile: Vec<&str> = manifest
        .lines()
        .skip_while(|l| l.trim() != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with('['))
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    let opt_level = std::env::var("OPT_LEVEL").unwrap_or_default();
    let cargo_profile = std::env::var("PROFILE").unwrap_or_default();
    println!(
        "cargo:rustc-env=WALLBENCH_PROFILE={cargo_profile} (opt-level {opt_level}; {})",
        profile.join("; ")
    );
}
