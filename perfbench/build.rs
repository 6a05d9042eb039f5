//! Bakes the host fingerprint that is not observable at run time into the
//! binary: the compiler version and, when the benchmark is built from a
//! git checkout, the commit it was built from.

use std::path::Path;
use std::process::Command;

fn main() {
    println!("cargo:rerun-if-changed=build.rs");
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    println!("cargo:rustc-env=PERFBENCH_COMMIT={}", git_commit());
}

/// The commit `../.git/HEAD` names, read from the files directly so the
/// build never looks above the repository root. `none` outside git.
fn git_commit() -> String {
    let git = Path::new("../.git");
    let head_path = git.join("HEAD");
    let Ok(head) = std::fs::read_to_string(&head_path) else {
        return "none".to_string();
    };
    println!("cargo:rerun-if-changed={}", head_path.display());
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    let ref_path = git.join(reference);
    if let Ok(commit) = std::fs::read_to_string(&ref_path) {
        println!("cargo:rerun-if-changed={}", ref_path.display());
        return commit.trim().to_string();
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).unwrap_or_default();
    packed
        .lines()
        .find_map(|line| {
            line.strip_suffix(reference)?
                .strip_suffix(' ')
                .map(str::to_string)
        })
        .unwrap_or_else(|| "none".to_string())
}
