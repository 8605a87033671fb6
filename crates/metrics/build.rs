//! Embed the git revision so run artifacts can carry provenance. The
//! build must keep working from a source tarball, so failure to run git
//! degrades to "unknown" rather than breaking the build.

use std::path::Path;
use std::process::Command;

/// The checkout's HEAD, relative to this crate's manifest directory.
const GIT_HEAD: &str = "../../.git/HEAD";

fn main() {
    let rev = Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string());
    println!("cargo:rustc-env=PHANTOM_GIT_REV={rev}");
    // Watching a path that does not exist makes cargo rerun this script
    // (and rebuild every dependent crate) on each invocation, so a tree
    // without `.git` watches only the script itself.
    if Path::new(GIT_HEAD).exists() {
        println!("cargo:rerun-if-changed={GIT_HEAD}");
    } else {
        println!("cargo:rerun-if-changed=build.rs");
    }
}
