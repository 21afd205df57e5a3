//! Stamps the benchmark with a digest of the program sources it was
//! built against, so every result names the code it measured even in a
//! checkout without version-control metadata.

use std::fs;
use std::path::{Path, PathBuf};

fn collect(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
            out.push(path);
        }
    }
}

fn main() {
    let root = Path::new("..");
    let crates = root.join("crates");
    let mut files = Vec::new();
    collect(&crates, &mut files);
    files.push(root.join("Cargo.toml"));
    files.sort();
    // FNV-1a over every path and its contents, in sorted order.
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for path in &files {
        let name = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .into_owned();
        let bytes = fs::read(path).unwrap_or_default();
        for b in name.as_bytes().iter().chain(&bytes) {
            hash ^= u64::from(*b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    println!("cargo:rustc-env=GDDR_SOURCE_DIGEST={hash:016x}");
    println!("cargo:rerun-if-changed=../crates");
    println!("cargo:rerun-if-changed=../Cargo.toml");
}
