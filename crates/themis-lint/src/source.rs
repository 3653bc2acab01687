//! Source files, their lint classification, and loading.
//!
//! Rules apply differently by where a file lives (library crate vs tool
//! crate vs shim vs test code), so every file carries a [`FileClass`] derived
//! from its workspace-relative path. Fixture files under
//! `crates/themis-lint/fixtures/` declare a *virtual* path in a header
//! comment so one on-disk file can exercise path-dependent rules.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Where a file sits in the workspace, for rule applicability.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FileClass {
    /// `crates/<name>/src/**` for a library crate: the strictest class.
    Lib { crate_name: String },
    /// `themis-cli` / `themis-bench` sources, `benches/`, and `src/bin/`
    /// targets: binaries may panic and parse their own environment-adjacent
    /// input, but stay subject to determinism and env rules as noted per
    /// rule.
    Tool { crate_name: String },
    /// `shims/<name>/src/**`: offline stand-ins for external crates. Exempt
    /// from env isolation (the shims own the sanctioned knobs such as
    /// `PROPTEST_CASES`) but subject to `shim-api-drift`.
    Shim { shim_name: String },
    /// Integration tests, examples, and `#[cfg(test)]`-style directories
    /// (`tests/**`, `examples/**`, `crates/*/tests/**`, `shims/*/tests/**`).
    TestCode,
}

/// One file to lint: its workspace-relative path, class, and text.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Workspace-relative path (virtual for fixtures).
    pub path: String,
    pub class: FileClass,
    pub text: String,
}

impl SourceFile {
    pub fn new(path: impl Into<String>, text: impl Into<String>) -> Self {
        let path = path.into();
        let class = classify(&path);
        SourceFile {
            path,
            class,
            text: text.into(),
        }
    }
}

/// Crates whose binaries are allowed to panic and to surface their own CLI
/// concerns; everything else under `crates/` is held to library rules.
const TOOL_CRATES: [&str; 2] = ["themis-cli", "themis-bench"];

/// Classify a workspace-relative path.
pub fn classify(path: &str) -> FileClass {
    let parts: Vec<&str> = path.split('/').collect();
    match parts.as_slice() {
        ["crates", krate, rest @ ..] => {
            if rest.first() == Some(&"tests") {
                FileClass::TestCode
            } else if TOOL_CRATES.contains(krate)
                || rest.first() == Some(&"benches")
                || (rest.len() > 2 && rest[..2] == ["src", "bin"])
            {
                FileClass::Tool {
                    crate_name: (*krate).to_string(),
                }
            } else {
                FileClass::Lib {
                    crate_name: (*krate).to_string(),
                }
            }
        }
        ["shims", shim, rest @ ..] => {
            if rest.first() == Some(&"tests") {
                FileClass::TestCode
            } else {
                FileClass::Shim {
                    shim_name: (*shim).to_string(),
                }
            }
        }
        _ => FileClass::TestCode,
    }
}

/// Walk the workspace at `root` and load every `.rs` file the lint covers.
///
/// Scans `crates/`, `shims/`, `tests/`, and `examples/`, skipping build
/// output (`target/`) and the lint's own fixture corpus (fixtures are
/// deliberately-failing inputs, loaded only by [`load_fixture`]).
pub fn load_workspace(root: &Path) -> io::Result<Vec<SourceFile>> {
    let mut files = Vec::new();
    for top in ["crates", "shims", "tests", "examples"] {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(root, &dir, &mut files)?;
        }
    }
    files.sort_by(|a, b| a.path.cmp(&b.path));
    Ok(files)
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<SourceFile>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == "fixtures" || name.starts_with('.') {
                continue;
            }
            walk(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let text = fs::read_to_string(&path)?;
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            out.push(SourceFile::new(rel, text));
        }
    }
    Ok(())
}

/// Find the workspace root by ascending from `start` until a directory whose
/// `Cargo.toml` declares `[workspace]` is found.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d.to_path_buf());
            }
        }
        dir = d.parent();
    }
    None
}

/// Expected finding declared by a fail fixture: `rule @ path:line`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expectation {
    pub rule: String,
    pub path: String,
    pub line: u32,
}

/// A fixture expanded into virtual source files plus its expectations.
#[derive(Debug)]
pub struct Fixture {
    pub files: Vec<SourceFile>,
    pub expects: Vec<Expectation>,
}

/// Load a fixture file.
///
/// Header directives (anywhere in the file, conventionally at the top):
///
/// ```text
/// //! fixture-path: crates/themis-bn/src/demo.rs
/// //! expect: no-panic-in-libs @ crates/themis-bn/src/demo.rs:7
/// ```
///
/// A fixture may contain several virtual files, split by delimiter lines of
/// the form `// ==== file: <virtual-path> ====`; content before the first
/// delimiter belongs to the `fixture-path` file and keeps the on-disk line
/// numbers, while each later section restarts at line 1 on the line after
/// its delimiter.
pub fn load_fixture(path: &Path) -> io::Result<Fixture> {
    let text = fs::read_to_string(path)?;
    Ok(parse_fixture(&path.to_string_lossy(), &text))
}

/// Parse fixture text (see [`load_fixture`] for the format).
pub fn parse_fixture(on_disk_name: &str, text: &str) -> Fixture {
    let mut expects = Vec::new();
    let mut primary_path: Option<String> = None;
    for line in text.lines() {
        let t = line.trim();
        if let Some(rest) = t.strip_prefix("//! fixture-path:") {
            primary_path = Some(rest.trim().to_string());
        } else if let Some(rest) = t.strip_prefix("//! expect:") {
            if let Some(exp) = parse_expectation(rest) {
                expects.push(exp);
            }
        }
    }

    let mut files = Vec::new();
    let mut current_path = primary_path.unwrap_or_else(|| on_disk_name.to_string());
    let mut current = String::new();
    // The primary section keeps on-disk line numbers by retaining every
    // header line as-is (they are comments).
    for line in text.lines() {
        let t = line.trim();
        if let Some(rest) = t.strip_prefix("// ==== file:") {
            let virt = rest.trim_end_matches(['=', ' ']).trim().to_string();
            files.push(SourceFile::new(
                std::mem::take(&mut current_path),
                std::mem::take(&mut current),
            ));
            current_path = virt;
        } else {
            current.push_str(line);
            current.push('\n');
        }
    }
    files.push(SourceFile::new(current_path, current));
    Fixture { files, expects }
}

fn parse_expectation(spec: &str) -> Option<Expectation> {
    let (rule, loc) = spec.split_once('@')?;
    let (path, line) = loc.trim().rsplit_once(':')?;
    Some(Expectation {
        rule: rule.trim().to_string(),
        path: path.trim().to_string(),
        line: line.trim().parse().ok()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_by_path() {
        assert_eq!(
            classify("crates/themis-bn/src/sampling.rs"),
            FileClass::Lib {
                crate_name: "themis-bn".into()
            }
        );
        assert_eq!(
            classify("crates/themis-cli/src/main.rs"),
            FileClass::Tool {
                crate_name: "themis-cli".into()
            }
        );
        assert_eq!(
            classify("crates/themis-bench/benches/engine.rs"),
            FileClass::Tool {
                crate_name: "themis-bench".into()
            }
        );
        assert_eq!(
            classify("crates/themis-query/tests/properties.rs"),
            FileClass::TestCode
        );
        assert_eq!(
            classify("shims/rayon/src/lib.rs"),
            FileClass::Shim {
                shim_name: "rayon".into()
            }
        );
        assert_eq!(classify("tests/smoke.rs"), FileClass::TestCode);
        assert_eq!(classify("examples/quickstart.rs"), FileClass::TestCode);
    }

    #[test]
    fn fixture_with_header_and_aux_file() {
        let text = "//! fixture-path: crates/x/src/a.rs\n//! expect: no-raw-threads @ crates/x/src/a.rs:3\nfn f() {\n    std::thread::spawn(|| {});\n}\n// ==== file: shims/fake/src/lib.rs ====\npub fn helper() {}\n";
        let fx = parse_fixture("fixtures/fail/x.rs", text);
        assert_eq!(fx.files.len(), 2);
        assert_eq!(fx.files[0].path, "crates/x/src/a.rs");
        assert_eq!(fx.files[1].path, "shims/fake/src/lib.rs");
        assert_eq!(fx.files[1].text, "pub fn helper() {}\n");
        assert_eq!(
            fx.expects,
            vec![Expectation {
                rule: "no-raw-threads".into(),
                path: "crates/x/src/a.rs".into(),
                line: 3,
            }]
        );
    }
}
