//! Determinism lint: a static source pass over the workspace.
//!
//! The analysis pipeline promises bit-identical results for a given seed and
//! config, independent of thread count (pinned by `castan-core`'s engine
//! tests). The classic ways Rust code silently breaks that promise are:
//!
//! * iterating a `HashMap`/`HashSet` (SipHash + `RandomState` gives a fresh
//!   iteration order per process) anywhere the order can reach a result;
//! * explicit `RandomState` use;
//! * reading wall clocks (`Instant`, `SystemTime`) in result-bearing code;
//! * spawning threads outside the two sanctioned pools. The engine's
//!   merge-barrier rounds (`castan-core`, exempt by path) are deterministic
//!   because every round merges its workers' results in a fixed order
//!   before the next begins. The fleet's execution phase (`castan-cluster`,
//!   allowlisted) is deterministic because its jobs share nothing — each
//!   owns one node and its sub-trace — and results are placed by node id.
//!
//! This lint greps the workspace sources for those patterns. Every match
//! must either be removed or be justified by an entry in `LINT_ALLOW.txt`
//! at the repo root (`<path-suffix>: <rule> # <reason>`), which doubles as
//! an audit trail of reviewed sites — and stays one: an entry that matches
//! no site any more (the code it excused is gone) fails the lint too. Test
//! modules (everything from the
//! first `#[cfg(test)]` line on) are exempt: tests may use maps and clocks
//! freely. CI runs the binary; `cargo test -p castan-lint` runs the same
//! scan in-process so the gate also fires locally.
//!
//! `castan-lint --loc [root]` instead prints the workspace's code size, the
//! figure every change reports: the non-test lines (every line of
//! `crates/*/src/**/*.rs` and `src/**/*.rs` before the file's first
//! `#[cfg(test)]`) and the total lines (every line of every `.rs` file under
//! `crates/`, `src/` and `tests/`). It reports, it does not gate.

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// One lint rule: a name (used in allowlist entries) plus the source
/// patterns that trigger it.
struct Rule {
    name: &'static str,
    needles: &'static [&'static str],
    /// File-name suffixes where the pattern is part of the design and the
    /// rule does not apply at all (e.g. the engine owns its worker threads).
    exempt_suffixes: &'static [&'static str],
    why: &'static str,
}

const RULES: &[Rule] = &[
    Rule {
        name: "hash-iteration",
        needles: &["HashMap", "HashSet"],
        exempt_suffixes: &[],
        why: "hashed collections iterate in per-process random order",
    },
    Rule {
        name: "random-state",
        needles: &["RandomState"],
        exempt_suffixes: &[],
        why: "explicit RandomState injects per-process randomness",
    },
    Rule {
        name: "wall-clock",
        needles: &["Instant", "SystemTime"],
        exempt_suffixes: &[],
        why: "wall-clock reads must not influence reported results",
    },
    Rule {
        name: "thread-spawn",
        needles: &["thread::spawn", "thread::scope"],
        exempt_suffixes: &["core/src/engine.rs"],
        why: "threading outside the engine's merge barrier breaks replay",
    },
];

/// A single lint hit.
struct Finding {
    /// Repo-relative path with `/` separators.
    path: String,
    line: usize,
    rule: &'static str,
    text: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path,
            self.line,
            self.rule,
            self.text.trim()
        )
    }
}

/// An allowlist entry: `<path-suffix>: <rule>` (comment after `#`).
struct Allow {
    /// Line of `LINT_ALLOW.txt` the entry is on.
    line: usize,
    path_suffix: String,
    rule: String,
}

impl Allow {
    fn covers(&self, finding: &Finding) -> bool {
        self.rule == finding.rule && finding.path.ends_with(&self.path_suffix)
    }
}

impl fmt::Display for Allow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "LINT_ALLOW.txt:{}: `{}: {}` matches no site",
            self.line, self.path_suffix, self.rule
        )
    }
}

fn parse_allowlist(content: &str) -> Vec<Allow> {
    content
        .lines()
        .enumerate()
        .filter_map(|(idx, line)| {
            let line = line.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                return None;
            }
            let (path, rule) = line.split_once(':')?;
            Some(Allow {
                line: idx + 1,
                path_suffix: path.trim().to_string(),
                rule: rule.trim().to_string(),
            })
        })
        .collect()
}

/// What a scan found wrong: sites no entry allows, and entries that allow
/// no site.
struct Verdict {
    bad: Vec<Finding>,
    stale: Vec<Allow>,
}

impl Verdict {
    fn is_clean(&self) -> bool {
        self.bad.is_empty() && self.stale.is_empty()
    }
}

/// Holds the scan's `findings` against the allowlist.
fn judge(allows: Vec<Allow>, findings: Vec<Finding>) -> Verdict {
    let mut used = vec![false; allows.len()];
    let mut bad = Vec::new();
    for finding in findings {
        let mut allowed = false;
        for (allow, used) in allows.iter().zip(&mut used) {
            if allow.covers(&finding) {
                allowed = true;
                *used = true;
            }
        }
        if !allowed {
            bad.push(finding);
        }
    }
    let stale = allows
        .into_iter()
        .zip(used)
        .filter_map(|(allow, used)| (!used).then_some(allow))
        .collect();
    Verdict { bad, stale }
}

/// Directories never scanned: build output, vendored dependency shims (their
/// internals don't feed results), and this lint's own rule tables.
fn skip_dir(name: &str) -> bool {
    name == "target"
        || name == "compat"
        || name == "lint"
        || name == "tests"
        || name == "benches"
        || name.starts_with('.')
}

/// Every `.rs` file under `root`, recursively and in path order, except
/// below directories whose name `skip` accepts.
fn collect_rs_files(root: &Path, skip: &dyn Fn(&str) -> bool, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(root) else {
        return;
    };
    let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if !skip(name) {
                collect_rs_files(&path, skip, out);
            }
        } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
            out.push(path);
        }
    }
}

fn scan_source(path: &str, content: &str) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (idx, line) in content.lines().enumerate() {
        let trimmed = line.trim_start();
        // Test modules sit at the end of every file in this workspace; the
        // determinism contract does not constrain them.
        if trimmed.starts_with("#[cfg(test)]") {
            break;
        }
        if trimmed.starts_with("//") {
            continue;
        }
        for rule in RULES {
            if rule.exempt_suffixes.iter().any(|s| path.ends_with(s)) {
                continue;
            }
            if rule.needles.iter().any(|n| line.contains(n)) {
                findings.push(Finding {
                    path: path.to_string(),
                    line: idx + 1,
                    rule: rule.name,
                    text: line.to_string(),
                });
            }
        }
    }
    findings
}

/// Runs the full scan rooted at `root` and holds it against the allowlist.
fn run(root: &Path) -> Verdict {
    let allows = fs::read_to_string(root.join("LINT_ALLOW.txt"))
        .map(|c| parse_allowlist(&c))
        .unwrap_or_default();
    let mut files = Vec::new();
    collect_rs_files(root, &skip_dir, &mut files);
    let mut findings = Vec::new();
    for file in files {
        let Ok(content) = fs::read_to_string(&file) else {
            continue;
        };
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        findings.extend(scan_source(&rel, &content));
    }
    judge(allows, findings)
}

/// (non-test lines, total lines) of the workspace at `root`; see the module
/// doc for what each counts.
fn line_counts(root: &Path) -> (usize, usize) {
    let read = |file: &PathBuf| fs::read_to_string(file).unwrap_or_default();
    let all = |_: &str| false;
    let mut sources = Vec::new();
    for krate in fs::read_dir(root.join("crates"))
        .into_iter()
        .flatten()
        .flatten()
    {
        collect_rs_files(&krate.path().join("src"), &all, &mut sources);
    }
    collect_rs_files(&root.join("src"), &all, &mut sources);
    let non_test = sources
        .iter()
        .map(|f| {
            read(f)
                .lines()
                .take_while(|line| !line.contains("#[cfg(test)]"))
                .count()
        })
        .sum();
    let mut every = Vec::new();
    for dir in ["crates", "src", "tests"] {
        collect_rs_files(&root.join(dir), &all, &mut every);
    }
    let total = every.iter().map(|f| read(f).lines().count()).sum();
    (non_test, total)
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let loc = args.first().is_some_and(|a| a == "--loc");
    if loc {
        args.remove(0);
    }
    let root = args.first().map(PathBuf::from).unwrap_or_else(repo_root);
    if loc {
        let (non_test, total) = line_counts(&root);
        println!("non-test lines: {non_test}");
        println!("total lines: {total}");
        return ExitCode::SUCCESS;
    }
    let verdict = run(&root);
    if verdict.is_clean() {
        println!("castan-lint: clean");
        return ExitCode::SUCCESS;
    }
    let Verdict { bad, stale } = verdict;
    if !bad.is_empty() {
        eprintln!("castan-lint: {} determinism finding(s):", bad.len());
        for f in &bad {
            eprintln!("  {f}");
        }
        eprintln!("fix the site or add a reviewed entry to LINT_ALLOW.txt");
        for rule in RULES {
            if bad.iter().any(|f| f.rule == rule.name) {
                eprintln!("note: [{}] {}", rule.name, rule.why);
            }
        }
    }
    if !stale.is_empty() {
        eprintln!("castan-lint: {} stale allowlist entr(ies):", stale.len());
        for a in &stale {
            eprintln!("  {a}");
        }
        eprintln!("the site an entry excused is gone: drop the entry");
    }
    ExitCode::FAILURE
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workspace_is_clean() {
        let verdict = run(&repo_root());
        assert!(
            verdict.is_clean(),
            "determinism lint findings:\n{}",
            verdict
                .bad
                .iter()
                .map(|f| format!("  {f}"))
                .chain(verdict.stale.iter().map(|a| format!("  {a}")))
                .collect::<Vec<_>>()
                .join("\n")
        );
    }

    #[test]
    fn line_counts_stop_at_the_test_module_and_total_everything() {
        let root = std::env::temp_dir().join(format!("castan-lint-loc-{}", std::process::id()));
        let write = |rel: &str, text: &str| {
            let path = root.join(rel);
            fs::create_dir_all(path.parent().unwrap()).unwrap();
            fs::write(path, text).unwrap();
        };
        write(
            "crates/a/src/lib.rs",
            "fn a() {}\n\n#[cfg(test)]\nmod tests {}\n",
        );
        write("crates/a/src/deep/m.rs", "fn m() {}\n");
        write("crates/a/tests/t.rs", "fn t() {}\nfn u() {}\n");
        write("crates/a/src/notes.txt", "not rust\n");
        write("src/lib.rs", "pub use a;\n");
        write("tests/e2e.rs", "#[test]\nfn e2e() {}\n");
        write("examples/x.rs", "fn main() {}\n");
        let counts = line_counts(&root);
        fs::remove_dir_all(&root).ok();
        // Non-test: 2 + 1 + 1. Total: 4 + 1 + 2 + 1 + 2 (examples/ excluded).
        assert_eq!(counts, (4, 10));
    }

    #[test]
    fn scan_flags_each_rule() {
        let src = "use std::collections::HashMap;\n\
                   let s = std::collections::hash_map::RandomState::new();\n\
                   let t = std::time::Instant::now();\n\
                   std::thread::spawn(|| {});\n";
        let findings = scan_source("crates/demo/src/lib.rs", src);
        let rules: Vec<&str> = findings.iter().map(|f| f.rule).collect();
        assert!(rules.contains(&"hash-iteration"));
        assert!(rules.contains(&"random-state"));
        assert!(rules.contains(&"wall-clock"));
        assert!(rules.contains(&"thread-spawn"));
    }

    #[test]
    fn test_modules_and_comments_are_exempt() {
        let src =
            "// HashMap in a comment\n#[cfg(test)]\nmod tests { use std::collections::HashMap; }\n";
        assert!(scan_source("crates/demo/src/lib.rs", src).is_empty());
    }

    #[test]
    fn engine_may_spawn_threads() {
        let src = "std::thread::scope(|s| {});\n";
        assert!(scan_source("crates/core/src/engine.rs", src)
            .iter()
            .all(|f| f.rule != "thread-spawn"));
        assert!(!scan_source("crates/core/src/search.rs", src).is_empty());
    }

    #[test]
    fn allowlist_matches_by_suffix_and_rule() {
        let allows = parse_allowlist(
            "# comment\n\
             ir/src/cfg.rs: hash-iteration # keyed index, never iterated\n",
        );
        assert_eq!(allows.len(), 1);
        let f = Finding {
            path: "crates/ir/src/cfg.rs".into(),
            line: 1,
            rule: "hash-iteration",
            text: String::new(),
        };
        assert!(allows[0].covers(&f));
        let g = Finding {
            path: "crates/ir/src/cfg.rs".into(),
            line: 1,
            rule: "wall-clock",
            text: String::new(),
        };
        assert!(!allows[0].covers(&g));
    }

    #[test]
    fn an_entry_that_matches_no_site_is_reported() {
        let allows = parse_allowlist(
            "ir/src/cfg.rs: hash-iteration # still a map there\n\
             # a comment line does not shift the numbering\n\
             core/src/solve.rs: hash-iteration # the maps this excused are gone\n\
             ir/src/cfg.rs: wall-clock # right file, wrong rule\n",
        );
        let findings = scan_source(
            "crates/ir/src/cfg.rs",
            "use std::collections::HashMap;\nlet m: HashMap<u32, u32> = HashMap::new();\n",
        );
        assert_eq!(findings.len(), 2);
        let verdict = judge(allows, findings);
        assert!(verdict.bad.is_empty(), "both sites are allowed");
        let stale: Vec<String> = verdict.stale.iter().map(Allow::to_string).collect();
        assert_eq!(
            stale,
            [
                "LINT_ALLOW.txt:3: `core/src/solve.rs: hash-iteration` matches no site",
                "LINT_ALLOW.txt:4: `ir/src/cfg.rs: wall-clock` matches no site",
            ]
        );
        assert!(!verdict.is_clean());
    }
}
