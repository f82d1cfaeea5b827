//! The prose docs (DESIGN.md, README.md, EXPERIMENTS.md, the shims'
//! README and the verify skill) name files, harness binaries, benches and
//! crate items; this keeps every such name pointing at something that
//! exists:
//!
//! * every backticked repository path (`crates/…`, `tests/…`,
//!   `examples/…`, `results/…`, `shims/…`, `.github/…`) exists;
//! * every `--bin <name>` is a file in `crates/bench/src/bin/`, and every
//!   `--bench <name>` one in `crates/bench/benches/`;
//! * every backticked `<crate>::<first segment>` resolves, for the
//!   workspace's library crates written with or without their `d2tree`
//!   prefix: the segment is a module file of the crate, or a name its
//!   `lib.rs` declares or re-exports.
//!
//! Paths and crate items are read from inline code spans; `--bin` and
//! `--bench` are read everywhere, shell blocks included.

use std::collections::BTreeSet;
use std::fs;
use std::path::PathBuf;

const DOCS: [&str; 5] = [
    "DESIGN.md",
    "README.md",
    "EXPERIMENTS.md",
    "shims/README.md",
    ".claude/skills/verify/SKILL.md",
];

const PATH_ROOTS: [&str; 6] = [
    "crates/",
    "tests/",
    "examples/",
    "results/",
    "shims/",
    ".github/",
];

/// Crate name as the docs write it (after any `d2tree_`/`d2tree-`
/// prefix is dropped) → its directory under `crates/`.
const CRATES: [(&str, &str); 8] = [
    ("namespace", "namespace"),
    ("workload", "workload"),
    ("metrics", "metrics"),
    ("core", "d2tree-core"),
    ("baselines", "baselines"),
    ("cluster", "cluster"),
    ("telemetry", "telemetry"),
    ("store", "store"),
];

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// The inline code spans of `doc`, fenced blocks left out.
fn code_spans(doc: &str) -> Vec<String> {
    let mut prose = String::new();
    let mut fenced = false;
    for line in doc.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
        } else if !fenced {
            prose.push_str(line);
            prose.push('\n');
        }
    }
    prose
        .split('`')
        .skip(1)
        .step_by(2)
        .map(str::to_owned)
        .collect()
}

/// The repository paths a code span names.
fn repo_paths(span: &str) -> Vec<String> {
    span.split_whitespace()
        .map(|token| token.trim_start_matches(['(', '"', '\'']))
        .filter(|token| PATH_ROOTS.iter().any(|r| token.starts_with(r)))
        .map(|token| {
            token
                .trim_end_matches([',', '.', ';', ')', '"', '\''])
                .to_owned()
        })
        .collect()
}

/// Every `<flag> <name>` in `doc`, for `flag` `--bin` or `--bench`;
/// placeholders such as `<exhibit>` are not names and are skipped.
fn target_names(doc: &str, flag: &str) -> Vec<String> {
    doc.match_indices(flag)
        .filter_map(|(at, _)| {
            // A space must follow: `--bench` is also a prefix of `--benches`.
            let rest = doc[at + flag.len()..].strip_prefix(char::is_whitespace)?;
            let rest = rest.trim_start();
            let name: String = rest.chars().take_while(|&c| is_ident(c)).collect();
            (!name.is_empty()).then_some(name)
        })
        .collect()
}

/// Every `(crate, first segment)` a code span names, the crate given by
/// its directory under `crates/`.
fn crate_refs(span: &str) -> Vec<(&'static str, String)> {
    let mut out = Vec::new();
    for (at, _) in span.match_indices("::") {
        let head = &span[..at];
        let word_start = head
            .rfind(|c: char| !(is_ident(c) || c == '-'))
            .map_or(0, |i| i + 1);
        // Only the first segment of a path names a crate.
        if head[..word_start].ends_with(':') {
            continue;
        }
        let word = &head[word_start..];
        let word = word
            .strip_prefix("d2tree_")
            .or_else(|| word.strip_prefix("d2tree-"))
            .unwrap_or(word);
        let Some(&(_, dir)) = CRATES.iter().find(|(name, _)| *name == word) else {
            continue;
        };
        let tail = &span[at + 2..];
        let segments: Vec<&str> = match tail.strip_prefix('{') {
            Some(group) => group.split('}').next().unwrap_or("").split(',').collect(),
            None => vec![tail],
        };
        for seg in segments {
            let seg: String = seg.trim().chars().take_while(|&c| is_ident(c)).collect();
            if !seg.is_empty() {
                out.push((dir, seg));
            }
        }
    }
    out
}

/// The names `lib.rs` of a crate declares (`mod`, `fn`, `struct`, …) or
/// re-exports (every identifier of a `pub use` item).
fn lib_names(lib: &str) -> BTreeSet<String> {
    const DECLS: [&str; 7] = [
        "mod ", "fn ", "struct ", "enum ", "trait ", "const ", "type ",
    ];
    let mut names = BTreeSet::new();
    let mut in_use = false;
    for line in lib.lines() {
        let line = line.trim();
        let item = line.strip_prefix("pub ").unwrap_or(line);
        if item.starts_with("use ") && line.starts_with("pub ") {
            in_use = true;
        }
        if in_use {
            let body = item.strip_prefix("use ").unwrap_or(item);
            names.extend(
                body.split(|c: char| !is_ident(c))
                    .filter(|w| !w.is_empty())
                    .map(str::to_owned),
            );
            in_use = !line.ends_with(';');
            continue;
        }
        for decl in DECLS {
            if let Some(rest) = item.strip_prefix(decl) {
                let name: String = rest.chars().take_while(|&c| is_ident(c)).collect();
                if !name.is_empty() {
                    names.insert(name);
                }
            }
        }
    }
    names
}

fn resolves(dir: &str, seg: &str) -> bool {
    let src = root().join("crates").join(dir).join("src");
    if src.join(format!("{seg}.rs")).is_file() || src.join(seg).join("mod.rs").is_file() {
        return true;
    }
    let lib = fs::read_to_string(src.join("lib.rs")).unwrap_or_default();
    lib_names(&lib).contains(seg)
}

#[test]
fn every_doc_reference_resolves() {
    let root = root();
    let targets = [
        ("--bin", "crates/bench/src/bin"),
        ("--bench", "crates/bench/benches"),
    ];
    let mut broken = Vec::new();
    for doc_name in DOCS {
        let doc = fs::read_to_string(root.join(doc_name)).expect("doc is readable");
        let fences = doc
            .lines()
            .filter(|l| l.trim_start().starts_with("```"))
            .count();
        if fences % 2 == 1 {
            broken.push(format!(
                "{doc_name}: {fences} code-fence lines; an unclosed fence hides the rest of the file from these checks"
            ));
        }
        for span in code_spans(&doc) {
            for path in repo_paths(&span) {
                if !root.join(&path).exists() {
                    broken.push(format!("{doc_name}: path `{path}` does not exist"));
                }
            }
            for (dir, seg) in crate_refs(&span) {
                if !resolves(dir, &seg) {
                    broken.push(format!(
                        "{doc_name}: `{span}` names `{seg}`, which crates/{dir} neither has as a module nor declares in lib.rs"
                    ));
                }
            }
        }
        for (flag, dir) in targets {
            for name in target_names(&doc, flag) {
                let file = format!("{dir}/{name}.rs");
                if !root.join(&file).is_file() {
                    broken.push(format!("{doc_name}: `{flag} {name}` has no {file}"));
                }
            }
        }
    }
    assert!(
        broken.is_empty(),
        "unresolved doc references:\n{}",
        broken.join("\n")
    );
}

#[test]
fn the_scanners_read_what_the_docs_write() {
    assert_eq!(
        repo_paths("see (crates/d2tree-core/src/scheme.rs),"),
        ["crates/d2tree-core/src/scheme.rs"]
    );
    assert!(repo_paths("benchmark/README.md <store_root>/mds-<k>").is_empty());
    assert_eq!(
        target_names("--bin fig5 --release; --bin <exhibit>", "--bin"),
        ["fig5"]
    );
    assert_eq!(
        target_names("--bench locate; --benches; --bench <name>", "--bench"),
        ["locate"]
    );
    assert_eq!(
        crate_refs("cluster::{lock, monitor}"),
        [
            ("cluster", "lock".to_owned()),
            ("cluster", "monitor".to_owned())
        ]
    );
    assert_eq!(
        crate_refs("d2tree_telemetry::trace::SpanSink"),
        [("telemetry", "trace".to_owned())]
    );
    assert_eq!(
        crate_refs("d2tree-core::split"),
        [("d2tree-core", "split".to_owned())]
    );
    // `MdsStore::sync` is a type's method, and `std::sync` not ours.
    assert!(crate_refs("MdsStore::sync std::sync::mpsc d2tree::core::X").is_empty());
    let names = lib_names("mod a;\npub use b::{\n    C, D,\n};\npub mod names {\npub fn e() {}");
    for name in ["a", "b", "C", "D", "names", "e"] {
        assert!(names.contains(name), "{name} missing from {names:?}");
    }
    assert!(resolves("workload", "drift"));
    assert!(resolves("cluster", "analyze"));
    assert!(!resolves("workload", "opmix"));
}
