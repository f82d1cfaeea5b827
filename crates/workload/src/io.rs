//! Plain-text persistence for namespaces and traces.
//!
//! The format is deliberately trivial — one record per line — so traces
//! can be inspected, filtered and diffed with standard tools, and so real
//! trace files (e.g. a converted SNIA dump) can be fed to every harness in
//! this repository:
//!
//! ```text
//! # namespace: kind <space> path
//! D /home/alice
//! F /home/alice/notes.txt
//!
//! # trace: op <space> path
//! R /home/alice/notes.txt
//! U /home/alice
//! ```

use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::io::{self, BufRead, Write};

use d2tree_namespace::{NamespaceTree, NodeId, NodeKind, NsPath, TreeError};

use crate::trace::{OpKind, Operation, Trace};

/// Errors from reading namespace/trace files.
#[derive(Debug)]
#[non_exhaustive]
pub enum TraceIoError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A line that does not follow `<tag> <path>`.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// The offending content.
        content: String,
    },
    /// A trace line referencing a path missing from the namespace.
    UnknownPath {
        /// 1-based line number.
        line: usize,
        /// The unresolvable path.
        path: String,
    },
    /// A namespace line that conflicts with earlier lines.
    Tree(TreeError),
}

impl fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceIoError::Io(e) => write!(f, "i/o failure: {e}"),
            TraceIoError::Malformed { line, content } => {
                write!(f, "malformed record at line {line}: {content:?}")
            }
            TraceIoError::UnknownPath { line, path } => {
                write!(f, "unknown path at line {line}: {path}")
            }
            TraceIoError::Tree(e) => write!(f, "inconsistent namespace record: {e}"),
        }
    }
}

impl Error for TraceIoError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TraceIoError::Io(e) => Some(e),
            TraceIoError::Tree(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for TraceIoError {
    fn from(e: io::Error) -> Self {
        TraceIoError::Io(e)
    }
}

impl From<TreeError> for TraceIoError {
    fn from(e: TreeError) -> Self {
        TraceIoError::Tree(e)
    }
}

/// Writes the namespace as `D|F <path>` lines in deterministic DFS order
/// (the root is implicit and omitted).
///
/// A `&mut` writer works too, as for any `W: Write` function.
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write_tree<W: Write>(mut out: W, tree: &NamespaceTree) -> io::Result<()> {
    for id in tree.descendants(tree.root()).skip(1) {
        let node = tree.node(id).expect("a descendant is in the arena");
        let tag = if node.kind().is_directory() { 'D' } else { 'F' };
        writeln!(out, "{tag} {}", tree.path_of(id))?;
    }
    Ok(())
}

/// Reads a namespace written by [`write_tree`]. Blank lines and lines
/// starting with `#` are ignored; intermediate directories are created on
/// demand, so the format also accepts bare file lists in any order.
///
/// The tree is built in one pass ([`NamespaceTree::build`]): a line
/// appends each missing directory on its path, top down, then its final
/// component, so every node takes the id that
/// [`create_path`](NamespaceTree::create_path) over the same lines would
/// give it. A line finds its parent in a map from each directory's path
/// to its id. The map holds directories only, so two lines that name
/// one file, and a file that a later path uses as a directory, both
/// append a second child of that name: [`TreeError::DuplicateName`],
/// reported once every line is in. A repeated `D` line is a no-op.
///
/// # Errors
///
/// [`TraceIoError::Malformed`] for bad records, [`TraceIoError::Tree`]
/// for kind conflicts and repeated files, [`TraceIoError::Io`] for I/O
/// failures.
pub fn read_tree<R: BufRead>(input: R) -> Result<NamespaceTree, TraceIoError> {
    NamespaceTree::build(0, |tree| {
        let mut dirs: HashMap<Box<str>, NodeId> = HashMap::from([("".into(), NodeId::ROOT)]);
        for (idx, line) in input.lines().enumerate() {
            let line = line?;
            let trimmed = line.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            let malformed = || TraceIoError::Malformed {
                line: idx + 1,
                content: trimmed.to_owned(),
            };
            let (kind, path) = parse_line(trimmed, idx + 1)?;
            let kind = match kind {
                'D' => NodeKind::Directory,
                'F' => NodeKind::File,
                _ => return Err(malformed()),
            };
            // A path that parses is in normal form, so each of its
            // prefixes up to a `/` is its directory's path as written.
            if path.parse::<NsPath>().map_err(|_| malformed())?.depth() == 0 {
                continue;
            }
            // The deepest directory on the path that exists: for a
            // pre-order listing, the line's parent.
            let mut known = if kind.is_directory() {
                path.len()
            } else {
                path.rfind('/').expect("a parsed path starts with '/'")
            };
            let mut parent = loop {
                match dirs.get(&path[..known]) {
                    Some(&id) => break id,
                    None => known = path[..known].rfind('/').expect("the root is known"),
                }
            };
            let mut end = known;
            for name in path[known..].split('/').skip(1) {
                end += 1 + name.len();
                let kind = if end == path.len() {
                    kind
                } else {
                    NodeKind::Directory
                };
                parent = tree.append(parent, name, kind)?;
                if kind.is_directory() {
                    dirs.insert(path[..end].into(), parent);
                }
            }
        }
        Ok(())
    })
}

/// Writes a trace as `R|W|U <path>` lines, one per operation, in replay
/// order.
///
/// # Errors
///
/// Propagates I/O failures.
///
/// # Panics
///
/// Panics if an operation targets an id past `tree`'s arena.
pub fn write_trace<W: Write>(mut out: W, trace: &Trace, tree: &NamespaceTree) -> io::Result<()> {
    for op in trace {
        let tag = match op.kind {
            OpKind::Read => 'R',
            OpKind::Write => 'W',
            OpKind::Update => 'U',
        };
        writeln!(out, "{tag} {}", tree.path_of(op.target))?;
    }
    Ok(())
}

/// Reads a trace written by [`write_trace`], resolving every path against
/// `tree`.
///
/// # Errors
///
/// [`TraceIoError::UnknownPath`] when a path does not resolve,
/// [`TraceIoError::Malformed`] for bad records.
pub fn read_trace<R: BufRead>(input: R, tree: &NamespaceTree) -> Result<Trace, TraceIoError> {
    let mut ops = Vec::new();
    for (idx, line) in input.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let (tag, path) = parse_line(trimmed, idx + 1)?;
        let kind = match tag {
            'R' => OpKind::Read,
            'W' => OpKind::Write,
            'U' => OpKind::Update,
            _ => {
                return Err(TraceIoError::Malformed {
                    line: idx + 1,
                    content: trimmed.to_owned(),
                })
            }
        };
        let parsed: NsPath = path.parse().map_err(|_| TraceIoError::Malformed {
            line: idx + 1,
            content: trimmed.to_owned(),
        })?;
        let target = tree
            .resolve(&parsed)
            .ok_or_else(|| TraceIoError::UnknownPath {
                line: idx + 1,
                path: path.to_owned(),
            })?;
        ops.push(Operation { target, kind });
    }
    Ok(Trace::from_ops(ops))
}

fn parse_line(line: &str, line_no: usize) -> Result<(char, &str), TraceIoError> {
    let mut chars = line.chars();
    let tag = chars.next().ok_or_else(|| TraceIoError::Malformed {
        line: line_no,
        content: line.to_owned(),
    })?;
    let rest = chars.as_str();
    let path = rest
        .strip_prefix(' ')
        .ok_or_else(|| TraceIoError::Malformed {
            line: line_no,
            content: line.to_owned(),
        })?;
    Ok((tag, path))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::TraceProfile;
    use crate::trace::WorkloadBuilder;
    use std::io::BufReader;

    #[test]
    fn tree_roundtrip() {
        let w = WorkloadBuilder::new(TraceProfile::lmbe().with_nodes(300).with_operations(10))
            .seed(1)
            .build();
        let mut buf = Vec::new();
        write_tree(&mut buf, &w.tree).unwrap();
        let back = read_tree(BufReader::new(buf.as_slice())).unwrap();
        assert_eq!(back.node_count(), w.tree.node_count());
        assert_eq!(back.directory_count(), w.tree.directory_count());
        assert_eq!(back.max_depth(), w.tree.max_depth());
        for (id, _) in w.tree.nodes() {
            if id == w.tree.root() {
                continue;
            }
            let p = w.tree.path_of(id);
            assert!(back.resolve(&p).is_some(), "missing {p}");
        }
    }

    #[test]
    fn trace_roundtrip_preserves_order_and_kinds() {
        let w = WorkloadBuilder::new(TraceProfile::ra().with_nodes(200).with_operations(500))
            .seed(2)
            .build();
        let mut tree_buf = Vec::new();
        write_tree(&mut tree_buf, &w.tree).unwrap();
        let mut trace_buf = Vec::new();
        write_trace(&mut trace_buf, &w.trace, &w.tree).unwrap();

        let tree = read_tree(BufReader::new(tree_buf.as_slice())).unwrap();
        let trace = read_trace(BufReader::new(trace_buf.as_slice()), &tree).unwrap();
        assert_eq!(trace.len(), w.trace.len());
        for (a, b) in trace.iter().zip(&w.trace) {
            assert_eq!(a.kind, b.kind);
            assert_eq!(tree.path_of(a.target), w.tree.path_of(b.target));
        }
    }

    #[test]
    fn comments_and_blanks_are_skipped() {
        let input = "# a comment\n\nF /a/b\nD /c\n";
        let tree = read_tree(BufReader::new(input.as_bytes())).unwrap();
        assert!(tree.resolve_str("/a/b").is_ok());
        assert!(tree.resolve_str("/c").is_ok());
        assert_eq!(tree.file_count(), 1);
    }

    #[test]
    fn malformed_lines_are_reported_with_position() {
        let input = "F /ok\nnonsense\n";
        let err = read_tree(BufReader::new(input.as_bytes())).unwrap_err();
        match err {
            TraceIoError::Malformed { line, .. } => assert_eq!(line, 2),
            other => panic!("wrong error: {other}"),
        }
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn a_repeated_file_line_is_a_duplicate_name() {
        let duplicate = |input: &str| match read_tree(input.as_bytes()) {
            Err(TraceIoError::Tree(TreeError::DuplicateName(name))) => name,
            other => panic!("{input:?}: {other:?}"),
        };
        assert_eq!(duplicate("F /a/b\nD /c\nF /a/b\n"), "b");
        // So is a file that a later path takes for a directory.
        assert_eq!(duplicate("F /a\nF /a/b\n"), "a");
        // A repeated directory is not.
        let tree = read_tree("D /a\nF /a/b\nD /a\n".as_bytes()).unwrap();
        assert_eq!(tree.node_count(), 3);
    }

    #[test]
    fn unknown_trace_paths_are_reported() {
        let tree = read_tree(BufReader::new("F /x\n".as_bytes())).unwrap();
        let err = read_trace(BufReader::new("R /does/not/exist\n".as_bytes()), &tree).unwrap_err();
        assert!(matches!(err, TraceIoError::UnknownPath { line: 1, .. }));
    }

    #[test]
    fn unknown_tags_rejected() {
        assert!(matches!(
            read_tree(BufReader::new("X /a\n".as_bytes())),
            Err(TraceIoError::Malformed { .. })
        ));
        let tree = read_tree(BufReader::new("F /a\n".as_bytes())).unwrap();
        assert!(matches!(
            read_trace(BufReader::new("Z /a\n".as_bytes()), &tree),
            Err(TraceIoError::Malformed { .. })
        ));
    }
}
