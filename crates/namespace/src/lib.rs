//! Arena-backed filesystem namespace tree for metadata-management research.
//!
//! This crate provides the substrate every partitioning scheme in the D2-Tree
//! reproduction operates on: a POSIX-style namespace tree whose nodes are
//! files or directories, addressed by stable [`NodeId`]s, together with
//! per-node access popularity and the ancestor/descendant traversals that the
//! paper's locality metric (Def. 1) is built from.
//!
//! # Example
//!
//! ```
//! use d2tree_namespace::{NamespaceTree, NodeKind, NsPath};
//!
//! # fn main() -> Result<(), d2tree_namespace::TreeError> {
//! let mut tree = NamespaceTree::new();
//! let home = tree.create(tree.root(), "home", NodeKind::Directory)?;
//! let user = tree.create(home, "alice", NodeKind::Directory)?;
//! tree.create(user, "notes.txt", NodeKind::File)?;
//!
//! let path: NsPath = "/home/alice/notes.txt".parse()?;
//! let node = tree.resolve(&path).expect("path exists");
//! assert_eq!(tree.depth(node), 3);
//! assert_eq!(tree.path_of(node).to_string(), "/home/alice/notes.txt");
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod attrs;
mod builder;
mod children;
mod error;
mod intern;
mod iter;
mod node;
mod path;
mod popularity;
mod tree;

pub use attrs::{AttrTable, FileAttr, VersionedAttr};
pub use builder::TreeBuilder;
pub use error::TreeError;
pub use intern::{Sym, SymbolTable};
pub use iter::{Ancestors, ChainUp, Descendants};
pub use node::{Node, NodeId, NodeIdHasher, NodeIdMap, NodeKind};
pub use path::{Components, NsPath};
pub use popularity::Popularity;
pub use tree::NamespaceTree;
