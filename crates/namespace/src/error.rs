//! Error type for namespace-tree operations.

use std::error::Error;
use std::fmt;

use crate::node::NodeId;

/// Errors produced by [`NamespaceTree`](crate::NamespaceTree) and
/// [`NsPath`](crate::NsPath) operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TreeError {
    /// The referenced node does not exist.
    NodeNotFound(NodeId),
    /// A child operation was attempted on a file.
    NotADirectory(NodeId),
    /// A sibling with the same name already exists.
    DuplicateName(String),
    /// The path string or component is malformed.
    InvalidPath(String),
    /// No node lives at this (well-formed) absolute path.
    PathNotFound(String),
}

impl fmt::Display for TreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TreeError::NodeNotFound(id) => write!(f, "node {id} not found"),
            TreeError::NotADirectory(id) => write!(f, "node {id} is not a directory"),
            TreeError::DuplicateName(name) => write!(f, "name {name:?} already exists"),
            TreeError::InvalidPath(p) => write!(f, "invalid path or component {p:?}"),
            TreeError::PathNotFound(p) => write!(f, "path {p:?} not found"),
        }
    }
}

impl Error for TreeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_lowercase_and_informative() {
        let msgs = [
            TreeError::NodeNotFound(NodeId::ROOT).to_string(),
            TreeError::NotADirectory(NodeId::ROOT).to_string(),
            TreeError::DuplicateName("x".into()).to_string(),
            TreeError::InvalidPath("a//b".into()).to_string(),
            TreeError::PathNotFound("/a/b".into()).to_string(),
        ];
        for m in msgs {
            assert!(!m.is_empty());
            assert!(m.chars().next().unwrap().is_lowercase());
        }
    }

    #[test]
    fn is_error_and_send_sync() {
        fn assert_traits<T: Error + Send + Sync + 'static>() {}
        assert_traits::<TreeError>();
    }
}
