//! Slash-separated namespace paths.

use std::fmt;
use std::str::FromStr;

use crate::error::TreeError;

/// An absolute, normalised namespace path (`/a/b/c`).
///
/// `NsPath` is a plain sequence of name components; unlike `std::path::Path`
/// it has no platform semantics, no `.`/`..` and no non-UTF-8 names, which is
/// all a metadata trace needs. The root path is the empty component list and
/// displays as `/`.
///
/// Components are packed into a single `/`-separated text buffer plus an
/// offset list, so cloning, [`join`](NsPath::join) and
/// [`parent`](NsPath::parent) cost two allocations regardless of depth —
/// the old one-`Box<str>`-per-component layout allocated per component on
/// every clone, which dominated deep-path query costs.
///
/// # Example
///
/// ```
/// use d2tree_namespace::NsPath;
///
/// let p: NsPath = "/var/log/syslog".parse()?;
/// assert_eq!(p.depth(), 3);
/// assert_eq!(p.components().last(), Some("syslog"));
/// assert_eq!(p.parent().unwrap().to_string(), "/var/log");
/// # Ok::<(), d2tree_namespace::TreeError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct NsPath {
    /// Components joined with `/`, no leading or trailing slash; empty for
    /// the root.
    text: String,
    /// Byte offset of each component's end in `text`; component `i` spans
    /// `(i == 0 ? 0 : ends[i-1] + 1) .. ends[i]`.
    ends: Vec<u32>,
}

impl NsPath {
    /// The root path `/`.
    #[must_use]
    pub fn root() -> Self {
        NsPath {
            text: String::new(),
            ends: Vec::new(),
        }
    }

    /// Builds a path from an iterator of components.
    ///
    /// # Errors
    ///
    /// Returns [`TreeError::InvalidPath`] if any component is empty or
    /// contains `/`.
    pub fn from_components<I, S>(components: I) -> Result<Self, TreeError>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut text = String::new();
        let mut ends = Vec::new();
        for c in components {
            let c = c.as_ref();
            if c.is_empty() || c.contains('/') {
                return Err(TreeError::InvalidPath(c.to_owned()));
            }
            if !text.is_empty() {
                text.push('/');
            }
            text.push_str(c);
            ends.push(u32::try_from(text.len()).expect("path shorter than 4 GiB"));
        }
        Ok(NsPath { text, ends })
    }

    fn component(&self, i: usize) -> &str {
        let start = if i == 0 {
            0
        } else {
            self.ends[i - 1] as usize + 1
        };
        &self.text[start..self.ends[i] as usize]
    }

    /// Number of components; the root has depth 0.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.ends.len()
    }

    /// Whether this is the root path.
    #[must_use]
    pub fn is_root(&self) -> bool {
        self.ends.is_empty()
    }

    /// Iterates over the components from the root downwards.
    ///
    /// The components are borrowed slices of the path's internal buffer —
    /// no allocation.
    pub fn components(&self) -> Components<'_> {
        Components {
            path: self,
            front: 0,
            back: self.ends.len(),
        }
    }

    /// The final component, or `None` for the root.
    #[must_use]
    pub fn file_name(&self) -> Option<&str> {
        if self.ends.is_empty() {
            None
        } else {
            Some(self.component(self.ends.len() - 1))
        }
    }

    /// The parent path, or `None` for the root.
    #[must_use]
    pub fn parent(&self) -> Option<NsPath> {
        let n = self.ends.len();
        if n == 0 {
            None
        } else if n == 1 {
            Some(NsPath::root())
        } else {
            Some(NsPath {
                text: self.text[..self.ends[n - 2] as usize].to_owned(),
                ends: self.ends[..n - 1].to_vec(),
            })
        }
    }

    /// Returns a new path with `name` appended.
    ///
    /// # Errors
    ///
    /// Returns [`TreeError::InvalidPath`] if `name` is empty or contains `/`.
    pub fn join(&self, name: &str) -> Result<NsPath, TreeError> {
        if name.is_empty() || name.contains('/') {
            return Err(TreeError::InvalidPath(name.to_owned()));
        }
        let sep = usize::from(!self.text.is_empty());
        let mut text = String::with_capacity(self.text.len() + sep + name.len());
        text.push_str(&self.text);
        if sep == 1 {
            text.push('/');
        }
        text.push_str(name);
        let mut ends = Vec::with_capacity(self.ends.len() + 1);
        ends.extend_from_slice(&self.ends);
        ends.push(u32::try_from(text.len()).expect("path shorter than 4 GiB"));
        Ok(NsPath { text, ends })
    }

    /// Whether `self` is `other` or one of its ancestors.
    ///
    /// ```
    /// use d2tree_namespace::NsPath;
    /// let a: NsPath = "/usr".parse()?;
    /// let b: NsPath = "/usr/lib".parse()?;
    /// assert!(a.is_prefix_of(&b));
    /// assert!(!b.is_prefix_of(&a));
    /// # Ok::<(), d2tree_namespace::TreeError>(())
    /// ```
    #[must_use]
    pub fn is_prefix_of(&self, other: &NsPath) -> bool {
        self.depth() <= other.depth()
            && self
                .components()
                .zip(other.components())
                .all(|(a, b)| a == b)
    }
}

// Ordering compares component sequences (the old derived order on
// `Vec<Box<str>>`), which differs from byte order on the packed text:
// "/a.b" sorts after "/a/b" component-wise because "a" < "a.b", while
// '.' < '/' in bytes. Ranked CLI output relies on the component order.
impl Ord for NsPath {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.components().cmp(other.components())
    }
}

impl PartialOrd for NsPath {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Borrowing component iterator of an [`NsPath`]; see
/// [`NsPath::components`].
#[derive(Debug, Clone)]
pub struct Components<'a> {
    path: &'a NsPath,
    front: usize,
    back: usize,
}

impl<'a> Iterator for Components<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        if self.front >= self.back {
            return None;
        }
        let c = self.path.component(self.front);
        self.front += 1;
        Some(c)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.back - self.front;
        (n, Some(n))
    }
}

impl DoubleEndedIterator for Components<'_> {
    fn next_back(&mut self) -> Option<Self::Item> {
        if self.front >= self.back {
            return None;
        }
        self.back -= 1;
        Some(self.path.component(self.back))
    }
}

impl ExactSizeIterator for Components<'_> {}

impl FromStr for NsPath {
    type Err = TreeError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let trimmed = s
            .strip_prefix('/')
            .ok_or_else(|| TreeError::InvalidPath(s.to_owned()))?;
        if trimmed.is_empty() {
            return Ok(NsPath::root());
        }
        NsPath::from_components(trimmed.split('/'))
    }
}

impl fmt::Display for NsPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.ends.is_empty() {
            return f.write_str("/");
        }
        for c in self.components() {
            write!(f, "/{c}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_and_displays_roundtrip() {
        for s in ["/", "/a", "/a/b/c", "/home/alice/.config"] {
            let p: NsPath = s.parse().unwrap();
            assert_eq!(p.to_string(), s);
        }
    }

    #[test]
    fn rejects_relative_and_malformed() {
        assert!("a/b".parse::<NsPath>().is_err());
        assert!("".parse::<NsPath>().is_err());
        assert!("/a//b".parse::<NsPath>().is_err());
    }

    #[test]
    fn join_and_parent_are_inverses() {
        let p: NsPath = "/x/y".parse().unwrap();
        let q = p.join("z").unwrap();
        assert_eq!(q.to_string(), "/x/y/z");
        assert_eq!(q.parent().unwrap(), p);
    }

    #[test]
    fn join_rejects_bad_component() {
        let p = NsPath::root();
        assert!(p.join("").is_err());
        assert!(p.join("a/b").is_err());
    }

    #[test]
    fn root_properties() {
        let r = NsPath::root();
        assert!(r.is_root());
        assert_eq!(r.depth(), 0);
        assert_eq!(r.parent(), None);
        assert_eq!(r.file_name(), None);
        assert_eq!(r.to_string(), "/");
    }

    #[test]
    fn prefix_relation() {
        let root = NsPath::root();
        let a: NsPath = "/a".parse().unwrap();
        let ab: NsPath = "/a/b".parse().unwrap();
        let ac: NsPath = "/a/c".parse().unwrap();
        assert!(root.is_prefix_of(&ab));
        assert!(a.is_prefix_of(&ab));
        assert!(a.is_prefix_of(&a));
        assert!(!ab.is_prefix_of(&ac));
    }

    #[test]
    fn components_iterate_both_ends_with_exact_size() {
        let p: NsPath = "/a/bb/ccc".parse().unwrap();
        let fwd: Vec<&str> = p.components().collect();
        assert_eq!(fwd, vec!["a", "bb", "ccc"]);
        let rev: Vec<&str> = p.components().rev().collect();
        assert_eq!(rev, vec!["ccc", "bb", "a"]);
        let mut it = p.components();
        assert_eq!(it.len(), 3);
        assert_eq!(it.next(), Some("a"));
        assert_eq!(it.next_back(), Some("ccc"));
        assert_eq!(it.len(), 1);
        assert_eq!(it.next(), Some("bb"));
        assert_eq!(it.next(), None);
        assert_eq!(it.next_back(), None);
    }

    #[test]
    fn ordering_is_component_wise() {
        let dot: NsPath = "/a.b".parse().unwrap();
        let slash: NsPath = "/a/b".parse().unwrap();
        // Component-wise: ["a.b"] vs ["a", "b"] — "a" < "a.b", so /a/b
        // sorts first even though '.' < '/' in raw bytes.
        assert!(slash < dot);
        let a: NsPath = "/a".parse().unwrap();
        let ab: NsPath = "/a/b".parse().unwrap();
        assert!(a < ab);
        assert_eq!(a.cmp(&a), std::cmp::Ordering::Equal);
    }

    #[test]
    fn first_component_after_parent_of_deep_path() {
        let p: NsPath = "/x/y/z".parse().unwrap();
        let parent = p.parent().unwrap();
        assert_eq!(parent.to_string(), "/x/y");
        assert_eq!(parent.components().collect::<Vec<_>>(), vec!["x", "y"]);
        assert_eq!(parent.parent().unwrap().to_string(), "/x");
        assert_eq!(parent.parent().unwrap().parent().unwrap(), NsPath::root());
    }
}
