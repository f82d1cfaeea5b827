//! Every directory's children, in one exact edge array.
//!
//! The pool is compressed sparse rows: node `i`'s children are
//! `edges[offsets[i]..offsets[i + 1]]`, `(Sym, NodeId)` entries sorted
//! by the child's *name string*, so iteration order is the name order
//! every seeded experiment depends on while lookups compare interned
//! `u32` handles instead of strings. There is one offset per node plus
//! one and one entry per edge, nothing more: no directory reserves room
//! to grow.
//!
//! A namespace is built once and only grows, so the layout is decided
//! once: [`NamespaceTree::build`] counts each directory's edges, takes
//! prefix sums for the offsets, fills the edges in arena order and
//! sorts each directory's range by name. A later
//! [`create`](crate::NamespaceTree::create) shifts the edges after its
//! own and bumps every later offset, O(n) per edge; it builds small
//! trees in tests and examples, and no hot path calls it.
//!
//! [`NamespaceTree::build`]: crate::NamespaceTree::build

use crate::intern::{Sym, SymbolTable};
use crate::node::NodeId;

/// A name's first eight bytes, big-endian and zero-padded. Where two
/// prefixes differ they order as the names do: at the first byte they
/// differ in, either both names have a real byte, or the shorter has run
/// out against a nonzero byte of the longer — so it is a proper prefix
/// of the longer name and sorts first either way.
fn name_prefix(name: &[u8]) -> u64 {
    let mut prefix = [0; 8];
    let n = name.len().min(8);
    prefix[..n].copy_from_slice(&name[..n]);
    u64::from_be_bytes(prefix)
}

/// The child edges of every node of one tree.
#[derive(Debug, Clone)]
pub(crate) struct ChildPool {
    /// One entry per arena slot plus one: slot `i`'s children are
    /// `edges[offsets[i]..offsets[i + 1]]`, empty for files and
    /// childless directories.
    offsets: Vec<u32>,
    edges: Vec<(Sym, NodeId)>,
}

impl ChildPool {
    /// An empty pool whose offsets have room for `nodes` arena slots.
    /// The edges are not reserved: [`lay_out`](Self::lay_out) allocates
    /// them at their exact count.
    pub(crate) fn with_capacity(nodes: usize) -> Self {
        let mut offsets = Vec::with_capacity(nodes + 1);
        offsets.push(0);
        ChildPool {
            offsets,
            edges: Vec::new(),
        }
    }

    /// Drops the spare capacity of the offsets and the edges.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.offsets.shrink_to_fit();
        self.edges.shrink_to_fit();
    }

    /// Adds the (empty) child range of the next arena slot.
    pub(crate) fn push_node(&mut self) {
        let end = *self.offsets.last().expect("one offset more than slots");
        self.offsets.push(end);
    }

    /// The children of `id` in name order; empty for an id past the arena.
    #[inline]
    pub(crate) fn of(&self, id: NodeId) -> &[(Sym, NodeId)] {
        match self.offsets.get(id.index()..id.index() + 2) {
            Some(&[start, end]) => &self.edges[start as usize..end as usize],
            _ => &[],
        }
    }

    /// Membership/lookup by interned symbol: a linear `u32` scan. Typical
    /// fanouts are small and the entries are contiguous, so this beats
    /// a search that would have to resolve names.
    #[inline]
    pub(crate) fn get(&self, dir: NodeId, sym: Sym) -> Option<NodeId> {
        self.of(dir)
            .iter()
            .find(|&&(s, _)| s == sym)
            .map(|&(_, id)| id)
    }

    /// Inserts keeping name order; the caller guarantees `sym` is absent.
    /// Shifts every later edge and bumps every later offset: O(n).
    pub(crate) fn insert(&mut self, dir: NodeId, sym: Sym, child: NodeId, table: &SymbolTable) {
        let name = table.bytes_of(sym);
        let at = self.offsets[dir.index()] as usize
            + self
                .of(dir)
                .partition_point(|&(s, _)| table.bytes_of(s) < name);
        self.edges.insert(at, (sym, child));
        for end in &mut self.offsets[dir.index() + 1..] {
            *end += 1;
        }
    }

    /// Lays out the edges of every `(parent, sym, child)` link of a tree
    /// whose pool is still empty, each directory's range sorted by name.
    /// On two siblings with one name, returns that name's symbol.
    ///
    /// A range sorts by each name's first eight bytes, read big-endian
    /// and zero-padded — an integer whose order is the names' order
    /// wherever two differ — and compares whole names only where those
    /// tie, so most comparisons touch no name bytes.
    ///
    /// Allocates only the edges and one scratch vector for the widest
    /// directory: the offsets count the edges, then serve as each
    /// directory's fill cursor.
    pub(crate) fn lay_out<I>(&mut self, links: I, table: &SymbolTable) -> Result<(), Sym>
    where
        I: Iterator<Item = (NodeId, Sym, NodeId)> + Clone,
    {
        debug_assert!(self.edges.is_empty(), "laid out over existing edges");
        for (parent, ..) in links.clone() {
            self.offsets[parent.index()] += 1;
        }
        // Running sums leave each offset at its directory's end, and
        // filling each directory back to front brings it to its start.
        let (mut end, mut widest) = (0, 0);
        for offset in &mut self.offsets {
            widest = widest.max(*offset);
            end += *offset;
            *offset = end;
        }
        self.edges = vec![(Sym(0), NodeId::from_index(0)); end as usize];
        for (parent, sym, child) in links {
            let cursor = &mut self.offsets[parent.index()];
            *cursor -= 1;
            self.edges[*cursor as usize] = (sym, child);
        }
        let mut keyed: Vec<(u64, Sym, NodeId)> = Vec::with_capacity(widest as usize);
        for range in self.offsets.windows(2) {
            let edges = &mut self.edges[range[0] as usize..range[1] as usize];
            keyed.clear();
            keyed.extend(
                edges
                    .iter()
                    .map(|&(sym, id)| (name_prefix(table.bytes_of(sym)), sym, id)),
            );
            keyed.sort_unstable_by(|a, b| {
                a.0.cmp(&b.0)
                    .then_with(|| table.bytes_of(a.1).cmp(table.bytes_of(b.1)))
            });
            for (edge, &(_, sym, id)) in edges.iter_mut().zip(&keyed) {
                *edge = (sym, id);
            }
            if let Some(pair) = edges.windows(2).find(|pair| pair[0].0 == pair[1].0) {
                return Err(pair[0].0);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(pool: &ChildPool, dir: NodeId, table: &SymbolTable) -> Vec<String> {
        pool.of(dir)
            .iter()
            .map(|&(s, _)| table.resolve(s).to_owned())
            .collect()
    }

    /// The pool holds exactly one entry per edge, and every directory's
    /// entries are in name order.
    fn assert_exact(pool: &ChildPool, edges: usize) {
        assert_eq!(pool.edges.len(), edges);
        assert_eq!(pool.offsets.last(), Some(&(edges as u32)));
        assert!(pool.offsets.windows(2).all(|pair| pair[0] <= pair[1]));
    }

    #[test]
    fn interleaved_inserts_keep_name_order_and_no_slack() {
        let mut table = SymbolTable::new();
        let mut pool = ChildPool::with_capacity(0);
        let [a, b, c] = [0, 1, 2].map(NodeId::from_index);
        (0..3).for_each(|_| pool.push_node());
        // Two directories growing in lock step, each insert landing at
        // the front of its directory, with a third directory between
        // them in the arena.
        let mut expected = Vec::new();
        for i in (0..300).rev() {
            let name = format!("n{i:03}");
            let sym = table.intern(&name);
            pool.insert(a, sym, NodeId::from_index(i + 3), &table);
            pool.insert(c, sym, NodeId::from_index(i + 3), &table);
            expected.insert(0, name);
            assert_eq!(names(&pool, a, &table), expected);
            assert_eq!(names(&pool, c, &table), expected);
            assert!(pool.of(b).is_empty());
        }
        assert_exact(&pool, 600);
        let sym = table.lookup("n007").unwrap();
        assert_eq!(pool.get(a, sym), Some(NodeId::from_index(10)));
        assert_eq!(pool.get(b, sym), None);
        assert!(pool.of(NodeId::from_index(3)).is_empty(), "past the arena");
    }

    #[test]
    fn a_laid_out_pool_is_exact_and_takes_later_inserts() {
        let mut table = SymbolTable::new();
        let mut pool = ChildPool::with_capacity(4);
        let dirs = [0, 1, 2, 3].map(NodeId::from_index);
        dirs.iter().for_each(|_| pool.push_node());
        // Three edges under dirs[0], four under dirs[1], one under
        // dirs[3], arriving interleaved and out of name order.
        let links: Vec<(NodeId, Sym, NodeId)> = [(1, "q"), (0, "b"), (1, "p"), (3, "z"), (0, "a")]
            .into_iter()
            .chain([(1, "s"), (0, "c"), (1, "r")])
            .enumerate()
            .map(|(i, (dir, name))| (dirs[dir], table.intern(name), NodeId::from_index(10 + i)))
            .collect();
        pool.lay_out(links.iter().copied(), &table).unwrap();
        assert_eq!(names(&pool, dirs[0], &table), ["a", "b", "c"]);
        assert_eq!(names(&pool, dirs[1], &table), ["p", "q", "r", "s"]);
        assert!(pool.of(dirs[2]).is_empty());
        assert_eq!(
            pool.get(dirs[3], table.lookup("z").unwrap()),
            Some(NodeId::from_index(13))
        );
        assert_exact(&pool, links.len());

        // Later inserts go in place, into any directory.
        pool.insert(dirs[1], table.intern("pp"), NodeId::from_index(21), &table);
        pool.insert(dirs[0], table.intern("aa"), NodeId::from_index(20), &table);
        pool.insert(dirs[2], table.intern("m"), NodeId::from_index(22), &table);
        assert_eq!(names(&pool, dirs[0], &table), ["a", "aa", "b", "c"]);
        assert_eq!(names(&pool, dirs[1], &table), ["p", "pp", "q", "r", "s"]);
        assert_eq!(names(&pool, dirs[2], &table), ["m"]);
        assert_eq!(names(&pool, dirs[3], &table), ["z"]);
        assert_exact(&pool, links.len() + 3);
    }

    #[test]
    fn laying_out_two_siblings_with_one_name_names_it() {
        let mut table = SymbolTable::new();
        let mut pool = ChildPool::with_capacity(2);
        (0..2).for_each(|_| pool.push_node());
        let (dir, dup) = (NodeId::from_index(0), table.intern("dup"));
        let links = [
            (dir, table.intern("a"), NodeId::from_index(1)),
            (dir, dup, NodeId::from_index(2)),
        ];
        let other = (NodeId::from_index(1), dup, NodeId::from_index(3));
        assert_eq!(
            pool.clone()
                .lay_out(links.into_iter().chain([other]), &table),
            Ok(())
        );
        assert_eq!(
            pool.lay_out(
                links.into_iter().chain([(dir, dup, NodeId::from_index(3))]),
                &table
            ),
            Err(dup)
        );
    }
}
