//! Every directory's children, in one pooled edge array.
//!
//! A directory's children are a *span* of the shared `edges` pool:
//! `(Sym, NodeId)` entries kept sorted by the child's *name string*, so
//! iteration order is the name order every seeded experiment depends on
//! while lookups compare interned `u32` handles instead of strings. A
//! span holding `len` edges reserves `len` rounded up to a power of two
//! slots, so its capacity is never stored: a span that is full moves to
//! one of twice the size — a vacated span of that size if there is one,
//! the pool's tail otherwise. Spans only grow: a tree never removes a
//! node.
//!
//! A tree built in one pass ([`NamespaceTree::build`]) lays the pool out
//! in one go: a counting pass sets each directory's edge count, prefix
//! sums over the spans' capacities give each its start, the edges are
//! filled in arena order and each span is sorted by name once. The
//! result obeys the same span rule, so later creates carry on from it
//! as from a tree grown edge by edge; there is no frozen form.
//!
//! [`NamespaceTree::build`]: crate::NamespaceTree::build

use crate::intern::{Sym, SymbolTable};
use crate::node::NodeId;

/// Where one node's child edges lie in the pool.
#[derive(Debug, Clone, Copy, Default)]
struct Span {
    start: u32,
    len: u32,
}

/// Slots reserved for a span of `len` edges.
fn capacity(len: usize) -> usize {
    if len == 0 {
        0
    } else {
        len.next_power_of_two()
    }
}

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
#[derive(Debug, Clone, Default)]
pub(crate) struct ChildPool {
    /// One span per arena slot; empty for files and childless
    /// directories.
    spans: Vec<Span>,
    edges: Vec<(Sym, NodeId)>,
    /// `vacant[c]` holds the starts of vacated spans of `1 << c` slots.
    vacant: Vec<Vec<u32>>,
}

impl ChildPool {
    /// An empty pool whose span table has room for `nodes` arena slots.
    /// The edges are not reserved: how many slots the spans take depends
    /// on the fan-outs, not on the node count.
    pub(crate) fn with_capacity(nodes: usize) -> Self {
        ChildPool {
            spans: Vec::with_capacity(nodes),
            ..ChildPool::default()
        }
    }

    /// Drops the spare capacity of the span table and the edge pool.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.spans.shrink_to_fit();
        self.edges.shrink_to_fit();
    }

    /// Adds the (empty) span of the next arena slot.
    pub(crate) fn push_node(&mut self) {
        self.spans.push(Span::default());
    }

    /// The children of `id` in name order; empty for an id past the arena.
    #[inline]
    pub(crate) fn of(&self, id: NodeId) -> &[(Sym, NodeId)] {
        match self.spans.get(id.index()) {
            Some(span) => &self.edges[span.start as usize..][..span.len as usize],
            None => &[],
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
    pub(crate) fn insert(&mut self, dir: NodeId, sym: Sym, child: NodeId, table: &SymbolTable) {
        let name = table.bytes_of(sym);
        let at = self
            .of(dir)
            .partition_point(|&(s, _)| table.bytes_of(s) < name);
        let Span { start, len } = self.spans[dir.index()];
        let (mut start, len) = (start as usize, len as usize);
        if len == capacity(len) {
            let full = start;
            start = self.take((2 * len).max(1));
            self.edges.copy_within(full..full + len, start);
            self.give_back(full, len);
        }
        self.edges
            .copy_within(start + at..start + len, start + at + 1);
        self.edges[start + at] = (sym, child);
        self.spans[dir.index()] = Span {
            start: u32::try_from(start).expect("edge pool fits in u32"),
            len: len as u32 + 1,
        };
    }

    /// Lays out the edges of every `(parent, sym, child)` link of a tree
    /// whose pool is still empty, each span sorted by name. On two
    /// siblings with one name, returns that name's symbol.
    ///
    /// A span sorts by each name's first eight bytes, read big-endian
    /// and zero-padded — an integer whose order is the names' order
    /// wherever two differ — and compares whole names only where those
    /// tie, so most comparisons touch no name bytes.
    ///
    /// Allocates only the pool and one scratch vector for the largest
    /// span: the span table counts the edges, then serves as each span's
    /// fill cursor.
    pub(crate) fn lay_out<I>(&mut self, links: I, table: &SymbolTable) -> Result<(), Sym>
    where
        I: Iterator<Item = (NodeId, Sym, NodeId)> + Clone,
    {
        debug_assert!(self.edges.is_empty(), "laid out over existing edges");
        for (parent, ..) in links.clone() {
            self.spans[parent.index()].len += 1;
        }
        let (mut end, mut widest) = (0, 0);
        for span in &mut self.spans {
            let len = std::mem::take(&mut span.len) as usize;
            span.start = u32::try_from(end).expect("edge pool fits in u32");
            end += capacity(len);
            widest = widest.max(len);
        }
        self.edges = vec![(Sym(0), NodeId::from_index(0)); end];
        for (parent, sym, child) in links {
            let span = &mut self.spans[parent.index()];
            self.edges[(span.start + span.len) as usize] = (sym, child);
            span.len += 1;
        }
        let mut keyed: Vec<(u64, Sym, NodeId)> = Vec::with_capacity(widest);
        for span in &self.spans {
            let edges = &mut self.edges[span.start as usize..][..span.len as usize];
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

    /// A span of `slots` (a power of two) slots: a vacated one of that
    /// size, else fresh slots at the pool's tail.
    fn take(&mut self, slots: usize) -> usize {
        let class = slots.trailing_zeros() as usize;
        if let Some(start) = self.vacant.get_mut(class).and_then(Vec::pop) {
            return start as usize;
        }
        let start = self.edges.len();
        self.edges
            .resize(start + slots, (Sym(0), NodeId::from_index(0)));
        start
    }

    /// Records `slots` (a power of two, or zero) slots at `start` as vacated.
    fn give_back(&mut self, start: usize, slots: usize) {
        if slots == 0 {
            return;
        }
        let class = slots.trailing_zeros() as usize;
        if self.vacant.len() <= class {
            self.vacant.resize_with(class + 1, Vec::new);
        }
        self.vacant[class].push(start as u32);
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

    #[test]
    fn spans_keep_name_order_across_moves_and_reuse_vacated_slots() {
        let mut table = SymbolTable::new();
        let mut pool = ChildPool::default();
        let [a, b, c] = [0, 1, 2].map(NodeId::from_index);
        (0..3).for_each(|_| pool.push_node());
        // Two directories growing in lock step force each to move past
        // the other at every power of two.
        let mut expected = Vec::new();
        for i in (0..300).rev() {
            let name = format!("n{i:03}");
            let sym = table.intern(&name);
            pool.insert(a, sym, NodeId::from_index(i + 2), &table);
            pool.insert(b, sym, NodeId::from_index(i + 2), &table);
            expected.insert(0, name);
            assert_eq!(names(&pool, a, &table), expected);
            assert_eq!(names(&pool, b, &table), expected);
        }
        let sym = table.lookup("n007").unwrap();
        assert_eq!(pool.get(a, sym), Some(NodeId::from_index(9)));
        assert_eq!(pool.of(b).len(), 300);

        // Each move vacated a span of every size up to 256 twice over:
        // a newcomer growing to 200 edges reuses them and the pool does
        // not grow.
        let high_water = pool.edges.len();
        for i in 0..200 {
            let sym = table.intern(&format!("again{i}"));
            pool.insert(c, sym, NodeId::from_index(1_000 + i), &table);
        }
        assert_eq!(pool.edges.len(), high_water);
        assert_eq!(names(&pool, a, &table), expected);
        assert_eq!(names(&pool, b, &table), expected);
    }

    #[test]
    fn a_laid_out_pool_keeps_the_span_rule() {
        let mut table = SymbolTable::new();
        let mut pool = ChildPool::default();
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
        assert_eq!(
            pool.edges.len(),
            4 + 4 + 1,
            "each span reserves its capacity, no more"
        );

        // Slack is used in place; a full span moves to the tail and
        // leaves its slots vacant.
        let start = |pool: &ChildPool, dir: NodeId| pool.spans[dir.index()].start;
        let (at0, at1) = (start(&pool, dirs[0]), start(&pool, dirs[1]));
        pool.insert(dirs[0], table.intern("aa"), NodeId::from_index(20), &table);
        pool.insert(dirs[1], table.intern("pp"), NodeId::from_index(21), &table);
        assert_eq!(start(&pool, dirs[0]), at0);
        assert_eq!(start(&pool, dirs[1]), 9);
        assert_eq!(pool.vacant[2], [at1]);
        assert_eq!(names(&pool, dirs[0], &table), ["a", "aa", "b", "c"]);
        assert_eq!(names(&pool, dirs[1], &table), ["p", "pp", "q", "r", "s"]);
    }

    #[test]
    fn laying_out_two_siblings_with_one_name_names_it() {
        let mut table = SymbolTable::new();
        let mut pool = ChildPool::default();
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
