//! Every directory's children, in one pooled edge array.
//!
//! A directory's children are a *span* of the shared `edges` pool:
//! `(Sym, NodeId)` entries kept sorted by the child's *name string*, so
//! iteration order is the name order every seeded experiment depends on
//! while lookups compare interned `u32` handles instead of strings. A
//! span holding `len` edges reserves `len` rounded up to a power of two
//! slots, so its capacity is never stored: a span that is full moves to
//! one of twice the size — a vacated span of that size if there is one,
//! the pool's tail otherwise — and one that shrinks to a power of two
//! gives its upper half back. Build-time and run-time mutations take the
//! same path; there is no frozen form.

use serde::{Deserialize, Serialize};

use crate::intern::{Sym, SymbolTable};
use crate::node::NodeId;

/// Where one node's child edges lie in the pool.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
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

/// The child edges of every node of one tree.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub(crate) struct ChildPool {
    /// One span per arena slot; empty for files, childless directories
    /// and tombstones.
    spans: Vec<Span>,
    edges: Vec<(Sym, NodeId)>,
    /// `vacant[c]` holds the starts of vacated spans of `1 << c` slots.
    vacant: Vec<Vec<u32>>,
}

impl ChildPool {
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

    /// Removes the edge named `sym`, which the caller guarantees exists.
    pub(crate) fn remove(&mut self, dir: NodeId, sym: Sym) {
        let at = self
            .of(dir)
            .iter()
            .position(|&(s, _)| s == sym)
            .expect("a live node is listed under its parent");
        let span = &mut self.spans[dir.index()];
        span.len -= 1;
        let (start, len) = (span.start as usize, span.len as usize);
        self.edges
            .copy_within(start + at + 1..start + len + 1, start + at);
        let kept = capacity(len);
        self.give_back(start + kept, capacity(len + 1) - kept);
    }

    /// Drops every edge of `dir`.
    pub(crate) fn clear(&mut self, dir: NodeId) {
        let Span { start, len } = std::mem::take(&mut self.spans[dir.index()]);
        self.give_back(start as usize, capacity(len as usize));
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
        let (a, b) = (NodeId::from_index(0), NodeId::from_index(1));
        pool.push_node();
        pool.push_node();
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
        pool.remove(a, sym);
        assert_eq!(pool.get(a, sym), None);
        assert_eq!(pool.of(a).len(), 299);
        assert_eq!(pool.of(b).len(), 300);

        // Emptying one directory vacates spans the other's growth and a
        // newcomer reuse: the pool does not grow.
        let high_water = pool.edges.len();
        pool.clear(a);
        assert!(pool.of(a).is_empty());
        for i in 0..200 {
            let sym = table.intern(&format!("again{i}"));
            pool.insert(a, sym, NodeId::from_index(1_000 + i), &table);
        }
        assert_eq!(pool.edges.len(), high_water);
        assert_eq!(names(&pool, b, &table), expected);
    }

    #[test]
    fn a_shrinking_span_gives_its_upper_half_back() {
        let mut table = SymbolTable::new();
        let mut pool = ChildPool::default();
        let dir = NodeId::from_index(0);
        pool.push_node();
        let syms: Vec<Sym> = (0..5).map(|i| table.intern(&format!("c{i}"))).collect();
        for (i, &sym) in syms.iter().enumerate() {
            pool.insert(dir, sym, NodeId::from_index(i + 1), &table);
        }
        // Five edges reserve eight slots; back at four, the upper four
        // are vacant again, and an emptied span vacates its last slot.
        pool.remove(dir, syms[2]);
        assert_eq!(
            pool.vacant[2].len(),
            2,
            "the outgrown 4-span and the upper half"
        );
        assert_eq!(names(&pool, dir, &table), ["c0", "c1", "c3", "c4"]);
        for &sym in &[syms[0], syms[1], syms[3], syms[4]] {
            pool.remove(dir, sym);
        }
        assert!(pool.of(dir).is_empty());
        let vacated: usize = pool
            .vacant
            .iter()
            .enumerate()
            .map(|(class, starts)| starts.len() << class)
            .sum();
        assert_eq!(vacated, pool.edges.len(), "every slot is accounted for");
    }
}
