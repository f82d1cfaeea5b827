//! Per-tree name interning.
//!
//! Every distinct name component is stored once in a [`SymbolTable`] and
//! referred to by a [`Sym`] — a dense `u32` handle. Child lookups then
//! cost one FNV-1a hash of the component plus `u32` equality probes
//! instead of repeated string comparisons, and a resolved path never
//! re-hashes a component it has already seen.
//!
//! The table is an open-addressed, linearly probed hash set (hand-rolled
//! like `store/crc.rs`, no external hasher): `slots` maps a name hash to
//! a `Sym`; the names themselves lie end to end in one byte arena, with
//! an offsets column marking where each begins, so `Sym` doubles as an
//! index and a name costs its bytes plus four — no allocation of its
//! own. Symbols are never removed — the arena only grows, and removal
//! bookkeeping would cost more than it frees.

use serde::{Deserialize, Serialize};

/// Interned name handle: an index into the owning tree's [`SymbolTable`].
///
/// `Sym`s are only meaningful relative to the table that produced them;
/// two trees may assign the same `Sym` to different names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Sym(pub(crate) u32);

impl Sym {
    /// The raw table index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

const EMPTY_SLOT: u32 = u32::MAX;

/// FNV-1a over a byte string — the same construction the store's CRC and
/// the trace digest use; deterministic across platforms and runs.
#[inline]
fn fnv1a(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Open-addressed intern table mapping name components to [`Sym`]s.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SymbolTable {
    /// Every interned name, end to end, in `Sym` order.
    bytes: Vec<u8>,
    /// `offsets[s]..offsets[s + 1]` is the range of symbol `s` in
    /// `bytes`; one entry more than there are symbols.
    offsets: Vec<u32>,
    /// Open-addressed probe table holding `Sym` raw values or
    /// [`EMPTY_SLOT`]. Length is always a power of two.
    slots: Vec<u32>,
}

impl SymbolTable {
    /// An empty table.
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// An empty table with room for `names` names: the offsets column
    /// and the probe table are allocated at the size interning that many
    /// would grow them to, so doing so never rehashes. The name bytes
    /// still grow as they arrive.
    #[must_use]
    pub(crate) fn with_capacity(names: usize) -> Self {
        let mut offsets = Vec::with_capacity(names + 1);
        offsets.push(0);
        SymbolTable {
            bytes: Vec::new(),
            offsets,
            slots: vec![EMPTY_SLOT; (2 * names).next_power_of_two().max(16)],
        }
    }

    /// Drops the spare capacity of the name arena and its offsets; the
    /// probe table keeps its size, which bounds its load factor.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.bytes.shrink_to_fit();
        self.offsets.shrink_to_fit();
    }

    /// Number of interned names.
    #[must_use]
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether no name has been interned yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The string a symbol stands for.
    ///
    /// # Panics
    ///
    /// Panics if `sym` did not come from this table.
    #[must_use]
    pub fn resolve(&self, sym: Sym) -> &str {
        std::str::from_utf8(self.bytes_of(sym)).expect("the arena holds whole interned strs")
    }

    /// The bytes of [`resolve`](Self::resolve), which order and compare
    /// exactly as the strings do, without the UTF-8 check.
    pub(crate) fn bytes_of(&self, sym: Sym) -> &[u8] {
        let s = sym.index();
        &self.bytes[self.offsets[s] as usize..self.offsets[s + 1] as usize]
    }

    /// Looks a name up without interning it; `None` means the name has
    /// never been seen, so no node anywhere in the tree carries it.
    #[must_use]
    pub fn lookup(&self, name: &str) -> Option<Sym> {
        self.probe(name.as_bytes()).ok()
    }

    /// Interns `name`, returning its (possibly pre-existing) symbol.
    pub fn intern(&mut self, name: &str) -> Sym {
        self.intern_new(name).0
    }

    /// Interns `name` with one hash and one probe (a second of each only
    /// when the table grows), returning its symbol and whether this call
    /// minted it.
    pub(crate) fn intern_new(&mut self, name: &str) -> (Sym, bool) {
        let mut slot = match self.probe(name.as_bytes()) {
            Ok(sym) => return (sym, false),
            Err(slot) => slot,
        };
        // Keep the load factor below 1/2 so probe chains stay short.
        if (self.len() + 1) * 2 > self.slots.len() {
            self.grow();
            slot = self
                .probe(name.as_bytes())
                .expect_err("the name was absent before the table grew");
        }
        let sym = Sym(u32::try_from(self.len()).expect("symbol count fits in u32"));
        self.bytes.extend_from_slice(name.as_bytes());
        self.offsets
            .push(u32::try_from(self.bytes.len()).expect("name arena fits in u32"));
        self.slots[slot] = sym.0;
        (sym, true)
    }

    /// Walks `name`'s probe chain: its symbol, or the empty slot that
    /// ends the chain, where it would be placed.
    fn probe(&self, name: &[u8]) -> Result<Sym, usize> {
        let mask = self.slots.len() - 1;
        let mut i = (fnv1a(name) as usize) & mask;
        loop {
            let raw = self.slots[i];
            if raw == EMPTY_SLOT {
                return Err(i);
            }
            if self.bytes_of(Sym(raw)) == name {
                return Ok(Sym(raw));
            }
            i = (i + 1) & mask;
        }
    }

    fn grow(&mut self) {
        let new_len = self.slots.len() * 2;
        let mask = new_len - 1;
        let mut slots = vec![EMPTY_SLOT; new_len];
        for raw in 0..self.len() as u32 {
            let mut i = (fnv1a(self.bytes_of(Sym(raw))) as usize) & mask;
            while slots[i] != EMPTY_SLOT {
                i = (i + 1) & mask;
            }
            slots[i] = raw;
        }
        self.slots = slots;
    }
}

impl Default for SymbolTable {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent_and_resolves() {
        let mut t = SymbolTable::new();
        let a = t.intern("alpha");
        let b = t.intern("beta");
        assert_ne!(a, b);
        assert_eq!(t.intern("alpha"), a);
        assert_eq!(t.resolve(a), "alpha");
        assert_eq!(t.resolve(b), "beta");
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn lookup_does_not_intern() {
        let mut t = SymbolTable::new();
        assert!(t.is_empty());
        assert_eq!(t.lookup("ghost"), None);
        assert!(t.is_empty());
        let s = t.intern("ghost");
        assert_eq!(t.lookup("ghost"), Some(s));
    }

    #[test]
    fn intern_new_reports_whether_the_call_minted_the_symbol() {
        let mut t = SymbolTable::new();
        // Across several growths: minted exactly once per name.
        for i in 0..100 {
            let name = format!("n{i}");
            let (sym, minted) = t.intern_new(&name);
            assert!(minted);
            assert_eq!(t.intern_new(&name), (sym, false));
            assert_eq!(t.len(), i + 1);
        }
    }

    #[test]
    fn survives_growth_past_initial_capacity() {
        let mut t = SymbolTable::new();
        let syms: Vec<Sym> = (0..1000).map(|i| t.intern(&format!("name-{i}"))).collect();
        for (i, &s) in syms.iter().enumerate() {
            assert_eq!(t.resolve(s), format!("name-{i}"));
            assert_eq!(t.lookup(&format!("name-{i}")), Some(s));
        }
        assert_eq!(t.len(), 1000);
    }

    #[test]
    fn a_presized_table_never_rehashes_and_matches_the_grown_size() {
        for names in [0, 1, 8, 9, 1000] {
            let mut grown = SymbolTable::new();
            let mut presized = SymbolTable::with_capacity(names);
            let slots = presized.slots.len();
            for i in 0..names {
                let name = format!("n{i}");
                assert_eq!(grown.intern(&name), presized.intern(&name));
            }
            assert_eq!(presized.slots.len(), slots, "{names} names rehashed");
            assert_eq!(presized.slots.len(), grown.slots.len());
        }
    }

    #[test]
    fn symbols_are_dense_insertion_ordered_indices() {
        let mut t = SymbolTable::new();
        for i in 0..50 {
            assert_eq!(t.intern(&format!("n{i}")).index(), i);
        }
    }

    #[test]
    fn empty_string_is_internable() {
        // The root node's name is the empty string.
        let mut t = SymbolTable::new();
        let e = t.intern("");
        assert_eq!(t.resolve(e), "");
        assert_eq!(t.lookup(""), Some(e));
    }
}
