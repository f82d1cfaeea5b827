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
//! own. Symbols are never removed: a tree only grows, so every name
//! interned stays in use or was refused as a duplicate. A one-pass tree build
//! pushes its names unprobed and settles them in blocks at the end (see
//! [`SymbolTable::settle`]), with the symbols one-at-a-time interning
//! gives.

/// Interned name handle: an index into the owning tree's [`SymbolTable`].
///
/// `Sym`s are only meaningful relative to the table that produced them;
/// two trees may assign the same `Sym` to different names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
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
#[derive(Debug, Clone)]
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
        if self.needs_growth(self.len()) {
            self.grow(self.len());
            slot = self
                .probe(name.as_bytes())
                .expect_err("the name was absent before the table grew");
        }
        let sym = self.push_name(name);
        self.slots[slot] = sym.0;
        (sym, true)
    }

    /// Appends `name` as the next symbol without looking it up or
    /// entering it into the probe table. [`intern_new`](Self::intern_new)
    /// enters it at once; a tree build leaves it *pending*, unseen by
    /// lookups, until [`settle`](Self::settle) enters it or merges it
    /// into an earlier symbol of the same name.
    pub(crate) fn push_name(&mut self, name: &str) -> Sym {
        let sym = Sym(u32::try_from(self.len()).expect("symbol count fits in u32"));
        self.bytes.extend_from_slice(name.as_bytes());
        self.offsets
            .push(u32::try_from(self.bytes.len()).expect("name arena fits in u32"));
        sym
    }

    /// Interns the pending symbols from `first` on, in order, as
    /// [`intern`](Self::intern) would have one at a time: a name seen
    /// before merges into the earlier symbol and its bytes are dropped,
    /// so every name gets the symbol, and the probe table the slots,
    /// that `intern` would have given. Returns `None` when every pending
    /// name was new, so each pending symbol stands; otherwise the symbol
    /// pending symbol `first + i` became, at `i`.
    ///
    /// Works 64 names at a time: every name's hash, then every name's
    /// home slot, then the probes in order. The home-slot loads — one
    /// likely cache miss per name in a large table — no longer wait on
    /// each other. A slot is only ever written while empty, so a home
    /// found occupied still holds that symbol when its probe runs.
    pub(crate) fn settle(&mut self, first: usize) -> Option<Vec<Sym>> {
        const BLOCK: usize = 64;
        let total = self.len();
        let mut merged: Option<Vec<Sym>> = None;
        // Symbols settled so far, and where the next pending name starts.
        let mut kept = first;
        let mut from = self.offsets[first] as usize;
        for block in (first..total).step_by(BLOCK) {
            let n = (total - block).min(BLOCK);
            // A name only moves down, over merged names' bytes, so the
            // block's ends still read as pushed.
            let (mut ends, mut hashes, mut homes) = ([0; BLOCK], [0; BLOCK], [0; BLOCK]);
            let mut start = from;
            for k in 0..n {
                ends[k] = self.offsets[block + k + 1] as usize;
                hashes[k] = fnv1a(&self.bytes[start..ends[k]]);
                start = ends[k];
            }
            self.load_homes(&hashes[..n], &mut homes[..n]);
            for k in 0..n {
                let (start, end) = (from, ends[k]);
                from = end;
                let home = hashes[k] as usize & (self.slots.len() - 1);
                let raw = if homes[k] == EMPTY_SLOT {
                    self.slots[home]
                } else {
                    homes[k]
                };
                let sym = match self.probe_from(home, raw, &self.bytes[start..end]) {
                    Ok(earlier) => {
                        // Every symbol before the first merge stood.
                        merged.get_or_insert_with(|| {
                            (first..block + k).map(|s| Sym(s as u32)).collect()
                        });
                        earlier
                    }
                    Err(mut slot) => {
                        if self.needs_growth(kept) {
                            self.grow(kept);
                            self.load_homes(&hashes[k + 1..n], &mut homes[k + 1..n]);
                            slot = self
                                .probe(&self.bytes[start..end])
                                .expect_err("the name was absent before the table grew");
                        }
                        let at = self.offsets[kept] as usize;
                        self.bytes.copy_within(start..end, at);
                        self.offsets[kept + 1] = (at + end - start) as u32;
                        self.slots[slot] = kept as u32;
                        kept += 1;
                        Sym(kept as u32 - 1)
                    }
                };
                if let Some(merged) = &mut merged {
                    merged.push(sym);
                }
            }
        }
        self.bytes.truncate(self.offsets[kept] as usize);
        self.offsets.truncate(kept + 1);
        merged
    }

    /// The home slot of each hash, loaded in one pass.
    fn load_homes(&self, hashes: &[u64], homes: &mut [u32]) {
        let mask = self.slots.len() - 1;
        for (home, &hash) in homes.iter_mut().zip(hashes) {
            *home = self.slots[hash as usize & mask];
        }
    }

    /// Walks `name`'s probe chain: its symbol, or the empty slot that
    /// ends the chain, where it would be placed.
    fn probe(&self, name: &[u8]) -> Result<Sym, usize> {
        let home = (fnv1a(name) as usize) & (self.slots.len() - 1);
        self.probe_from(home, self.slots[home], name)
    }

    /// [`probe`](Self::probe) from slot `i`, which holds `raw`.
    fn probe_from(&self, mut i: usize, mut raw: u32, name: &[u8]) -> Result<Sym, usize> {
        let mask = self.slots.len() - 1;
        loop {
            if raw == EMPTY_SLOT {
                return Err(i);
            }
            if self.bytes_of(Sym(raw)) == name {
                return Ok(Sym(raw));
            }
            i = (i + 1) & mask;
            raw = self.slots[i];
        }
    }

    /// Whether adding a symbol to `syms` entered ones needs a larger
    /// table: the load factor stays below 1/2 so probe chains stay short.
    fn needs_growth(&self, syms: usize) -> bool {
        (syms + 1) * 2 > self.slots.len()
    }

    /// Doubles the probe table and re-enters the first `syms` symbols.
    fn grow(&mut self, syms: usize) {
        let new_len = self.slots.len() * 2;
        let mask = new_len - 1;
        let mut slots = vec![EMPTY_SLOT; new_len];
        for raw in 0..syms as u32 {
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

    /// Settling pushed names gives what interning them in turn gives —
    /// symbols, arena and probe table — across blocks, with repeats of
    /// a settled name and of pending ones, growing part-way or not.
    #[test]
    fn settling_pending_names_equals_interning_them_in_turn() {
        let repeating: Vec<String> = (0..300).map(|i| format!("n{}", i * 7 % 190)).collect();
        let distinct: Vec<String> = (0..300).map(|i| format!("d{i}")).collect();
        for names in [&repeating, &distinct] {
            for capacity in [0, 1_000] {
                let mut in_turn = SymbolTable::with_capacity(capacity);
                let mut settled = SymbolTable::with_capacity(capacity);
                for table in [&mut in_turn, &mut settled] {
                    table.intern("n3");
                }
                let want: Vec<Sym> = names.iter().map(|n| in_turn.intern(n)).collect();
                let pushed: Vec<Sym> = names.iter().map(|n| settled.push_name(n)).collect();
                let merged = settled.settle(1);
                assert_eq!(merged.is_some(), std::ptr::eq(names, &repeating));
                let got: Vec<Sym> = match merged {
                    Some(merged) => pushed.iter().map(|s| merged[s.index() - 1]).collect(),
                    None => pushed,
                };
                assert_eq!(got, want, "{capacity}");
                assert_eq!(settled.bytes, in_turn.bytes);
                assert_eq!(settled.offsets, in_turn.offsets);
                assert_eq!(settled.slots, in_turn.slots);
            }
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
