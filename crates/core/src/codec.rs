//! The one byte format shared by the schedule-cache key, the serve wire
//! and the disk store.
//!
//! Every field is little-endian. Counts and string lengths are `u32`, an
//! `Option` is a `0`/`1` tag followed by its value, and a fieldless enum
//! is its index in a fixed table ([`Tag`]). A [`Sink`] takes those
//! fields and has two implementations: `Vec<u8>`, which frames wire
//! messages and store records, and [`Fnv1a`], which hashes the same
//! bytes as they stream past, so a cache key never buffers what it
//! hashes.
//!
//! A loop is written as its canonical body — ops, values and arrays,
//! without names ([`encode_body`]) — followed by a names section
//! ([`encode_loop`]). The cache key hashes the machine
//! ([`encode_machine`]), the body and the compile options
//! ([`encode_options`]); the wire carries the whole loop and
//! [`decode_loop`] reads it back. A
//! decoded loop therefore has the key of the loop that was sent, and
//! renaming a loop never changes its key.
//!
//! [`Dec`] reads the format back from untrusted bytes: every length is
//! checked against the bytes actually present before anything is
//! allocated, strings are capped at [`MAX_STR`] and must be UTF-8, tags
//! out of range are rejected, and a decoded loop passes
//! [`Loop::from_raw_parts`].

use crate::compile::{CompileOptions, SchedulerChoice};
use crate::ladder::{ChaosFault, ChaosOptions, LadderOptions, Rung};
use crate::portfolio::PortfolioOptions;
use swp_heur::{HeurOptions, PriorityHeuristic};
use swp_ir::{
    ArrayId, ArrayInfo, Loop, MemAccess, Op, OpId, Operand, OptLevel, Sem, ValueId, ValueInfo,
};
use swp_machine::{BankModel, Machine, OpClass, RegClass, ResourceClass};
use swp_most::MostOptions;
use swp_sat::SatOptions;
use swp_verify::VerifyLevel;

/// Hard ceiling on any single string in the format.
pub const MAX_STR: usize = 4096;

/// A destination for the format's fields. Only [`Sink::put`] is
/// required; each other method writes one field, a bool as `0`/`1` and
/// every integer little-endian.
pub trait Sink {
    /// Append raw bytes.
    fn put(&mut self, bytes: &[u8]);
    fn u8(&mut self, v: u8) {
        self.put(&[v]);
    }
    fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }
    fn u32(&mut self, v: u32) {
        self.put(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.put(&v.to_le_bytes());
    }
    fn i64(&mut self, v: i64) {
        self.put(&v.to_le_bytes());
    }
    /// A length-prefixed UTF-8 string.
    fn str(&mut self, s: &str) {
        debug_assert!(s.len() <= MAX_STR);
        self.u32(s.len() as u32);
        self.put(s.as_bytes());
    }
    /// An `Option`: a `0`/`1` tag, then the value if present.
    fn opt<T>(&mut self, v: Option<T>, put: impl FnOnce(&mut Self, T)) {
        self.bool(v.is_some());
        if let Some(v) = v {
            put(self, v);
        }
    }
    /// A slice: its length, then each item.
    fn list<T>(&mut self, items: &[T], mut put: impl FnMut(&mut Self, &T)) {
        self.u32(items.len() as u32);
        for item in items {
            put(self, item);
        }
    }
    /// An enum, as its index in [`Tag::ALL`].
    fn tag<T: Tag>(&mut self, v: T) {
        self.u8(v.index() as u8);
    }
}

// `#[inline]` on both sinks: other crates call them per field, where an
// uninlined call would cost more than the work.
impl Sink for Vec<u8> {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// 64-bit FNV-1a over everything put into it: the workspace's one stable
/// hash, identical across runs and platforms (unlike `DefaultHasher`).
/// Streaming fields into it equals hashing their `Vec<u8>` encoding.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    /// The hash of everything put so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Sink for Fnv1a {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// FNV-1a of a byte slice.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::default();
    h.put(bytes);
    h.finish()
}

/// A fieldless enum written as its index in `ALL`. Appending a variant
/// keeps every existing tag; reordering one changes the format, and with
/// it the wire and store versions.
pub trait Tag: Copy + 'static {
    /// Every variant, in tag order.
    const ALL: &'static [Self];
    /// This value's index in [`Tag::ALL`].
    fn index(self) -> usize;
}

// Each table lists a fieldless enum in declaration order (the unit tests
// check it), so a value is its own index: the key path writes thousands of
// tags per millisecond, and a table search would mispredict on each.
macro_rules! tag_tables {
    ($($ty:ty => $all:expr;)+) => {
        $(impl Tag for $ty {
            const ALL: &'static [Self] = $all;
            fn index(self) -> usize {
                self as usize
            }
        })+
    };
}

// Every tag table. The first two rows are the one level-tag table: Off,
// Basic/Schedule and Full are tags 0, 1 and 2 of both level enums.
tag_tables! {
    OptLevel => &[OptLevel::Off, OptLevel::Basic, OptLevel::Full];
    VerifyLevel => &[VerifyLevel::Off, VerifyLevel::Schedule, VerifyLevel::Full];
    OpClass => &OpClass::ALL;
    RegClass => &RegClass::ALL;
    PriorityHeuristic => &PriorityHeuristic::ALL;
    Rung => &Rung::ALL;
    Sem => &[Sem::Add, Sem::Sub, Sem::Mul, Sem::Div, Sem::Sqrt, Sem::Madd, Sem::Lt,
        Sem::Select, Sem::Copy, Sem::Load, Sem::Store];
}

/// Why bytes failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The bytes ended before a field they promised.
    Truncated(&'static str),
    /// A field decoded but made no sense (bad tag, string cap, a count
    /// larger than the bytes left, loop-structure violation, …).
    Malformed(String),
    /// Bytes remained after the last field.
    TrailingBytes(usize),
}

/// What a [`Dec`] read, or why it could not.
pub type Decoded<T> = Result<T, DecodeError>;

/// Bounds-checked reader of what a [`Sink`] wrote, over untrusted bytes.
/// Every method takes `what`, the field's name for the error it reports.
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// A reader at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The next `n` raw bytes.
    pub fn take(&mut self, n: usize, what: &'static str) -> Decoded<&'a [u8]> {
        let bytes = self.buf.get(self.pos..self.pos + n);
        let bytes = bytes.ok_or(DecodeError::Truncated(what))?;
        self.pos += n;
        Ok(bytes)
    }

    pub fn u8(&mut self, what: &'static str) -> Decoded<u8> {
        Ok(self.take(1, what)?[0])
    }

    /// A bool; any byte but `0`/`1` is malformed.
    pub fn bool(&mut self, what: &'static str) -> Decoded<bool> {
        match self.u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(DecodeError::Malformed(format!("bad bool {v} in {what}"))),
        }
    }

    pub fn u32(&mut self, what: &'static str) -> Decoded<u32> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    pub fn u64(&mut self, what: &'static str) -> Decoded<u64> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    pub fn i64(&mut self, what: &'static str) -> Decoded<i64> {
        Ok(i64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    /// A count of items each at least `min_bytes` long. Checking the
    /// count against the bytes actually present makes a forged
    /// billion-element prefix fail *before* anything is allocated.
    fn count(&mut self, min_bytes: usize, what: &'static str) -> Decoded<usize> {
        let n = self.u32(what)? as usize;
        if n.saturating_mul(min_bytes.max(1)) > self.remaining() {
            return Err(DecodeError::Malformed(format!(
                "count {n} in {what} exceeds the {} bytes remaining",
                self.remaining()
            )));
        }
        Ok(n)
    }

    /// A length-prefixed string of at most [`MAX_STR`] UTF-8 bytes.
    pub fn str(&mut self, what: &'static str) -> Decoded<String> {
        let n = self.u32(what)? as usize;
        if n > MAX_STR {
            return Err(DecodeError::Malformed(format!(
                "string of {n} bytes in {what} exceeds the {MAX_STR}-byte cap"
            )));
        }
        let bytes = self.take(n, what)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| DecodeError::Malformed(format!("non-UTF-8 string in {what}")))
    }

    /// An `Option` written by [`Sink::opt`].
    pub fn opt<T>(
        &mut self,
        what: &'static str,
        get: impl FnOnce(&mut Self) -> Decoded<T>,
    ) -> Decoded<Option<T>> {
        match self.bool(what)? {
            true => get(self).map(Some),
            false => Ok(None),
        }
    }

    /// A list written by [`Sink::list`], of items each at least
    /// `min_bytes` long; `item` reads the `i`th.
    pub fn list<T>(
        &mut self,
        min_bytes: usize,
        what: &'static str,
        mut item: impl FnMut(&mut Self, usize) -> Decoded<T>,
    ) -> Decoded<Vec<T>> {
        let n = self.count(min_bytes, what)?;
        let mut items = Vec::with_capacity(n);
        for i in 0..n {
            items.push(item(self, i)?);
        }
        Ok(items)
    }

    /// A fieldless enum by its [`Tag`] index.
    pub fn tag<T: Tag>(&mut self, what: &'static str) -> Decoded<T> {
        let i = self.u8(what)?;
        T::ALL
            .get(usize::from(i))
            .copied()
            .ok_or_else(|| DecodeError::Malformed(format!("bad tag {i} in {what}")))
    }

    /// Succeed only if every byte was read, else [`DecodeError::TrailingBytes`].
    pub fn finish(self) -> Decoded<()> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(DecodeError::TrailingBytes(n)),
        }
    }
}

/// The canonical body of a loop: everything scheduling reads — op
/// classes and semantics, operand topology and distances, memory-access
/// descriptors, value classes, definitions and literal bits, array
/// shapes — and no names. The cache key hashes exactly these bytes.
pub fn encode_body(s: &mut impl Sink, lp: &Loop) {
    s.list(lp.ops(), |s, op| {
        s.tag(op.class);
        s.tag(op.sem);
        s.opt(op.result, |s, v| s.u32(v.0));
        s.list(&op.operands, |s, operand| {
            s.u32(operand.value.0);
            s.u32(operand.distance);
        });
        s.opt(op.mem, |s, m| {
            s.u32(m.array.0);
            s.i64(m.offset);
            s.i64(m.stride);
            s.bool(m.indirect);
        });
    });
    s.list(lp.values(), |s, v| {
        s.tag(v.class);
        s.opt(v.def, |s, d| s.u32(d.0));
        // Literal bits feed constant folding and strength reduction, so
        // two loops differing only in a constant must not share a key.
        s.opt(v.literal, Sink::u64);
    });
    s.list(lp.arrays(), |s, a| {
        s.u32(a.elem_bytes);
        s.u64(a.base_align);
    });
}

/// A whole loop: the canonical body, then the names section — the loop's
/// name, every value's name and every array's name, in table order.
pub fn encode_loop(s: &mut impl Sink, lp: &Loop) {
    encode_body(s, lp);
    s.str(lp.name());
    let values = lp.values().iter().map(|v| &v.name);
    for name in values.chain(lp.arrays().iter().map(|a| &a.name)) {
        s.str(name);
    }
}

/// Read back what [`encode_loop`] wrote. Any malformation is a
/// [`DecodeError`], including a body [`Loop::from_raw_parts`] rejects.
pub fn decode_loop(d: &mut Dec) -> Decoded<Loop> {
    // Minimum item sizes: an op is class, sem, result tag, operand count
    // and mem tag; an operand two `u32`s; a value is class, def tag and
    // literal tag; an array is its element size and base alignment.
    let ops = d.list(8, "loop.ops", |d, i| {
        Ok(Op {
            id: OpId(i as u32),
            class: d.tag("op.class")?,
            sem: d.tag("op.sem")?,
            result: d.opt("op.result", |d| d.u32("op.result"))?.map(ValueId),
            operands: d.list(8, "op.operands", |d, _| {
                Ok(Operand {
                    value: ValueId(d.u32("operand.value")?),
                    distance: d.u32("operand.distance")?,
                })
            })?,
            mem: d.opt("op.mem", |d| {
                Ok(MemAccess {
                    array: ArrayId(d.u32("mem.array")?),
                    offset: d.i64("mem.offset")?,
                    stride: d.i64("mem.stride")?,
                    indirect: d.bool("mem.indirect")?,
                })
            })?,
        })
    })?;
    let mut values = d.list(3, "loop.values", |d, _| {
        Ok(ValueInfo {
            class: d.tag("value.class")?,
            def: d.opt("value.def", |d| d.u32("value.def"))?.map(OpId),
            literal: d.opt("value.literal", |d| d.u64("value.literal"))?,
            name: String::new(),
        })
    })?;
    let mut arrays = d.list(12, "loop.arrays", |d, _| {
        Ok(ArrayInfo {
            elem_bytes: d.u32("array.elem_bytes")?,
            base_align: d.u64("array.base_align")?,
            name: String::new(),
        })
    })?;
    let name = d.str("loop.name")?;
    for v in &mut values {
        v.name = d.str("value.name")?;
    }
    for a in &mut arrays {
        a.name = d.str("array.name")?;
    }
    Loop::from_raw_parts(name, ops, values, arrays).map_err(DecodeError::Malformed)
}

/// Every field `Machine`'s `PartialEq` compares, so machines that differ
/// in any way — a latency, an occupancy, the bank model — never share a
/// key.
pub fn encode_machine(s: &mut impl Sink, m: &Machine) {
    s.str(m.name());
    s.u32(m.issue_width());
    for class in ResourceClass::ALL {
        s.u32(m.units(class));
    }
    for op in OpClass::ALL {
        s.u32(m.latency(op));
        s.u32(m.occupancy(op));
    }
    s.list(m.reg_files(), |s, f| {
        s.tag(f.class());
        s.u32(f.total());
        s.u32(f.allocatable());
    });
    s.opt(m.bank_model().map(BankModel::granule), Sink::u64);
}

// Every options encoder below destructures its struct exhaustively, so a
// new field that is neither keyed nor explicitly excluded (`cancel: _`,
// `telemetry: _`) fails to compile instead of silently aliasing cache
// entries. A cancel token (its deadline included) and telemetry cannot
// change what a *completed* compile produced, and truncated results are
// never memoized anyway.

fn encode_heur(s: &mut impl Sink, opts: &HeurOptions) {
    let HeurOptions {
        heuristics,
        backtrack_budget,
        bank_pairing,
        max_ii_factor,
        enable_spilling,
        two_phase_search,
        explore_stalls,
        cancel: _,
    } = opts;
    s.u8(b'H');
    s.list(heuristics, |s, &heur| s.tag(heur));
    s.u32(*backtrack_budget);
    s.bool(*bank_pairing);
    s.u32(*max_ii_factor);
    s.bool(*enable_spilling);
    s.bool(*two_phase_search);
    s.bool(*explore_stalls);
}

fn encode_most(s: &mut impl Sink, opts: &MostOptions) {
    let MostOptions {
        minimize_buffers,
        node_limit,
        pivot_limit,
        use_priority_orders,
        max_ii_factor,
        fallback,
        loop_pivot_limit,
        max_ops,
        cancel: _,
    } = opts;
    s.u8(b'M');
    s.bool(*minimize_buffers);
    s.u64(*node_limit);
    s.u64(*pivot_limit);
    s.bool(*use_priority_orders);
    s.u32(*max_ii_factor);
    s.bool(*fallback);
    s.opt(*loop_pivot_limit, Sink::u64);
    s.u64(*max_ops as u64);
}

fn encode_sat(s: &mut impl Sink, opts: &SatOptions) {
    let SatOptions {
        conflict_limit,
        propagation_limit,
        max_ii_factor,
        fallback,
        loop_conflict_limit,
        max_ops,
        cancel: _,
    } = opts;
    s.u8(b'S');
    s.u64(*conflict_limit);
    s.u64(*propagation_limit);
    s.u32(*max_ii_factor);
    s.bool(*fallback);
    s.opt(*loop_conflict_limit, Sink::u64);
    s.u64(*max_ops as u64);
}

fn encode_portfolio(s: &mut impl Sink, opts: &PortfolioOptions) {
    let PortfolioOptions {
        use_ilp,
        use_sat,
        use_heur,
        most,
        sat,
        heur,
    } = opts;
    s.u8(b'P');
    s.bool(*use_ilp);
    s.bool(*use_sat);
    s.bool(*use_heur);
    encode_most(s, most);
    encode_sat(s, sat);
    encode_heur(s, heur);
}

fn encode_ladder(s: &mut impl Sink, opts: &LadderOptions) {
    let LadderOptions {
        most,
        sat,
        heur,
        escalation_rounds,
        gate,
        start_rung,
        chaos: ChaosOptions {
            faults,
            panic_in_flight,
        },
    } = opts;
    s.u8(b'L');
    encode_most(s, most);
    encode_sat(s, sat);
    encode_heur(s, heur);
    s.u32(*escalation_rounds);
    // A demoted (lower-start) compile is a different artifact from a full
    // ladder run and must never alias one — overload demotion would
    // otherwise poison the cache (and the disk store) for quiet requests.
    s.tag(*start_rung);
    s.tag(*gate);
    // The chaos plan is part of the key: a fault-injected compile (its
    // demotions, its rung trace, possibly its gate rejections) must never
    // be served to — or pollute the memoized entry of — a quiet request
    // for the same loop.
    for &fault in faults {
        s.opt(fault, |s, f| match f {
            ChaosFault::Panic => s.u8(0),
            ChaosFault::Exhaust => s.u8(1),
            ChaosFault::Corrupt(c) => s.u8(2 + c as u8),
        });
    }
    s.bool(*panic_in_flight);
}

/// Every compile option that can change the compiled artifact. The
/// default spellings (`Heuristic`, `Ilp`, …) write exactly what their
/// explicit `XWith(default)` forms write, so the two share a key.
pub fn encode_options(s: &mut impl Sink, options: &CompileOptions) {
    let CompileOptions {
        choice,
        verify,
        opt,
        telemetry: _,
    } = options;
    match choice {
        SchedulerChoice::Heuristic => encode_heur(s, &HeurOptions::default()),
        SchedulerChoice::HeuristicWith(opts) => encode_heur(s, opts),
        SchedulerChoice::Ilp => encode_most(s, &MostOptions::default()),
        SchedulerChoice::IlpWith(opts) => encode_most(s, opts),
        SchedulerChoice::Sat => encode_sat(s, &SatOptions::default()),
        SchedulerChoice::SatWith(opts) => encode_sat(s, opts),
        SchedulerChoice::Ladder => encode_ladder(s, &LadderOptions::default()),
        SchedulerChoice::LadderWith(opts) => encode_ladder(s, opts),
        SchedulerChoice::Portfolio => encode_portfolio(s, &PortfolioOptions::default()),
        SchedulerChoice::PortfolioWith(opts) => encode_portfolio(s, opts),
    }
    s.tag(*verify);
    s.tag(*opt);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache_key_with;
    use proptest::prelude::*;
    use swp_kernels::{random_loop, GenParams};
    use swp_machine::MachineBuilder;

    /// `lp` with every name replaced: the same body.
    fn renamed(lp: &Loop) -> Loop {
        let values = lp
            .values()
            .iter()
            .map(|v| ValueInfo {
                name: format!("{}'", v.name),
                ..v.clone()
            })
            .collect();
        let arrays = lp
            .arrays()
            .iter()
            .map(|a| ArrayInfo {
                name: format!("{}'", a.name),
                ..a.clone()
            })
            .collect();
        Loop::from_raw_parts(format!("{}'", lp.name()), lp.ops().to_vec(), values, arrays)
            .expect("renaming keeps a loop valid")
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// `decode(encode(lp)) == lp`, names included, and the key is a
        /// function of the body alone: the decoded loop and a renamed one
        /// both key with the original.
        #[test]
        fn loops_round_trip_and_keys_ignore_names(
            ops in 1usize..40,
            recurrences in 0usize..3,
            seed in 0u64..1_000_000,
        ) {
            let params = GenParams { ops, recurrences, ..GenParams::default() };
            let lp = random_loop(&params, seed);
            let mut bytes = Vec::new();
            encode_loop(&mut bytes, &lp);
            let mut d = Dec::new(&bytes);
            let back = decode_loop(&mut d).expect("decodes");
            prop_assert_eq!(d.finish(), Ok(()));
            prop_assert_eq!(&back, &lp);
            let (m, o) = (Machine::r8000(), CompileOptions::default());
            let key = cache_key_with(&lp, &m, &o);
            prop_assert_eq!(cache_key_with(&back, &m, &o), key);
            let other = renamed(&lp);
            prop_assert_ne!(&other, &lp);
            prop_assert_eq!(cache_key_with(&other, &m, &o), key);
            // Streaming is hashing the buffered encoding.
            let mut body = Vec::new();
            encode_body(&mut body, &lp);
            let mut h = Fnv1a::default();
            encode_body(&mut h, &lp);
            prop_assert_eq!(h.finish(), fnv1a(&body));
            prop_assert!(bytes.starts_with(&body));
        }
    }

    #[test]
    fn machines_that_differ_never_share_a_key() {
        let lp = random_loop(&GenParams::default(), 1);
        let o = CompileOptions::default();
        let machines = [
            Machine::r8000(),
            Machine::r8000_unbanked(),
            MachineBuilder::new("m").build(),
            MachineBuilder::new("m").latency(OpClass::FAdd, 9).build(),
            MachineBuilder::new("m").occupancy(OpClass::FMul, 2).build(),
            MachineBuilder::new("m").issue_width(8).build(),
            MachineBuilder::new("m")
                .units(ResourceClass::Memory, 3)
                .build(),
            MachineBuilder::new("m")
                .allocatable(RegClass::Float, 16)
                .build(),
            MachineBuilder::new("m").banked_memory(false).build(),
        ];
        for (i, a) in machines.iter().enumerate() {
            for b in &machines[i + 1..] {
                assert_ne!(a, b, "the table lists distinct machines");
                assert_ne!(
                    cache_key_with(&lp, a, &o),
                    cache_key_with(&lp, b, &o),
                    "{a:?} and {b:?} share a key"
                );
            }
        }
        let twin = MachineBuilder::new("m").build();
        assert_eq!(
            cache_key_with(&lp, &machines[2], &o),
            cache_key_with(&lp, &twin, &o)
        );
    }

    fn indices_match<T: Tag + std::fmt::Debug>() {
        for (i, v) in T::ALL.iter().enumerate() {
            assert_eq!(v.index(), i, "{v:?} is out of place in its tag table");
        }
    }

    #[test]
    fn every_tag_table_matches_its_index() {
        indices_match::<OptLevel>();
        indices_match::<VerifyLevel>();
        indices_match::<OpClass>();
        indices_match::<RegClass>();
        indices_match::<PriorityHeuristic>();
        indices_match::<Rung>();
        indices_match::<Sem>();
    }

    #[test]
    fn out_of_range_tags_and_forged_counts_are_rejected() {
        assert!(matches!(
            Dec::new(&[3]).tag::<OptLevel>("level"),
            Err(DecodeError::Malformed(_))
        ));
        let forged = u32::MAX.to_le_bytes();
        assert!(matches!(
            decode_loop(&mut Dec::new(&forged)),
            Err(DecodeError::Malformed(m)) if m.contains("count")
        ));
    }
}
