//! Data dependence graph, SCCs, MinII, and longest-path tables.
//!
//! Every dependence cycle lies inside one strongly connected component, so
//! all cycle work here is local to a component, as in §2.4 of the paper,
//! which keeps its longest-path tables only inside SCCs. RecMII
//! binary-searches each nontrivial SCC on its own, and [`LongestPaths`]
//! runs Floyd–Warshall per SCC before extending each row across the
//! acyclic condensation. A loop with no recurrence pays no cubic term.

use crate::deps::memory_deps;
use crate::op::{Loop, OpId, ValueId};
use swp_machine::Machine;

/// Kind of a dependence edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DepKind {
    /// Register flow dependence through the given value.
    Data(ValueId),
    /// Memory true dependence (store → load, same location).
    MemTrue,
    /// Memory anti dependence (load → store).
    MemAnti,
    /// Memory output dependence (store → store).
    MemOutput,
}

/// A dependence arc `from → to`: `to` must issue at least `latency` cycles
/// after `from`, `distance` iterations later. At iteration interval II the
/// scheduling constraint is `t(to) − t(from) ≥ latency − II·distance`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DepEdge {
    /// Source operation.
    pub from: OpId,
    /// Destination operation.
    pub to: OpId,
    /// Minimum cycle separation (may be 0).
    pub latency: i64,
    /// Iteration distance (0 = same iteration).
    pub distance: u32,
    /// Why the arc exists.
    pub kind: DepKind,
}

/// Identifier of a strongly connected component.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SccId(pub u32);

impl SccId {
    /// Dense index for table lookups.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One strongly connected component of the dependence graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scc {
    /// Component id.
    pub id: SccId,
    /// Member operations.
    pub members: Vec<OpId>,
    /// Whether the component contains a cycle (more than one member, or a
    /// self-arc). Trivial components impose no recurrence constraint.
    pub nontrivial: bool,
}

/// The data dependence graph of a loop on a specific machine, with the
/// analyses both schedulers need: SCCs (Tarjan), ResMII, RecMII.
///
/// # Examples
///
/// ```
/// use swp_ir::{Ddg, LoopBuilder};
/// use swp_machine::Machine;
///
/// let mut b = LoopBuilder::new("sum");
/// let x = b.array("x", 8);
/// let v = b.load(x, 0, 8);
/// let s = b.carried_f("s");
/// let s1 = b.fadd(s.value(), v);
/// b.close(s, s1, 1);
/// let lp = b.finish();
/// let ddg = Ddg::build(&lp, &Machine::r8000());
/// // fadd latency 4 over a distance-1 recurrence: RecMII = 4.
/// assert_eq!(ddg.rec_mii(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct Ddg {
    n: usize,
    edges: Vec<DepEdge>,
    succs: Vec<Vec<usize>>,
    preds: Vec<Vec<usize>>,
    sccs: Vec<Scc>,
    scc_of: Vec<SccId>,
    /// Position of each op in its component's `members`.
    scc_pos: Vec<usize>,
    res_mii: u32,
    rec_mii: u32,
}

impl Ddg {
    /// Build the graph: register flow edges from operands, memory edges
    /// from [`memory_deps`], then SCCs and MinII for `machine`.
    pub fn build(lp: &Loop, machine: &Machine) -> Ddg {
        let n = lp.len();
        let mut edges = Vec::new();
        for op in lp.ops() {
            for operand in &op.operands {
                let info = lp.value(operand.value);
                if let Some(def) = info.def {
                    let latency = i64::from(machine.latency(lp.op(def).class));
                    edges.push(DepEdge {
                        from: def,
                        to: op.id,
                        latency,
                        distance: operand.distance,
                        kind: DepKind::Data(operand.value),
                    });
                }
            }
        }
        edges.extend(memory_deps(lp));
        Ddg::from_edges(n, edges, machine.res_mii(&lp.class_counts()))
    }

    /// The graph over `n` ops with the given arcs: adjacency, SCCs, RecMII.
    fn from_edges(n: usize, edges: Vec<DepEdge>, res_mii: u32) -> Ddg {
        let mut succs = vec![Vec::new(); n];
        let mut preds = vec![Vec::new(); n];
        for (i, e) in edges.iter().enumerate() {
            succs[e.from.index()].push(i);
            preds[e.to.index()].push(i);
        }

        let (sccs, scc_of) = tarjan(n, &edges, &succs);
        let mut scc_pos = vec![0; n];
        for scc in &sccs {
            for (pos, m) in scc.members.iter().enumerate() {
                scc_pos[m.index()] = pos;
            }
        }
        let mut ddg = Ddg {
            n,
            edges,
            succs,
            preds,
            sccs,
            scc_of,
            scc_pos,
            res_mii,
            rec_mii: 1,
        };
        ddg.rec_mii = ddg.compute_rec_mii();
        ddg
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the graph is empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// All dependence edges.
    pub fn edges(&self) -> &[DepEdge] {
        &self.edges
    }

    /// Outgoing edges of an op (as indices into [`Ddg::edges`]).
    pub fn succ_edges(&self, op: OpId) -> impl Iterator<Item = &DepEdge> {
        self.succs[op.index()].iter().map(|&i| &self.edges[i])
    }

    /// Incoming edges of an op.
    pub fn pred_edges(&self, op: OpId) -> impl Iterator<Item = &DepEdge> {
        self.preds[op.index()].iter().map(|&i| &self.edges[i])
    }

    /// The strongly connected components, in reverse-topological order of
    /// discovery (successors before predecessors, Tarjan's output order).
    pub fn sccs(&self) -> &[Scc] {
        &self.sccs
    }

    /// Component of an op.
    pub fn scc_of(&self, op: OpId) -> SccId {
        self.scc_of[op.index()]
    }

    /// Whether an op belongs to a nontrivial (cyclic) component.
    pub fn in_cycle(&self, op: OpId) -> bool {
        self.sccs[self.scc_of(op).index()].nontrivial
    }

    /// The resource-constrained component of MinII.
    pub fn res_mii(&self) -> u32 {
        self.res_mii
    }

    /// The recurrence-constrained component of MinII.
    pub fn rec_mii(&self) -> u32 {
        self.rec_mii
    }

    /// `MinII = max(ResMII, RecMII)` (\[RaGl81\], §2.3 of the paper).
    pub fn min_ii(&self) -> u32 {
        self.res_mii.max(self.rec_mii)
    }

    /// RecMII: the smallest II at which no dependence cycle has positive
    /// weight. Each nontrivial SCC is binary-searched on its own, between 1
    /// and the latency sum of its internal arcs, with [`Ddg::scc_table`] as
    /// the positive-cycle test. RecMII is the largest answer, or 1 without
    /// a recurrence. The cost is Σ|S|³·log(hi) over the SCCs, where a
    /// whole-graph search would pay n³·log(Σ latency) even on a loop with
    /// no cycle.
    fn compute_rec_mii(&self) -> u32 {
        let mut rec_mii = 1;
        for scc in self.sccs.iter().filter(|s| s.nontrivial) {
            let mut lo = 1u32;
            let mut hi = latency_sum(self.internal_arcs(scc));
            if self.scc_table(scc, hi).is_none() {
                // Defensive: at its own latency sum every cycle with
                // distance ≥ 1 fits, so only a zero-distance positive cycle
                // lands here; this should be unreachable.
                return latency_sum(self.edges.iter());
            }
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if self.scc_table(scc, mid).is_some() {
                    hi = mid;
                } else {
                    lo = mid + 1;
                }
            }
            rec_mii = rec_mii.max(lo);
        }
        rec_mii
    }

    /// The arcs with both ends in `scc`.
    fn internal_arcs<'a>(&'a self, scc: &'a Scc) -> impl Iterator<Item = &'a DepEdge> + 'a {
        scc.members
            .iter()
            .flat_map(move |&m| self.succ_edges(m))
            .filter(move |e| self.scc_of(e.to) == scc.id)
    }

    /// Longest paths between the members of `scc` at `ii`, over its
    /// internal arcs: an `|S|×|S|` table indexed by position in `members`
    /// (`NEG_INF` where unreachable), or `None` if the component has a
    /// positive cycle. It is exact for every pair of members, since a path
    /// between two members of one component never leaves it.
    fn scc_table(&self, scc: &Scc, ii: u32) -> Option<Vec<i64>> {
        let k = scc.members.len();
        let mut dist = vec![NEG_INF; k * k];
        for e in self.internal_arcs(scc) {
            let cell = &mut dist[self.scc_pos[e.from.index()] * k + self.scc_pos[e.to.index()]];
            *cell = (*cell).max(weight(e, ii));
        }
        // Floyd–Warshall for longest paths (weights may be negative).
        for m in 0..k {
            for i in 0..k {
                let dim = dist[i * k + m];
                if dim <= NEG_INF {
                    continue;
                }
                for j in 0..k {
                    let dmj = dist[m * k + j];
                    if dmj <= NEG_INF {
                        continue;
                    }
                    let cand = dim + dmj;
                    if cand > dist[i * k + j] {
                        dist[i * k + j] = cand;
                    }
                }
            }
        }
        (0..k).all(|i| dist[i * k + i] <= 0).then_some(dist)
    }
}

/// `Σ max(latency, 0)` over `arcs`, at least 1: an II at which every cycle
/// with distance ≥ 1 among them fits.
fn latency_sum<'a>(arcs: impl Iterator<Item = &'a DepEdge>) -> u32 {
    arcs.map(|e| e.latency.max(0) as u32).sum::<u32>().max(1)
}

/// The scheduling weight of an arc at `ii`: `latency − ii·distance`.
fn weight(e: &DepEdge, ii: u32) -> i64 {
    e.latency - i64::from(ii) * i64::from(e.distance)
}

/// All-pairs longest paths in the II-parametric constraint graph
/// (arc weight `latency − II·distance`), used for legal-range computation.
///
/// §2.4 step 2a of the paper keeps this table inside SCCs, because every
/// recurrence lies inside one, and the computation follows it:
/// Floyd–Warshall runs per component over its internal arcs. Each
/// source's row then crosses the condensation DAG in topological order,
/// taking the best arc into each component and the best route through its
/// local table, so [`LongestPaths::get`] still answers every pair,
/// cross-component ones included. The cost is Σ|S|³ + n·(E + Σ|S|²)
/// rather than a whole-graph n³; a loop without recurrences pays only the
/// DAG passes. Longest paths are exact integer maxima, so every value is
/// the one whole-graph Floyd–Warshall gives.
#[derive(Debug, Clone)]
pub struct LongestPaths {
    n: usize,
    /// `dist[i*n + j]` = longest path weight i→j, `NEG_INF` if unreachable.
    dist: Vec<i64>,
}

const NEG_INF: i64 = i64::MIN / 4;

impl LongestPaths {
    /// Compute the table at a given II. Returns `None` when the graph has a
    /// positive-weight cycle, i.e. the II is below RecMII (infeasible).
    pub fn compute(ddg: &Ddg, ii: u32) -> Option<LongestPaths> {
        let n = ddg.len();
        let tables = ddg
            .sccs
            .iter()
            .map(|scc| ddg.scc_table(scc, ii))
            .collect::<Option<Vec<_>>>()?;
        let mut dist = vec![NEG_INF; n * n];
        let mut entry = Vec::new();
        for src in 0..n {
            let row = &mut dist[src * n..(src + 1) * n];
            // Inside its own component the row is the local table's.
            let own = ddg.scc_of[src].index();
            let members = &ddg.sccs[own].members;
            let at = ddg.scc_pos[src] * members.len();
            for (j, m) in members.iter().enumerate() {
                row[m.index()] = tables[own][at + j];
            }
            // Leaving the source itself, the empty path (0) beats its
            // cycles (≤ 0); the diagonal goes back in at the end.
            let diagonal = std::mem::replace(&mut row[src], 0);
            // Tarjan emits successors first, so every component reachable
            // from `own` has a smaller index: walk them in topological order.
            for c in (0..own).rev() {
                let members = &ddg.sccs[c].members;
                // The best arc into each member from outside the component...
                entry.clear();
                entry.extend(members.iter().map(|&v| {
                    ddg.pred_edges(v)
                        .filter(|e| {
                            ddg.scc_of(e.from).index() != c && row[e.from.index()] > NEG_INF
                        })
                        .map(|e| row[e.from.index()] + weight(e, ii))
                        .max()
                        .unwrap_or(NEG_INF)
                }));
                // ...then the best route on through the local table.
                let k = members.len();
                for (j, v) in members.iter().enumerate() {
                    row[v.index()] = entry
                        .iter()
                        .enumerate()
                        .filter(|&(i, &d)| d > NEG_INF && tables[c][i * k + j] > NEG_INF)
                        .map(|(i, &d)| d + tables[c][i * k + j])
                        .fold(entry[j], i64::max);
                }
            }
            row[src] = diagonal;
        }
        Some(LongestPaths { n, dist })
    }

    /// Longest path weight from `a` to `b`, or `None` if `b` is not
    /// reachable from `a`. On the diagonal this is the heaviest cycle
    /// through `a`, and `None` for an op on no cycle.
    pub fn get(&self, a: OpId, b: OpId) -> Option<i64> {
        let d = self.dist[a.index() * self.n + b.index()];
        (d > NEG_INF).then_some(d)
    }
}

/// Tarjan's strongly connected components, iterative to survive big loops.
fn tarjan(n: usize, edges: &[DepEdge], succs: &[Vec<usize>]) -> (Vec<Scc>, Vec<SccId>) {
    #[derive(Clone, Copy)]
    struct NodeState {
        index: i64,
        lowlink: i64,
        on_stack: bool,
    }
    let mut state = vec![
        NodeState {
            index: -1,
            lowlink: -1,
            on_stack: false
        };
        n
    ];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0i64;
    let mut sccs: Vec<Scc> = Vec::new();
    let mut scc_of = vec![SccId(0); n];

    // Explicit DFS stack of (node, edge cursor).
    for root in 0..n {
        if state[root].index != -1 {
            continue;
        }
        let mut dfs: Vec<(usize, usize)> = vec![(root, 0)];
        while let Some(&mut (v, ref mut cursor)) = dfs.last_mut() {
            if *cursor == 0 {
                state[v].index = next_index;
                state[v].lowlink = next_index;
                next_index += 1;
                stack.push(v);
                state[v].on_stack = true;
            }
            if let Some(&ei) = succs[v].get(*cursor) {
                *cursor += 1;
                let w = edges[ei].to.index();
                if state[w].index == -1 {
                    dfs.push((w, 0));
                } else if state[w].on_stack {
                    state[v].lowlink = state[v].lowlink.min(state[w].index);
                }
            } else {
                // All successors done.
                if state[v].lowlink == state[v].index {
                    let mut members = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack nonempty");
                        state[w].on_stack = false;
                        scc_of[w] = SccId(sccs.len() as u32);
                        members.push(OpId(w as u32));
                        if w == v {
                            break;
                        }
                    }
                    members.sort_unstable();
                    let nontrivial =
                        members.len() > 1 || succs[v].iter().any(|&ei| edges[ei].to.index() == v);
                    sccs.push(Scc {
                        id: SccId(sccs.len() as u32),
                        members,
                        nontrivial,
                    });
                }
                dfs.pop();
                if let Some(&mut (u, _)) = dfs.last_mut() {
                    let l = state[v].lowlink;
                    state[u].lowlink = state[u].lowlink.min(l);
                }
            }
        }
    }
    (sccs, scc_of)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::LoopBuilder;
    use swp_machine::Machine;

    fn dot_loop() -> Loop {
        let mut b = LoopBuilder::new("dot");
        let x = b.array("x", 8);
        let y = b.array("y", 8);
        let xv = b.load(x, 0, 8);
        let yv = b.load(y, 0, 8);
        let s = b.carried_f("s");
        let s1 = b.fmadd(xv, yv, s.value());
        b.close(s, s1, 1);
        b.finish()
    }

    /// A graph straight from `(from, to, latency, distance)` arcs.
    fn graph(n: usize, arcs: &[(u32, u32, i64, u32)]) -> Ddg {
        let edges = arcs
            .iter()
            .map(|&(from, to, latency, distance)| DepEdge {
                from: OpId(from),
                to: OpId(to),
                latency,
                distance,
                kind: DepKind::MemTrue,
            })
            .collect();
        Ddg::from_edges(n, edges, 1)
    }

    /// Op 0 feeds the cycle 1 → 2 → 3 → 1 (latency 8 over distance 1),
    /// which feeds op 4; two shortcuts skip part of the cycle.
    fn through_cycle() -> Ddg {
        graph(
            5,
            &[
                (0, 1, 2, 0),
                (0, 3, 1, 0),
                (1, 2, 3, 0),
                (2, 3, 4, 0),
                (3, 1, 1, 1),
                (3, 4, 5, 0),
                (1, 4, 1, 0),
            ],
        )
    }

    #[test]
    fn dot_product_recurrence() {
        let m = Machine::r8000();
        let lp = dot_loop();
        let ddg = Ddg::build(&lp, &m);
        // fmadd feeding itself at distance 1: RecMII = latency = 4.
        assert_eq!(ddg.rec_mii(), 4);
        assert_eq!(ddg.min_ii(), 4);
        let madd = lp.ops()[2].id;
        assert!(ddg.in_cycle(madd));
        assert!(!ddg.in_cycle(lp.ops()[0].id));
    }

    #[test]
    fn straightline_has_rec_mii_one() {
        let m = Machine::r8000();
        let mut b = LoopBuilder::new("t");
        let x = b.array("x", 8);
        let y = b.array("y", 8);
        let v = b.load(x, 0, 8);
        let w = b.fadd(v, v);
        b.store(y, 0, 8, w);
        let ddg = Ddg::build(&b.finish(), &m);
        assert_eq!(ddg.rec_mii(), 1);
        // 2 memory refs on 2 pipes and 3 ops on 4 issue slots: ResMII = 1.
        assert_eq!(ddg.res_mii(), 1);
        assert_eq!(ddg.min_ii(), 1);
    }

    #[test]
    fn longest_paths_detect_infeasible_ii() {
        let m = Machine::r8000();
        let ddg = Ddg::build(&dot_loop(), &m);
        assert!(LongestPaths::compute(&ddg, 3).is_none());
        assert!(LongestPaths::compute(&ddg, 4).is_some());
    }

    #[test]
    fn longest_paths_values() {
        let m = Machine::r8000();
        let lp = dot_loop();
        let ddg = Ddg::build(&lp, &m);
        let lps = LongestPaths::compute(&ddg, 4).expect("feasible");
        let load = lp.ops()[0].id;
        let madd = lp.ops()[2].id;
        // load → fmadd: latency 4 at distance 0.
        assert_eq!(lps.get(load, madd), Some(4));
        // fmadd self-cycle at II=4 has weight 0.
        assert_eq!(lps.get(madd, madd), Some(0));
        assert_eq!(lps.get(madd, load), None);
    }

    #[test]
    fn scc_partition_covers_all_ops() {
        let m = Machine::r8000();
        let lp = dot_loop();
        let ddg = Ddg::build(&lp, &m);
        let total: usize = ddg.sccs().iter().map(|s| s.members.len()).sum();
        assert_eq!(total, lp.len());
        for op in lp.ops() {
            let scc = &ddg.sccs()[ddg.scc_of(op.id).index()];
            assert!(scc.members.contains(&op.id));
        }
    }

    #[test]
    fn cross_iteration_chain_rec_mii() {
        // v = load; w = v + w_prev(dist 2): cycle latency 4 over distance 2
        // → RecMII = 2.
        let m = Machine::r8000();
        let mut b = LoopBuilder::new("t");
        let x = b.array("x", 8);
        let v = b.load(x, 0, 8);
        let s = b.carried_f("s");
        let s1 = b.fadd(v, s.value());
        b.close(s, s1, 2);
        let ddg = Ddg::build(&b.finish(), &m);
        assert_eq!(ddg.rec_mii(), 2);
    }

    #[test]
    fn longest_path_crosses_three_components() {
        let ddg = through_cycle();
        assert_eq!(ddg.sccs().len(), 3);
        assert_eq!(ddg.rec_mii(), 8);
        let op = OpId;
        let lps = LongestPaths::compute(&ddg, 8).expect("feasible at RecMII");
        // 0 → 1 → 2 → 3 → 4 beats both shortcuts (0 → 3 → 4 = 6, 0 → 1 → 4 = 3).
        assert_eq!(lps.get(op(0), op(4)), Some(2 + 3 + 4 + 5));
        // Into the cycle and around its back arc: 0 → 1 → 2 → 3 → 1 = 2 + 0.
        assert_eq!(lps.get(op(0), op(1)), Some(2));
        assert_eq!(lps.get(op(2), op(1)), Some(4 + 1 - 8));
        assert_eq!(lps.get(op(4), op(0)), None);
        assert_eq!(lps.get(op(1), op(0)), None);
        assert!(LongestPaths::compute(&ddg, 7).is_none());
    }

    #[test]
    fn zero_distance_positive_cycle_keeps_the_defensive_rec_mii() {
        // 0 ⇄ 1 at distance 0 has weight 5 at every II; the arc 1 → 2 lies
        // outside it, so the component's own latency sum (5) is not the
        // whole graph's (12).
        let ddg = graph(3, &[(0, 1, 2, 0), (1, 0, 3, 0), (1, 2, 7, 0)]);
        assert_eq!(ddg.rec_mii(), 12);
        assert!(LongestPaths::compute(&ddg, 12).is_none());
    }

    #[test]
    fn diagonal_is_the_cycle_weight_on_a_cycle_and_none_off_it() {
        let ddg = through_cycle();
        let op = OpId;
        for ii in [8, 9, 12] {
            let lps = LongestPaths::compute(&ddg, ii).expect("feasible");
            assert_eq!(lps.get(op(0), op(0)), None);
            assert_eq!(lps.get(op(4), op(4)), None);
            for i in 1..=3 {
                assert_eq!(lps.get(op(i), op(i)), Some(8 - i64::from(ii)));
            }
        }
    }
}
