//! Workspace symbol graph for the cross-file analyze rules.
//!
//! Consumes per-file [`crate::parse::FileFacts`] and builds
//! a call graph with conservative name resolution, then closes lock
//! acquisition and blocking behaviour over call edges. Resolution is
//! deliberately under-approximate: a call that cannot be matched to
//! exactly one workspace function produces no edge. That keeps the
//! lock-order rule free of edges that do not exist, at the cost of
//! missing edges through trait objects and closures (documented in
//! DESIGN.md §"Cross-file analysis").

use std::collections::{BTreeMap, BTreeSet};

use crate::parse::FileFacts;

/// One function node after cross-file linking.
#[derive(Debug, Default)]
pub struct FnNode {
    /// `crate_dir::Type::name` or `crate_dir::name`.
    pub symbol: String,
    pub rel_path: String,
    /// Indices of resolved callees: `(callee, call line, held locks)`.
    pub calls: Vec<(usize, usize, Vec<String>)>,
    /// Direct lock acquisitions: `(lock id, line)`.
    pub acquires: Vec<(String, usize)>,
    /// Direct `(held, acquired, line)` order observations.
    pub ordered: Vec<(String, String, usize)>,
    /// Direct `(lock, blocking call, line)` observations.
    pub blocking_holding: Vec<(String, String, usize)>,
    /// Direct blocking calls: `(name, line)`.
    pub blocking: Vec<(String, usize)>,
    /// Locks acquired by this function or anything it (transitively)
    /// calls.
    pub trans_acquires: BTreeSet<String>,
    /// Blocking primitives reachable from this function.
    pub trans_blocks: BTreeSet<String>,
}

/// The linked workspace graph.
#[derive(Debug, Default)]
pub struct Graph {
    pub fns: Vec<FnNode>,
}

impl Graph {
    /// Links per-file facts into a call graph and runs the lock and
    /// blocking fixpoints.
    pub fn build(files: &[FileFacts]) -> Graph {
        let mut g = Graph::default();
        // Node per function; lock ids get crate-qualified here so the
        // same field name in two crates stays two locks.
        for facts in files {
            for f in &facts.fns {
                let qual = |lock: &str| format!("{}::{}", facts.crate_dir, lock);
                g.fns.push(FnNode {
                    symbol: format!("{}::{}", facts.crate_dir, f.name),
                    rel_path: facts.rel_path.clone(),
                    calls: Vec::new(),
                    acquires: f.acquires.iter().map(|(l, n)| (qual(l), *n)).collect(),
                    ordered: f
                        .ordered
                        .iter()
                        .map(|(a, b, n)| (qual(a), qual(b), *n))
                        .collect(),
                    blocking_holding: f
                        .blocking_holding
                        .iter()
                        .map(|(l, b, n)| (qual(l), b.clone(), *n))
                        .collect(),
                    blocking: f.blocking.clone(),
                    trans_acquires: BTreeSet::new(),
                    trans_blocks: BTreeSet::new(),
                });
            }
        }

        // Resolution tables. `full` maps `Type::name` / free `name`
        // within a crate; `by_simple` and `by_method` map bare names
        // workspace-wide when unique.
        let mut full: BTreeMap<String, usize> = BTreeMap::new();
        let mut by_simple: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        let mut by_method: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (idx, node) in g.fns.iter().enumerate() {
            full.insert(node.symbol.clone(), idx);
            let local = node
                .symbol
                .split_once("::")
                .map_or(node.symbol.as_str(), |x| x.1);
            let simple = local.rsplit("::").next().unwrap_or(local);
            by_simple.entry(simple.to_string()).or_default().push(idx);
            if local.contains("::") {
                by_method.entry(simple.to_string()).or_default().push(idx);
            }
        }

        // Resolve call sites. Iterate over the same file order used to
        // create nodes so indices line up.
        let mut node_idx = 0;
        for facts in files {
            for f in &facts.fns {
                let mut resolved = Vec::new();
                for c in &f.calls {
                    let target = if let Some(q) = &c.qualifier {
                        // `Type::name(..)`: exact within the crate.
                        full.get(&format!("{}::{}::{}", facts.crate_dir, q, c.name))
                            .copied()
                    } else if c.is_method {
                        // `.name(..)`: unique method name wins.
                        match by_method.get(&c.name).map(Vec::as_slice) {
                            Some([one]) => Some(*one),
                            _ => None,
                        }
                    } else {
                        // Free call: same-crate free fn first, else a
                        // workspace-unique simple name.
                        full.get(&format!("{}::{}", facts.crate_dir, c.name))
                            .copied()
                            .or_else(|| match by_simple.get(&c.name).map(Vec::as_slice) {
                                Some([one]) => Some(*one),
                                _ => None,
                            })
                    };
                    if let Some(t) = target {
                        let qual_held: Vec<String> = c
                            .held
                            .iter()
                            .map(|l| format!("{}::{}", facts.crate_dir, l))
                            .collect();
                        resolved.push((t, c.line, qual_held));
                    }
                }
                g.fns[node_idx].calls = resolved;
                node_idx += 1;
            }
        }

        g.fixpoint();
        g
    }

    /// Propagates acquisitions and blocking calls backwards over call
    /// edges until stable.
    fn fixpoint(&mut self) {
        for node in &mut self.fns {
            node.trans_acquires = node.acquires.iter().map(|(l, _)| l.clone()).collect();
            node.trans_blocks = node.blocking.iter().map(|(b, _)| b.clone()).collect();
        }
        loop {
            let mut changed = false;
            for i in 0..self.fns.len() {
                let callees: Vec<usize> = self.fns[i].calls.iter().map(|(t, _, _)| *t).collect();
                let mut add_acq = Vec::new();
                let mut add_blk = Vec::new();
                for t in callees {
                    for l in &self.fns[t].trans_acquires {
                        if !self.fns[i].trans_acquires.contains(l) {
                            add_acq.push(l.clone());
                        }
                    }
                    for b in &self.fns[t].trans_blocks {
                        if !self.fns[i].trans_blocks.contains(b) {
                            add_blk.push(b.clone());
                        }
                    }
                }
                if !add_acq.is_empty() || !add_blk.is_empty() {
                    changed = true;
                    self.fns[i].trans_acquires.extend(add_acq);
                    self.fns[i].trans_blocks.extend(add_blk);
                }
            }
            if !changed {
                break;
            }
        }
    }

    /// All lock-order edges `(held → acquired, evidence)`: direct
    /// intra-function observations plus call edges taken while a lock
    /// is held into functions that (transitively) acquire another.
    pub fn lock_edges(&self) -> Vec<LockEdge> {
        let mut edges = Vec::new();
        for node in &self.fns {
            for (a, b, line) in &node.ordered {
                edges.push(LockEdge {
                    held: a.clone(),
                    acquired: b.clone(),
                    rel_path: node.rel_path.clone(),
                    line: *line,
                    via: None,
                });
            }
            for (target, line, held) in &node.calls {
                let callee = &self.fns[*target];
                for h in held {
                    for acq in &callee.trans_acquires {
                        if acq != h {
                            edges.push(LockEdge {
                                held: h.clone(),
                                acquired: acq.clone(),
                                rel_path: node.rel_path.clone(),
                                line: *line,
                                via: Some(callee.symbol.clone()),
                            });
                        }
                    }
                }
            }
        }
        edges
    }

    /// Blocking-while-holding observations, direct and through calls:
    /// `(lock, blocking primitive, path, line, via)`.
    pub fn blocking_while_held(&self) -> Vec<(String, String, String, usize, Option<String>)> {
        let mut out = Vec::new();
        for node in &self.fns {
            for (lock, block, line) in &node.blocking_holding {
                out.push((
                    lock.clone(),
                    block.clone(),
                    node.rel_path.clone(),
                    *line,
                    None,
                ));
            }
            for (target, line, held) in &node.calls {
                let callee = &self.fns[*target];
                for h in held {
                    for b in &callee.trans_blocks {
                        out.push((
                            h.clone(),
                            b.clone(),
                            node.rel_path.clone(),
                            *line,
                            Some(callee.symbol.clone()),
                        ));
                    }
                }
            }
        }
        out
    }
}

/// One edge in the lock acquisition-order graph.
#[derive(Debug, Clone)]
pub struct LockEdge {
    pub held: String,
    pub acquired: String,
    pub rel_path: String,
    pub line: usize,
    /// The callee the second acquisition happens through, if indirect.
    pub via: Option<String>,
}

/// Finds cycles in the acquisition-order graph. Returns one
/// representative cycle per strongly-connected knot, each as the list
/// of edges walked, deduplicated by lock set.
pub fn lock_cycles(edges: &[LockEdge]) -> Vec<Vec<LockEdge>> {
    // Adjacency: lock -> outgoing edges.
    let mut adj: BTreeMap<&str, Vec<&LockEdge>> = BTreeMap::new();
    for e in edges {
        adj.entry(&e.held).or_default().push(e);
    }
    let mut cycles: Vec<Vec<LockEdge>> = Vec::new();
    let mut seen_sets: BTreeSet<Vec<String>> = BTreeSet::new();

    // Self-edges (re-entrant acquisition) are cycles of length one.
    for e in edges {
        if e.held == e.acquired {
            let key = vec![e.held.clone()];
            if seen_sets.insert(key) {
                cycles.push(vec![e.clone()]);
            }
        }
    }

    // DFS from each lock looking for a path back to the start.
    let locks: BTreeSet<&str> = edges
        .iter()
        .flat_map(|e| [e.held.as_str(), e.acquired.as_str()])
        .collect();
    for &start in &locks {
        let mut stack: Vec<(&str, Vec<&LockEdge>)> = vec![(start, Vec::new())];
        let mut visited: BTreeSet<&str> = BTreeSet::new();
        while let Some((at, path)) = stack.pop() {
            for e in adj.get(at).map(Vec::as_slice).unwrap_or_default() {
                if e.held == e.acquired {
                    continue; // handled above
                }
                if e.acquired == start && (!path.is_empty() || at == start) {
                    let mut cycle: Vec<LockEdge> = path.iter().map(|&p| p.clone()).collect();
                    cycle.push((*e).clone());
                    let mut key: Vec<String> = cycle.iter().map(|e| e.held.clone()).collect();
                    key.sort();
                    key.dedup();
                    if seen_sets.insert(key) {
                        cycles.push(cycle);
                    }
                    continue;
                }
                if visited.insert(&e.acquired) {
                    let mut next = path.clone();
                    next.push(e);
                    stack.push((&e.acquired, next));
                }
            }
        }
    }
    cycles
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_file;
    use crate::workspace::classify;

    fn facts(path: &str, src: &str) -> FileFacts {
        parse_file(&classify(path), src)
    }

    #[test]
    fn resolves_cross_file_calls_and_closes_acquisitions() {
        let a = facts(
            "crates/monitor/src/a.rs",
            "fn outer(m: &Mutex<u8>) {\n\
                 let g = m.lock().unwrap();\n\
                 inner_helper();\n\
             }\n",
        );
        let b = facts(
            "crates/monitor/src/b.rs",
            "fn inner_helper() {\n\
                 let g = OTHER.lock().unwrap();\n\
             }\n",
        );
        let g = Graph::build(&[a, b]);
        let outer = g.fns.iter().find(|f| f.symbol.ends_with("outer")).unwrap();
        assert_eq!(outer.calls.len(), 1);
        assert!(outer.trans_acquires.contains("monitor::OTHER"));
        let edges = g.lock_edges();
        assert!(edges
            .iter()
            .any(|e| e.held == "monitor::m" && e.acquired == "monitor::OTHER"));
    }

    #[test]
    fn ambiguous_names_resolve_to_nothing() {
        let a = facts("crates/monitor/src/a.rs", "fn dup() {}\n");
        let b = facts("crates/cluster/src/b.rs", "fn dup() {}\n");
        let c = facts("crates/telemetry/src/c.rs", "fn caller() { dup(); }\n");
        let g = Graph::build(&[a, b, c]);
        let caller = g.fns.iter().find(|f| f.symbol.ends_with("caller")).unwrap();
        assert!(caller.calls.is_empty(), "two candidates → no edge");
    }

    #[test]
    fn same_crate_free_fn_beats_workspace_uniqueness() {
        let a = facts("crates/monitor/src/a.rs", "fn helper() {}\n");
        let b = facts("crates/monitor/src/b.rs", "fn caller() { helper(); }\n");
        let g = Graph::build(&[a, b]);
        let caller = g.fns.iter().find(|f| f.symbol.ends_with("caller")).unwrap();
        assert_eq!(caller.calls.len(), 1);
    }

    #[test]
    fn detects_two_lock_cycles() {
        let src_a = "fn ab(a: &Mutex<u8>, b: &Mutex<u8>) {\n\
                         let ga = a.lock().unwrap();\n\
                         let gb = b.lock().unwrap();\n\
                     }\n";
        let src_b = "fn ba(a: &Mutex<u8>, b: &Mutex<u8>) {\n\
                         let gb = b.lock().unwrap();\n\
                         let ga = a.lock().unwrap();\n\
                     }\n";
        let g = Graph::build(&[
            facts("crates/monitor/src/x.rs", src_a),
            facts("crates/monitor/src/y.rs", src_b),
        ]);
        let cycles = lock_cycles(&g.lock_edges());
        assert_eq!(cycles.len(), 1, "{cycles:?}");
        assert!(cycles[0].len() >= 2);
    }

    #[test]
    fn consistent_order_has_no_cycle() {
        let src = "fn one(a: &Mutex<u8>, b: &Mutex<u8>) {\n\
                       let ga = a.lock().unwrap();\n\
                       let gb = b.lock().unwrap();\n\
                   }\n\
                   fn two(a: &Mutex<u8>, b: &Mutex<u8>) {\n\
                       let ga = a.lock().unwrap();\n\
                       let gb = b.lock().unwrap();\n\
                   }\n";
        let g = Graph::build(&[facts("crates/monitor/src/x.rs", src)]);
        assert!(lock_cycles(&g.lock_edges()).is_empty());
    }

    #[test]
    fn reentrant_lock_is_a_self_cycle() {
        let src = "fn re(a: &Mutex<u8>) {\n\
                       let g1 = a.lock().unwrap();\n\
                       let g2 = a.lock().unwrap();\n\
                   }\n";
        let g = Graph::build(&[facts("crates/monitor/src/x.rs", src)]);
        let cycles = lock_cycles(&g.lock_edges());
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0].len(), 1);
    }

    #[test]
    fn blocking_through_a_call_edge_is_found() {
        let a = facts(
            "crates/monitor/src/a.rs",
            "fn waits_inside() { std::thread::sleep(d); }\n",
        );
        let b = facts(
            "crates/monitor/src/b.rs",
            "fn holder(m: &Mutex<u8>) {\n\
                 let g = m.lock().unwrap();\n\
                 waits_inside();\n\
             }\n",
        );
        let g = Graph::build(&[a, b]);
        let hits = g.blocking_while_held();
        assert!(hits
            .iter()
            .any(|(lock, block, _, _, via)| lock == "monitor::m"
                && block == "sleep"
                && via.is_some()));
    }
}
