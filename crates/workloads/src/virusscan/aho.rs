//! From-scratch Aho–Corasick multi-pattern matcher — the signature
//! engine behind the VirusScan benchmark.

use std::collections::VecDeque;

/// A match: which pattern, ending at which byte offset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PatternMatch {
    /// Index of the matched pattern (order of insertion).
    pub pattern: usize,
    /// Byte offset one past the end of the match.
    pub end: usize,
}

/// No state: an absent trie child or sibling.
const NONE: u32 = u32::MAX;

/// One automaton state. Past the root a state has few trie children,
/// so they form a list through `child` and `sibling`, and a scan
/// follows that list and the failure links instead of a 256-entry goto
/// row per state. The root's children are in [`AhoCorasick::root`].
#[derive(Debug, Clone)]
struct State {
    /// Byte on the trie edge into this state.
    byte: u8,
    /// First trie child, or [`NONE`].
    child: u32,
    /// Next trie child of this state's parent, or [`NONE`].
    sibling: u32,
    /// Failure link: the state of the longest proper suffix of this
    /// state's path that is also a trie path.
    fail: u32,
    /// `outputs[out.0..out.1]`: the patterns ending here, own first,
    /// then those of the failure chain.
    out: (u32, u32),
}

impl State {
    fn new(byte: u8, sibling: u32) -> Self {
        State {
            byte,
            child: NONE,
            sibling,
            fail: 0,
            out: (0, 0),
        }
    }
}

/// Compiled Aho–Corasick automaton over byte patterns.
///
/// The states are the pattern trie's nodes, the root first. Only the
/// root has a dense goto row; every other state keeps its trie edges
/// and failure link, so building costs O(pattern bytes) and a scan
/// reaches, after every byte, the state a full goto table would.
#[derive(Debug, Clone)]
pub struct AhoCorasick {
    /// The root's goto row: its child on each byte, else the root.
    root: Box<[u32; 256]>,
    states: Vec<State>,
    /// Pattern indices, a run per state (see [`State::out`]).
    outputs: Vec<usize>,
}

impl AhoCorasick {
    /// Build the automaton from `patterns`. Empty patterns are ignored.
    pub fn build<P: AsRef<[u8]>>(patterns: &[P]) -> Self {
        // A state per distinct prefix: at most one per pattern byte.
        let bytes: usize = patterns.iter().map(|p| p.as_ref().len()).sum();
        let mut states = Vec::with_capacity(1 + bytes);
        states.push(State::new(0, NONE));
        let mut ac = AhoCorasick {
            root: Box::new([NONE; 256]),
            states,
            outputs: Vec::new(),
        };
        // Trie construction; `ends` pairs each pattern with its state.
        let mut ends = Vec::with_capacity(patterns.len());
        for (idx, pat) in patterns.iter().enumerate() {
            let bytes = pat.as_ref();
            if bytes.is_empty() {
                continue;
            }
            let mut cur = 0u32;
            for &b in bytes {
                cur = match ac.child(cur, b) {
                    Some(next) => next,
                    None => ac.add_child(cur, b),
                };
            }
            ends.push((cur, idx));
        }
        // Stable: a state's own patterns stay in insertion order.
        ends.sort_by_key(|&(state, _)| state);
        // BFS to set failure links and merge outputs along them; a
        // failure link points to a shallower state, done before.
        let mut queue = VecDeque::new();
        for b in 0..256 {
            match ac.root[b] {
                NONE => ac.root[b] = 0,
                child => queue.push_back(child),
            }
        }
        while let Some(u) = queue.pop_front() {
            let fail_u = ac.states[u as usize].fail;
            let start = ac.outputs.len() as u32;
            let own_from = ends.partition_point(|&(state, _)| state < u);
            let own_to = ends.partition_point(|&(state, _)| state <= u);
            ac.outputs
                .extend(ends[own_from..own_to].iter().map(|&(_, pat)| pat));
            let (lo, hi) = ac.states[fail_u as usize].out;
            ac.outputs.extend_from_within(lo as usize..hi as usize);
            ac.states[u as usize].out = (start, ac.outputs.len() as u32);
            let mut child = ac.states[u as usize].child;
            while child != NONE {
                let b = ac.states[child as usize].byte;
                ac.states[child as usize].fail = ac.next(fail_u, b);
                queue.push_back(child);
                child = ac.states[child as usize].sibling;
            }
        }
        ac
    }

    /// `state`'s trie child on `b`.
    fn child(&self, state: u32, b: u8) -> Option<u32> {
        if state == 0 {
            let child = self.root[b as usize];
            return (child != NONE).then_some(child);
        }
        let mut child = self.states[state as usize].child;
        while child != NONE {
            let s = &self.states[child as usize];
            if s.byte == b {
                return Some(child);
            }
            child = s.sibling;
        }
        None
    }

    /// Add a trie child of `state` on `b` and return it.
    fn add_child(&mut self, state: u32, b: u8) -> u32 {
        let id = self.states.len() as u32;
        let first = if state == 0 {
            &mut self.root[b as usize]
        } else {
            &mut self.states[state as usize].child
        };
        let sibling = std::mem::replace(first, id);
        self.states.push(State::new(b, sibling));
        id
    }

    /// The state after reading `b` in `state`: its trie child on `b`,
    /// else the same step from its failure link; the root's row ends
    /// the chain.
    #[inline]
    fn next(&self, mut state: u32, b: u8) -> u32 {
        loop {
            if state == 0 {
                return self.root[b as usize];
            }
            if let Some(child) = self.child(state, b) {
                return child;
            }
            state = self.states[state as usize].fail;
        }
    }

    /// Number of automaton states: the root and one per distinct
    /// pattern prefix (read by the scanner's allocation-budget test and
    /// `state_count_reflects_shared_prefixes`).
    pub fn state_count(&self) -> usize {
        self.states.len()
    }

    /// Find every match in `haystack` (overlapping included).
    pub fn find_all(&self, haystack: &[u8]) -> Vec<PatternMatch> {
        let mut out = Vec::new();
        let mut state = 0u32;
        for (i, &b) in haystack.iter().enumerate() {
            state = self.next(state, b);
            let (lo, hi) = self.states[state as usize].out;
            for &pat in &self.outputs[lo as usize..hi as usize] {
                out.push(PatternMatch {
                    pattern: pat,
                    end: i + 1,
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classic_he_she_his_hers() {
        let ac = AhoCorasick::build(&["he", "she", "his", "hers"]);
        let matches = ac.find_all(b"ushers");
        // "ushers" contains she (ends 4), he (ends 4), hers (ends 6).
        let found: Vec<(usize, usize)> = matches.iter().map(|m| (m.pattern, m.end)).collect();
        assert!(found.contains(&(1, 4)), "she");
        assert!(found.contains(&(0, 4)), "he");
        assert!(found.contains(&(3, 6)), "hers");
        assert_eq!(matches.len(), 3);
    }

    #[test]
    fn overlapping_matches_reported() {
        let ac = AhoCorasick::build(&["aa"]);
        let matches = ac.find_all(b"aaaa");
        assert_eq!(matches.len(), 3, "aa at ends 2,3,4");
    }

    #[test]
    fn no_match_in_clean_input() {
        let ac = AhoCorasick::build(&["virus", "trojan"]);
        assert!(ac.find_all(b"perfectly clean file contents").is_empty());
        assert!(ac.find_all(b"still clean").is_empty());
    }

    #[test]
    fn binary_patterns() {
        let sig: &[u8] = &[0x4D, 0x5A, 0x90, 0x00];
        let ac = AhoCorasick::build(&[sig]);
        let mut hay = vec![0u8; 100];
        hay.extend_from_slice(sig);
        hay.extend_from_slice(&[1, 2, 3]);
        let m = ac.find_all(&hay);
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].end, 104);
    }

    #[test]
    fn empty_patterns_ignored() {
        let ac = AhoCorasick::build(&["", "x"]);
        let m = ac.find_all(b"x");
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].pattern, 1);
    }

    #[test]
    fn pattern_prefix_of_another() {
        let ac = AhoCorasick::build(&["ab", "abcd"]);
        let m = ac.find_all(b"abcd");
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn state_count_reflects_shared_prefixes() {
        let ac = AhoCorasick::build(&["abc", "abd"]);
        // root + a + b + c + d = 5 states.
        assert_eq!(ac.state_count(), 5);
    }
}
