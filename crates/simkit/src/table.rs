//! Id-ordered tables for the handful of live things a host tracks.
//!
//! Instances, container records and runtimes are numbered by a counter
//! that only grows, live a while, and are looked up by id on every
//! request. A sorted `Vec` of ids beside a `Vec` of rows answers that
//! with a binary search over one or two cache lines, appends at the
//! back, walks in id order, and — unlike a `BTreeMap` — keeps its
//! allocation when the population falls to zero and comes back.

/// A map from `u32` ids to rows, kept in id order.
#[derive(Debug, Clone)]
pub struct IdTable<T> {
    ids: Vec<u32>,
    rows: Vec<T>,
}

impl<T> Default for IdTable<T> {
    fn default() -> Self {
        IdTable {
            ids: Vec::new(),
            rows: Vec::new(),
        }
    }
}

impl<T> IdTable<T> {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// `true` when the table holds no row.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Insert `row` under `id`, returning the row it replaces. An id
    /// above every present one — the usual case — is an append.
    pub fn insert(&mut self, id: u32, row: T) -> Option<T> {
        match self.ids.binary_search(&id) {
            Ok(at) => Some(std::mem::replace(&mut self.rows[at], row)),
            Err(at) => {
                self.ids.insert(at, id);
                self.rows.insert(at, row);
                None
            }
        }
    }

    /// Remove and return the row under `id`.
    pub fn remove(&mut self, id: u32) -> Option<T> {
        let at = self.ids.binary_search(&id).ok()?;
        self.ids.remove(at);
        Some(self.rows.remove(at))
    }

    /// The row under `id`.
    pub fn get(&self, id: u32) -> Option<&T> {
        let at = self.ids.binary_search(&id).ok()?;
        Some(&self.rows[at])
    }

    /// The row under `id`, mutably.
    pub fn get_mut(&mut self, id: u32) -> Option<&mut T> {
        let at = self.ids.binary_search(&id).ok()?;
        Some(&mut self.rows[at])
    }

    /// The ids present, ascending.
    pub fn ids(&self) -> &[u32] {
        &self.ids
    }

    /// The rows, in id order.
    pub fn values(&self) -> std::slice::Iter<'_, T> {
        self.rows.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn behaves_like_a_btreemap() {
        let (mut table, mut model) = (IdTable::new(), BTreeMap::new());
        // Appends, an out-of-order insert, replacements and removals,
        // down to empty and back.
        let script: [(u32, bool); 12] = [
            (3, true),
            (5, true),
            (9, true),
            (4, true),
            (5, true),
            (3, false),
            (7, false),
            (9, false),
            (4, false),
            (5, false),
            (11, true),
            (2, true),
        ];
        for (step, (id, insert)) in script.into_iter().enumerate() {
            if insert {
                assert_eq!(table.insert(id, step), model.insert(id, step));
            } else {
                assert_eq!(table.remove(id), model.remove(&id));
            }
            assert_eq!(table.len(), model.len());
            assert_eq!(table.is_empty(), model.is_empty());
            assert!(table.ids().iter().eq(model.keys()));
            assert!(table.values().eq(model.values()));
            for probe in 0..12 {
                assert_eq!(table.get(probe), model.get(&probe));
                assert_eq!(table.get_mut(probe), model.get_mut(&probe));
            }
        }
    }
}
