//! The distributed database: entities partitioned into sites.
//!
//! A distributed database is the paper's triple `D = (E, m, σ)`: a set of
//! entities, a number of sites, and the *stored-at* function `σ : E → sites`.
//!
//! Entities may optionally form a **two-level hierarchy**: an entity can
//! declare one parent (a file/relation over its records), and intention
//! modes ([`crate::LockMode`]) on the parent then announce fine-grained
//! locks below it. Flat databases — every constructor except
//! [`Database::add_child`] — have no parent links and behave exactly as
//! before.

use crate::error::ModelError;
use crate::ids::{EntityId, SiteId};
use std::collections::HashMap;
use std::sync::Arc;

/// A distributed database schema: named entities, each stored at one site,
/// optionally arranged in a two-level parent/child hierarchy.
#[derive(Clone, Debug, Default)]
pub struct Database {
    /// Each name is stored once, shared with its `by_name` key.
    names: Vec<Arc<str>>,
    sites: Vec<SiteId>,
    parents: Vec<Option<EntityId>>,
    children: HashMap<EntityId, Vec<EntityId>>,
    by_name: HashMap<Arc<str>, EntityId>,
    site_count: usize,
}

impl Database {
    /// Creates an empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a new entity `name` stored at `site`.
    ///
    /// # Panics
    /// Panics if the name is already registered (schema bugs should fail
    /// loudly at construction time).
    pub fn add_entity(&mut self, name: &str, site: SiteId) -> EntityId {
        assert!(
            !self.by_name.contains_key(name),
            "duplicate entity name {name:?}"
        );
        let id = EntityId::from_idx(self.names.len());
        let name: Arc<str> = Arc::from(name);
        self.names.push(Arc::clone(&name));
        self.sites.push(site);
        self.parents.push(None);
        self.by_name.insert(name, id);
        self.site_count = self.site_count.max(site.idx() + 1);
        id
    }

    /// Registers a new entity `name` stored at `site` as a child of
    /// `parent`, making the database hierarchical.
    ///
    /// # Panics
    /// Panics on a duplicate name, an unknown parent, or a parent that is
    /// itself a child (the hierarchy is two-level by construction).
    pub fn add_child(&mut self, name: &str, site: SiteId, parent: EntityId) -> EntityId {
        assert!(parent.idx() < self.names.len(), "unknown parent {parent}");
        assert!(
            self.parents[parent.idx()].is_none(),
            "parent {parent} is itself a child; the hierarchy is two-level"
        );
        let id = self.add_entity(name, site);
        self.parents[id.idx()] = Some(parent);
        self.children.entry(parent).or_default().push(id);
        id
    }

    /// The paper's stored-at function `σ`.
    #[inline]
    pub fn site_of(&self, e: EntityId) -> SiteId {
        self.sites[e.idx()]
    }

    /// The entity's parent, if the database is hierarchical and `e` is a
    /// child.
    pub fn parent_of(&self, e: EntityId) -> Option<EntityId> {
        self.parents[e.idx()]
    }

    /// The children of `p`, in registration order (empty for leaves and for
    /// flat databases).
    pub fn children_of(&self, p: EntityId) -> &[EntityId] {
        self.children.get(&p).map_or(&[], Vec::as_slice)
    }

    /// Number of children under `p`.
    pub fn child_count(&self, p: EntityId) -> usize {
        self.children.get(&p).map_or(0, Vec::len)
    }

    /// True when any entity declares a parent.
    pub fn is_hierarchical(&self) -> bool {
        !self.children.is_empty()
    }

    /// Entity name for display.
    pub fn name_of(&self, e: EntityId) -> &str {
        &self.names[e.idx()]
    }

    /// Looks an entity up by name.
    pub fn entity(&self, name: &str) -> Result<EntityId, ModelError> {
        self.by_name
            .get(name)
            .copied()
            .ok_or_else(|| ModelError::UnknownEntity(name.to_string()))
    }

    /// Number of entities.
    #[inline]
    pub fn entity_count(&self) -> usize {
        self.names.len()
    }

    /// Number of sites (`m`): 1 + the largest site index used.
    #[inline]
    pub fn site_count(&self) -> usize {
        self.site_count
    }

    /// All entities stored at `site`.
    pub fn entities_at(&self, site: SiteId) -> impl Iterator<Item = EntityId> + '_ {
        (0..self.entity_count())
            .map(EntityId::from_idx)
            .filter(move |&e| self.site_of(e) == site)
    }

    /// Iterates over all entity ids.
    pub fn entities(&self) -> impl Iterator<Item = EntityId> {
        (0..self.entity_count()).map(EntityId::from_idx)
    }

    /// Convenience constructor: `Database::from_spec(&[("x", 0), ("y", 1)])`.
    pub fn from_spec(spec: &[(&str, usize)]) -> Self {
        let mut db = Database::new();
        for &(name, site) in spec {
            db.add_entity(name, SiteId::from_idx(site));
        }
        db
    }

    /// A centralized (single-site) database over the given entity names.
    pub fn centralized(names: &[&str]) -> Self {
        let mut db = Database::new();
        for name in names {
            db.add_entity(name, SiteId(0));
        }
        db
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_lookup() {
        let mut db = Database::new();
        let x = db.add_entity("x", SiteId(0));
        let y = db.add_entity("y", SiteId(1));
        assert_eq!(db.entity("x").unwrap(), x);
        assert_eq!(db.site_of(y), SiteId(1));
        assert_eq!(db.name_of(x), "x");
        assert_eq!(db.entity_count(), 2);
        assert_eq!(db.site_count(), 2);
        assert!(db.entity("z").is_err());
    }

    #[test]
    #[should_panic]
    fn duplicate_name_panics() {
        let mut db = Database::new();
        db.add_entity("x", SiteId(0));
        db.add_entity("x", SiteId(1));
    }

    #[test]
    fn entities_at_site() {
        let db = Database::from_spec(&[("x", 0), ("y", 1), ("z", 0)]);
        let at0: Vec<_> = db.entities_at(SiteId(0)).collect();
        assert_eq!(at0.len(), 2);
        assert_eq!(db.site_count(), 2);
    }

    #[test]
    fn two_level_hierarchy() {
        let mut db = Database::new();
        let f = db.add_entity("f", SiteId(0));
        let r0 = db.add_child("f/0", SiteId(0), f);
        let r1 = db.add_child("f/1", SiteId(0), f);
        assert!(db.is_hierarchical());
        assert_eq!(db.parent_of(f), None);
        assert_eq!(db.parent_of(r0), Some(f));
        assert_eq!(db.children_of(f), &[r0, r1]);
        assert_eq!(db.child_count(f), 2);
        assert_eq!(db.child_count(r0), 0);
        assert!(!Database::from_spec(&[("x", 0)]).is_hierarchical());
    }

    #[test]
    #[should_panic(expected = "two-level")]
    fn three_level_hierarchy_rejected() {
        let mut db = Database::new();
        let f = db.add_entity("f", SiteId(0));
        let r = db.add_child("f/0", SiteId(0), f);
        db.add_child("f/0/0", SiteId(0), r);
    }

    #[test]
    fn centralized_uses_one_site() {
        let db = Database::centralized(&["x", "y", "z"]);
        assert_eq!(db.site_count(), 1);
        assert!(db.entities().all(|e| db.site_of(e) == SiteId(0)));
    }
}
