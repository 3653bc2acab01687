//! Relation schemas: named attributes with discrete active domains.

use crate::domain::Domain;
use std::fmt;
use std::sync::Arc;

/// Index of an attribute within a [`Schema`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AttrId(pub usize);

impl fmt::Display for AttrId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "A{}", self.0)
    }
}

/// A named attribute with its active domain.
#[derive(Debug, Clone, PartialEq)]
pub struct Attribute {
    name: String,
    domain: Domain,
}

impl Attribute {
    /// Create an attribute.
    pub fn new(name: impl Into<String>, domain: Domain) -> Self {
        Self {
            name: name.into(),
            domain,
        }
    }

    /// Attribute name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Active domain.
    pub fn domain(&self) -> &Domain {
        &self.domain
    }
}

/// An ordered list of attributes `A = {A_1, ..., A_m}`.
#[derive(Debug, Clone, PartialEq)]
pub struct Schema {
    attributes: Vec<Attribute>,
}

impl Schema {
    /// Build a schema from attributes.
    ///
    /// # Panics
    /// Panics if two attributes share a name.
    pub fn new(attributes: Vec<Attribute>) -> Arc<Self> {
        for i in 0..attributes.len() {
            for j in (i + 1)..attributes.len() {
                assert_ne!(
                    attributes[i].name(),
                    attributes[j].name(),
                    "duplicate attribute name"
                );
            }
        }
        Arc::new(Self { attributes })
    }

    /// Number of attributes (`m` in the paper).
    pub fn arity(&self) -> usize {
        self.attributes.len()
    }

    /// Attribute by id.
    pub fn attr(&self, id: AttrId) -> &Attribute {
        &self.attributes[id.0]
    }

    /// Domain of an attribute.
    pub fn domain(&self, id: AttrId) -> &Domain {
        self.attributes[id.0].domain()
    }

    /// Resolve an attribute name to its id.
    pub fn attr_id(&self, name: &str) -> Option<AttrId> {
        self.attributes
            .iter()
            .position(|a| a.name() == name)
            .map(AttrId)
    }

    /// All attribute ids in schema order.
    pub fn attr_ids(&self) -> impl Iterator<Item = AttrId> + '_ {
        (0..self.attributes.len()).map(AttrId)
    }

    /// All attributes in schema order.
    pub fn attributes(&self) -> &[Attribute] {
        &self.attributes
    }

    /// Number of cells in the full cross-product of the active domains,
    /// saturating at `usize::MAX`.
    pub fn joint_cells(&self) -> usize {
        self.attributes
            .iter()
            .fold(1usize, |acc, a| acc.saturating_mul(a.domain().size()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Arc<Schema> {
        Schema::new(vec![
            Attribute::new("date", Domain::of("date", &["01", "02"])),
            Attribute::new("o_st", Domain::of("o_st", &["FL", "NC", "NY"])),
            Attribute::new("d_st", Domain::of("d_st", &["FL", "NC", "NY"])),
        ])
    }

    #[test]
    fn lookup_by_name_and_id() {
        let s = schema();
        assert_eq!(s.arity(), 3);
        assert_eq!(s.attr_id("o_st"), Some(AttrId(1)));
        assert_eq!(s.attr(AttrId(1)).name(), "o_st");
        assert_eq!(s.domain(AttrId(2)).size(), 3);
        assert_eq!(s.attr_id("missing"), None);
    }

    #[test]
    fn joint_cells_multiplies() {
        assert_eq!(schema().joint_cells(), 2 * 3 * 3);
    }

    #[test]
    #[should_panic(expected = "duplicate attribute")]
    fn rejects_duplicate_names() {
        Schema::new(vec![
            Attribute::new("a", Domain::indexed("a", 2)),
            Attribute::new("a", Domain::indexed("a", 3)),
        ]);
    }
}
