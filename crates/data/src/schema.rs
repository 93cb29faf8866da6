//! Dataset schema: the description of every dense and sparse feature carried
//! by a training sample.
//!
//! The schema is the single source of truth shared by the workload generator
//! (which needs per-feature update probabilities and lengths), the storage
//! layer (which flattens each feature into its own column), the reader tier
//! (which converts rows into KJTs/IKJTs), and the trainer (which maps sparse
//! features onto embedding tables).

use crate::error::DataError;
use crate::ids::FeatureId;
use crate::sample::Sample;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// Identifies a deduplication group: a set of sparse features that are
/// updated synchronously across a session's samples and therefore share an
/// `inverse_lookup` slice when encoded as a grouped IKJT (paper §4.2).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct DedupGroupId(u32);

impl DedupGroupId {
    /// Creates a group id from its raw value.
    pub const fn new(raw: u32) -> Self {
        Self(raw)
    }

    /// Returns the raw value.
    pub const fn raw(self) -> u32 {
        self.0
    }

    /// Returns the group id as a `usize` index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for DedupGroupId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DedupGroup({})", self.0)
    }
}

/// The physical kind of a sparse feature column (paper §2.1, Figure 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FeatureKind {
    /// A variable-length list of categorical ids (`map<int, list[int]>`).
    IdList,
    /// A variable-length list of `(id, score)` pairs (`map<int, map<int, float>>`).
    ScoreList,
}

impl fmt::Display for FeatureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FeatureKind::IdList => write!(f, "id-list"),
            FeatureKind::ScoreList => write!(f, "score-list"),
        }
    }
}

/// Whether a sparse feature reflects user, item, or request-context traits.
///
/// User features (e.g. "last N liked item ids") are highly duplicated across
/// a session's samples; item features (the candidate being ranked) are not
/// (paper §3, Figure 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FeatureClass {
    /// Derived from the user's history; mostly static within a session.
    User,
    /// Derived from the candidate item; changes across impressions.
    Item,
    /// Derived from the request context (device, surface, time of day).
    Context,
}

impl fmt::Display for FeatureClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FeatureClass::User => write!(f, "user"),
            FeatureClass::Item => write!(f, "item"),
            FeatureClass::Context => write!(f, "context"),
        }
    }
}

/// Description of a single dense (float) feature.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DenseFeatureSpec {
    /// Positional id of this feature within the schema's dense section.
    pub id: FeatureId,
    /// Human-readable feature name, unique within the schema.
    pub name: String,
}

/// Description of a single sparse feature.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SparseFeatureSpec {
    /// Positional id of this feature within the schema's sparse section.
    pub id: FeatureId,
    /// Human-readable feature name, unique within the schema.
    pub name: String,
    /// Physical column kind.
    pub kind: FeatureKind,
    /// Whether the feature reflects user, item, or context traits.
    pub class: FeatureClass,
    /// Average list length `l(f)` used by the analytical DedupeFactor model
    /// and by the workload generator.
    pub avg_len: f64,
    /// The paper's `d(f)`: the probability that the feature's value remains
    /// identical across two adjacent samples of the same session.
    pub stay_prob: f64,
    /// Size of the categorical id space the values are drawn from.
    pub cardinality: u64,
    /// Embedding dimension used when this feature is looked up in an
    /// embedding table.
    pub embedding_dim: usize,
    /// Deduplication group this feature belongs to, if it is configured for
    /// IKJT encoding. `None` means the feature stays in KJT form.
    pub dedup_group: Option<DedupGroupId>,
}

/// The full dataset schema: dense features, sparse features, and dedup-group
/// declarations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Schema {
    dense: Vec<DenseFeatureSpec>,
    sparse: Vec<SparseFeatureSpec>,
    group_count: u32,
    #[serde(skip)]
    sparse_by_name: HashMap<String, FeatureId>,
}

impl Schema {
    /// Starts building a schema.
    pub fn builder() -> SchemaBuilder {
        SchemaBuilder::new()
    }

    /// Number of dense features.
    pub fn dense_count(&self) -> usize {
        self.dense.len()
    }

    /// Number of sparse features.
    pub fn sparse_count(&self) -> usize {
        self.sparse.len()
    }

    /// Number of declared deduplication groups.
    pub fn dedup_group_count(&self) -> usize {
        self.group_count as usize
    }

    /// Returns the dense feature specs in positional order.
    pub fn dense_features(&self) -> &[DenseFeatureSpec] {
        &self.dense
    }

    /// Returns the sparse feature specs in positional order.
    pub fn sparse_features(&self) -> &[SparseFeatureSpec] {
        &self.sparse
    }

    /// Looks up a sparse feature spec by id.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::UnknownFeature`] if the id is out of range.
    pub fn sparse(&self, id: FeatureId) -> Result<&SparseFeatureSpec, DataError> {
        self.sparse
            .get(id.index())
            .ok_or(DataError::UnknownFeature {
                feature: id.raw(),
                count: self.sparse.len(),
            })
    }

    /// Looks up a sparse feature spec by name.
    pub fn sparse_by_name(&self, name: &str) -> Option<&SparseFeatureSpec> {
        self.sparse_by_name
            .get(name)
            .and_then(|id| self.sparse.get(id.index()))
    }

    /// Returns the sparse feature ids belonging to the given dedup group, in
    /// positional order.
    pub fn group_members(&self, group: DedupGroupId) -> Vec<FeatureId> {
        self.sparse
            .iter()
            .filter(|f| f.dedup_group == Some(group))
            .map(|f| f.id)
            .collect()
    }

    /// Returns every declared dedup group id together with its member
    /// features, in group order. Groups with no members are included (empty).
    pub fn groups(&self) -> Vec<(DedupGroupId, Vec<FeatureId>)> {
        (0..self.group_count)
            .map(DedupGroupId::new)
            .map(|g| (g, self.group_members(g)))
            .collect()
    }

    /// Returns the ids of sparse features that are *not* part of any dedup
    /// group (and therefore stay KJT-encoded).
    pub fn undeduplicated_sparse(&self) -> Vec<FeatureId> {
        self.sparse
            .iter()
            .filter(|f| f.dedup_group.is_none())
            .map(|f| f.id)
            .collect()
    }

    /// Validates that a sample's dense and sparse arities match this schema.
    ///
    /// # Errors
    ///
    /// Returns an arity-mismatch error if the sample does not match.
    pub fn validate_sample(&self, sample: &Sample) -> Result<(), DataError> {
        if sample.dense.len() != self.dense.len() {
            return Err(DataError::DenseArityMismatch {
                expected: self.dense.len(),
                actual: sample.dense.len(),
            });
        }
        if sample.sparse.len() != self.sparse.len() {
            return Err(DataError::SparseArityMismatch {
                expected: self.sparse.len(),
                actual: sample.sparse.len(),
            });
        }
        Ok(())
    }

    /// Rebuilds the name lookup table. Called automatically by the builder;
    /// exposed for deserialized schemas whose lookup table was skipped.
    pub fn rebuild_index(&mut self) {
        self.sparse_by_name = self.sparse.iter().map(|f| (f.name.clone(), f.id)).collect();
    }
}

/// Incrementally builds a [`Schema`].
///
/// # Example
///
/// ```
/// use recd_data::{Schema, FeatureClass, FeatureKind};
///
/// let schema = Schema::builder()
///     .dense("time_of_day")
///     .sparse("f_like", FeatureClass::User, 100.0, 0.9, 1 << 20)
///     .sparse("f_item", FeatureClass::Item, 1.0, 0.1, 1 << 24)
///     .build()
///     .expect("valid schema");
/// assert_eq!(schema.dense_count(), 1);
/// assert_eq!(schema.sparse_count(), 2);
/// ```
#[derive(Debug, Default)]
pub struct SchemaBuilder {
    dense: Vec<DenseFeatureSpec>,
    sparse: Vec<SparseFeatureSpec>,
    group_count: u32,
    names: HashMap<String, ()>,
    error: Option<DataError>,
}

impl SchemaBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    fn register_name(&mut self, name: &str) {
        if self.error.is_none() && self.names.insert(name.to_string(), ()).is_some() {
            self.error = Some(DataError::DuplicateFeatureName {
                name: name.to_string(),
            });
        }
    }

    /// Adds a dense (float) feature.
    pub fn dense(mut self, name: &str) -> Self {
        self.register_name(name);
        let id = FeatureId::new(self.dense.len() as u32);
        self.dense.push(DenseFeatureSpec {
            id,
            name: name.to_string(),
        });
        self
    }

    /// Adds a sparse id-list feature with default embedding dimension 64 and
    /// no dedup group.
    pub fn sparse(
        self,
        name: &str,
        class: FeatureClass,
        avg_len: f64,
        stay_prob: f64,
        cardinality: u64,
    ) -> Self {
        self.sparse_with(name, class, avg_len, stay_prob, cardinality, 64, None)
    }

    /// Adds a sparse id-list feature with full control over embedding
    /// dimension and dedup group membership.
    #[allow(clippy::too_many_arguments)]
    pub fn sparse_with(
        mut self,
        name: &str,
        class: FeatureClass,
        avg_len: f64,
        stay_prob: f64,
        cardinality: u64,
        embedding_dim: usize,
        dedup_group: Option<DedupGroupId>,
    ) -> Self {
        self.register_name(name);
        let id = FeatureId::new(self.sparse.len() as u32);
        self.sparse.push(SparseFeatureSpec {
            id,
            name: name.to_string(),
            kind: FeatureKind::IdList,
            class,
            avg_len,
            stay_prob: stay_prob.clamp(0.0, 1.0),
            cardinality: cardinality.max(1),
            embedding_dim: embedding_dim.max(1),
            dedup_group,
        });
        self
    }

    /// Declares `count` dedup groups (ids `0..count`). Sparse features added
    /// with a `dedup_group` must reference one of the declared groups.
    pub fn dedup_groups(mut self, count: u32) -> Self {
        self.group_count = self.group_count.max(count);
        self
    }

    /// Finalizes the schema.
    ///
    /// # Errors
    ///
    /// Returns an error if a feature name was duplicated or a dedup group was
    /// referenced but never declared.
    pub fn build(self) -> Result<Schema, DataError> {
        if let Some(err) = self.error {
            return Err(err);
        }
        for f in &self.sparse {
            if let Some(g) = f.dedup_group {
                if g.raw() >= self.group_count {
                    return Err(DataError::UnknownDedupGroup { group: g.raw() });
                }
            }
        }
        let mut schema = Schema {
            dense: self.dense,
            sparse: self.sparse,
            group_count: self.group_count,
            sparse_by_name: HashMap::new(),
        };
        schema.rebuild_index();
        Ok(schema)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{RequestId, SessionId, Timestamp};

    fn small_schema() -> Schema {
        Schema::builder()
            .dense("d0")
            .dense("d1")
            .dedup_groups(2)
            .sparse_with(
                "f_like",
                FeatureClass::User,
                50.0,
                0.9,
                1 << 20,
                64,
                Some(DedupGroupId::new(0)),
            )
            .sparse_with(
                "f_share",
                FeatureClass::User,
                30.0,
                0.95,
                1 << 20,
                64,
                Some(DedupGroupId::new(0)),
            )
            .sparse("f_item", FeatureClass::Item, 1.0, 0.1, 1 << 24)
            .build()
            .unwrap()
    }

    #[test]
    fn builder_assigns_positional_ids() {
        let schema = small_schema();
        assert_eq!(schema.dense_count(), 2);
        assert_eq!(schema.sparse_count(), 3);
        assert_eq!(schema.sparse_features()[0].id, FeatureId::new(0));
        assert_eq!(schema.sparse_features()[2].id, FeatureId::new(2));
        assert_eq!(schema.dedup_group_count(), 2);
    }

    #[test]
    fn group_membership_and_undeduplicated() {
        let schema = small_schema();
        let members = schema.group_members(DedupGroupId::new(0));
        assert_eq!(members, vec![FeatureId::new(0), FeatureId::new(1)]);
        assert!(schema.group_members(DedupGroupId::new(1)).is_empty());
        assert_eq!(schema.undeduplicated_sparse(), vec![FeatureId::new(2)]);
        assert_eq!(schema.groups().len(), 2);
    }

    #[test]
    fn lookup_by_name_and_id() {
        let schema = small_schema();
        assert_eq!(
            schema.sparse_by_name("f_item").unwrap().class,
            FeatureClass::Item
        );
        assert!(schema.sparse_by_name("missing").is_none());
        assert!(schema.sparse(FeatureId::new(2)).is_ok());
        assert!(matches!(
            schema.sparse(FeatureId::new(99)),
            Err(DataError::UnknownFeature { .. })
        ));
    }

    #[test]
    fn duplicate_names_rejected() {
        let err = Schema::builder()
            .sparse("dup", FeatureClass::User, 1.0, 0.5, 10)
            .sparse("dup", FeatureClass::Item, 1.0, 0.5, 10)
            .build()
            .unwrap_err();
        assert!(matches!(err, DataError::DuplicateFeatureName { .. }));
    }

    #[test]
    fn undeclared_group_rejected() {
        let err = Schema::builder()
            .sparse_with(
                "f",
                FeatureClass::User,
                1.0,
                0.5,
                10,
                64,
                Some(DedupGroupId::new(3)),
            )
            .build()
            .unwrap_err();
        assert!(matches!(err, DataError::UnknownDedupGroup { group: 3 }));
    }

    #[test]
    fn validate_sample_checks_arity() {
        let schema = small_schema();
        let good = Sample::builder(
            SessionId::new(1),
            RequestId::new(1),
            Timestamp::from_millis(0),
        )
        .dense(vec![0.0, 1.0])
        .sparse(vec![vec![1], vec![2], vec![3]])
        .build();
        assert!(schema.validate_sample(&good).is_ok());

        let bad = Sample::builder(
            SessionId::new(1),
            RequestId::new(2),
            Timestamp::from_millis(0),
        )
        .dense(vec![0.0])
        .sparse(vec![vec![1], vec![2], vec![3]])
        .build();
        assert!(matches!(
            schema.validate_sample(&bad),
            Err(DataError::DenseArityMismatch { .. })
        ));
    }

    #[test]
    fn stay_prob_is_clamped() {
        let schema = Schema::builder()
            .sparse("f", FeatureClass::User, 1.0, 1.5, 10)
            .build()
            .unwrap();
        assert_eq!(schema.sparse_features()[0].stay_prob, 1.0);
    }

    // The name index is `#[serde(skip)]`; with serialization stubbed out
    // offline, simulate a deserialized schema (empty index) directly and
    // assert `rebuild_index` restores lookups.
    #[test]
    fn rebuild_index_restores_name_lookups() {
        let schema = small_schema();
        let mut back = schema.clone();
        back.sparse_by_name.clear();
        assert!(back.sparse_by_name("f_like").is_none());
        back.rebuild_index();
        assert_eq!(back.sparse_by_name("f_like").unwrap().id, FeatureId::new(0));
        assert_eq!(back, schema);
    }
}
