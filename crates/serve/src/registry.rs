//! The model registry: load checkpoints once, hand out shared handles.
//!
//! A registry owns every model the engine can serve — any architecture
//! behind the [`CongestionModel`] trait, not just LHNN. Models are
//! validated on the way in (input dimensions must match the feature
//! pipeline, the architecture must be non-degenerate) and stored behind
//! `Arc`, so sessions, caches and callers all share one copy of the
//! weights. A checkpoint that fails to load or validate — including one
//! with an unknown kind tag — is rejected *before* the map is touched: a
//! bad file can never poison a serving engine.

use std::collections::HashMap;
use std::io::Read;
use std::path::Path;
use std::sync::{Arc, RwLock};

use crate::lock;

use lh_graph::{gcell_channel, gnet_channel};
use lhnn::{load_model, CongestionModel};
use lhnn_obs::Registry as MetricsRegistry;

use crate::error::{Result, ServeError};

/// A registered model: weights plus its serving identity.
#[derive(Debug)]
pub struct ModelEntry {
    /// Registry name (e.g. `"default"`, `"lhnn-duo-v3"`).
    pub name: String,
    /// Content version: [`CongestionModel::weights_fingerprint`] at
    /// registration. Part of every cache key, so hot-swapping a model
    /// under the same name invalidates its cached predictions implicitly
    /// (fingerprints are also disjoint across kinds).
    pub version: u64,
    /// The model itself (immutable while registered).
    pub model: Box<dyn CongestionModel>,
}

/// Thread-safe name → model map with load-time validation.
#[derive(Debug)]
pub struct ModelRegistry {
    expected_gcell_dim: usize,
    expected_gnet_dim: usize,
    models: RwLock<HashMap<String, Arc<ModelEntry>>>,
    /// Optional metrics sink: each successful (re-)registration bumps
    /// `lhnn_model_registrations_total{kind=...}`.
    metrics: RwLock<Option<Arc<MetricsRegistry>>>,
}

impl Default for ModelRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl ModelRegistry {
    /// A registry expecting the standard feature pipeline (4 G-cell and
    /// 4 G-net channels, the paper's §3.1 layout).
    pub fn new() -> Self {
        Self::with_expected_dims(gcell_channel::COUNT, gnet_channel::COUNT)
    }

    /// A registry for a non-standard feature pipeline.
    pub(crate) fn with_expected_dims(gcell_dim: usize, gnet_dim: usize) -> Self {
        Self {
            expected_gcell_dim: gcell_dim,
            expected_gnet_dim: gnet_dim,
            models: RwLock::new(HashMap::new()),
            metrics: RwLock::new(None),
        }
    }

    /// Attaches a metrics registry; from now on every successful model
    /// (re-)registration increments
    /// `lhnn_model_registrations_total{kind="<kind>"}`.
    pub(crate) fn attach_metrics(&self, metrics: Arc<MetricsRegistry>) {
        *lock::write_recover(&self.metrics) = Some(metrics);
    }

    fn validate(&self, model: &dyn CongestionModel) -> Result<()> {
        if model.gcell_in_dim() != self.expected_gcell_dim {
            return Err(ServeError::Incompatible(format!(
                "model expects {} g-cell channels, pipeline produces {}",
                model.gcell_in_dim(),
                self.expected_gcell_dim
            )));
        }
        if model.gnet_in_dim() != self.expected_gnet_dim {
            return Err(ServeError::Incompatible(format!(
                "model expects {} g-net channels, pipeline produces {}",
                model.gnet_in_dim(),
                self.expected_gnet_dim
            )));
        }
        if model.hidden() == 0 {
            return Err(ServeError::Incompatible("zero hidden dimension".into()));
        }
        Ok(())
    }

    /// Registers an in-memory model under `name`.
    ///
    /// # Errors
    ///
    /// [`ServeError::Incompatible`] if validation fails,
    /// [`ServeError::AlreadyRegistered`] if the name is taken (use
    /// [`ServeHandle::replace_model`](crate::ServeHandle::replace_model) to hot-swap).
    pub fn register<M: CongestionModel + 'static>(
        &self,
        name: &str,
        model: M,
    ) -> Result<Arc<ModelEntry>> {
        self.insert(name, Box::new(model), false)
    }

    /// [`ModelRegistry::register`] for an already-boxed model (e.g. one
    /// that came out of [`load_model`]).
    ///
    /// # Errors
    ///
    /// As [`ModelRegistry::register`].
    pub fn register_boxed(
        &self,
        name: &str,
        model: Box<dyn CongestionModel>,
    ) -> Result<Arc<ModelEntry>> {
        self.insert(name, model, false)
    }

    /// Registers or hot-swaps a model under `name` — the replacement may
    /// be a different architecture.
    ///
    /// Cached predictions of the displaced model become unreachable
    /// because the weight fingerprint in the cache key changes.
    ///
    /// # Errors
    ///
    /// [`ServeError::Incompatible`] if validation fails.
    pub(crate) fn replace_boxed(
        &self,
        name: &str,
        model: Box<dyn CongestionModel>,
    ) -> Result<Arc<ModelEntry>> {
        self.insert(name, model, true)
    }

    fn insert(
        &self,
        name: &str,
        model: Box<dyn CongestionModel>,
        allow_replace: bool,
    ) -> Result<Arc<ModelEntry>> {
        self.validate(model.as_ref())?;
        let kind = model.kind();
        let entry = Arc::new(ModelEntry {
            name: name.to_string(),
            version: model.weights_fingerprint(),
            model,
        });
        {
            let mut map = lock::write_recover(&self.models);
            if !allow_replace && map.contains_key(name) {
                return Err(ServeError::AlreadyRegistered(name.to_string()));
            }
            map.insert(name.to_string(), Arc::clone(&entry));
        }
        if let Some(metrics) = lock::read_recover(&self.metrics).as_ref() {
            metrics.counter_with("lhnn_model_registrations_total", &[("kind", kind)]).inc();
        }
        Ok(entry)
    }

    /// Loads a `.lhnn` checkpoint from a reader and registers it; the
    /// kind tag in the stream decides the architecture.
    ///
    /// The checkpoint is parsed and validated entirely before the registry
    /// map is modified: a truncated, corrupted, unknown-kind or
    /// architecturally incompatible file leaves the registry exactly as
    /// it was.
    ///
    /// # Errors
    ///
    /// [`ServeError::Model`] for unparseable checkpoints, plus every error
    /// [`ModelRegistry::register`] can return.
    pub fn load_reader<R: Read>(&self, name: &str, reader: R) -> Result<Arc<ModelEntry>> {
        let model = load_model(reader)?;
        self.register_boxed(name, model)
    }

    /// Loads a `.lhnn` checkpoint file and registers it.
    ///
    /// # Errors
    ///
    /// See [`ModelRegistry::load_reader`]; file-open failures surface as
    /// [`ServeError::Model`].
    pub fn load_file<P: AsRef<Path>>(&self, name: &str, path: P) -> Result<Arc<ModelEntry>> {
        let file = std::fs::File::open(path).map_err(lhnn::ModelIoError::from)?;
        self.load_reader(name, std::io::BufReader::new(file))
    }

    /// Resolves a name to its current entry.
    pub(crate) fn get(&self, name: &str) -> Option<Arc<ModelEntry>> {
        lock::read_recover(&self.models).get(name).cloned()
    }

    /// Registered names, sorted.
    #[cfg(test)]
    fn names(&self) -> Vec<String> {
        let mut v: Vec<String> = lock::read_recover(&self.models).keys().cloned().collect();
        v.sort();
        v
    }

    /// Number of registered models.
    #[cfg(test)]
    fn len(&self) -> usize {
        lock::read_recover(&self.models).len()
    }

    /// Whether no model is registered.
    #[cfg(test)]
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lhnn::{HybridNet, HybridNetConfig, Lhnn, LhnnConfig};

    #[test]
    fn register_then_get() {
        let reg = ModelRegistry::new();
        assert!(reg.is_empty());
        let entry = reg.register("default", Lhnn::new(LhnnConfig::default(), 0)).unwrap();
        assert_eq!(entry.name, "default");
        assert_eq!(reg.len(), 1);
        let got = reg.get("default").expect("registered");
        assert_eq!(got.version, entry.version);
        assert!(reg.get("missing").is_none());
    }

    #[test]
    fn duplicate_name_rejected_but_replace_swaps() {
        let reg = ModelRegistry::new();
        let v1 = reg.register("m", Lhnn::new(LhnnConfig::default(), 0)).unwrap().version;
        let err = reg.register("m", Lhnn::new(LhnnConfig::default(), 1)).unwrap_err();
        assert!(matches!(err, ServeError::AlreadyRegistered(_)));
        let v2 =
            reg.replace_boxed("m", Box::new(Lhnn::new(LhnnConfig::default(), 1))).unwrap().version;
        assert_ne!(v1, v2, "hot-swap must change the serving version");
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn replace_accepts_a_different_architecture() {
        let reg = ModelRegistry::new();
        let v1 = reg.register("m", Lhnn::new(LhnnConfig::default(), 0)).unwrap().version;
        let v2 = reg
            .replace_boxed("m", Box::new(HybridNet::new(HybridNetConfig::default(), 0)))
            .unwrap()
            .version;
        assert_ne!(v1, v2, "cross-kind swap must change the serving version");
        assert_eq!(reg.get("m").unwrap().model.kind(), "hybridnet");
    }

    #[test]
    fn incompatible_dims_rejected() {
        let reg = ModelRegistry::new();
        let bad = Lhnn::new(LhnnConfig { gcell_in_dim: 7, ..Default::default() }, 0);
        let err = reg.register("bad", bad).unwrap_err();
        assert!(matches!(err, ServeError::Incompatible(_)));
        let bad = HybridNet::new(HybridNetConfig { gnet_in_dim: 9, ..Default::default() }, 0);
        let err = reg.register("bad", bad).unwrap_err();
        assert!(matches!(err, ServeError::Incompatible(_)));
        assert!(reg.is_empty(), "failed validation must not insert");
    }

    #[test]
    fn bad_checkpoint_leaves_registry_untouched() {
        let reg = ModelRegistry::new();
        reg.register("good", Lhnn::new(LhnnConfig::default(), 0)).unwrap();
        // corrupt stream
        let err = reg.load_reader("evil", "lhnn-model v1\nhidden banana\n".as_bytes());
        assert!(matches!(err, Err(ServeError::Model(_))));
        // unknown kind tag
        let err = reg.load_reader("evil", "lhnn-model v2\nkind alexnet\n".as_bytes());
        assert!(matches!(err, Err(ServeError::Model(_))));
        // truncated stream
        let model = Lhnn::new(LhnnConfig::default(), 0);
        let mut buf = Vec::new();
        model.save(&mut buf).unwrap();
        buf.truncate(buf.len() / 3);
        assert!(reg.load_reader("evil", &buf[..]).is_err());
        assert_eq!(reg.names(), vec!["good".to_string()], "registry unpoisoned");
    }

    #[test]
    fn load_reader_dispatches_on_kind() {
        let reg = ModelRegistry::new();
        let model = Lhnn::new(LhnnConfig::default(), 9);
        let fp = model.weights_fingerprint();
        let mut buf = Vec::new();
        model.save(&mut buf).unwrap();
        let entry = reg.load_reader("rt", &buf[..]).unwrap();
        assert_eq!(entry.version, fp, "loaded weights carry the same version");
        assert_eq!(entry.model.kind(), "lhnn");

        let hybrid = HybridNet::new(HybridNetConfig::default(), 9);
        let fp = lhnn::CongestionModel::weights_fingerprint(&hybrid);
        let mut buf = Vec::new();
        hybrid.save(&mut buf).unwrap();
        let entry = reg.load_reader("hy", &buf[..]).unwrap();
        assert_eq!(entry.version, fp);
        assert_eq!(entry.model.kind(), "hybridnet");
    }

    #[test]
    fn registrations_counter_is_labelled_by_kind() {
        let reg = ModelRegistry::new();
        let metrics = Arc::new(MetricsRegistry::new());
        reg.attach_metrics(Arc::clone(&metrics));
        reg.register("a", Lhnn::new(LhnnConfig::default(), 0)).unwrap();
        reg.register("b", HybridNet::new(HybridNetConfig::default(), 0)).unwrap();
        reg.replace_boxed("a", Box::new(HybridNet::new(HybridNetConfig::default(), 1))).unwrap();
        let snap = metrics.snapshot();
        assert_eq!(snap.counter("lhnn_model_registrations_total{kind=\"lhnn\"}"), 1);
        assert_eq!(snap.counter("lhnn_model_registrations_total{kind=\"hybridnet\"}"), 2);
    }

    #[test]
    fn oversized_header_dims_are_refused_before_building() {
        let mut buf = Vec::new();
        Lhnn::new(LhnnConfig::default(), 0).save(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let header: Vec<&str> = text.lines().take_while(|l| !l.starts_with("params ")).collect();
        let reg = ModelRegistry::new();
        for (key, value) in [("hidden", "2305843009213693952"), ("hypermp_layers", "100000000")] {
            let mut lines: Vec<String> = header
                .iter()
                .map(|l| {
                    if l.split(' ').next() == Some(key) {
                        format!("{key} {value}")
                    } else {
                        l.to_string()
                    }
                })
                .collect();
            lines.push("params 0".into());
            let err = reg.load_reader("m", lines.join("\n").as_bytes()).unwrap_err();
            assert!(
                matches!(err, ServeError::Model(lhnn::ModelIoError::Format(_))),
                "{key}: {err}"
            );
        }
        assert!(reg.is_empty());
    }
}
