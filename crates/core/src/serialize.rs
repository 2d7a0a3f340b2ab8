//! Model persistence: save/load trained weights as a plain-text format
//! (no external serialisation dependency; the README explains `vendor/`).
//!
//! Format (`lhnn-model v2`): a magic line, a `kind` tag naming the
//! architecture, a header with its hyper-parameters, then one block per
//! parameter tensor:
//!
//! ```text
//! lhnn-model v2
//! kind lhnn
//! hidden 32
//! ...
//! params 42
//! param featuregen.f_c.lin1.weight 4 32
//! 0.01 -0.2 ...
//! ```
//!
//! Backward compatibility: `lhnn-model v1` streams predate the kind tag
//! and always hold LHNN weights, so they load as kind `lhnn`. Unknown
//! kinds and unknown versions are rejected with [`ModelIoError::Format`]
//! before any model is constructed — a bad checkpoint can never poison a
//! registry. [`load_model`] dispatches on the tag and returns the
//! architecture behind the [`CongestionModel`] trait.

use std::io::{BufRead, BufReader, Read, Write};

use lh_graph::ChannelMode;
use neurograd::{Matrix, ParamStore};

use crate::config::LhnnConfig;
use crate::congestion::CongestionModel;
use crate::hybrid::{HybridNet, HybridNetConfig};
use crate::model::{Arch, Lhnn, Model};

/// Errors from model (de)serialisation.
#[derive(Debug)]
pub enum ModelIoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The file is not a valid `lhnn-model` stream (bad magic, unknown
    /// version or kind, malformed header or payload).
    Format(String),
    /// The stored architecture does not match expectations.
    Mismatch(String),
}

impl std::fmt::Display for ModelIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelIoError::Io(e) => write!(f, "model i/o failed: {e}"),
            ModelIoError::Format(m) => write!(f, "invalid model file: {m}"),
            ModelIoError::Mismatch(m) => write!(f, "model architecture mismatch: {m}"),
        }
    }
}

impl std::error::Error for ModelIoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ModelIoError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ModelIoError {
    fn from(e: std::io::Error) -> Self {
        ModelIoError::Io(e)
    }
}

fn mode_str(mode: ChannelMode) -> &'static str {
    match mode {
        ChannelMode::Uni => "uni",
        ChannelMode::Duo => "duo",
    }
}

fn parse_mode(s: &str) -> Result<ChannelMode, ModelIoError> {
    match s {
        "uni" => Ok(ChannelMode::Uni),
        "duo" => Ok(ChannelMode::Duo),
        other => Err(ModelIoError::Format(format!("unknown channel mode `{other}`"))),
    }
}

fn next_line(
    lines: &mut impl Iterator<Item = std::io::Result<String>>,
    what: &str,
) -> Result<String, ModelIoError> {
    lines
        .next()
        .ok_or_else(|| ModelIoError::Format(format!("unexpected eof before {what}")))?
        .map_err(ModelIoError::Io)
}

fn read_kv(
    lines: &mut impl Iterator<Item = std::io::Result<String>>,
    key: &str,
) -> Result<String, ModelIoError> {
    let line = next_line(lines, key)?;
    let (k, v) = line
        .split_once(' ')
        .ok_or_else(|| ModelIoError::Format(format!("expected `{key} <value>`")))?;
    if k != key {
        return Err(ModelIoError::Format(format!("expected key `{key}`, got `{k}`")));
    }
    Ok(v.trim().to_string())
}

fn parse_usize(v: String, key: &str) -> Result<usize, ModelIoError> {
    v.parse().map_err(|_| ModelIoError::Format(format!("bad {key} `{v}`")))
}

/// Every kind [`load_model`] builds.
const KINDS: [&str; 2] = [LhnnConfig::KIND, HybridNetConfig::KIND];

/// Reads the magic + kind tag. `lhnn-model v1` streams predate the tag
/// and are always LHNN; `lhnn-model v2` carries an explicit `kind` line,
/// which must name one of [`KINDS`].
fn read_header(
    lines: &mut impl Iterator<Item = std::io::Result<String>>,
) -> Result<String, ModelIoError> {
    let magic = next_line(lines, "header")?;
    let kind = match magic.trim() {
        "lhnn-model v1" => LhnnConfig::KIND.to_string(),
        "lhnn-model v2" => read_kv(lines, "kind")?,
        _ => return Err(ModelIoError::Format(format!("bad magic `{magic}`"))),
    };
    if !KINDS.contains(&kind.as_str()) {
        return Err(ModelIoError::Format(format!("unknown model kind `{kind}`")));
    }
    Ok(kind)
}

/// Writes every parameter tensor of `store` as `param` blocks.
fn write_params<W: Write>(w: &mut W, store: &ParamStore) -> Result<(), ModelIoError> {
    writeln!(w, "params {}", store.len())?;
    for p in store.iter() {
        let (rows, cols) = p.value.shape();
        writeln!(w, "param {} {} {}", p.name, rows, cols)?;
        let mut line = String::with_capacity(p.value.len() * 10);
        for (i, v) in p.value.as_slice().iter().enumerate() {
            if i > 0 {
                line.push(' ');
            }
            line.push_str(&format!("{v:e}"));
        }
        writeln!(w, "{line}")?;
    }
    Ok(())
}

/// Reads `param` blocks into a freshly built architecture's store,
/// verifying tensor names and shapes against it.
fn load_params(
    lines: &mut impl Iterator<Item = std::io::Result<String>>,
    store: &mut ParamStore,
) -> Result<(), ModelIoError> {
    let count = parse_usize(read_kv(lines, "params")?, "params")?;
    if store.len() != count {
        return Err(ModelIoError::Mismatch(format!(
            "file has {count} tensors, architecture has {}",
            store.len()
        )));
    }
    for i in 0..count {
        let header = next_line(lines, "param header")?;
        let tok: Vec<&str> = header.split_whitespace().collect();
        if tok.len() != 4 || tok[0] != "param" {
            return Err(ModelIoError::Format(format!("bad param header `{header}`")));
        }
        let name = tok[1];
        let rows: usize =
            tok[2].parse().map_err(|_| ModelIoError::Format(format!("bad rows `{}`", tok[2])))?;
        let cols: usize =
            tok[3].parse().map_err(|_| ModelIoError::Format(format!("bad cols `{}`", tok[3])))?;
        let data_line = next_line(lines, "param data")?;
        let values: Result<Vec<f32>, _> =
            data_line.split_whitespace().map(str::parse::<f32>).collect();
        let values =
            values.map_err(|e| ModelIoError::Format(format!("bad value in `{name}`: {e}")))?;
        if values.iter().any(|v| !v.is_finite()) {
            return Err(ModelIoError::Format(format!("non-finite value in `{name}`")));
        }
        let matrix = Matrix::from_vec(rows, cols, values)
            .map_err(|_| ModelIoError::Format(format!("value count mismatch for `{name}`")))?;
        let id = store.id_at(i);
        let param = store.param(id);
        if param.name != name {
            return Err(ModelIoError::Mismatch(format!(
                "tensor {i} is `{}` in the architecture but `{name}` in the file",
                param.name
            )));
        }
        if param.value.shape() != (rows, cols) {
            return Err(ModelIoError::Mismatch(format!(
                "tensor `{name}` has shape {:?} in the architecture but {rows}x{cols} in the file",
                param.value.shape()
            )));
        }
        store.param_mut(id).value = matrix;
    }
    Ok(())
}

impl<A: Arch> Model<A> {
    /// Writes the model (kind tag + architecture + weights) to `w`.
    ///
    /// Pass `&mut writer` to keep using the writer afterwards.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn save<W: Write>(&self, mut w: W) -> Result<(), ModelIoError> {
        writeln!(w, "lhnn-model v2")?;
        writeln!(w, "kind {}", A::KIND)?;
        for (key, value) in self.cfg.dims() {
            writeln!(w, "{key} {value}")?;
        }
        writeln!(w, "channel_mode {}", mode_str(self.cfg.channel_mode()))?;
        write_params(&mut w, &self.store)
    }

    /// Reads a model previously written by [`Model::save`] for this
    /// architecture (LHNN also reads the untagged v1 format).
    ///
    /// # Errors
    ///
    /// Returns [`ModelIoError::Format`] for malformed input and
    /// [`ModelIoError::Mismatch`] when the checkpoint holds a different
    /// kind or its tensors do not match the architecture rebuilt from
    /// the header.
    pub fn load<R: Read>(r: R) -> Result<Self, ModelIoError> {
        let mut lines = BufReader::new(r).lines();
        let kind = read_header(&mut lines)?;
        if kind != A::KIND {
            return Err(ModelIoError::Mismatch(format!(
                "checkpoint holds a `{kind}` model, not a `{}` one; use `load_model`",
                A::KIND
            )));
        }
        Self::load_body(&mut lines)
    }

    /// Reads the post-header body (architecture kv lines + tensors).
    fn load_body(
        lines: &mut impl Iterator<Item = std::io::Result<String>>,
    ) -> Result<Self, ModelIoError> {
        let mut dims = Vec::new();
        for (key, _) in A::default().dims() {
            dims.push(parse_usize(read_kv(lines, key)?, key)?);
        }
        let channel_mode = parse_mode(&read_kv(lines, "channel_mode")?)?;
        let mut model = Self::new(A::from_dims(&dims, channel_mode), 0);
        load_params(lines, &mut model.store)?;
        Ok(model)
    }
}

/// Loads any supported architecture from a checkpoint, dispatching on
/// the kind tag (untagged v1 streams load as LHNN). This is what serving
/// registries and the CLI use, so a checkpoint's architecture never has
/// to be known in advance.
///
/// # Errors
///
/// Returns [`ModelIoError::Format`] for malformed input (including
/// unknown versions or kinds, rejected before any model is built) and
/// [`ModelIoError::Mismatch`] for architecture/tensor disagreements.
pub fn load_model<R: Read>(r: R) -> Result<Box<dyn CongestionModel>, ModelIoError> {
    let mut lines = BufReader::new(r).lines();
    match read_header(&mut lines)?.as_str() {
        LhnnConfig::KIND => Ok(Box::new(Lhnn::load_body(&mut lines)?)),
        HybridNetConfig::KIND => Ok(Box::new(HybridNet::load_body(&mut lines)?)),
        other => unreachable!("read_header admits no kind `{other}`"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AblationSpec;
    use crate::ops::GraphOps;
    use lh_graph::{FeatureSet, LhGraph, LhGraphConfig};
    use vlsi_netlist::synth::{generate, SynthConfig};
    use vlsi_place::GlobalPlacer;

    fn sample_inputs() -> (GraphOps, FeatureSet) {
        let cfg = SynthConfig { n_cells: 120, grid_nx: 8, grid_ny: 8, ..SynthConfig::default() };
        let synth = generate(&cfg).unwrap();
        let grid = cfg.grid();
        let placed = GlobalPlacer::default().place_synth(&synth, &grid).unwrap();
        let graph =
            LhGraph::build(&synth.circuit, &placed.placement, &grid, &LhGraphConfig::default())
                .unwrap();
        let feats = FeatureSet::build(&graph, &synth.circuit, &placed.placement, &grid)
            .unwrap()
            .normalized();
        (GraphOps::from_graph(&graph, &AblationSpec::full()), feats)
    }

    #[test]
    fn save_load_roundtrip_preserves_predictions() {
        let (ops, feats) = sample_inputs();
        let model = Lhnn::new(LhnnConfig::default(), 42);
        let before = model.predict(&ops, &feats);
        let mut buf = Vec::new();
        model.save(&mut buf).unwrap();
        let loaded = Lhnn::load(&buf[..]).unwrap();
        let after = loaded.predict(&ops, &feats);
        assert!(before.cls_prob.approx_eq(&after.cls_prob, 1e-6));
        assert!(before.reg.approx_eq(&after.reg, 1e-6));
    }

    #[test]
    fn hybridnet_roundtrip_preserves_predictions() {
        let (ops, feats) = sample_inputs();
        let model = HybridNet::new(HybridNetConfig::default(), 42);
        let before = model.predict(&ops, &feats);
        let mut buf = Vec::new();
        model.save(&mut buf).unwrap();
        let loaded = HybridNet::load(&buf[..]).unwrap();
        let after = loaded.predict(&ops, &feats);
        assert!(before.cls_prob.approx_eq(&after.cls_prob, 1e-6));
        assert!(before.reg.approx_eq(&after.reg, 1e-6));
    }

    #[test]
    fn checkpoint_format_is_pinned() {
        // Files already on disk fix the format: a writer and reader that
        // changed together would still round-trip, so pin the header
        // lines themselves and require a load + save to reproduce the
        // bytes.
        let lhnn_header = [
            "lhnn-model v2",
            "kind lhnn",
            "hidden 32",
            "hypermp_layers 2",
            "latticemp_encode_layers 1",
            "latticemp_joint_layers 2",
            "gcell_in_dim 4",
            "gnet_in_dim 4",
            "channel_mode uni",
            "params 78",
        ];
        let hybrid_header = [
            "lhnn-model v2",
            "kind hybridnet",
            "hidden 32",
            "topo_rounds 1",
            "geo_layers 2",
            "gcell_in_dim 4",
            "gnet_in_dim 4",
            "channel_mode uni",
            "params 40",
        ];
        let mut lhnn = Vec::new();
        Lhnn::new(LhnnConfig::default(), 0).save(&mut lhnn).unwrap();
        let mut hybrid = Vec::new();
        HybridNet::new(HybridNetConfig::default(), 0).save(&mut hybrid).unwrap();
        for (bytes, header) in [(&lhnn, &lhnn_header[..]), (&hybrid, &hybrid_header[..])] {
            let text = std::str::from_utf8(bytes).unwrap();
            let lines: Vec<&str> = text.lines().take(header.len()).collect();
            assert_eq!(lines, header);
            let mut again = Vec::new();
            load_model(&bytes[..]).unwrap().save_to(&mut again).unwrap();
            assert!(again == *bytes, "save(load(bytes)) differs from bytes for {}", header[1]);
        }
    }

    #[test]
    fn load_model_dispatches_on_kind() {
        let lhnn = Lhnn::new(LhnnConfig::default(), 0);
        let mut buf = Vec::new();
        lhnn.save(&mut buf).unwrap();
        assert_eq!(load_model(&buf[..]).unwrap().kind(), "lhnn");

        let hybrid = HybridNet::new(HybridNetConfig::default(), 0);
        let mut buf = Vec::new();
        hybrid.save(&mut buf).unwrap();
        assert_eq!(load_model(&buf[..]).unwrap().kind(), "hybridnet");
    }

    #[test]
    fn untagged_v1_stream_loads_as_lhnn() {
        // v1 files predate the kind tag; they must keep loading (as LHNN)
        // through both the typed loader and the dispatching one.
        let model = Lhnn::new(LhnnConfig::default(), 9);
        let mut buf = Vec::new();
        model.save(&mut buf).unwrap();
        let v1 = String::from_utf8(buf).unwrap().replacen(
            "lhnn-model v2\nkind lhnn\n",
            "lhnn-model v1\n",
            1,
        );
        let loaded = Lhnn::load(v1.as_bytes()).unwrap();
        assert_eq!(loaded.weights_fingerprint(), model.weights_fingerprint());
        assert_eq!(load_model(v1.as_bytes()).unwrap().kind(), "lhnn");
    }

    #[test]
    fn load_rejects_bad_magic() {
        let err = Lhnn::load("not a model".as_bytes()).unwrap_err();
        assert!(matches!(err, ModelIoError::Format(_)));
    }

    #[test]
    fn load_rejects_truncated_file() {
        let model = Lhnn::new(LhnnConfig::default(), 0);
        let mut buf = Vec::new();
        model.save(&mut buf).unwrap();
        let truncated = &buf[..buf.len() / 2];
        assert!(Lhnn::load(truncated).is_err());
    }

    #[test]
    fn load_rejects_tampered_shape() {
        let model = Lhnn::new(LhnnConfig::default(), 0);
        let mut buf = Vec::new();
        model.save(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        // corrupt the first tensor's declared shape
        let tampered = text.replacen(
            "param featuregen.f_c.lin1.weight 4 32",
            "param featuregen.f_c.lin1.weight 5 32",
            1,
        );
        let err = Lhnn::load(tampered.as_bytes()).unwrap_err();
        assert!(matches!(err, ModelIoError::Mismatch(_) | ModelIoError::Format(_)));
        // a shape whose element count overflows, over an empty payload
        let header = "param featuregen.f_c.lin1.weight 4 32\n";
        let start = text.find(header).unwrap() + header.len();
        let end = text[start..].find('\n').unwrap() + start;
        let overflow = format!(
            "{}param featuregen.f_c.lin1.weight 4294967296 4294967296\n{}",
            &text[..start - header.len()],
            &text[end..]
        );
        let err = Lhnn::load(overflow.as_bytes()).unwrap_err();
        assert!(matches!(err, ModelIoError::Format(_)), "got {err}");
    }

    #[test]
    fn load_rejects_unknown_version() {
        let model = Lhnn::new(LhnnConfig::default(), 0);
        let mut buf = Vec::new();
        model.save(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap().replacen("lhnn-model v2", "lhnn-model v3", 1);
        let err = Lhnn::load(text.as_bytes()).unwrap_err();
        assert!(matches!(err, ModelIoError::Format(_)), "got {err}");
        assert!(load_model(text.as_bytes()).is_err());
    }

    #[test]
    fn load_rejects_unknown_kind() {
        let model = Lhnn::new(LhnnConfig::default(), 0);
        let mut buf = Vec::new();
        model.save(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap().replacen("kind lhnn", "kind alexnet", 1);
        let err = load_model(text.as_bytes()).unwrap_err();
        assert!(matches!(err, ModelIoError::Format(_)), "got {err}");
        let err = Lhnn::load(text.as_bytes()).unwrap_err();
        assert!(matches!(err, ModelIoError::Format(_)), "got {err}");
    }

    #[test]
    fn typed_loaders_reject_cross_kind_checkpoints() {
        let hybrid = HybridNet::new(HybridNetConfig::default(), 0);
        let mut buf = Vec::new();
        hybrid.save(&mut buf).unwrap();
        let err = Lhnn::load(&buf[..]).unwrap_err();
        assert!(matches!(err, ModelIoError::Mismatch(_)), "got {err}");

        let lhnn = Lhnn::new(LhnnConfig::default(), 0);
        let mut buf = Vec::new();
        lhnn.save(&mut buf).unwrap();
        let err = HybridNet::load(&buf[..]).unwrap_err();
        assert!(matches!(err, ModelIoError::Mismatch(_)), "got {err}");
    }

    #[test]
    fn load_rejects_corrupted_header_dims() {
        let model = Lhnn::new(LhnnConfig::default(), 0);
        let mut buf = Vec::new();
        model.save(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        for (from, to) in [("hidden 32", "hidden banana"), ("gcell_in_dim 4", "gcell_in_dim -4")] {
            let bad = text.replacen(from, to, 1);
            let err = Lhnn::load(bad.as_bytes()).unwrap_err();
            assert!(matches!(err, ModelIoError::Format(_)), "`{to}` gave {err}");
        }
        // a wrong-but-parseable dim must fail as an architecture mismatch,
        // not load garbage
        let bad = text.replacen("gnet_in_dim 4", "gnet_in_dim 5", 1);
        let err = Lhnn::load(bad.as_bytes()).unwrap_err();
        assert!(matches!(err, ModelIoError::Mismatch(_)), "got {err}");
    }

    #[test]
    fn load_rejects_truncation_at_every_header_line() {
        for save in [
            |buf: &mut Vec<u8>| Lhnn::new(LhnnConfig::default(), 0).save(buf).unwrap(),
            |buf: &mut Vec<u8>| HybridNet::new(HybridNetConfig::default(), 0).save(buf).unwrap(),
        ] {
            let mut buf = Vec::new();
            save(&mut buf);
            let text = String::from_utf8(buf).unwrap();
            // cut the stream after each of the first 10 lines; all must
            // error, through both the typed and dispatching loaders
            let mut offset = 0;
            for line in text.lines().take(10) {
                offset += line.len() + 1;
                let cut = &text[..offset.min(text.len())];
                assert!(
                    load_model(cut.as_bytes()).is_err(),
                    "truncation after {offset} bytes was accepted"
                );
            }
        }
    }

    #[test]
    fn load_rejects_corrupted_values() {
        let model = Lhnn::new(LhnnConfig::default(), 0);
        let mut buf = Vec::new();
        model.save(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        // corrupt a weight payload into a non-number
        let line_start = text.find("param featuregen.f_c.lin1.weight").unwrap();
        let data_start = text[line_start..].find('\n').unwrap() + line_start + 1;
        let data_end = text[data_start..].find(' ').unwrap() + data_start;
        // a non-number, and the non-finite values `f32::from_str` accepts
        for value in ["not_a_float", "NaN", "inf", "-inf"] {
            let mut bad = String::new();
            bad.push_str(&text[..data_start]);
            bad.push_str(value);
            bad.push_str(&text[data_end..]);
            let err = Lhnn::load(bad.as_bytes()).unwrap_err();
            assert!(matches!(err, ModelIoError::Format(_)), "`{value}` gave {err}");
        }
    }

    #[test]
    fn duo_mode_roundtrips() {
        let cfg = LhnnConfig { channel_mode: lh_graph::ChannelMode::Duo, ..Default::default() };
        let model = Lhnn::new(cfg, 1);
        let mut buf = Vec::new();
        model.save(&mut buf).unwrap();
        let loaded = Lhnn::load(&buf[..]).unwrap();
        assert_eq!(loaded.config().channel_mode, lh_graph::ChannelMode::Duo);
    }
}
