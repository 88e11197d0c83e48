package core

import (
	"encoding/gob"
	"fmt"
	"io"
	"os"
)

// A model bundle is the single on-disk artifact the commands exchange:
// the fitted pipeline and classifier plus the metadata needed to refuse
// serving against the wrong metric catalog — a format version, the
// fingerprint of the raw metric schema the model was trained on, and the
// training seed for provenance. cmd/train writes bundles; cmd/evaluate,
// cmd/autoscalesim and cmd/serve load them through the one loader below.
// The schema hash is frame.Schema.Hash over the full frame schema —
// names, domains and the utilization/binary/time/log flags — the same
// function the dataset layer and the serving wire protocol use. Every
// bundle carries a training-distribution fingerprint (per-column moments
// + quantile sketch, frame.Fingerprint) validated against the schema
// width — the drift-detection reference the lifecycle plane needs.
// Version 4 additionally carries the forest's compiled quantized
// predictor (per-feature bin edges + per-node uint8 code thresholds,
// forest.Compile) inside the forest gob, so a loaded model batch-predicts
// through the quantized path immediately; models without a compiled form
// (exact-splitter training, explicit DropQuant) are written as version 3.
// No other version loads.

// BundleVersion is the current bundle format version.
const BundleVersion = 4

// minBundleVersion is the oldest format version LoadBundle accepts.
const minBundleVersion = 3

// bundleMagic marks a gob stream as a model bundle.
const bundleMagic = "monitorless-bundle"

// Bundle is a loaded model plus its provenance metadata.
type Bundle struct {
	// Version is the format version, 3 or 4.
	Version int
	// SchemaHash is frame.Schema.Hash over the model's RawSchema.
	SchemaHash string
	// TrainSeed is the seed the model was trained with (0 when unknown).
	TrainSeed int64
	// Model is the trained classifier.
	Model *Model
}

// bundleWire is the gob image of a bundle.
type bundleWire struct {
	Magic      string
	Version    int
	SchemaHash string
	TrainSeed  int64
	ModelBlob  []byte
}

// BundleVersionFor reports the format version SaveBundle will write for
// a model: 4 when the forest carries a compiled quantized predictor and
// 3 otherwise, so the stored version tells readers which capabilities
// the bundle carries.
func BundleVersionFor(m *Model) int {
	if m.Forest == nil || m.Forest.Quant() == nil {
		return 3
	}
	return BundleVersion
}

// SaveBundle writes the bundle at the version the model's capabilities
// call for (see BundleVersionFor). A model without a training
// fingerprint is refused: no build loads the bundle it would make.
func SaveBundle(w io.Writer, m *Model, trainSeed int64) error {
	if m.Fingerprint == nil {
		return fmt.Errorf("core: save bundle: model carries no training fingerprint")
	}
	blob, err := m.SaveBytes()
	if err != nil {
		return fmt.Errorf("core: save bundle: %w", err)
	}
	wire := bundleWire{
		Magic:      bundleMagic,
		Version:    BundleVersionFor(m),
		SchemaHash: m.RawSchema.Hash(),
		TrainSeed:  trainSeed,
		ModelBlob:  blob,
	}
	if err := gob.NewEncoder(w).Encode(wire); err != nil {
		return fmt.Errorf("core: save bundle: %w", err)
	}
	return nil
}

// LoadBundle reads a bundle written by SaveBundle. It rejects anything
// but a version 3 or 4 bundle, verifies the stored schema hash against
// the decoded model and validates the training fingerprint.
func LoadBundle(r io.Reader) (*Bundle, error) {
	var wire bundleWire
	if err := gob.NewDecoder(r).Decode(&wire); err != nil {
		// A bare model gob, the format before bundles, shares no field
		// with bundleWire, so gob refuses it here.
		return nil, fmt.Errorf("core: load bundle: not a model bundle (format version 0 not supported): %w", err)
	}
	if wire.Magic != bundleMagic || wire.Version < minBundleVersion || wire.Version > BundleVersion {
		return nil, fmt.Errorf("core: load bundle: format version %d not supported (this build reads %d to %d; retrain with this build)", wire.Version, minBundleVersion, BundleVersion)
	}
	m, err := LoadBytes(wire.ModelBlob)
	if err != nil {
		return nil, fmt.Errorf("core: load bundle: %w", err)
	}
	if got := m.RawSchema.Hash(); got != wire.SchemaHash {
		return nil, fmt.Errorf("core: load bundle: stored schema hash %.12s… does not match the embedded model's schema %.12s… (corrupt or tampered bundle)", wire.SchemaHash, got)
	}
	if m.Fingerprint == nil {
		return nil, fmt.Errorf("core: load bundle: version %d bundle carries no training fingerprint (corrupt bundle)", wire.Version)
	}
	if err := m.Fingerprint.Validate(len(m.RawSchema)); err != nil {
		return nil, fmt.Errorf("core: load bundle: %w", err)
	}
	if wire.Version == 4 && (m.Forest == nil || m.Forest.Quant() == nil) {
		// The forest gob already verified the compiled thresholds against a
		// recompile; here only presence remains to check.
		return nil, fmt.Errorf("core: load bundle: version %d bundle carries no compiled quantized predictor (corrupt bundle)", wire.Version)
	}
	return &Bundle{Version: wire.Version, SchemaHash: wire.SchemaHash, TrainSeed: wire.TrainSeed, Model: m}, nil
}

// SaveBundleFile writes a bundle to path.
func SaveBundleFile(path string, m *Model, trainSeed int64) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("core: save bundle: %w", err)
	}
	if err := SaveBundle(f, m, trainSeed); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadBundleFile is the shared loader every command uses.
func LoadBundleFile(path string) (*Bundle, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("core: load bundle: %w", err)
	}
	defer f.Close()
	return LoadBundle(f)
}

// CheckSchema rejects a bundle whose raw metric schema does not match the
// runtime catalog, naming the first divergence so the error is actionable.
func (b *Bundle) CheckSchema(names []string) error {
	have := b.Model.RawNames()
	if len(have) != len(names) {
		return fmt.Errorf("core: bundle schema mismatch: model trained on %d raw metrics, runtime catalog has %d (retrain against this catalog)", len(have), len(names))
	}
	for i := range names {
		if have[i] != names[i] {
			return fmt.Errorf("core: bundle schema mismatch at metric %d: model expects %q, runtime catalog has %q (retrain against this catalog)", i, have[i], names[i])
		}
	}
	return nil
}
