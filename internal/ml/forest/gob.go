package forest

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"

	"monitorless/internal/ml/tree"
)

// forestWire mirrors Forest for gob encoding. BinEdges/QuantThr/
// QuantFlags carry the compiled quantized form (bundle v4): the
// per-feature bin edges plus each tree's node code thresholds and float
// side-channel flags. They are nil for uncompiled forests (bundle v3).
type forestWire struct {
	Cfg         Config
	Trees       []*tree.Tree
	Importances []float64
	NFeatures   int
	Fitted      bool
	BinEdges    [][]float64
	QuantThr    [][]uint8
	QuantFlags  [][]uint8
}

// GobEncode implements gob.GobEncoder.
func (f *Forest) GobEncode() ([]byte, error) {
	w := forestWire{
		Cfg:         f.cfg,
		Trees:       f.trees,
		Importances: f.importances,
		NFeatures:   f.nFeatures,
		Fitted:      f.fitted,
	}
	if f.quant != nil {
		w.BinEdges = f.binEdges
		w.QuantThr, w.QuantFlags = f.quant.wireThresholds()
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(w); err != nil {
		return nil, fmt.Errorf("forest: gob encode: %w", err)
	}
	return buf.Bytes(), nil
}

// GobDecode implements gob.GobDecoder. Each tree validates its own
// slabs; the forest checks that they agree with its width and that the
// bin edges are codable. A stream carrying bin edges is recompiled into
// its quantized predictor and the stored code thresholds are verified
// against the recompiled form — the compiled artifact is checked, never
// trusted blindly.
func (f *Forest) GobDecode(data []byte) error {
	var w forestWire
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
		return fmt.Errorf("forest: gob decode: %w", err)
	}
	if err := w.validate(); err != nil {
		return fmt.Errorf("forest: gob decode: %w", err)
	}
	f.cfg = w.Cfg
	f.trees = w.Trees
	f.importances = w.Importances
	f.nFeatures = w.NFeatures
	f.fitted = w.Fitted
	f.binEdges, f.quant = nil, nil
	if w.BinEdges != nil {
		if err := f.CompileQuant(w.BinEdges); err != nil {
			return fmt.Errorf("forest: gob decode: %w", err)
		}
		if err := f.quant.checkWire(w.QuantThr, w.QuantFlags); err != nil {
			f.binEdges, f.quant = nil, nil
			return fmt.Errorf("forest: gob decode: %w", err)
		}
	}
	return nil
}

// validate checks what the trees cannot check alone: every tree of a
// fitted forest is fitted over the forest's feature width, and every
// bin-edge column is NaN-free and ascending with at most 255 edges, the
// most a uint8 code can address. Equal neighbours are allowed: the
// binner's midpoint between two values one ulp apart rounds onto one of
// them, so a fitted column can repeat an edge, and Quantize's invariant
// only needs the edges non-decreasing.
func (w *forestWire) validate() error {
	if w.Fitted && len(w.Trees) == 0 {
		return fmt.Errorf("fitted forest has no trees")
	}
	for k, t := range w.Trees {
		if w.Fitted && (t == nil || !t.Fitted() || t.NumFeatures() != w.NFeatures) {
			return fmt.Errorf("tree %d is not fitted over the forest's %d features", k, w.NFeatures)
		}
	}
	for j, col := range w.BinEdges {
		if len(col) > math.MaxUint8 {
			return fmt.Errorf("bin edges of feature %d: %d edges, at most %d", j, len(col), math.MaxUint8)
		}
		for k, e := range col {
			if e != e || k > 0 && e < col[k-1] {
				return fmt.Errorf("bin edges of feature %d are not ascending at %d", j, k)
			}
		}
	}
	return nil
}
