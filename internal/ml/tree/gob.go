package tree

import (
	"bytes"
	"encoding/gob"
	"fmt"
)

// treeWire mirrors Tree for gob encoding (the working fields are
// unexported to keep the public API small). The wire format was already
// struct-of-arrays before the in-memory layout was, so bundles written
// by earlier versions decode unchanged.
type treeWire struct {
	Cfg         Config
	Features    []int32
	Left        []int32
	Right       []int32
	Thresholds  []float64
	Probs       []float64
	NFeatures   int
	Importances []float64
	Fitted      bool
}

// GobEncode implements gob.GobEncoder.
func (t *Tree) GobEncode() ([]byte, error) {
	w := treeWire{
		Cfg:         t.cfg,
		Features:    t.feature,
		Left:        t.left,
		Right:       t.right,
		Thresholds:  t.threshold,
		Probs:       t.prob,
		NFeatures:   t.nFeatures,
		Importances: t.importances,
		Fitted:      t.fitted,
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(w); err != nil {
		return nil, fmt.Errorf("tree: gob encode: %w", err)
	}
	return buf.Bytes(), nil
}

// GobDecode implements gob.GobDecoder. The node slabs are validated
// before use, so a hostile stream cannot make inference loop, index out
// of range or return a probability outside [0, 1].
func (t *Tree) GobDecode(data []byte) error {
	var w treeWire
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
		return fmt.Errorf("tree: gob decode: %w", err)
	}
	if err := w.validate(); err != nil {
		return fmt.Errorf("tree: gob decode: %w", err)
	}
	t.cfg = w.Cfg
	t.feature = w.Features
	t.left = w.Left
	t.right = w.Right
	t.threshold = w.Thresholds
	t.prob = w.Probs
	t.nFeatures = w.NFeatures
	t.importances = w.Importances
	t.fitted = w.Fitted
	t.compact()
	return nil
}

// validate checks the structural invariants inference relies on. Both
// builders number every child above its parent and give every node but
// the root one parent, so requiring each child of node i to lie in
// (i, n) rules out cycles and dangling indices, and refusing a second
// parent rules out shared subtrees that a breadth-first walk would
// expand exponentially.
func (w *treeWire) validate() error {
	n := len(w.Features)
	if len(w.Left) != n || len(w.Right) != n || len(w.Thresholds) != n || len(w.Probs) != n {
		return fmt.Errorf("node slab lengths differ (%d features, %d left, %d right, %d thresholds, %d probs)",
			n, len(w.Left), len(w.Right), len(w.Thresholds), len(w.Probs))
	}
	if w.Fitted && n == 0 {
		return fmt.Errorf("fitted tree has no nodes")
	}
	hasParent := make([]bool, n)
	for i, f := range w.Features {
		if p := w.Probs[i]; !(p >= 0 && p <= 1) {
			return fmt.Errorf("node %d: probability %v outside [0, 1]", i, p)
		}
		if f < 0 {
			continue
		}
		if int(f) >= w.NFeatures {
			return fmt.Errorf("node %d: feature %d outside [0, %d)", i, f, w.NFeatures)
		}
		for _, c := range [2]int32{w.Left[i], w.Right[i]} {
			if int(c) <= i || int(c) >= n {
				return fmt.Errorf("node %d: child %d outside (%d, %d)", i, c, i, n)
			}
			if hasParent[c] {
				return fmt.Errorf("node %d: child %d already has a parent", i, c)
			}
			hasParent[c] = true
		}
	}
	return nil
}
