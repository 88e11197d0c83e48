package serving

import (
	"bytes"
	"encoding/gob"
	"math"
	"net/http/httptest"
	"testing"
	"time"

	"monitorless/internal/core"
	"monitorless/internal/frame"
	"monitorless/internal/ml/forest"
	"monitorless/internal/ml/tree"
)

// rawGob carries a nested GobEncoder value (a forest or a tree) as its
// raw bytes, so a test can decode it into a plain mirror struct, edit it
// and encode it back without going through the type's own validation.
type rawGob []byte

func (b rawGob) GobEncode() ([]byte, error) { return b, nil }

func (b *rawGob) GobDecode(data []byte) error {
	*b = append((*b)[:0], data...)
	return nil
}

// The mirrors match the wire field names of the bundle, model, forest
// and tree images; gob pairs fields by name.
type (
	treeMirror struct {
		Cfg         tree.Config
		Features    []int32
		Left        []int32
		Right       []int32
		Thresholds  []float64
		Probs       []float64
		NFeatures   int
		Importances []float64
		Fitted      bool
	}
	forestMirror struct {
		Cfg         forest.Config
		Trees       []rawGob
		Importances []float64
		NFeatures   int
		Fitted      bool
		BinEdges    [][]float64
		QuantThr    [][]uint8
		QuantFlags  [][]uint8
	}
	modelMirror struct {
		PipelineBlob       []byte
		Forest             rawGob
		Threshold          float64
		RawSchema          frame.Schema
		Fingerprint        *frame.Fingerprint
		TrainSamples       int
		TrainSaturatedFrac float64
	}
	bundleMirror struct {
		Magic      string
		Version    int
		SchemaHash string
		TrainSeed  int64
		ModelBlob  []byte
	}
)

func gobDecode(t *testing.T, data []byte, v any) {
	t.Helper()
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(v); err != nil {
		t.Fatal(err)
	}
}

func gobBytes(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// within runs f on its own goroutine and fails the test if it has not
// returned after one second (a hang would otherwise stall the binary).
func within(t *testing.T, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatalf("%s did not return within 1 s", what)
	}
}

// craftBundle re-encodes a valid v4 bundle after editTree has changed its
// first tree, editForest its forest image and editModel its model image
// (any may be nil).
func craftBundle(t *testing.T, valid []byte, editTree func(*treeMirror), editForest func(*forestMirror), editModel func(*modelMirror)) []byte {
	t.Helper()
	var b bundleMirror
	gobDecode(t, valid, &b)
	var m modelMirror
	gobDecode(t, b.ModelBlob, &m)
	var f forestMirror
	gobDecode(t, m.Forest, &f)
	if editTree != nil {
		var tr treeMirror
		gobDecode(t, f.Trees[0], &tr)
		editTree(&tr)
		f.Trees[0] = gobBytes(t, &tr)
	}
	if editForest != nil {
		editForest(&f)
	}
	m.Forest = gobBytes(t, &f)
	if editModel != nil {
		editModel(&m)
	}
	b.ModelBlob = gobBytes(t, &m)
	return gobBytes(t, &b)
}

// TestHostileBundleRejected feeds LoadBundle and POST /model bundles
// whose forest or fingerprint was edited into shapes no trainer writes.
// A self-loop child used to make forest compilation append forever; every
// case must now be refused, and refused quickly.
func TestHostileBundleRejected(t *testing.T) {
	m := histTestModel(t)
	var valid bytes.Buffer
	if err := core.SaveBundle(&valid, m, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := core.LoadBundle(bytes.NewReader(valid.Bytes())); err != nil {
		t.Fatalf("untouched bundle: %v", err)
	}
	svc, err := New(Config{Model: m, BundleVersion: core.BundleVersion})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(svc)

	cases := []struct {
		name   string
		tree   func(*treeMirror)
		forest func(*forestMirror)
		model  func(*modelMirror)
	}{
		{name: "self-loop child", tree: func(tr *treeMirror) { tr.Left[0] = 0 }},
		{name: "child past the last node", tree: func(tr *treeMirror) { tr.Right[0] = int32(len(tr.Features)) }},
		{name: "shared child", tree: func(tr *treeMirror) { tr.Right[0] = tr.Left[0] }},
		{name: "feature out of range", tree: func(tr *treeMirror) { tr.Features[0] = int32(tr.NFeatures) }},
		{name: "NaN probability", tree: func(tr *treeMirror) { tr.Probs[len(tr.Probs)-1] = math.NaN() }},
		{name: "probability above 1", tree: func(tr *treeMirror) { tr.Probs[0] = 1.5 }},
		{name: "slab lengths differ", tree: func(tr *treeMirror) { tr.Probs = tr.Probs[:len(tr.Probs)-1] }},
		{name: "descending bin edges", forest: func(f *forestMirror) {
			for _, col := range f.BinEdges {
				if len(col) >= 2 && col[0] < col[len(col)-1] {
					col[0], col[len(col)-1] = col[len(col)-1], col[0]
					return
				}
			}
			t.Fatal("no bin-edge column with two distinct edges")
		}},
		{name: "more than 255 bin edges", forest: func(f *forestMirror) {
			col := make([]float64, 300)
			for i := range col {
				col[i] = float64(i)
			}
			f.BinEdges[0] = col
		}},
		{name: "fingerprint with too many edges", model: func(mm *modelMirror) {
			fp := *mm.Fingerprint
			fp.Cols = append([]frame.ColFingerprint(nil), fp.Cols...)
			edges := make([]float64, frame.MaxFingerprintBins)
			for i := range edges {
				edges[i] = float64(i)
			}
			fp.Cols[0].Edges = edges
			fp.Cols[0].Props = make([]float64, len(edges)+1)
			mm.Fingerprint = &fp
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := craftBundle(t, valid.Bytes(), tc.tree, tc.forest, tc.model)

			within(t, "LoadBundle", func() {
				_, err := core.LoadBundle(bytes.NewReader(data))
				if err == nil {
					t.Error("LoadBundle accepted the bundle")
				}
				t.Log(err)
			})
			within(t, "POST /model", func() {
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, httptest.NewRequest("POST", "/model", bytes.NewReader(data)))
				if rec.Code != 400 {
					t.Errorf("POST /model: %d, want 400", rec.Code)
				}
			})
		})
	}
	if svc.ModelGen() != 1 {
		t.Fatalf("a hostile bundle was swapped in: gen %d", svc.ModelGen())
	}
}
