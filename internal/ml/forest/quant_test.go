package forest

import (
	"math"
	"math/rand"
	"testing"

	"monitorless/internal/frame"
	"monitorless/internal/ml"
	"monitorless/internal/ml/tree"
)

// quantData builds a training set that exercises every lowering regime:
// continuous columns, heavily tied integer columns (whose bin edges are
// the same x.5 midpoints the exact splitter picks), a constant column
// (single distinct value — unsplittable, zero bin edges), and a column
// with extreme-magnitude outliers. (±Inf is exercised at predict time —
// TestQuantPredictEdgeValues — since training validation rejects
// non-finite samples.)
func quantData(n int, seed int64) ([][]float64, []int) {
	r := rand.New(rand.NewSource(seed))
	x := make([][]float64, n)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		row := make([]float64, 6)
		row[0] = r.NormFloat64() * 3 // continuous
		row[1] = float64(r.Intn(8))  // tied integers
		row[2] = 42.5                // constant: never split, no edges
		row[3] = r.NormFloat64()     // continuous
		row[4] = float64(r.Intn(3))  // very few distinct values
		row[5] = r.NormFloat64()     // extreme outliers below
		if i%97 == 0 {
			row[5] = 1e300
		}
		x[i] = row
		if row[0]+0.7*row[1]-row[3] > 2 {
			y[i] = 1
		}
	}
	return x, y
}

func fitQuantForest(t *testing.T, x [][]float64, y []int, sp tree.Splitter) *Forest {
	t.Helper()
	f := New(Config{NumTrees: 20, MinSamplesLeaf: 5, Splitter: sp, Seed: 11})
	if err := f.Fit(x, y); err != nil {
		t.Fatalf("fit: %v", err)
	}
	return f
}

// assertBitIdentical fails on the first probability whose bits differ.
func assertBitIdentical(t *testing.T, label string, want, got []float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: length %d vs %d", label, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			t.Fatalf("%s: row %d: quant %v (%#x) vs float %v (%#x)",
				label, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// floatClone returns the float reference for f: a gob clone of the same
// trees with the compiled form dropped.
func floatClone(f *Forest) *Forest {
	data, err := f.GobEncode()
	if err != nil {
		panic(err)
	}
	ref := new(Forest)
	if err := ref.GobDecode(data); err != nil {
		panic(err)
	}
	ref.DropQuant()
	return ref
}

// floatProbs computes the reference probabilities through the float tree
// walk over a float clone of f.
func floatProbs(f *Forest, fr *frame.Frame, rows []int) []float64 {
	return floatClone(f).PredictProbaFrameRows(fr, rows)
}

// TestHistForestCompilesFullyQuantized pins the core lowering guarantee:
// histogram thresholds are exact bin-edge values, so every internal node
// of a hist-trained forest becomes a uint8 code compare, and columns the
// forest never tests (the constant column) get no code-slab slot.
func TestHistForestCompilesFullyQuantized(t *testing.T) {
	x, y := quantData(1500, 5)
	f := fitQuantForest(t, x, y, tree.Hist)
	q := f.Quant()
	if q == nil {
		t.Fatal("hist fit did not compile a quantized predictor")
	}
	if !f.QuantActive() {
		t.Fatal("quantized routing not active after hist fit")
	}
	if !q.FullyQuantized() || q.FloatNodes() != 0 {
		t.Fatalf("hist forest not fully quantized: %d quant, %d float nodes",
			q.QuantNodes(), q.FloatNodes())
	}
	if q.QuantNodes() == 0 {
		t.Fatal("no quantized nodes — forest learned nothing")
	}
	// Column 2 is constant: unsplittable, so no slot may be assigned.
	if q.NumSlots() >= ml.FrameOf(x).NumCols() {
		t.Fatalf("slot count %d not below column count %d (constant column got a slot)",
			q.NumSlots(), ml.FrameOf(x).NumCols())
	}
	if got := len(f.BinEdges()); got != len(x[0]) {
		t.Fatalf("BinEdges: %d edge sets for %d columns", got, len(x[0]))
	}
}

// TestQuantBitIdentityDense: the compiled path must reproduce the float
// batch walk bit for bit over a dense frame — full-frame, a scattered
// row subset, and against the per-row PredictProba reference.
func TestQuantBitIdentityDense(t *testing.T) {
	x, y := quantData(1500, 5)
	f := fitQuantForest(t, x, y, tree.Hist)
	fr := ml.FrameOf(x)

	quant := f.PredictProbaFrameRows(fr, nil)
	assertBitIdentical(t, "dense full-frame", floatProbs(f, fr, nil), quant)
	for i := 0; i < len(x); i += 211 {
		if p := f.PredictProba(x[i]); math.Float64bits(p) != math.Float64bits(quant[i]) {
			t.Fatalf("row %d: per-row %v vs batch %v", i, p, quant[i])
		}
	}

	rows := make([]int, 0, len(x)/3)
	for i := len(x) - 1; i >= 0; i -= 3 {
		rows = append(rows, i) // descending, non-contiguous
	}
	assertBitIdentical(t, "row subset", floatProbs(f, fr, rows), f.PredictProbaFrameRows(fr, rows))
}

// TestQuantBitIdentityChunked: a chunk-backed frame must score through
// the quantized per-chunk tiling bit-identically to the dense walk, and
// a row list over a chunked frame (which routes to the float fallback)
// must match too.
func TestQuantBitIdentityChunked(t *testing.T) {
	x, y := quantData(1500, 5)
	f := fitQuantForest(t, x, y, tree.Hist)
	dense := ml.FrameOf(x)
	want := floatProbs(f, dense, nil)

	for _, chunkRows := range []int{97, 256, 700} {
		ch, err := frame.Rechunk(dense, chunkRows, "")
		if err != nil {
			t.Fatalf("rechunk(%d): %v", chunkRows, err)
		}
		assertBitIdentical(t, "chunked full-frame", want, f.PredictProbaFrameRows(ch, nil))

		rows := []int{0, 313, 96, 97, 98, len(x) - 1}
		wantSub := make([]float64, len(rows))
		for p, i := range rows {
			wantSub[p] = want[i]
		}
		assertBitIdentical(t, "chunked row list", wantSub, f.PredictProbaFrameRows(ch, rows))
		ch.Close()
	}
}

// TestQuantWorkerCountInvariance: disjoint per-block output ranges and
// in-block tree-order accumulation make the result bit-identical at any
// block-level parallelism.
func TestQuantWorkerCountInvariance(t *testing.T) {
	x, y := quantData(2100, 7) // 9 blocks at 256 rows/block
	f := fitQuantForest(t, x, y, tree.Hist)
	fr := ml.FrameOf(x)
	q := f.Quant()

	q.SetParallelism(1)
	want := f.PredictProbaFrameRows(fr, nil)
	assertBitIdentical(t, "serial vs float", floatProbs(f, fr, nil), want)
	for _, w := range []int{2, 4, 8} {
		q.SetParallelism(w)
		assertBitIdentical(t, "workers", want, f.PredictProbaFrameRows(fr, nil))
	}
	q.SetParallelism(0)
}

// TestQuantPredictEdgeValues feeds the traversal the inputs most likely
// to break a quantized compare: values exactly on bin edges, one ulp on
// either side of an edge, ±Inf, NaN, and values outside the training
// range. Every one must decide identically to the float walk.
func TestQuantPredictEdgeValues(t *testing.T) {
	x, y := quantData(1500, 5)
	f := fitQuantForest(t, x, y, tree.Hist)
	edges := f.BinEdges()

	var probes [][]float64
	add := func(mutate func(row []float64)) {
		row := append([]float64(nil), x[0]...)
		mutate(row)
		probes = append(probes, row)
	}
	// Exact edge values and their ulp neighbours, for every column that
	// has edges: first, middle and last edge of each.
	for j, e := range edges {
		if len(e) == 0 {
			continue
		}
		for _, c := range []int{0, len(e) / 2, len(e) - 1} {
			v := e[c]
			add(func(row []float64) { row[j] = v })
			add(func(row []float64) { row[j] = math.Nextafter(v, math.Inf(-1)) })
			add(func(row []float64) { row[j] = math.Nextafter(v, math.Inf(1)) })
		}
	}
	for j := range edges {
		j := j
		add(func(row []float64) { row[j] = math.Inf(1) })
		add(func(row []float64) { row[j] = math.Inf(-1) })
		add(func(row []float64) { row[j] = math.NaN() })
		add(func(row []float64) { row[j] = 1e300 })
		add(func(row []float64) { row[j] = -1e300 })
	}

	fr := ml.FrameOf(probes)
	quant := f.PredictProbaFrameRows(fr, nil)
	assertBitIdentical(t, "edge probes", floatProbs(f, fr, nil), quant)
	for i, row := range probes {
		if p := f.PredictProba(row); math.Float64bits(p) != math.Float64bits(quant[i]) {
			t.Fatalf("probe %d: per-row %v vs batch %v", i, p, quant[i])
		}
	}
}

// TestExactForestPartialQuant compiles an exact-splitter forest against
// BinFrame edges: integer-column midpoints coincide with bin edges and
// lower to code compares, continuous-column midpoints do not and keep
// the float side-channel — and the mixed walk stays bit-identical.
func TestExactForestPartialQuant(t *testing.T) {
	x, y := quantData(1200, 9)
	f := fitQuantForest(t, x, y, tree.Best)
	if f.Quant() != nil {
		t.Fatal("exact fit must not auto-compile")
	}
	fr := ml.FrameOf(x)
	want := f.PredictProbaFrameRows(fr, nil)

	bn := frame.BinFrame(fr, 0, nil)
	if err := f.CompileQuant(bn.Edges()); err != nil {
		t.Fatalf("compile: %v", err)
	}
	q := f.Quant()
	if q.QuantNodes() == 0 {
		t.Fatal("no node lowered — tied integer columns should produce edge-coincident midpoints")
	}
	if q.FloatNodes() == 0 {
		t.Fatal("no side-channel node — continuous-column midpoints should not be edge values")
	}
	assertBitIdentical(t, "mixed-tree walk", want, f.PredictProbaFrameRows(fr, nil))

	f.DropQuant()
	if f.Quant() != nil || f.BinEdges() != nil {
		t.Fatal("DropQuant left compiled state behind")
	}
}

// TestCompileErrors pins the two refusal paths.
func TestCompileErrors(t *testing.T) {
	if _, err := Compile(New(Config{NumTrees: 3}), nil); err == nil {
		t.Fatal("compile of an unfitted forest must fail")
	}
	x, y := quantData(400, 3)
	f := fitQuantForest(t, x, y, tree.Hist)
	if _, err := Compile(f, make([][]float64, 2)); err == nil {
		t.Fatal("compile with a mismatched edge-set count must fail")
	}
}

// TestForestBatchPredictAllocations pins the zero-allocation contract of
// the caller-owned-buffer batch path: the float walk, the quantized walk
// at parallelism 1 (pooled code scratch), and the single-block serving
// regime at default parallelism must all allocate nothing per call.
func TestForestBatchPredictAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector; the verify.sh allocation lane runs this without -race")
	}
	x, y := quantData(600, 5) // 3 blocks
	f := fitQuantForest(t, x, y, tree.Hist)
	ref := floatClone(f)
	fr := ml.FrameOf(x)
	dst := make([]float64, fr.Rows())

	shard := ml.FrameOf(x[:32]) // one block: inline path at any parallelism
	shardDst := make([]float64, 32)

	cases := []struct {
		name string
		prep func()
		call func()
	}{
		{"float", func() {},
			func() { ref.PredictProbaFrameRowsInto(fr, nil, dst) }},
		{"quant-serial", func() { f.Quant().SetParallelism(1) },
			func() { f.PredictProbaFrameRowsInto(fr, nil, dst) }},
		{"quant-shard", func() { f.Quant().SetParallelism(0) },
			func() { f.PredictProbaFrameRowsInto(shard, nil, shardDst) }},
	}
	for _, tc := range cases {
		tc.prep()
		if n := testing.AllocsPerRun(50, tc.call); n != 0 {
			t.Errorf("%s: %v allocs/op, want 0", tc.name, n)
		}
	}
}
