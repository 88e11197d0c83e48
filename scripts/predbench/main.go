// Command predbench measures the forest batch-predict plane on the same
// workload as the committed ml/forest benchmarks (2000 rows × 50
// continuous features, 30 trees) and writes BENCH_predict.json: the
// float tree walk versus the compiled uint8-code path, dense, chunked,
// serial and serving-shard regimes, all from one process run so every
// number shares the same machine state. The float walk over the
// identical hist-trained ensemble is the "before" side; the quantized
// regimes are the "after"; speedup_quant_vs_float is their ratio, which
// stays meaningful even when the host's absolute clock-for-clock speed
// drifts between runs (scripts/benchdiff -ratio-of exploits exactly
// that).
//
// Usage:
//
//	go run ./scripts/predbench                         # BENCH_predict.json
//	go run ./scripts/predbench -out /tmp/pred.json -min-speedup 1.5
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"runtime"
	"testing"

	"monitorless/internal/frame"
	"monitorless/internal/ml"
	"monitorless/internal/ml/forest"
	"monitorless/internal/ml/tree"
)

const (
	benchRows  = 2000
	benchCols  = 50
	benchTrees = 30
	shardRows  = 32 // one serving-shard batch: the single-block inline regime
)

type result struct {
	Benchmark string  `json:"benchmark"`
	Rows      int     `json:"rows"`
	NsOp      int64   `json:"ns_op"`
	NsRow     float64 `json:"ns_row"`
	BytesOp   int64   `json:"bytes_op"`
	AllocsOp  int64   `json:"allocs_op"`
	Note      string  `json:"note,omitempty"`
}

type report struct {
	Description string `json:"description"`
	Machine     struct {
		Goos         string `json:"goos"`
		Goarch       string `json:"goarch"`
		CPU          string `json:"cpu"`
		CoresVisible int    `json:"cores_visible"`
	} `json:"machine"`
	Workload            string   `json:"workload"`
	SpeedupQuantVsFloat float64  `json:"speedup_quant_vs_float"`
	Results             []result `json:"results"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("predbench: ")
	var (
		out        = flag.String("out", "BENCH_predict.json", "JSON report path")
		minSpeedup = flag.Float64("min-speedup", 0, "fail unless dense quant is at least this many times faster per row than the float walk on the same trees (0 = no gate)")
	)
	flag.Parse()
	if err := run(*out, *minSpeedup); err != nil {
		log.Fatal(err)
	}
}

// benchRow builds one result from a standard-library benchmark run over
// a whole-frame predict through the caller-owned-buffer entry point.
func benchRow(name string, f *forest.Forest, fr *frame.Frame, note string) result {
	dst := make([]float64, fr.Rows())
	br := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f.PredictProbaFrameRowsInto(fr, nil, dst)
		}
	})
	r := result{
		Benchmark: name,
		Rows:      fr.Rows(),
		NsOp:      br.NsPerOp(),
		NsRow:     float64(br.NsPerOp()) / float64(fr.Rows()),
		BytesOp:   br.AllocedBytesPerOp(),
		AllocsOp:  br.AllocsPerOp(),
		Note:      note,
	}
	fmt.Printf("%-28s %8.1f ns/row  %6d B/op  %3d allocs/op\n", name, r.NsRow, r.BytesOp, r.AllocsOp)
	return r
}

func run(out string, minSpeedup float64) error {
	// The committed benchmark workload: benchData(2000, 50) with seed 3.
	r := rand.New(rand.NewSource(3))
	x := make([][]float64, benchRows)
	y := make([]int, benchRows)
	for i := range x {
		row := make([]float64, benchCols)
		for j := range row {
			row[j] = r.NormFloat64()
		}
		x[i] = row
		if row[0]+0.3*row[1] > 0.2 {
			y[i] = 1
		}
	}

	exact := forest.New(forest.Config{NumTrees: benchTrees, MinSamplesLeaf: 10, Seed: 1})
	if err := exact.Fit(x, y); err != nil {
		return fmt.Errorf("exact fit: %w", err)
	}
	hist := forest.New(forest.Config{NumTrees: benchTrees, MinSamplesLeaf: 10, Splitter: tree.Hist, Seed: 1})
	if err := hist.Fit(x, y); err != nil {
		return fmt.Errorf("hist fit: %w", err)
	}
	if hist.Quant() == nil || !hist.Quant().FullyQuantized() {
		return fmt.Errorf("hist fit did not compile a fully-quantized predictor")
	}

	dense := ml.FrameOf(x)
	chunked, err := frame.Rechunk(dense, 512, "")
	if err != nil {
		return fmt.Errorf("rechunk: %w", err)
	}
	defer chunked.Close()
	shard := ml.FrameOf(x[:shardRows])

	var rep report
	rep.Machine.Goos = runtime.GOOS
	rep.Machine.Goarch = runtime.GOARCH
	rep.Machine.CPU = cpuModel()
	rep.Machine.CoresVisible = runtime.NumCPU()
	rep.Workload = fmt.Sprintf("%d rows × %d continuous features, %d trees, MinSamplesLeaf 10, seed 1 (the committed ml/forest benchmark workload)", benchRows, benchCols, benchTrees)

	rep.Results = append(rep.Results,
		benchRow("PredictBatchDenseExact", exact, dense,
			"exact-splitter forest, float SoA walk: the pre-change committed baseline benchmark (BenchmarkForestPredictBatch)"))

	// The float reference is a gob clone of the same trees with the
	// compiled form dropped.
	gobImg, err := hist.GobEncode()
	if err != nil {
		return err
	}
	histFloat := new(forest.Forest)
	if err := histFloat.GobDecode(gobImg); err != nil {
		return err
	}
	histFloat.DropQuant()
	floatRow := benchRow("PredictBatchDenseFloatHist", histFloat, dense,
		"the same hist-trained trees through the float walk: the before side of the quantized comparison")
	rep.Results = append(rep.Results, floatRow)

	quantRow := benchRow("PredictBatchDenseQuant", hist, dense,
		"compiled uint8-code path: 256-row blocks quantized once via per-column grids, packed branchless 4-row-interleaved walk")
	rep.Results = append(rep.Results, quantRow)

	hist.Quant().SetParallelism(1)
	rep.Results = append(rep.Results, benchRow("PredictBatchQuantSerial", hist, dense,
		"quantized path pinned to one worker: the zero-closure inline block loop"))
	hist.Quant().SetParallelism(0)

	rep.Results = append(rep.Results, benchRow("PredictBatchQuantChunked", hist, chunked,
		"chunk-backed frame (512-row chunks): per-chunk block tiling, no densify"))

	rep.Results = append(rep.Results, benchRow("PredictShardQuant", hist, shard,
		fmt.Sprintf("one %d-row serving-shard batch: single-block inline regime, pooled scratch, zero allocations", shardRows)))

	rep.SpeedupQuantVsFloat = floatRow.NsRow / quantRow.NsRow
	rep.Description = fmt.Sprintf(
		"Forest batch-predict before/after the compiled quantized path, one process run. Headline: the uint8-code walk scores the dense %d-row frame at %.0f ns/row vs %.0f ns/row for the float walk over the identical hist-trained trees — %.2fx — and stays bit-identical (TestQuantBitIdentityDense, TestTable2QuantBitIdentity at workers 1/4/8). The exact-splitter float baseline (the old BenchmarkForestPredictBatch) measures %.0f ns/row in the same run.",
		benchRows, quantRow.NsRow, floatRow.NsRow, rep.SpeedupQuantVsFloat, rep.Results[0].NsRow)

	fmt.Printf("quant vs float on identical trees: %.2fx\n", rep.SpeedupQuantVsFloat)
	if minSpeedup > 0 && rep.SpeedupQuantVsFloat < minSpeedup {
		return fmt.Errorf("quantized path is only %.2fx faster than the float walk (gate: %.2fx)", rep.SpeedupQuantVsFloat, minSpeedup)
	}

	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	if err := os.WriteFile(out, blob, 0o644); err != nil {
		return err
	}
	fmt.Printf("report written to %s\n", out)
	return nil
}

// cpuModel reads the CPU model name from /proc/cpuinfo (best effort —
// empty off Linux).
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range splitLines(string(data)) {
		if name, ok := cutPrefixTrim(line, "model name"); ok {
			return name
		}
	}
	return ""
}

func splitLines(s string) []string {
	var lines []string
	for len(s) > 0 {
		i := 0
		for i < len(s) && s[i] != '\n' {
			i++
		}
		lines = append(lines, s[:i])
		if i < len(s) {
			i++
		}
		s = s[i:]
	}
	return lines
}

// cutPrefixTrim matches "key<ws>:<ws>value" cpuinfo lines.
func cutPrefixTrim(line, key string) (string, bool) {
	if len(line) < len(key) || line[:len(key)] != key {
		return "", false
	}
	rest := line[len(key):]
	i := 0
	for i < len(rest) && (rest[i] == ' ' || rest[i] == '\t') {
		i++
	}
	if i >= len(rest) || rest[i] != ':' {
		return "", false
	}
	i++
	for i < len(rest) && (rest[i] == ' ' || rest[i] == '\t') {
		i++
	}
	return rest[i:], true
}
