// Command benchdiff compares two BENCH_*.json reports and fails when a
// benchmark regressed past a threshold. It walks both files generically,
// collecting every object that carries a "benchmark" name plus a
// numeric "ns_row" or "ns_op", so it reads every report a committed
// script writes (BENCH_predict.json, BENCH_ingest.json); benchmarks
// present in only one file are reported but never fail the diff.
// End-to-end and per-stage numbers for the whole system come from the
// repository benchmark instead: bash perfbench/run.sh --trace 1.
//
// Absolute nanoseconds drift with the host's clock-for-clock speed
// between runs, so the regression gate supports normalization:
// -ratio-of NAME divides every metric by that benchmark's value in the
// same file before comparing. With -ratio-of set to the float-walk
// benchmark, the gate asks "did the quantized speedup shrink?", which is
// invariant to the machine being globally slower or faster that day.
//
// Usage:
//
//	go run ./scripts/benchdiff -old BENCH_predict.json -new /tmp/fresh.json -max-regress 15
//	go run ./scripts/benchdiff -old BENCH_predict.json -new /tmp/fresh.json \
//	    -max-regress 15 -ratio-of PredictBatchDenseFloatHist
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strings"
)

type entry struct {
	name string
	ns   float64 // ns_row preferred, ns_op otherwise
	unit string
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchdiff: ")
	var (
		oldPath    = flag.String("old", "", "baseline BENCH_*.json")
		newPath    = flag.String("new", "", "candidate BENCH_*.json")
		maxRegress = flag.Float64("max-regress", 15, "fail when a shared benchmark is more than this percent slower")
		ratioOf    = flag.String("ratio-of", "", "normalize each file's metrics by this benchmark's value in the same file (machine-speed-independent gate)")
		skip       = flag.String("skip", "", "comma-separated benchmark-name substrings reported but never failed (for known-noisy micro workloads)")
	)
	flag.Parse()
	if *oldPath == "" || *newPath == "" {
		log.Fatal("both -old and -new are required")
	}
	if err := run(*oldPath, *newPath, *maxRegress, *ratioOf, *skip); err != nil {
		log.Fatal(err)
	}
}

func run(oldPath, newPath string, maxRegress float64, ratioOf, skip string) error {
	oldE, err := load(oldPath)
	if err != nil {
		return err
	}
	newE, err := load(newPath)
	if err != nil {
		return err
	}
	if ratioOf != "" {
		if err := normalize(oldE, ratioOf, oldPath); err != nil {
			return err
		}
		if err := normalize(newE, ratioOf, newPath); err != nil {
			return err
		}
	}

	var skips []string
	for _, s := range strings.Split(skip, ",") {
		if s = strings.TrimSpace(s); s != "" {
			skips = append(skips, s)
		}
	}
	skipped := func(name string) bool {
		for _, s := range skips {
			if strings.Contains(name, s) {
				return true
			}
		}
		return false
	}

	names := make([]string, 0, len(oldE))
	for name := range oldE {
		names = append(names, name)
	}
	sort.Strings(names)

	var failures int
	for _, name := range names {
		o := oldE[name]
		n, ok := newE[name]
		if !ok {
			fmt.Printf("%-32s only in %s\n", name, oldPath)
			continue
		}
		deltaPct := (n.ns - o.ns) / o.ns * 100
		status := "ok"
		switch {
		case skipped(name):
			status = "skipped"
		case deltaPct > maxRegress:
			status = "REGRESSED"
			failures++
		}
		fmt.Printf("%-32s %12.2f -> %12.2f %-6s %+7.1f%%  %s\n", name, o.ns, n.ns, o.unit, deltaPct, status)
	}
	for name := range newE {
		if _, ok := oldE[name]; !ok {
			fmt.Printf("%-32s only in %s\n", name, newPath)
		}
	}
	if failures > 0 {
		return fmt.Errorf("%d benchmark(s) regressed more than %.0f%%", failures, maxRegress)
	}
	fmt.Println("no regressions past threshold")
	return nil
}

func normalize(es map[string]entry, ref, path string) error {
	r, ok := es[ref]
	if !ok || r.ns == 0 {
		return fmt.Errorf("-ratio-of %s: benchmark not found (or zero) in %s", ref, path)
	}
	for name, e := range es {
		e.ns /= r.ns
		e.unit = "ratio"
		es[name] = e
	}
	return nil
}

// load parses any BENCH_*.json and collects benchmark entries from
// arbitrarily nested objects/arrays.
func load(path string) (map[string]entry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var root any
	if err := json.Unmarshal(data, &root); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	es := map[string]entry{}
	walk(root, es)
	if len(es) == 0 {
		return nil, fmt.Errorf("%s: no benchmark entries found", path)
	}
	return es, nil
}

func walk(v any, es map[string]entry) {
	switch t := v.(type) {
	case map[string]any:
		if name, ok := t["benchmark"].(string); ok {
			if ns, ok := t["ns_row"].(float64); ok {
				es[name] = entry{name: name, ns: ns, unit: "ns/row"}
			} else if ns, ok := t["ns_op"].(float64); ok {
				es[name] = entry{name: name, ns: ns, unit: "ns/op"}
			}
		}
		for _, child := range t {
			walk(child, es)
		}
	case []any:
		for _, child := range t {
			walk(child, es)
		}
	}
}
