// Command perfbench is the repository benchmark. It trains a bundle with
// cmd/train's default configuration, launches the real cmd/serve binary
// and drives it with live simulator traffic in one of two workloads,
// checks the server's outputs against in-process references, and prints
// one JSON result line:
//
//	perfbench -root . -serve .bench_build/bin/serve \
//	    --workload fleet-steady --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics of
// BENCHMARK.json; with --trace 1 it carries the per-layer metrics, taken
// from spans the harness records around its own calls into each layer's
// public functions (the spans are written to .bench_build/). perfbench/run.sh
// builds both binaries from source and runs this command.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench carries one run's settings and everything it accumulates.
type bench struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	serveBin string
	self     string
	tmp      string

	led     *ledger
	fe      firstError
	detail  map[string]any
	checks  []string // failed output checks
	metrics map[string]metric
}

func (b *bench) fail(format string, args ...any) {
	b.checks = append(b.checks, fmt.Sprintf(format, args...))
}

func (b *bench) put(name string, v float64, unit string) {
	b.metrics[name] = metric{Value: v, Unit: unit}
}

func main() {
	var (
		role       = flag.String("role", "bench", "bench, or train (internal: the training child process)")
		workload   = flag.String("workload", "", "fleet-steady or fleet-churn")
		seed       = flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds    = flag.Int("seconds", 20, "length of the measured phase in seconds")
		trace      = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
		root       = flag.String("root", ".", "repository checkout; scratch files go under its .bench_build/")
		serveBin   = flag.String("serve", "", "cmd/serve binary built from the checkout")
		corpusSeed = flag.Int64("corpus-seed", 0, "training child: corpus seed")
		bundleOut  = flag.String("bundle", "", "training child: bundle output path")
	)
	flag.Parse()
	if *role == "train" {
		if err := trainChild(*corpusSeed, *bundleOut); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench train:", err)
			os.Exit(1)
		}
		return
	}
	if *seconds < 4 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 4")
		os.Exit(2)
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	scratch := filepath.Join(*root, ".bench_build")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	tmp, err := os.MkdirTemp(scratch, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b := &bench{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		serveBin: *serveBin, self: self, tmp: tmp,
		led: newLedger(), detail: map[string]any{}, metrics: map[string]metric{},
	}
	b.detail["env"] = environment()
	steal0, total0 := hostSteal()
	err = b.run()
	if steal1, total1 := hostSteal(); total1 > total0 {
		b.detail["host_steal_share"] = (steal1 - steal0) / (total1 - total0)
	}
	os.RemoveAll(tmp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	attempted, bad := b.led.totals()
	res := result{Correct: len(b.checks) == 0, Attempted: attempted, Failed: bad, Metrics: b.metrics}
	b.detail["failed_checks"] = b.checks
	b.detail["first_refusal"] = b.fe.msg
	b.detail["ledger"] = b.led.m
	detail, _ := json.Marshal(map[string]any{"detail": b.detail})
	fmt.Println(string(detail))
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
}

func (b *bench) run() error {
	switch b.workload {
	case "fleet-steady", "fleet-churn":
		return b.runFleet()
	default:
		return fmt.Errorf("unknown --workload %q (want fleet-steady or fleet-churn)", b.workload)
	}
}

// hostSteal reads the machine-wide steal time and total time, in clock
// ticks, from /proc/stat. Their ratio over a run is the share of CPU time
// the hypervisor gave to other guests; CPU-time figures exclude it, wall
// times do not.
func hostSteal() (steal, total float64) {
	body, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(body), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f) && i <= 8; i++ { // user .. steal
		v, _ := strconv.ParseFloat(f[i], 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

// environment records the machine every result was measured on.
func environment() map[string]any {
	cpu := "unknown"
	if body, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(body), "\n") {
			if v, ok := strings.CutPrefix(line, "model name"); ok {
				cpu = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(v), ":"))
				break
			}
		}
	}
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu":        cpu,
		"go":         runtime.Version(),
		"goos":       runtime.GOOS + "/" + runtime.GOARCH,
	}
}
