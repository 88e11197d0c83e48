package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"time"

	"monitorless/internal/core"
	"monitorless/internal/dataset"
	"monitorless/internal/experiments"
	"monitorless/internal/features"
	"monitorless/internal/frame"
	"monitorless/internal/ml/forest"
	"monitorless/internal/ml/score"
)

// servedCorpusSeed is cmd/train's default corpus seed: the fleet
// workloads serve the bundle `go run ./cmd/train` writes by default.
var servedCorpusSeed = experiments.Small().Seed

// corpus generates the Table 1 training corpus at the small scale that
// cmd/train uses by default.
func corpus(seed int64) (*dataset.Report, error) {
	s := experiments.Small()
	return dataset.Generate(dataset.Table1(), dataset.GenOptions{
		Duration:    s.TrainDuration,
		RampSeconds: s.RampSeconds,
		Seed:        seed,
	})
}

// childResult is what the training child prints as its last line.
type childResult struct {
	TrainS       float64 `json:"train_s"`
	TrainCPUS    float64 `json:"train_cpu_s"`
	Samples      int     `json:"samples"`
	BundleBytes  int     `json:"bundle_bytes"`
	ReloadSameAs bool    `json:"reload_identical"`
}

// trainChild is the body of the `-role train` child process: generate
// the corpus, train with cmd/train's default config and save the bundle
// (timed together, in wall and in CPU time of all the process's threads),
// then check that the reloaded bundle predicts the training corpus
// bit-identically.
func trainChild(seed int64, out string) error {
	start, cpu0 := time.Now(), processCPU()
	rep, err := corpus(seed)
	if err != nil {
		return err
	}
	m, err := core.Train(rep.Dataset, experiments.Small().TrainConfig())
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := core.SaveBundle(&buf, m, seed); err != nil {
		return err
	}
	if err := os.WriteFile(out, buf.Bytes(), 0o644); err != nil {
		return err
	}
	res := childResult{TrainS: time.Since(start).Seconds(), TrainCPUS: processCPU() - cpu0,
		Samples: len(rep.Dataset.Samples), BundleBytes: buf.Len()}

	b, err := core.LoadBundle(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return err
	}
	fr := rep.Dataset.Frame()
	_, want, err := m.PredictFrame(fr)
	if err != nil {
		return err
	}
	_, got, err := b.Model.PredictFrame(fr)
	if err != nil {
		return err
	}
	res.ReloadSameAs = sameProbs(want, got)
	return json.NewEncoder(os.Stdout).Encode(res)
}

// processCPU is the user plus system CPU time of every thread of this
// process so far, in seconds.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

func sameProbs(a, b map[int][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for id, pa := range a {
		pb := b[id]
		if len(pa) != len(pb) {
			return false
		}
		for i := range pa {
			if math.Float64bits(pa[i]) != math.Float64bits(pb[i]) {
				return false
			}
		}
	}
	return true
}

// trainRun is one training child's outcome as the parent sees it.
type trainRun struct {
	childResult
	PeakRSSMB float64 `json:"peak_rss_mb"`
}

// trainChildren runs n training children one after another, each
// writing the bundle to out.
func trainChildren(self string, seed int64, out string, n int) ([]trainRun, error) {
	var runs []trainRun
	for len(runs) < n {
		r, err := runTrainChild(self, seed, out)
		if err != nil {
			return nil, err
		}
		runs = append(runs, r)
	}
	return runs, nil
}

// runTrainChild trains in a fresh process, so its peak RSS is the
// training plane's own.
func runTrainChild(self string, seed int64, out string) (trainRun, error) {
	cmd := exec.Command(self, "-role", "train", "-corpus-seed", fmt.Sprint(seed), "-bundle", out)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return trainRun{}, fmt.Errorf("training child: %v\n%s", err, stderr.String())
	}
	var r trainRun
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r.childResult); err != nil {
		return trainRun{}, fmt.Errorf("training child output: %w", err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.PeakRSSMB = float64(ru.Maxrss) / 1024
	}
	if !r.ReloadSameAs {
		return r, fmt.Errorf("reloaded bundle predicts differently from the trained model")
	}
	return r, nil
}

// holdout is the separately seeded held-out corpus.
type holdout struct {
	fr *frame.Frame
}

func newHoldout(seed int64) (*holdout, error) {
	rep, err := corpus(seed)
	if err != nil {
		return nil, err
	}
	return &holdout{fr: rep.Dataset.Frame()}, nil
}

// f1 scores the held-out corpus with the bundle's model (batch path).
func (h *holdout) f1(m *core.Model) (float64, error) {
	preds, _, err := m.PredictFrame(h.fr)
	if err != nil {
		return 0, err
	}
	var pred, truth []int
	labels := h.fr.Labels()
	for _, sp := range h.fr.Spans() {
		pred = append(pred, preds[sp.ID]...)
		truth = append(truth, labels[sp.Start:sp.End]...)
	}
	c, err := score.Count(pred, truth)
	if err != nil {
		return 0, err
	}
	return c.F1(), nil
}

// tracedTraining trains the bundle twice in-process: once through
// core.Train (the reference) and once stage by stage with every call into
// a layer wrapped in a span. The staged bundle must be byte-identical to
// the reference and reload to a model that predicts identically; mismatch
// names the first of these checks that failed.
func tracedTraining(tr *tracer, seed int64) (bundle []byte, mismatch string, err error) {
	root := tr.begin("train", 0, 1)
	defer tr.finish(root, 0)

	sp := tr.begin("dataset.Generate", root, 1)
	rep, err := corpus(seed)
	tr.finish(sp, 0)
	if err != nil {
		return nil, "", err
	}
	cfg := experiments.Small().TrainConfig()

	ref, err := core.Train(rep.Dataset, cfg)
	if err != nil {
		return nil, "", err
	}
	var refBuf bytes.Buffer
	if err := core.SaveBundle(&refBuf, ref, seed); err != nil {
		return nil, "", err
	}

	raw := rep.Dataset.Frame()
	pipe, err := features.NewPipeline(cfg.Pipeline)
	if err != nil {
		return nil, "", err
	}
	sp = tr.begin("features.Pipeline.FitFrame", root, 1)
	engineered, err := pipe.FitFrame(raw)
	tr.finish(sp, raw.Rows())
	if err != nil {
		return nil, "", err
	}
	fcfg := cfg.Forest
	fcfg.Threshold = cfg.Threshold
	fo := forest.New(fcfg)
	sp = tr.begin("forest.Forest.FitFrame", root, 1)
	err = fo.FitFrame(engineered, nil, nil)
	tr.finish(sp, engineered.Rows())
	if err != nil {
		return nil, "", err
	}
	sp = tr.begin("frame.FingerprintFrame", root, 1)
	fp := frame.FingerprintFrame(raw, 0)
	tr.finish(sp, raw.Rows())
	saturated := 0
	for _, l := range raw.Labels() {
		saturated += l
	}
	m := &core.Model{
		Pipeline:           pipe,
		Forest:             fo,
		Threshold:          cfg.Threshold,
		RawSchema:          raw.Schema(),
		Fingerprint:        fp,
		TrainSamples:       raw.Rows(),
		TrainSaturatedFrac: float64(saturated) / float64(raw.Rows()),
	}
	var buf bytes.Buffer
	sp = tr.begin("core.SaveBundle", root, 1)
	err = core.SaveBundle(&buf, m, seed)
	tr.finish(sp, buf.Len())
	if err != nil {
		return nil, "", err
	}
	if !bytes.Equal(buf.Bytes(), refBuf.Bytes()) {
		return buf.Bytes(), fmt.Sprintf("stage-by-stage training wrote a bundle that differs from core.Train's (%d vs %d bytes)", buf.Len(), refBuf.Len()), nil
	}
	sp = tr.begin("core.LoadBundle", root, 1)
	b, err := core.LoadBundle(bytes.NewReader(buf.Bytes()))
	tr.finish(sp, buf.Len())
	if err != nil {
		return nil, "", err
	}
	_, want, err := ref.PredictFrame(raw)
	if err != nil {
		return nil, "", err
	}
	_, got, err := b.Model.PredictFrame(raw)
	if err != nil {
		return nil, "", err
	}
	if !sameProbs(want, got) {
		return buf.Bytes(), "reloaded staged bundle predicts differently from core.Train's model", nil
	}
	return buf.Bytes(), "", nil
}
