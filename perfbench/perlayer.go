package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"monitorless/internal/serving"
)

// replayOps is the part of the plan the in-process replay repeats:
// every acknowledged op of the warm-up, the measured phase and the
// capacity phase, in plan order, cut after maxReplaySamples samples.
func replayOps(p *plan) []*op {
	var out []*op
	n := 0
	for _, list := range [][]*op{p.warm, p.open, p.capacity} {
		for _, o := range list {
			if !o.acked {
				continue
			}
			if n >= maxReplaySamples {
				return out
			}
			if o.kind == opIngest {
				n += o.fr.samples
			}
			out = append(out, o)
		}
	}
	return out
}

// untracedIngestNs replays ops through a fresh in-process service with
// only IngestQuiet timed, and returns its nanoseconds per sample.
func untracedIngestNs(bundle []byte, ops []*op) (float64, error) {
	base, err := newReplayer(bundle, nil)
	if err != nil {
		return 0, err
	}
	if err := base.run(ops); err != nil {
		return 0, fmt.Errorf("untraced replay: %w", err)
	}
	ns := float64(base.ingest.Nanoseconds()) / float64(base.samples)
	base = nil
	runtime.GC()
	return ns, nil
}

// perLayer replays the run's traffic in-process three times — untraced,
// traced with the shadow ladder, untraced again (the two untraced passes
// bracket the traced one, so warm-up and drift of the machine cancel in
// the tracing overhead) — and reports the per-layer metrics.
func (b *bench) perLayer(tr *tracer, p *plan, bundle []byte, s *served) error {
	ops := replayOps(p)
	before, err := untracedIngestNs(bundle, ops)
	if err != nil {
		return err
	}

	r, err := newReplayer(bundle, tr)
	if err != nil {
		return err
	}
	if err := r.run(ops); err != nil {
		return fmt.Errorf("traced replay: %w", err)
	}
	tracked := r.svc.Stats().Instances
	stateBytes, err := gauge(r.svc, "monitorless_instance_state_bytes")
	if err != nil {
		return err
	}
	var live []string
	for id := range r.seen {
		if _, ok := r.svc.InstancePrediction(id); ok {
			live = append(live, id)
		}
	}
	sort.Strings(live)
	if err := r.run(tailOps(rand.New(rand.NewSource(b.seed)), live)); err != nil {
		return fmt.Errorf("traced replay tail: %w", err)
	}
	st := tr.stats()
	shadowModel, shadowStr := r.sh.model, r.sh.str
	fused, saturated, predicted := r.sh.fused(), r.sh.saturated, r.sh.predicted
	seen := len(r.seen)
	r = nil // release the traced service and the shadow state first
	runtime.GC()
	after, err := untracedIngestNs(bundle, ops)
	if err != nil {
		return err
	}
	untracedNs := (before + after) / 2

	if err := tr.write(filepath.Join(filepath.Dir(b.tmp), fmt.Sprintf("trace-%s-%d.jsonl", b.workload, b.seed))); err != nil {
		return err
	}

	decode := st["serving.DecodeWireScratch"]
	ingest := st["serving.Service.IngestQuiet"]
	observe := st["lifecycle.Cell.Observe"]
	step := st["features.Streamer.StepBatchInto"]
	predict := st["core.Model.PredictProbaRowsInto"]
	if fused {
		q, w := st["forest.QuantForest.QuantizeBatch"], st["forest.QuantForest.PredictProbaCodes"]
		predict = stageStat{Calls: q.Calls, N: q.N, Total: q.Total + w.Total, Self: q.Self + w.Self}
	}
	n := float64(ingest.N)
	ladder := observe.Self + step.Self + predict.Self
	coverage := float64(ladder) / float64(ingest.Total)

	b.put("wire.decode_ns_per_sample", decode.totalPerUnit(), "ns")
	b.put("serving.ingest_ns_per_sample", ingest.totalPerUnit(), "ns")
	b.put("serving.residual_ns_per_sample", float64(ingest.Total-ladder)/n, "ns")
	b.put("serving.ladder_coverage", coverage, "ratio")
	// Transport is the closed-loop round trip minus what the same request
	// costs in-process: its decode plus its untraced IngestQuiet.
	perReq := float64(ingest.N) / float64(ingest.Calls)
	inprocUs := decode.totalPerUnit()*perReq/1e3 + untracedNs*perReq/1e3
	b.put("serving.transport_us_per_req", meanUs(s.capRTT)-inprocUs, "us")
	reads := st["serving.Service.Apps"]
	one := st["serving.Service.InstancePrediction"]
	b.put("serving.read_us", float64((reads.Total+one.Total).Microseconds())/float64(reads.Calls+one.Calls), "us")
	b.put("serving.forget_us", st["serving.Service.Forget"].totalPerUnit()/1e3, "us")
	b.put("serving.instances_tracked", float64(tracked), "count")
	b.put("serving.new_instances", float64(seen), "count")
	satShare := float64(saturated) / float64(predicted)
	b.put("serving.saturated_share", satShare, "ratio")
	b.put("drift.observe_ns_per_sample", observe.totalPerUnit(), "ns")
	b.put("drift.harvest_us", st["serving.Service.HarvestDrift"].totalPerUnit()/1e3, "us")
	b.put("lifecycle.swap_ms", st["serving.Service.Swap"].totalPerUnit()/1e6, "ms")
	b.put("features.step_ns_per_sample", step.totalPerUnit(), "ns")
	b.put("features.state_bytes_per_instance", stateBytes/float64(seen), "B")
	b.put("features.fallback_rows", float64(shadowStr.FallbackRows()), "count")
	b.put("forest.predict_ns_per_sample", predict.totalPerUnit(), "ns")
	share := 0.0
	if q := shadowModel.Forest.Quant(); q != nil {
		share = float64(q.QuantNodes()) / float64(q.QuantNodes()+q.FloatNodes())
	}
	b.put("forest.quant_node_share", share, "ratio")
	b.put("features.pipeline_fit_s", st["features.Pipeline.FitFrame"].Total.Seconds(), "s")
	b.put("forest.fit_s", st["forest.Forest.FitFrame"].Total.Seconds(), "s")
	b.put("sim.generate_s", st["dataset.Generate"].Total.Seconds(), "s")
	b.put("frame.fingerprint_s", st["frame.FingerprintFrame"].Total.Seconds(), "s")
	load := st["core.LoadBundle"]
	b.put("core.bundle_load_ms", float64(load.Total.Nanoseconds())/float64(load.Calls)/1e6, "ms")
	b.put("core.bundle_bytes", float64(len(bundle)), "B")
	lateP50, lateMax := 0.0, 0.0
	if len(s.late) > 0 {
		lateP50, lateMax = ms(median(s.late)), ms(s.late[len(s.late)-1])
	}
	b.put("gen.late_p50_ms", lateP50, "ms")
	b.put("gen.late_max_ms", lateMax, "ms")
	b.put("trace.overhead_ns_per_sample", ingest.totalPerUnit()-untracedNs, "ns")

	stages := map[string]float64{}
	for name, v := range st {
		stages[name] = float64(v.Total.Microseconds()) / 1e3
	}
	b.detail["stage_total_ms"] = stages
	b.detail["untraced_ingest_ns_per_sample"] = []float64{before, after}
	b.detail["coverage_tolerance"] = coverageTol
	if coverage < 1-coverageTol || coverage > 1+coverageTol {
		b.fail("ladder coverage %.3f outside 1±%.2f", coverage, coverageTol)
	}
	if satShare <= 0 || satShare >= 1 {
		b.fail("saturated share %.4f is not strictly between 0 and 1", satShare)
	}
	return nil
}

// gauge reads one unlabelled series from the service's metrics registry.
func gauge(svc *serving.Service, name string) (float64, error) {
	var buf bytes.Buffer
	if err := svc.Registry().WriteText(&buf); err != nil {
		return 0, err
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			return strconv.ParseFloat(v, 64)
		}
	}
	return 0, fmt.Errorf("metrics registry has no series %s", name)
}

func meanUs(ts []time.Duration) float64 {
	if len(ts) == 0 {
		return 0
	}
	var t time.Duration
	for _, d := range ts {
		t += d
	}
	return float64(t.Microseconds()) / float64(len(ts))
}
