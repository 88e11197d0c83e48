package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"time"

	"monitorless/internal/core"
	"monitorless/internal/features"
	"monitorless/internal/frame"
	"monitorless/internal/lifecycle"
	"monitorless/internal/pcp"
	"monitorless/internal/serving"
)

// shadow repeats the serving ingest path stage by stage over the same
// shard batches the service forms, each stage a call into the layer's
// public API: drift observation, columnar feature step over a state slab,
// then the forest (fused quantize + walk when the forest is fully
// quantized, the float batch walk otherwise).
type shadow struct {
	model   *core.Model
	str     *features.Streamer
	fp      *frame.Fingerprint
	cells   []*lifecycle.Cell
	slabs   []*features.StateSlab
	slotOf  []map[string]int32
	nslots  []int32   // slots handed out per shard
	free    [][]int32 // per-shard slots released by forget
	batch   features.BatchScratch
	scratch *frame.Scratch
	codes   []uint8
	probs   []float64

	saturated, predicted int
}

func newShadow(m *core.Model, shards int) (*shadow, error) {
	str, err := m.Streamer()
	if err != nil {
		return nil, err
	}
	sh := &shadow{model: m, str: str, fp: m.Fingerprint, scratch: frame.NewScratch(m.EngineeredSchema(), 0)}
	for i := 0; i < shards; i++ {
		sh.cells = append(sh.cells, lifecycle.NewCell())
		sh.slabs = append(sh.slabs, features.NewStateSlab(str))
		sh.slotOf = append(sh.slotOf, make(map[string]int32))
		sh.nslots = append(sh.nslots, 0)
		sh.free = append(sh.free, nil)
	}
	return sh, nil
}

// fused reports whether the service's ingest takes the fused code route.
func (sh *shadow) fused() bool {
	q := sh.model.Forest.Quant()
	return q != nil && sh.model.Forest.QuantActive() && q.FullyQuantized()
}

// step runs one shard batch through the ladder under parent span.
func (sh *shadow) step(tr *tracer, parent, req, si int, smps []*pcp.WireSample) error {
	n := len(smps)
	if sh.fp != nil {
		sp := tr.begin("lifecycle.Cell.Observe", parent, req)
		for _, s := range smps {
			sh.cells[si].Observe(sh.fp, appOf(s.Instance), s.Values)
		}
		tr.finish(sp, n)
	}
	slots := make([]int32, n)
	raws := make([][]float64, n)
	for k, s := range smps {
		slot, ok := sh.slotOf[si][s.Instance]
		if !ok {
			slot = sh.allocSlot(si)
			sh.slotOf[si][s.Instance] = slot
		}
		slots[k], raws[k] = slot, s.Values
	}
	sp := tr.begin("features.Streamer.StepBatchInto", parent, req)
	err := sh.str.StepBatchInto(sh.slabs[si], slots, raws, &sh.batch)
	tr.finish(sp, n)
	if err != nil {
		return err
	}
	if cap(sh.probs) < n {
		sh.probs = make([]float64, n)
	}
	sh.probs = sh.probs[:n]
	if sh.fused() {
		q := sh.model.Forest.Quant()
		sp = tr.begin("forest.QuantForest.QuantizeBatch", parent, req)
		sh.codes, err = q.QuantizeBatch(sh.batch.Cols(), n, sh.codes)
		tr.finish(sp, n)
		if err != nil {
			return err
		}
		sp = tr.begin("forest.QuantForest.PredictProbaCodes", parent, req)
		err = q.PredictProbaCodes(sh.codes, sh.probs)
		tr.finish(sp, n)
		if err != nil {
			return err
		}
	} else {
		sp = tr.begin("core.Model.PredictProbaRowsInto", parent, req)
		fr := sh.scratch.Frame(n)
		for j, col := range sh.batch.Cols() {
			copy(fr.Col(j), col[:n])
		}
		sh.probs = sh.model.PredictProbaRowsInto(fr, sh.probs)
		tr.finish(sp, n)
	}
	for _, p := range sh.probs {
		if p >= sh.model.Threshold {
			sh.saturated++
		}
	}
	sh.predicted += n
	return nil
}

// allocSlot follows the service's slot registry: LIFO reuse of forgotten
// slots (reset so the ring starts empty), append growth otherwise.
func (sh *shadow) allocSlot(si int) int32 {
	if n := len(sh.free[si]); n > 0 {
		slot := sh.free[si][n-1]
		sh.free[si] = sh.free[si][:n-1]
		sh.slabs[si].ResetSlot(slot)
		return slot
	}
	slot := sh.nslots[si]
	sh.nslots[si]++
	sh.slabs[si].EnsureSlots(int(sh.nslots[si]))
	return slot
}

func (sh *shadow) forget(si int, id string) {
	if slot, ok := sh.slotOf[si][id]; ok {
		delete(sh.slotOf[si], id)
		sh.free[si] = append(sh.free[si], slot)
	}
}

// appOf mirrors the service's grouping of "<app>/<service>/<n>" IDs.
func appOf(id string) string {
	if i := strings.IndexByte(id, '/'); i >= 0 {
		return id[:i]
	}
	return id
}

// replay drives an in-process service with the plan's ops in order. With
// a nil tracer only IngestQuiet is timed (the untraced baseline). With a
// tracer every call is a span and the shadow ladder runs over the same
// shard batches.
type replayer struct {
	svc    *serving.Service
	sh     *shadow
	tr     *tracer
	bundle []byte
	wsc    serving.WireScratch
	seen   map[string]bool

	ingest  time.Duration
	samples int
	reqs    int
}

func newReplayer(bundle []byte, tr *tracer) (*replayer, error) {
	b, err := core.LoadBundle(bytes.NewReader(bundle))
	if err != nil {
		return nil, err
	}
	svc, err := serving.New(serving.Config{Model: b.Model, BundleVersion: b.Version, DebounceK: 3, DebounceN: 5, ClearBelow: 1})
	if err != nil {
		return nil, err
	}
	r := &replayer{svc: svc, tr: tr, bundle: bundle, seen: make(map[string]bool)}
	if tr != nil {
		if r.sh, err = newShadow(b.Model, svc.NumShards()); err != nil {
			return nil, err
		}
	}
	return r, nil
}

func (r *replayer) run(ops []*op) error {
	for _, o := range ops {
		if err := r.do(o); err != nil {
			return err
		}
	}
	return nil
}

func (r *replayer) do(o *op) error {
	r.reqs++
	req := r.reqs
	tr := r.tr
	switch o.kind {
	case opIngest:
		body, err := io.ReadAll(o.fr.body())
		if err != nil {
			return err
		}
		root := tr.begin("request.ingest", 0, req)
		sp := tr.begin("serving.DecodeWireScratch", root, req)
		obs, err := serving.DecodeWireScratch(body, &r.wsc)
		tr.finish(sp, len(obs.Samples))
		if err != nil {
			return err
		}
		sp = tr.begin("serving.Service.IngestQuiet", root, req)
		t0 := time.Now()
		resp, err := r.svc.IngestQuiet(obs)
		el := time.Since(t0)
		tr.finish(sp, len(obs.Samples))
		if err != nil {
			return err
		}
		r.svc.PutResponse(resp)
		r.ingest += el
		r.samples += len(obs.Samples)
		for i := range obs.Samples {
			r.seen[obs.Samples[i].Instance] = true
		}
		if r.sh != nil {
			perShard := make([][]*pcp.WireSample, r.svc.NumShards())
			for i := range obs.Samples {
				s := &obs.Samples[i]
				si := r.svc.ShardOf(s.Instance)
				perShard[si] = append(perShard[si], s)
			}
			lad := tr.begin("ladder", root, req)
			for si, smps := range perShard {
				if len(smps) > 0 {
					if err := r.sh.step(tr, lad, req, si, smps); err != nil {
						return err
					}
				}
			}
			tr.finish(lad, len(obs.Samples))
		}
		tr.finish(root, len(obs.Samples))
	case opDelete:
		sp := tr.begin("serving.Service.Forget", 0, req)
		ok := r.svc.Forget(o.id)
		tr.finish(sp, 0)
		if !ok {
			return fmt.Errorf("in-process Forget(%q): unknown instance", o.id)
		}
		if r.sh != nil {
			r.sh.forget(r.svc.ShardOf(o.id), o.id)
		}
	case opApps:
		sp := tr.begin("serving.Service.Apps", 0, req)
		r.svc.Apps()
		tr.finish(sp, 0)
	case opPredict:
		sp := tr.begin("serving.Service.InstancePrediction", 0, req)
		_, ok := r.svc.InstancePrediction(o.id)
		tr.finish(sp, 0)
		if !ok {
			return fmt.Errorf("in-process InstancePrediction(%q): unknown instance", o.id)
		}
	case opMetrics:
		sp := tr.begin("serving.Service.HarvestDrift", 0, req)
		r.svc.HarvestDrift()
		tr.finish(sp, 0)
	case opModel:
		root := tr.begin("request.model", 0, req)
		sp := tr.begin("core.LoadBundle", root, req)
		b, err := core.LoadBundle(bytes.NewReader(r.bundle))
		tr.finish(sp, len(r.bundle))
		if err != nil {
			return err
		}
		sp = tr.begin("serving.Service.Swap", root, req)
		ev, err := r.svc.Swap(b.Model, b.Version, "benchmark")
		tr.finish(sp, 0)
		tr.finish(root, 0)
		if err != nil {
			return err
		}
		if ev.Cold {
			return fmt.Errorf("re-posting the served bundle made a cold swap")
		}
	}
	return nil
}

// tailOps exercises every read, forget, harvest and swap path on the
// replayed state, so each workload reports them whatever its traffic:
// dashboard reads in the churn workload's 1:4 mix of /apps to
// single-instance reads, drift harvests, one warm swap, then the sampled
// instances are forgotten.
func tailOps(rng *rand.Rand, ids []string) []*op {
	var ops []*op
	for i := 0; i < 64; i++ {
		if i%4 == 0 {
			ops = append(ops, &op{kind: opApps})
		}
		ops = append(ops, &op{kind: opPredict, id: ids[rng.Intn(len(ids))]})
		if i%16 == 0 {
			ops = append(ops, &op{kind: opMetrics})
		}
	}
	ops = append(ops, &op{kind: opModel})
	perm := rng.Perm(len(ids))
	for i := 0; i < 64 && i < len(perm); i++ {
		ops = append(ops, &op{kind: opDelete, id: ids[perm[i]]})
	}
	return ops
}
