package main

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"sync/atomic"
	"time"

	"monitorless/internal/core"
	"monitorless/internal/serving"
)

const (
	// Server launches per run: at least minSetups, then more until they
	// have taken setupBudget in all, at most maxSetups. setup_s is their
	// median: a set-up of a quarter second (fleet-churn) gets about eight
	// launches, a set-up of a second (fleet-steady) gets minSetups.
	minSetups   = 3
	maxSetups   = 15
	setupBudget = 2 * time.Second
	// train_cpu_s is the median of trainBefore training children run
	// before the server phases and trainAfter run after them, so the
	// sample spans the whole run rather than one stretch of the host's
	// load.
	trainBefore = 2
	trainAfter  = 2
	// openSeconds caps the open-loop phase; the rest of --seconds is the
	// closed-loop capacity phase.
	openSeconds = 10
	// coverageTol bounds |1 - ladder coverage|: the traced stage times
	// (drift observe + feature step + forest) over the traced IngestQuiet
	// time. The rest is routing, locking, registry and aggregation work
	// the ladder does not repeat.
	coverageTol = 0.35
	// maxReplaySamples caps the in-process traced replay.
	maxReplaySamples = 300000
)

// holdoutSeed derives the held-out corpus seed from the workload seed.
func holdoutSeed(seed int64) int64 { return seed + 1_000_003 }

// served is the outcome of the HTTP phases of one run.
type served struct {
	setupS      []float64
	ingestLat   []time.Duration // open loop, from each request's due time
	readLat     []time.Duration
	late        []time.Duration
	capRTT      []time.Duration // closed-loop ingest round trips (transport estimate)
	capSamples  int
	capWall     time.Duration
	cpuS        float64   // server CPU seconds spent in the closed loop
	cpuRates    []float64 // samples per server CPU second, per cpuWindow
	exhausted   bool
	peakRSSMB   float64
	samplesSent int
}

// serve launches cmd/serve several times (each time until its warm-up
// ticks are acknowledged), keeps the last one, runs the open-loop phase
// and the closed-loop capacity phase, then runs check against it before
// stopping it.
func (b *bench) serve(p *plan, bundlePath string, bundle []byte, capDur time.Duration, check func(c *conn) error) (*served, error) {
	out := &served{}
	var srv *server
	var conns []*conn
	// The load generator does not collect garbage while it sets up or
	// measures, so its own pauses do not show up in setup_s, server
	// latency or generator lateness.
	runtime.GC()
	gcPercent := debug.SetGCPercent(-1)
	var spent time.Duration
	for srv == nil {
		t0 := time.Now()
		s, err := startServer(b.serveBin, bundlePath)
		if err != nil {
			return nil, err
		}
		cs := []*conn{newConn(s.base, bundle), newConn(s.base, bundle)}
		closedLoop(cs, p.warm, time.Time{}, "setup", b.led, &b.fe, nil)
		d := time.Since(t0)
		out.setupS = append(out.setupS, d.Seconds())
		spent += d
		if n := len(out.setupS); n >= maxSetups || (n >= minSetups && spent >= setupBudget) {
			srv, conns = s, cs
			break
		}
		for _, c := range cs {
			c.close()
		}
		if err := s.stop(); err != nil {
			return nil, err
		}
	}
	stopped := false
	defer func() {
		for _, c := range conns {
			c.close()
		}
		if !stopped {
			srv.kill()
		}
	}()
	for _, o := range p.warm {
		if o.kind == opIngest && o.acked {
			out.samplesSent += o.fr.samples
		}
	}

	lat, late, n := openLoop(conns, p.open, "open", b.led, &b.fe)
	out.ingestLat = lat[opIngest]
	out.readLat = append(lat[opApps], lat[opPredict]...)
	out.late = late
	out.samplesSent += n
	// Peak memory is read before the capacity phase: how far that phase
	// gets depends on the machine's speed, and on fleet-churn every tick
	// it sends adds silent instances, so a faster server would read as a
	// bigger one.
	var err error
	if out.peakRSSMB, err = srv.peakRSSMB(); err != nil {
		return nil, err
	}
	cpu0, err := srv.cpuSeconds()
	if err != nil {
		return nil, err
	}
	var acked atomic.Int64
	meter := startCPUMeter(srv, &acked)
	rtts, cn, wall, ex := closedLoop(conns, p.capacity, time.Now().Add(capDur), "capacity", b.led, &b.fe, &acked)
	out.capRTT, out.capSamples, out.capWall, out.exhausted = rtts[opIngest], cn, wall, ex
	out.samplesSent += cn

	rates, err := meter.stop()
	if err != nil {
		return nil, err
	}
	cpu1, err := srv.cpuSeconds()
	debug.SetGCPercent(gcPercent)
	if err != nil {
		return nil, err
	}
	out.cpuS = cpu1 - cpu0
	out.cpuRates = rates
	if len(rates) == 0 { // a phase shorter than one window
		out.cpuRates = []float64{float64(out.capSamples) / out.cpuS}
	}

	var stats serving.Stats
	code, err := conns[0].getJSON("/healthz", &stats)
	b.led.add("check", "healthz", err, err == nil && code != 200)
	if err != nil || code != 200 {
		b.fail("GET /healthz: status %d, %v", code, err)
	} else if int(stats.SamplesTotal) != out.samplesSent {
		b.fail("/healthz counts %.0f samples, the load generator had %d acknowledged", stats.SamplesTotal, out.samplesSent)
	}
	var apps map[string]serving.AppStatus
	code, err = conns[0].getJSON("/apps", &apps)
	b.led.add("check", "apps", err, err == nil && code != 200)
	if err != nil || code != 200 {
		b.fail("GET /apps: status %d, %v", code, err)
	} else if len(apps) != p.apps {
		b.fail("server aggregates %d apps, the traffic spans %d", len(apps), p.apps)
	}
	if err := check(conns[0]); err != nil {
		return nil, err
	}
	stopped = true
	if err := srv.stop(); err != nil {
		return nil, err
	}
	return out, nil
}

// checkFleet compares GET /predict for a seeded sample of instance IDs
// with an in-process reference that replays each instance's acknowledged
// samples through the bundle's Streamer and forest. Deleted instances
// must be unknown to the server.
func (b *bench) checkFleet(c *conn, p *plan, sim *simVectors, m *core.Model, rng *rand.Rand) error {
	ids := make([]string, 0, len(p.where))
	for id := range p.where {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	deleted := map[string]bool{}
	for _, list := range [][]*op{p.warm, p.open, p.capacity} {
		for _, o := range list {
			if o.kind == opDelete && o.acked {
				deleted[o.id] = true
			}
		}
	}
	str, err := m.Streamer()
	if err != nil {
		return err
	}
	const sampleIDs = 32
	checked := 0
	for k := 0; k < sampleIDs; k++ {
		id := ids[rng.Intn(len(ids))]
		at := p.where[id]
		st := str.NewState()
		var want serving.Prediction
		for _, o := range p.slotOps(at[0]) {
			if !o.acked || o.ids[at[1]] != id {
				continue
			}
			vec, err := str.Step(st, sim.at(o.fr.tick, at[1]%nvec))
			if err != nil {
				return err
			}
			want.Prob, want.Saturated = m.PredictVector(vec)
			want.T = o.fr.tick
			want.Samples++
		}
		var got serving.Prediction
		code, err := c.getJSON("/predict?instance="+id, &got)
		b.led.add("check", "predict", err, err == nil && code != 200 && code != 404)
		if err != nil {
			return err
		}
		switch {
		case deleted[id] || want.Samples == 0:
			if code != 404 {
				b.fail("instance %s should be unknown to the server, GET /predict gave %d", id, code)
			}
		case code != 200:
			b.fail("GET /predict?instance=%s: status %d", id, code)
		case math.Float64bits(got.Prob) != math.Float64bits(want.Prob) || got.Saturated != want.Saturated ||
			got.T != want.T || got.Samples != want.Samples:
			b.fail("instance %s: served %+v, reference prob %v saturated %v t %d samples %d",
				id, got, want.Prob, want.Saturated, want.T, want.Samples)
		}
		checked++
	}
	b.detail["reference_checked_instances"] = checked
	return nil
}

// putServed records the end-to-end serving metrics.
func (b *bench) putServed(s *served) {
	b.put("setup_s", medianF(s.setupS), "s")
	b.put("ingest_samples_per_cpu_s", medianF(s.cpuRates), "1/s")
	// Request latencies (median and tail) are reported in the detail line
	// only: on a shared 2-vCPU host their run-to-run spread follows the
	// other tenants' load, past the largest bound a gate may use.
	b.put("server_peak_rss_mb", s.peakRSSMB, "MB")
	b.detail["setup_s_each"] = s.setupS
	b.detail["ingest_latency"] = summarize(s.ingestLat)
	b.detail["read_latency"] = summarize(s.readLat)
	b.detail["capacity"] = map[string]any{"samples": s.capSamples, "wall_s": s.capWall.Seconds(), "server_cpu_s": s.cpuS,
		"samples_per_cpu_s": float64(s.capSamples) / s.cpuS, "samples_per_cpu_s_windows": s.cpuRates,
		"samples_per_wall_s": float64(s.capSamples) / s.capWall.Seconds(), "pool_exhausted": s.exhausted}
	if len(s.late) > 0 {
		b.detail["generator_late_ms"] = map[string]float64{"p50": ms(median(s.late)), "max": ms(s.late[len(s.late)-1])}
	}
}

func (b *bench) putSuccess() {
	attempted, bad := b.led.totals()
	b.put("success_share", float64(attempted-bad)/float64(attempted), "ratio")
}

// putTraining records the median training CPU time of the children.
// Their wall time goes to the detail line only: it counts the time the
// hypervisor gives other guests, which on a shared host moved the median
// of the children's wall times by up to a quarter between runs of the
// same code, while their CPU time leaves it out. Their peak RSS goes to
// the detail line only too: identical training runs reach
// about 190 or about 260-310 MB depending on whether a collector cycle
// ends at the parallel fit's live-heap peak (the next heap goal is twice
// the live heap), and runs of the same code on one host stick to one mode
// or the other for minutes, so even the smallest of three children spread
// 0.27 over ten seeds, past the largest bound a gate may use.
func (b *bench) putTraining(runs []trainRun) {
	var ts, cpus []float64
	rss := math.Inf(1)
	for _, r := range runs {
		ts = append(ts, r.TrainS)
		cpus = append(cpus, r.TrainCPUS)
		rss = min(rss, r.PeakRSSMB)
	}
	b.put("train_cpu_s", medianF(cpus), "s")
	b.detail["train_s"] = medianF(ts)
	b.detail["train_peak_rss_mb_smallest"] = rss
	b.detail["training_runs"] = runs
}

// bundleFile trains and returns the bundle path and bytes: traced
// in-process once, or untraced in trainBefore fresh child processes.
func (b *bench) bundleFile(tr *tracer, corpusSeed int64) (string, []byte, []trainRun, error) {
	path := filepath.Join(b.tmp, "bundle.gob")
	if tr != nil {
		bundle, mismatch, err := tracedTraining(tr, corpusSeed)
		if err != nil {
			return "", nil, nil, err
		}
		if mismatch != "" {
			b.fail("%s", mismatch)
		}
		return path, bundle, nil, os.WriteFile(path, bundle, 0o644)
	}
	runs, err := trainChildren(b.self, corpusSeed, path, trainBefore)
	if err != nil {
		return "", nil, nil, err
	}
	bundle, err := os.ReadFile(path)
	return path, bundle, runs, err
}

func loadModel(bundle []byte) (*core.Model, error) {
	bd, err := core.LoadBundle(bytes.NewReader(bundle))
	if err != nil {
		return nil, err
	}
	return bd.Model, nil
}

// runFleet runs fleet-steady or fleet-churn.
func (b *bench) runFleet() error {
	var tr *tracer
	if b.trace {
		tr = newTracer()
	}
	bundlePath, bundle, runs, err := b.bundleFile(tr, servedCorpusSeed)
	if err != nil {
		return err
	}
	m, err := loadModel(bundle)
	if err != nil {
		return err
	}
	if !b.trace {
		h, err := newHoldout(holdoutSeed(b.seed))
		if err != nil {
			return err
		}
		f1, err := h.f1(m)
		if err != nil {
			return err
		}
		b.put("holdout_f1", f1, "ratio")
	}

	sim, err := simulate(b.seed, nvec, distinctTicks)
	if err != nil {
		return err
	}
	enc, err := newEncoder(sim, nvec, m.RawSchema.Hash())
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(b.seed))
	openTicks := max(3, min(openSeconds, b.seconds/2))
	capDur := time.Duration(b.seconds-openTicks) * time.Second
	var p *plan
	if b.workload == "fleet-steady" {
		// Pool sized for 2.5x the capacity measured on a 2-core Xeon.
		capTicks := int(capDur.Seconds()*250000)/(steadySlots*steadyBatch) + 2
		p, err = planSteady(enc, rng, openTicks, capTicks)
	} else {
		capTicks := int(capDur.Seconds()*120000)/(churnHosts*hostSamples) + 2
		p, err = planChurn(enc, rng, openTicks, capTicks)
	}
	if err != nil {
		return err
	}
	runtime.GC()

	s, err := b.serve(p, bundlePath, bundle, capDur, func(c *conn) error {
		return b.checkFleet(c, p, sim, m, rng)
	})
	if err != nil {
		return err
	}
	if s.exhausted {
		b.fail("capacity pool ran out before the phase ended; raise the pool size")
	}
	if b.trace {
		return b.perLayer(tr, p, bundle, s)
	}
	after, err := trainChildren(b.self, servedCorpusSeed, filepath.Join(b.tmp, "bundle-after.gob"), trainAfter)
	if err != nil {
		return err
	}
	b.putTraining(append(runs, after...))
	b.putServed(s)
	b.putSuccess()
	return nil
}
