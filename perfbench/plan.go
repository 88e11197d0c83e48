package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"
)

type opKind int

const (
	opIngest  opKind = iota
	opDelete         // DELETE /instances?id=
	opApps           // GET /apps
	opPredict        // GET /predict?instance=
	opModel          // POST /model (re-post of the served bundle)
	opMetrics        // GET /metrics (a monitoring scrape; it harvests drift)
)

var opNames = [...]string{"ingest", "delete", "apps", "predict", "model", "metrics"}

// op is one request of a workload. The load generator holds two
// connections: ingest frames and deletes travel on connection 0, in plan
// order, so each instance's samples reach the server in order; dashboard
// reads, scrapes and bundle posts travel on connection 1.
type op struct {
	kind opKind
	conn int
	due  time.Duration // offset from the open-loop phase start
	fr   *wireFrame
	slot int
	ids  []string // ingest: instance IDs in frame order
	id   string   // delete / predict target

	acked bool
}

// plan is a workload's full request sequence, built before any timing.
type plan struct {
	warm     []*op // warm-up ticks, sent closed-loop at every set-up
	open     []*op // open-loop phase, sorted by due time
	capacity []*op // closed-loop pool, in per-connection send order
	// where locates every instance ID ever sent: its slot and position.
	where map[string][2]int
	// apps is the number of applications the fleet spans.
	apps int
}

// slotOps returns every ingest op of the given slot in send order.
func (p *plan) slotOps(slot int) []*op {
	var out []*op
	for _, list := range [][]*op{p.warm, p.open, p.capacity} {
		for _, o := range list {
			if o.kind == opIngest && o.slot == slot {
				out = append(out, o)
			}
		}
	}
	return out
}

// Traffic shape. No source in the repository gives the frame and fleet
// sizes; they are assumptions, and the comments say what each one moves.
const (
	// steadySlots aggregators of steadyBatch instances each: the frame size
	// sets the per-sample to per-request mix (about 1000 samples share one
	// request's transport), the fleet size sets server memory and the
	// offered rate (16384 samples/s, well under one connection's capacity).
	steadySlots = 16
	steadyBatch = 1024
	fleetApps   = 32
	// hostSamples containers per host agent ("tens of samples" per frame):
	// the frame size sets the churn workload's per-request share. churnHosts
	// only sets how busy the server is in the open-loop phase (80 frames a
	// second plus the deletes), not that share.
	hostSamples   = 32
	churnHosts    = 80
	nvec          = 32 // base series per tick; frame sizes are multiples of it
	warmTicks     = 2
	distinctTicks = 64
)

func fleetID(i int) string {
	return fmt.Sprintf("a%02d/s%d/%d", i%fleetApps, (i/fleetApps)%4, i)
}

// planSteady: a fixed fleet of steadySlots×steadyBatch instances. Each
// aggregator sends one frame per second; their phases are staggered
// evenly over the second. The capacity pool continues the tick sequence.
func planSteady(enc *encoder, rng *rand.Rand, openTicks, capTicks int) (*plan, error) {
	p := &plan{where: make(map[string][2]int), apps: fleetApps}
	ids := make([][]string, steadySlots)
	for k := range ids {
		for q := 0; q < steadyBatch; q++ {
			id := fleetID(k*steadyBatch + q)
			ids[k] = append(ids[k], id)
			p.where[id] = [2]int{k, q}
		}
	}
	total := warmTicks + openTicks + capTicks
	for t := 0; t < total; t++ {
		for k := 0; k < steadySlots; k++ {
			fr, err := enc.encode(ids[k], t, fmt.Sprint(k))
			if err != nil {
				return nil, err
			}
			o := &op{kind: opIngest, fr: fr, slot: k, ids: ids[k]}
			switch {
			case t < warmTicks:
				p.warm = append(p.warm, o)
			case t < warmTicks+openTicks:
				o.due = time.Duration(t-warmTicks)*time.Second + time.Duration(k)*time.Second/steadySlots
				p.open = append(p.open, o)
			default:
				p.capacity = append(p.capacity, o)
			}
		}
		if t >= warmTicks && t < warmTicks+openTicks {
			p.dashboard(rng, time.Duration(t-warmTicks)*time.Second, ids[rng.Intn(steadySlots)])
		}
	}
	sort.SliceStable(p.open, func(i, j int) bool { return p.open[i].due < p.open[j].due })
	return p, p.verifySome(enc, rng)
}

// planChurn: churnHosts host agents, each sending one hostSamples frame
// per second with staggered phases. Every tick a seeded choice of live
// instances retires and fresh IDs take their places; half of the
// retirees are DELETEd just before their host's next frame, the other
// half simply stop reporting. A dashboard polls /apps and single-instance
// /predict, a monitoring scraper polls /metrics, and an operator re-posts
// the served bundle to /model.
func planChurn(enc *encoder, rng *rand.Rand, openTicks, capTicks int) (*plan, error) {
	const (
		// replicaLifespan is the paper's scale-in delay for a scale-out
		// replica (120 s, Table 7; internal/autoscale ReplicaLifespan).
		// Every instance is taken to live that long, so 1/120 of the live
		// fleet retires per tick: an upper bound on the churn of the
		// paper's deployment, where only the extra replicas come and go.
		replicaLifespan = 120
		// controlEvery is the period, in seconds, of the /metrics scrape and
		// of the /model re-post. Both are assumptions: no source gives a
		// scrape interval, and cmd/serve's own retrain loop swaps at most
		// every 10 minutes by default, longer than a run. Every 10 s puts
		// one harvest and one swap in a 10 s open-loop phase; a higher rate
		// raises their share of the open-loop tail.
		controlEvery  = 10
		metricsOffset = 4 // seconds into each period
		modelOffset   = 9
	)
	p := &plan{where: make(map[string][2]int), apps: fleetApps}
	next := 0
	born := make(map[string]int)
	live := make([][]string, churnHosts)
	for h := range live {
		for q := 0; q < hostSamples; q++ {
			id := fleetID(next)
			next++
			live[h] = append(live[h], id)
			p.where[id] = [2]int{h, q}
		}
	}
	total := warmTicks + openTicks + capTicks
	for t := 0; t < total; t++ {
		open := t >= warmTicks && t < warmTicks+openTicks
		var deletes [][]string // per host
		if t > 0 {
			deletes = make([][]string, churnHosts)
			nRetire := churnHosts * hostSamples / replicaLifespan
			retired := make(map[[2]int]bool, nRetire)
			for len(retired) < nRetire {
				h, q := rng.Intn(churnHosts), rng.Intn(hostSamples)
				if retired[[2]int{h, q}] {
					continue // an ID never sent cannot retire
				}
				retired[[2]int{h, q}] = true
				old := live[h][q]
				if rng.Intn(2) == 0 {
					deletes[h] = append(deletes[h], old)
				}
				// Copy on write: earlier frames keep their ID lists.
				cp := append([]string(nil), live[h]...)
				cp[q] = fleetID(next)
				p.where[cp[q]] = [2]int{h, q}
				born[cp[q]] = t
				next++
				live[h] = cp
			}
		}
		tickOps := []*op{}
		for h := 0; h < churnHosts; h++ {
			stagger := time.Duration(t-warmTicks)*time.Second + time.Duration(h)*time.Second/churnHosts
			if deletes != nil {
				for _, id := range deletes[h] {
					tickOps = append(tickOps, &op{kind: opDelete, id: id, slot: h, due: stagger})
				}
			}
			fr, err := enc.encode(live[h], t, "")
			if err != nil {
				return nil, err
			}
			tickOps = append(tickOps, &op{kind: opIngest, fr: fr, slot: h, ids: live[h], due: stagger})
		}
		switch {
		case t < warmTicks:
			p.warm = append(p.warm, tickOps...)
		case open:
			p.open = append(p.open, tickOps...)
			sec := time.Duration(t-warmTicks) * time.Second
			// Read targets were born at least two ticks ago and stay this
			// tick, so their first frame is long acknowledged.
			var settled []string
			for _, ids := range live {
				for _, id := range ids {
					if born[id] <= t-2 {
						settled = append(settled, id)
					}
				}
			}
			p.dashboard(rng, sec, settled)
			if (t-warmTicks)%controlEvery == metricsOffset {
				p.open = append(p.open, &op{kind: opMetrics, conn: 1, due: sec + time.Second/3})
			}
			if (t-warmTicks)%controlEvery == modelOffset {
				p.open = append(p.open, &op{kind: opModel, conn: 1, due: sec + 2*time.Second/3})
			}
		default:
			p.capacity = append(p.capacity, tickOps...)
		}
	}
	sort.SliceStable(p.open, func(i, j int) bool { return p.open[i].due < p.open[j].due })
	return p, p.verifySome(enc, rng)
}

// dashboard adds one second of dashboard reads starting at sec, on
// connection 1: /apps appsPerSec times and single-instance /predict
// predictsPerSec times, each read of an ID drawn from ids.
func (p *plan) dashboard(rng *rand.Rand, sec time.Duration, ids []string) {
	const (
		// The autoscaler reads the per-app state once per 1 s decision
		// tick (the paper's Table 7 loop, internal/autoscale).
		appsPerSec = 1
		// An assumption: an operator view refreshing 16 instance panels a
		// second. More reads add shard-lock contention with ingest.
		predictsPerSec = 16
	)
	for r := 0; r < appsPerSec; r++ {
		p.open = append(p.open, &op{kind: opApps, conn: 1, due: sec + time.Duration(2*r+1)*time.Second/(2*appsPerSec)})
	}
	for r := 0; r < predictsPerSec; r++ {
		p.open = append(p.open, &op{kind: opPredict, conn: 1, id: ids[rng.Intn(len(ids))],
			due: sec + time.Duration(2*r+1)*time.Second/(2*predictsPerSec)})
	}
}

// verifySome decodes a few frames of every list back and checks them.
func (p *plan) verifySome(enc *encoder, rng *rand.Rand) error {
	for _, list := range [][]*op{p.warm, p.open, p.capacity} {
		var ing []*op
		for _, o := range list {
			if o.kind == opIngest {
				ing = append(ing, o)
			}
		}
		for k := 0; k < 3 && len(ing) > 0; k++ {
			o := ing[rng.Intn(len(ing))]
			if err := enc.verify(o.fr, o.ids); err != nil {
				return err
			}
		}
	}
	return nil
}
