package main

import (
	"bytes"
	"fmt"
	"io"

	"monitorless/internal/apps"
	"monitorless/internal/cluster"
	"monitorless/internal/dataset"
	"monitorless/internal/pcp"
	"monitorless/internal/serving"
)

// simVectors holds live simulator output: ticks[t][v] is base series v's
// catalog-wide metric vector at distinct tick t. Instances are tiled over
// the nvec base series, and the workloads cycle through the distinct
// ticks, so every byte sent is a real simulator vector while the load
// generator's memory stays independent of the fleet size and run length.
type simVectors struct {
	ticks [][][]float64
	width int
}

// at returns base series v at global tick t (cycling over the distinct
// ticks).
func (s *simVectors) at(t, v int) []float64 {
	return s.ticks[t%len(s.ticks)][v]
}

// simulate runs nvec Table 1 services, four per training host, and
// records distinct ticks of their per-container metric vectors. Series i
// runs Table 1 row i mod 25 and every seed starts recording at the same
// simulated second, so every seed serves the same mix of services at the
// same phase of their load patterns (and a similar saturated share); the
// seed draws the traffic jitter and the measurement noise.
func simulate(seed int64, nvec, distinct int) (*simVectors, error) {
	table := dataset.Table1()
	nodes := make([]*cluster.Node, (nvec+3)/4)
	for i := range nodes {
		nodes[i] = apps.TrainingNode(fmt.Sprintf("host%d", i))
	}
	c, err := cluster.New(nodes...)
	if err != nil {
		return nil, err
	}
	appList := make([]*apps.App, nvec)
	for i := range appList {
		cfg := table[i%len(table)]
		appList[i], err = apps.Build(c, fmt.Sprintf("sim%02d", i), cfg.Traffic(seed*1000+int64(i)), []apps.ServiceSpec{{
			Name:       cfg.Service,
			Node:       nodes[i/4].Name,
			Profile:    cfg.Profile(),
			Visit:      1,
			CPULimit:   cfg.CPULimit,
			MemLimitGB: cfg.MemLimitGB,
		}})
		if err != nil {
			return nil, err
		}
	}
	eng, err := apps.NewEngine(c, appList...)
	if err != nil {
		return nil, err
	}
	ctrs := make([]*cluster.Container, nvec)
	for i, a := range appList {
		ctrs[i] = a.Services()[0].Instances()[0].Ctr
	}
	agent := pcp.NewAgent(pcp.NewCollector(pcp.DefaultCatalog(), seed))
	width := len(agent.Catalog().CombinedDefs())

	for warm := 150; warm > 0; warm-- {
		eng.Tick()
		agent.ObserveTick(eng)
	}
	sv := &simVectors{width: width}
	for len(sv.ticks) < distinct {
		eng.Tick()
		ts, ok := agent.ObserveTick(eng)
		if !ok {
			continue
		}
		vecs := make([][]float64, nvec)
		for i, ctr := range ctrs {
			ri := ts.Index(ctr)
			if ri < 0 {
				return nil, fmt.Errorf("simulator lost container %s", ctr.ID)
			}
			vecs[i] = append([]float64(nil), ts.Vector(ri)...)
		}
		sv.ticks = append(sv.ticks, vecs)
	}
	return sv, nil
}

// wireFrame is one pre-encoded MLBF request body: prefix (header and ID
// table) followed by the tick's value block repeated reps times. Sample p
// of every frame carries base series p % nvec, which is what makes the
// value section a repetition of one block.
type wireFrame struct {
	prefix  []byte
	block   []byte
	reps    int
	samples int
	tick    int // global tick (the observation's T)
}

func (f *wireFrame) size() int64 { return int64(len(f.prefix) + f.reps*len(f.block)) }

// body streams the frame bytes without materializing them.
func (f *wireFrame) body() io.Reader { return &frameReader{f: f} }

type frameReader struct {
	f   *wireFrame
	off int64
}

func (r *frameReader) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		pl := int64(len(r.f.prefix))
		switch {
		case r.off < pl:
			c := copy(p[n:], r.f.prefix[r.off:])
			n += c
			r.off += int64(c)
		case r.off < r.f.size():
			bl := int64(len(r.f.block))
			in := (r.off - pl) % bl
			c := copy(p[n:], r.f.block[in:])
			n += c
			r.off += int64(c)
		default:
			if n == 0 {
				return 0, io.EOF
			}
			return n, nil
		}
	}
	return n, nil
}

// encoder builds frames with serving.AppendWire. Frames whose instance
// list is reused across ticks (key != "") are assembled from the tick's
// header and the cached ID table after their first full encode, which
// keeps encoding a fleet of large frames cheap; verify decodes assembled
// frames back to check them. Every full encode checks that the value
// section is exactly the repeated block the frame will stream.
type encoder struct {
	sim     *simVectors
	nvec    int
	schema  string
	hdrLen  int
	buf     []byte
	blocks  map[int][]byte    // distinct tick -> value block
	headers map[[2]int][]byte // (tick, samples) -> frame header
	idTabs  map[string][]byte // key -> ID table
	ws      []pcp.WireSample
}

func newEncoder(sim *simVectors, nvec int, schema string) (*encoder, error) {
	e := &encoder{sim: sim, nvec: nvec, schema: schema, blocks: make(map[int][]byte),
		headers: make(map[[2]int][]byte), idTabs: make(map[string][]byte)}
	// The header length follows from a one-sample frame: its ID table is
	// three one-byte string lengths plus the one-byte ID.
	one, err := serving.AppendWire(nil, pcp.WireObservation{T: 0, SchemaHash: schema,
		Samples: []pcp.WireSample{{Instance: "x", Values: sim.at(0, 0)}}})
	if err != nil {
		return nil, err
	}
	e.hdrLen = len(one) - 4 - sim.width*8
	return e, nil
}

// encode builds the frame for the given instance IDs at global tick t.
// len(ids) must be a multiple of nvec.
func (e *encoder) encode(ids []string, t int, key string) (*wireFrame, error) {
	if len(ids)%e.nvec != 0 {
		return nil, fmt.Errorf("frame of %d samples is not a multiple of %d base series", len(ids), e.nvec)
	}
	d := t % len(e.sim.ticks)
	fr := &wireFrame{reps: len(ids) / e.nvec, samples: len(ids), tick: t}
	hdr, okH := e.headers[[2]int{t, len(ids)}]
	tab, okT := e.idTabs[key]
	if key != "" && okH && okT && e.blocks[d] != nil {
		fr.prefix = append(append(make([]byte, 0, len(hdr)+len(tab)), hdr...), tab...)
		fr.block = e.blocks[d]
		return fr, nil
	}
	e.ws = e.ws[:0]
	for p, id := range ids {
		e.ws = append(e.ws, pcp.WireSample{Instance: id, Values: e.sim.at(t, p%e.nvec)})
	}
	var err error
	e.buf, err = serving.AppendWire(e.buf[:0], pcp.WireObservation{T: t, SchemaHash: e.schema, Samples: e.ws})
	if err != nil {
		return nil, err
	}
	valLen := len(ids) * e.sim.width * 8
	blockLen := e.nvec * e.sim.width * 8
	vals := e.buf[len(e.buf)-valLen:]
	block := e.blocks[d]
	if block == nil {
		block = append([]byte(nil), vals[:blockLen]...)
		e.blocks[d] = block
	}
	for off := 0; off < valLen; off += blockLen {
		if !bytes.Equal(vals[off:off+blockLen], block) {
			return nil, fmt.Errorf("encoded value section of tick %d is not the repeated block", t)
		}
	}
	fr.prefix = append([]byte(nil), e.buf[:len(e.buf)-valLen]...)
	fr.block = block
	if key != "" {
		e.headers[[2]int{t, len(ids)}] = fr.prefix[:e.hdrLen:e.hdrLen]
		e.idTabs[key] = fr.prefix[e.hdrLen:]
	}
	return fr, nil
}

// verify decodes a frame and checks it carries exactly ids with their
// base-series vectors at its tick.
func (e *encoder) verify(fr *wireFrame, ids []string) error {
	body, err := io.ReadAll(fr.body())
	if err != nil {
		return err
	}
	obs, err := serving.DecodeWire(body)
	if err != nil {
		return fmt.Errorf("assembled frame does not decode: %w", err)
	}
	if obs.T != fr.tick || obs.SchemaHash != e.schema || len(obs.Samples) != len(ids) {
		return fmt.Errorf("assembled frame header mismatch at tick %d", fr.tick)
	}
	for p, smp := range obs.Samples {
		want := e.sim.at(fr.tick, p%e.nvec)
		if smp.Instance != ids[p] || len(smp.Values) != len(want) {
			return fmt.Errorf("assembled frame sample %d mismatch at tick %d", p, fr.tick)
		}
		for j := range want {
			if smp.Values[j] != want[j] && !(smp.Values[j] != smp.Values[j] && want[j] != want[j]) {
				return fmt.Errorf("assembled frame value mismatch at tick %d sample %d", fr.tick, p)
			}
		}
	}
	return nil
}
