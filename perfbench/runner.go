package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"monitorless/internal/serving"
)

// counts is the failure accounting of one (phase, operation) pair. A
// refused request got an HTTP error status; a failed one got no answer
// (transport error or timeout). Both count as missing any latency limit.
type counts struct {
	Attempted int `json:"attempted"`
	Succeeded int `json:"succeeded"`
	Failed    int `json:"failed"`
	Refused   int `json:"refused"`
}

type ledger struct {
	mu sync.Mutex
	m  map[string]*counts
}

func newLedger() *ledger { return &ledger{m: make(map[string]*counts)} }

func (l *ledger) add(phase, op string, err error, refused bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	c := l.m[phase+"/"+op]
	if c == nil {
		c = &counts{}
		l.m[phase+"/"+op] = c
	}
	c.Attempted++
	switch {
	case err != nil:
		c.Failed++
	case refused:
		c.Refused++
	default:
		c.Succeeded++
	}
}

func (l *ledger) totals() (attempted, bad int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, c := range l.m {
		attempted += c.Attempted
		bad += c.Failed + c.Refused
	}
	return attempted, bad
}

// conn is one client connection to the server: its own transport with a
// single TCP connection, so requests on it are strictly sequential.
type conn struct {
	hc     *http.Client
	base   string
	bundle []byte // body for opModel
}

func newConn(base string, bundle []byte) *conn {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &conn{hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}, base: "http://" + base, bundle: bundle}
}

func (c *conn) close() { c.hc.CloseIdleConnections() }

// do sends one op and drains the response. refused reports an
// unexpected HTTP status; the body of a refused response is in msg.
func (c *conn) do(o *op) (refused bool, msg string, err error) {
	var req *http.Request
	switch o.kind {
	case opIngest:
		req, err = http.NewRequest(http.MethodPost, c.base+"/ingest?quiet=1", o.fr.body())
		if err == nil {
			req.ContentLength = o.fr.size()
			req.Header.Set("Content-Type", serving.WireContentType)
		}
	case opDelete:
		req, err = http.NewRequest(http.MethodDelete, c.base+"/instances?id="+o.id, nil)
	case opApps:
		req, err = http.NewRequest(http.MethodGet, c.base+"/apps", nil)
	case opPredict:
		req, err = http.NewRequest(http.MethodGet, c.base+"/predict?instance="+o.id, nil)
	case opMetrics:
		req, err = http.NewRequest(http.MethodGet, c.base+"/metrics", nil)
	case opModel:
		req, err = http.NewRequest(http.MethodPost, c.base+"/model", bytes.NewReader(c.bundle))
	}
	if err != nil {
		return false, "", err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return false, "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return true, fmt.Sprintf("%s %s: %s", opNames[o.kind], resp.Status, bytes.TrimSpace(body)), nil
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return false, "", err
}

// getJSON fetches path and decodes it; a non-200 status is returned as
// the status code with no error.
func (c *conn) getJSON(path string, out any) (int, error) {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, nil
	}
	return resp.StatusCode, json.NewDecoder(resp.Body).Decode(out)
}

// firstError keeps the first refusal message for the report.
type firstError struct {
	mu  sync.Mutex
	msg string
}

func (f *firstError) set(msg string) {
	f.mu.Lock()
	if f.msg == "" {
		f.msg = msg
	}
	f.mu.Unlock()
}

// closedLoop sends each connection's ops back to back, in list order,
// until the list ends or the deadline passes (a zero deadline sends
// everything). It returns per-op round trips and the wall time from the
// first send to the last completion. A non-nil acked counts the
// acknowledged ingest samples as they arrive.
func closedLoop(conns []*conn, ops []*op, deadline time.Time, phase string, led *ledger, fe *firstError, acked *atomic.Int64) (rtts map[opKind][]time.Duration, samples int, wall time.Duration, exhausted bool) {
	rtts = make(map[opKind][]time.Duration)
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	ends := make([]time.Time, len(conns))
	ranOut := make([]bool, len(conns)) // the connection sent its last op
	lastOf := make([]*op, len(conns))
	for _, o := range ops {
		lastOf[o.conn] = o
	}
	for ci := range conns {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			ends[ci] = time.Now()
			local := make(map[opKind][]time.Duration)
			n := 0
			for _, o := range ops {
				if o.conn != ci {
					continue
				}
				if !deadline.IsZero() && time.Now().After(deadline) {
					break
				}
				ranOut[ci] = o == lastOf[ci]
				t0 := time.Now()
				refused, msg, err := conns[ci].do(o)
				ends[ci] = time.Now()
				led.add(phase, opNames[o.kind], err, refused)
				if err != nil {
					fe.set(err.Error())
					continue
				}
				if refused {
					fe.set(msg)
					continue
				}
				o.acked = true
				local[o.kind] = append(local[o.kind], ends[ci].Sub(t0))
				if o.kind == opIngest {
					n += o.fr.samples
					if acked != nil {
						acked.Add(int64(o.fr.samples))
					}
				}
			}
			mu.Lock()
			for k, v := range local {
				rtts[k] = append(rtts[k], v...)
			}
			samples += n
			mu.Unlock()
		}(ci)
	}
	wg.Wait()
	last := start
	for ci, e := range ends {
		if e.After(last) {
			last = e
		}
		exhausted = exhausted || (ranOut[ci] && !deadline.IsZero())
	}
	return rtts, samples, last.Sub(start), exhausted
}

// openLoop sends every op at its due time on its connection. Latency is
// measured from the due time, so a stall also charges the requests queued
// behind it; lateness is how far behind schedule each send started.
func openLoop(conns []*conn, ops []*op, phase string, led *ledger, fe *firstError) (lat map[opKind][]time.Duration, late []time.Duration, samples int) {
	lat = make(map[opKind][]time.Duration)
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now().Add(50 * time.Millisecond)
	for ci := range conns {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			local := make(map[opKind][]time.Duration)
			var localLate []time.Duration
			n := 0
			for _, o := range ops {
				if o.conn != ci {
					continue
				}
				due := start.Add(o.due)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				sent := time.Now()
				refused, msg, err := conns[ci].do(o)
				done := time.Now()
				localLate = append(localLate, sent.Sub(due))
				led.add(phase, opNames[o.kind], err, refused)
				if err != nil {
					fe.set(err.Error())
					continue
				}
				if refused {
					fe.set(msg)
					continue
				}
				o.acked = true
				local[o.kind] = append(local[o.kind], done.Sub(due))
				if o.kind == opIngest {
					n += o.fr.samples
				}
			}
			mu.Lock()
			for k, v := range local {
				lat[k] = append(lat[k], v...)
			}
			late = append(late, localLate...)
			samples += n
			mu.Unlock()
		}(ci)
	}
	wg.Wait()
	sort.Slice(late, func(i, j int) bool { return late[i] < late[j] })
	return lat, late, samples
}
