package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// server is one running cmd/serve process.
type server struct {
	cmd    *exec.Cmd
	base   string
	exited chan error
	output chan string // the rest of stdout once the process ends
}

// startServer launches cmd/serve on a free loopback port with the given
// bundle and waits for its listen banner.
func startServer(bin, bundle string) (*server, error) {
	cmd := exec.Command(bin, "-model", bundle, "-addr", "127.0.0.1:0", "-drain", "10s")
	// The server dies with the harness, whatever ends the harness.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	pr, pw, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	cmd.Stdout = pw
	cmd.Stderr = pw
	if err := cmd.Start(); err != nil {
		pr.Close()
		pw.Close()
		return nil, err
	}
	pw.Close()
	s := &server{cmd: cmd, exited: make(chan error, 1), output: make(chan string, 1)}
	go func() { s.exited <- cmd.Wait() }()

	found := make(chan string, 1)
	go func() {
		defer pr.Close()
		sc := bufio.NewScanner(pr)
		var tail strings.Builder
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "serving on http://"); i >= 0 {
				addr := strings.Fields(line[i+len("serving on "):])[0]
				select {
				case found <- addr:
				default:
				}
				continue
			}
			tail.WriteString(line + "\n")
		}
		s.output <- tail.String()
	}()
	select {
	case addr := <-found:
		s.base = strings.TrimPrefix(addr, "http://")
		return s, nil
	case err := <-s.exited:
		out := ""
		select {
		case out = <-s.output:
		case <-time.After(2 * time.Second):
		}
		return nil, fmt.Errorf("serve exited before listening (%v):\n%s", err, out)
	case <-time.After(60 * time.Second):
		s.kill()
		return nil, fmt.Errorf("serve did not listen within 60s")
	}
}

// peakRSSMB reads the process's resident high-water mark (VmHWM).
func (s *server) peakRSSMB() (float64, error) {
	body, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(v)
			if len(f) > 0 {
				kb, err := strconv.ParseFloat(f[0], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", s.cmd.Process.Pid)
}

// cpuSeconds sums the on-CPU time of the process's threads from their
// schedstat files, which count nanoseconds (the clock-tick counters of
// /proc/<pid>/stat would quantize a one-second phase to 1%).
func (s *server) cpuSeconds() (float64, error) {
	dir := fmt.Sprintf("/proc/%d/task", s.cmd.Process.Pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var ns float64
	for _, t := range tasks {
		body, err := os.ReadFile(filepath.Join(dir, t.Name(), "schedstat"))
		if err != nil {
			continue // the thread exited between the listing and the read
		}
		f := strings.Fields(string(body))
		if len(f) == 0 {
			return 0, fmt.Errorf("empty %s/%s/schedstat", dir, t.Name())
		}
		v, err := strconv.ParseFloat(f[0], 64)
		if err != nil {
			return 0, fmt.Errorf("parse %s/%s/schedstat: %w", dir, t.Name(), err)
		}
		ns += v
	}
	return ns / 1e9, nil
}

// cpuWindow is the length of one capacity window (see cpuMeter).
const cpuWindow = 500 * time.Millisecond

// cpuMeter samples the server's CPU time and the acknowledged samples
// every cpuWindow while a closed loop runs. The median of the windows'
// samples per CPU second is the capacity figure: a burst of interference
// from other tenants of the host then moves one window, not the figure.
type cpuMeter struct {
	stopc chan struct{}
	done  chan struct{}
	rates []float64
	err   error
}

func startCPUMeter(s *server, acked *atomic.Int64) *cpuMeter {
	m := &cpuMeter{stopc: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(m.done)
		tick := time.NewTicker(cpuWindow)
		defer tick.Stop()
		c0, err := s.cpuSeconds()
		n0 := acked.Load()
		for err == nil {
			select {
			case <-m.stopc:
				return
			case <-tick.C:
			}
			var c1 float64
			if c1, err = s.cpuSeconds(); err == nil && c1 > c0 {
				n1 := acked.Load()
				m.rates = append(m.rates, float64(n1-n0)/(c1-c0))
				c0, n0 = c1, n1
			}
		}
		m.err = err
	}()
	return m
}

// stop ends the sampling and returns the per-window rates.
func (m *cpuMeter) stop() ([]float64, error) {
	close(m.stopc)
	<-m.done
	return m.rates, m.err
}

// stop sends SIGTERM and requires a clean drain within 20 s; on timeout
// the process is killed. Either way it has exited when stop returns.
func (s *server) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		s.kill()
		return err
	}
	select {
	case err := <-s.exited:
		out := <-s.output
		if err != nil {
			return fmt.Errorf("serve exited uncleanly after SIGTERM: %v", err)
		}
		if !strings.Contains(out, "drained cleanly") {
			return fmt.Errorf("serve printed no clean-drain confirmation:\n%s", out)
		}
		return nil
	case <-time.After(20 * time.Second):
		s.kill()
		return fmt.Errorf("serve did not exit within 20s of SIGTERM")
	}
}

// kill ends the process and waits for it.
func (s *server) kill() {
	_ = s.cmd.Process.Kill()
	<-s.exited
}
