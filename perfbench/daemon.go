package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one selestd process started by the benchmark.
type daemon struct {
	cmd               *exec.Cmd
	http, wire, pprof string
	snapshot          string
	log               syncBuffer
	done              chan struct{}
	waitErr           error
	httpc             *http.Client
}

// syncBuffer is a bytes.Buffer safe for the exec copier and readers.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// startDaemon boots selestd on ephemeral loopback ports with its HTTP,
// wire and pprof listeners and waits until all three are bound.
func startDaemon(bin, dir string, n, procs int) (*daemon, error) {
	d := &daemon{
		snapshot: filepath.Join(dir, fmt.Sprintf("snap-%d.selest", n)),
		done:     make(chan struct{}),
		httpc:    &http.Client{Timeout: 10 * time.Second},
	}
	if err := os.Remove(d.snapshot); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	d.cmd = exec.Command(bin,
		"-addr", "127.0.0.1:0", "-wire-addr", "127.0.0.1:0", "-pprof-addr", "127.0.0.1:0",
		"-snapshot", d.snapshot, "-drain-timeout", "60s")
	d.cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	// The daemon must not outlive a benchmark that is killed.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d.cmd.Stderr = &d.log
	stdout, err := d.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start selestd: %w", err)
	}
	lines := make(chan string, 8) // the daemon prints three address lines
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			select {
			case lines <- sc.Text():
			default:
			}
		}
		_, _ = io.Copy(io.Discard, stdout)
		d.waitErr = d.cmd.Wait()
		close(d.done)
	}()
	timeout := time.After(30 * time.Second)
	for d.http == "" || d.wire == "" || d.pprof == "" {
		select {
		case l := <-lines:
			switch {
			case strings.HasPrefix(l, "selestd listening on "):
				d.http = strings.TrimPrefix(l, "selestd listening on ")
			case strings.HasPrefix(l, "selestd wire listening on "):
				d.wire = strings.TrimPrefix(l, "selestd wire listening on ")
			case strings.HasPrefix(l, "selestd pprof listening on "):
				d.pprof = strings.TrimPrefix(l, "selestd pprof listening on ")
			}
		case <-d.done:
			return nil, fmt.Errorf("selestd exited during boot (%v): %s", d.waitErr, d.log.String())
		case <-timeout:
			d.kill()
			return nil, fmt.Errorf("selestd did not report its listeners within 30s")
		}
	}
	return d, nil
}

// kill ends the process without the drain checks, for error paths.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // fails only when the process has exited already
	<-d.done
}

// stop sends SIGTERM and checks the graceful-shutdown contract: the
// daemon drains, exits 0, logs its completion, and leaves a non-empty
// snapshot.
func (d *daemon) stop() error {
	defer os.Remove(d.snapshot)
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("signal selestd: %w", err)
	}
	select {
	case <-d.done:
	case <-time.After(90 * time.Second):
		d.kill()
		return fmt.Errorf("selestd did not exit within 90s of SIGTERM")
	}
	if d.waitErr != nil {
		return fmt.Errorf("selestd exit after SIGTERM: %v: %s", d.waitErr, d.log.String())
	}
	if !strings.Contains(d.log.String(), "shutdown complete") {
		return fmt.Errorf("selestd did not log a completed drain: %s", d.log.String())
	}
	fi, err := os.Stat(d.snapshot)
	if err != nil {
		return fmt.Errorf("snapshot after drain: %w", err)
	}
	if fi.Size() == 0 {
		return fmt.Errorf("snapshot %s is empty after drain", d.snapshot)
	}
	return nil
}

func (d *daemon) get(url string) ([]byte, error) {
	resp, err := d.httpc.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return b, nil
}

// metrics scrapes /metrics into series → value.
func (d *daemon) metrics() (map[string]float64, error) {
	b, err := d.get("http://" + d.http + "/metrics")
	if err != nil {
		return nil, err
	}
	return parseMetrics(string(b)), nil
}

// parseMetrics reads Prometheus text exposition: one "series value" per
// line, comments skipped.
func parseMetrics(text string) map[string]float64 {
	out := make(map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// memStats is the part of the Go runtime's MemStats the heap profile's
// debug=1 form prints that the benchmark reads.
type memStats struct {
	totalAlloc uint64
	numGC      uint64
	pauseNs    []uint64 // circular buffer of recent pauses, indexed by (gc+255)%256
}

// memstats reads MemStats from the -pprof-addr heap endpoint.
func (d *daemon) memstats() (memStats, error) {
	b, err := d.get("http://" + d.pprof + "/debug/pprof/heap?debug=1")
	if err != nil {
		return memStats{}, err
	}
	return parseMemStats(string(b))
}

func parseMemStats(text string) (memStats, error) {
	var m memStats
	found := 0
	for _, line := range strings.Split(text, "\n") {
		k, v, ok := strings.Cut(strings.TrimPrefix(line, "# "), " = ")
		if !ok {
			continue
		}
		switch k {
		case "TotalAlloc":
			m.totalAlloc, _ = strconv.ParseUint(v, 10, 64)
			found++
		case "NumGC":
			m.numGC, _ = strconv.ParseUint(v, 10, 64)
			found++
		case "PauseNs":
			for _, f := range strings.Fields(strings.Trim(v, "[]")) {
				p, _ := strconv.ParseUint(f, 10, 64)
				m.pauseNs = append(m.pauseNs, p)
			}
			found++
		}
	}
	if found != 3 || len(m.pauseNs) != 256 {
		return m, fmt.Errorf("heap profile: MemStats fields missing")
	}
	return m, nil
}

// gcBetween is GC activity from a to b: cycles, summed pause time of the
// cycles still in the pause ring, allocated bytes.
func gcBetween(a, b memStats) (cycles uint64, pause time.Duration, alloc uint64) {
	for gc := b.numGC; gc > a.numGC && b.numGC-gc < 256; gc-- {
		pause += time.Duration(b.pauseNs[(gc+255)%256])
	}
	return b.numGC - a.numGC, pause, b.totalAlloc - a.totalAlloc
}

// procStats reads the daemon's CPU time and peak RSS from /proc.
func (d *daemon) procStats() (cpu time.Duration, hwmKB int64, err error) {
	pid := d.cmd.Process.Pid
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, 0, err
	}
	// Fields after the parenthesised command name start at field 3.
	f := strings.Fields(string(stat[bytes.LastIndexByte(stat, ')')+1:]))
	if len(f) < 13 {
		return 0, 0, fmt.Errorf("/proc/%d/stat: short", pid)
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	cpu = time.Duration(ut+st) * time.Second / clockTicks
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			hwmKB, _ = strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
		}
	}
	if hwmKB == 0 {
		return 0, 0, fmt.Errorf("/proc/%d/status: no VmHWM", pid)
	}
	return cpu, hwmKB, nil
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; 100 on
// every Linux architecture Go supports.
const clockTicks = 100
