package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one sapserved child process on loopback.
type server struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	log  *os.File
	done chan error
}

// launch starts sapserved with the given extra flags and waits until
// /healthz answers. The child gets GOMAXPROCS=procs and dies with the
// benchmark (Pdeathsig) should the benchmark itself be killed.
func launch(bin string, procs int, logPath string, flags ...string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	args := append([]string{"-addr", addr, "-grace", "5s"}, flags...)
	cmd := exec.Command(filepath.Join(bin, "sapserved"), args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start sapserved: %w", err)
	}
	s := &server{cmd: cmd, base: "http://" + addr, log: logf, done: make(chan error, 1)}
	go func() { s.done <- cmd.Wait() }()
	if err := s.waitHealthy(60 * time.Second); err != nil {
		s.kill()
		return nil, err
	}
	return s, nil
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("pick a loopback port: %w", err)
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// waitHealthy polls /healthz until it answers 200. Until the listener is
// up a poll is a refused connect, so it polls every 100µs: set-up time is
// measured to this moment, and a coarser poll would quantize it.
func (s *server) waitHealthy(limit time.Duration) error {
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		select {
		case err := <-s.done:
			s.done <- err
			return fmt.Errorf("sapserved exited before becoming healthy: %v (log %s)", err, s.log.Name())
		default:
		}
		resp, err := client.Get(s.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(100 * time.Microsecond)
	}
	return fmt.Errorf("sapserved not healthy after %v (log %s)", limit, s.log.Name())
}

// peakRSSMB reads the child's peak resident set (VmHWM) in MiB.
func (s *server) peakRSSMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM line in /proc status")
}

// stop drains the server with SIGTERM (so a store is flushed and closed)
// and waits for it to exit, killing it after the grace window.
func (s *server) stop() error {
	defer s.log.Close()
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-s.done:
		return err
	case <-time.After(10 * time.Second):
		s.kill()
		return errors.New("sapserved ignored SIGTERM; killed")
	}
}

func (s *server) kill() {
	_ = s.cmd.Process.Kill()
	<-s.done
}

// metricsSnapshot is the part of /metricsz the benchmark reads.
type metricsSnapshot struct {
	Counters   map[string]int64 `json:"counters"`
	Gauges     map[string]int64 `json:"gauges"`
	Histograms map[string]struct {
		Count   int64            `json:"count"`
		Sum     int64            `json:"sum"`
		Buckets map[string]int64 `json:"buckets"`
	} `json:"histograms"`
}

func (s *server) scrape(ctx context.Context, client *http.Client) (*metricsSnapshot, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/metricsz", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scrape /metricsz: %w", err)
	}
	defer resp.Body.Close()
	var doc struct {
		Metrics metricsSnapshot `json:"sapalloc_metrics"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, fmt.Errorf("decode /metricsz: %w", err)
	}
	return &doc.Metrics, nil
}

// counterDelta is after−before for one counter.
func counterDelta(before, after *metricsSnapshot, name string) int64 {
	return after.Counters[name] - before.Counters[name]
}

// histDelta returns the count and sum added to one histogram between the
// scrapes, and the per-bucket counts added (keyed by bucket lower bound).
func histDelta(before, after *metricsSnapshot, name string) (count, sum int64, buckets map[int64]int64) {
	a, b := after.Histograms[name], before.Histograms[name]
	buckets = map[int64]int64{}
	for k, n := range a.Buckets {
		lo, err := strconv.ParseInt(k, 10, 64)
		if err != nil {
			continue
		}
		if d := n - b.Buckets[k]; d > 0 {
			buckets[lo] = d
		}
	}
	return a.Count - b.Count, a.Sum - b.Sum, buckets
}

// bucketMedian estimates a histogram's median from log₂ buckets keyed by
// their lower bound: the midpoint of the bucket that holds the median
// sample (the bucket spans [lo, 2·lo)).
func bucketMedian(buckets map[int64]int64) float64 {
	var total int64
	los := make([]int64, 0, len(buckets))
	for lo, n := range buckets {
		total += n
		los = append(los, lo)
	}
	if total == 0 {
		return 0
	}
	slices.Sort(los)
	var seen int64
	for _, lo := range los {
		seen += buckets[lo]
		if 2*seen >= total {
			return 1.5 * float64(lo)
		}
	}
	return 1.5 * float64(los[len(los)-1])
}
