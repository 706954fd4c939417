// Command perfbench is sapalloc's request-level benchmark. It starts
// cmd/sapserved as a child process on loopback, drives it with one seeded
// workload from this single process, checks every response with
// internal/oracle, and prints the metrics named in BENCHMARK.json. With --trace 1 it also replays the same request stream
// in-process, layer by layer, and prints the per-layer metrics instead.
//
// Usage (perfbench/run.sh builds the binaries and passes -bin and -work):
//
//	perfbench -bin DIR -work DIR --workload cold-solve --seed 1 --seconds 25 --trace 0
//
// The last line of standard output is the result object; the line before
// it is the run's metadata. See README.md for the workloads and metrics.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"sapalloc/internal/model"
)

// setupRepeats is how many times a run launches the server (and, on
// session-churn, creates its sessions) to time set-up; the median is
// reported and the last launch serves the timed window.
const setupRepeats = 11

// benchProcs caps the benchmark process's GOMAXPROCS: the generator must not
// take more of the machine than the server it measures.
const benchProcs = 2

type options struct {
	workload, bin, work string
	seed                int64
	seconds             int
	trace               bool
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: cold-solve, repeat-store or session-churn")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.IntVar(&o.seconds, "seconds", 25, "length of the timed window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = also replay the stream in-process and print per-layer metrics")
	flag.StringVar(&o.bin, "bin", ".bench_build/bin", "directory holding the sapserved binary")
	flag.StringVar(&o.work, "work", ".bench_build/work", "scratch directory for stores, logs and spans")
	flag.Parse()
	o.trace = trace == 1
	if o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be ≥ 1 and --trace 0 or 1")
		os.Exit(2)
	}
	res, meta, err := run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if err := writeLine(os.Stdout, map[string]any{"meta": meta}); err != nil {
		os.Exit(1)
	}
	if err := writeLine(os.Stdout, res); err != nil {
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// runState carries one run's measurements between its phases.
type runState struct {
	o       options
	st      *stream
	dir     string
	procs   int // the server's GOMAXPROCS
	flags   []string
	client  *http.Client
	ctx     context.Context
	storeAt string // repeat-store: snapshot of the pre-filled store
	// prefilled marks instances the server has answered before the window.
	prefilled map[int]bool
	setups    []float64
	recs      []record   // solve requests of the window
	creates   []record   // session creates of the serving launch
	deltas    [][]record // session deltas per client
	window    time.Duration
	before    *metricsSnapshot
	after     *metricsSnapshot
	rss       float64
	// sessWeights/sessFinals: each session's last answered weight and
	// task set, from the response check.
	sessWeights  []int64
	sessFinals   []*model.Instance
	crossChecked int
	problems     []string
	e2e          map[string]float64
	layer        map[string]float64
	meta         map[string]any
}

func (rs *runState) problem(format string, args ...any) {
	rs.problems = append(rs.problems, fmt.Sprintf(format, args...))
}

func run(o options) (*result, map[string]any, error) {
	st, err := buildStream(o.workload, o.seed, o.seconds)
	if err != nil {
		return nil, nil, err
	}
	if _, err := os.Stat(filepath.Join(o.bin, "sapserved")); err != nil {
		return nil, nil, fmt.Errorf("sapserved binary: %w", err)
	}
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return nil, nil, err
	}
	dir, err := os.MkdirTemp(o.work, o.workload+"-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	procs := runtime.NumCPU()
	runtime.GOMAXPROCS(min(procs, benchProcs))
	rs := &runState{
		o: o, st: st, dir: dir, procs: procs, client: newClient(), ctx: context.Background(),
		prefilled: map[int]bool{}, e2e: map[string]float64{}, layer: map[string]float64{}, meta: map[string]any{},
	}
	if st.cacheEntries > 0 {
		rs.flags = append(rs.flags, "-cache-entries", strconv.Itoa(st.cacheEntries))
	}
	if st.workers > 0 {
		rs.flags = append(rs.flags, "-workers", strconv.Itoa(st.workers))
	}
	if st.store {
		rs.flags = append(rs.flags, "-store-dir", filepath.Join(dir, "store"))
		if err := rs.prefill(); err != nil {
			return nil, nil, err
		}
	}
	if err := rs.serve(); err != nil {
		return nil, nil, err
	}
	rs.check()
	rs.endToEnd()
	if o.trace {
		rs.loadLayers()
		if err := rs.replay(); err != nil {
			return nil, nil, err
		}
	}
	rs.metadata()
	res := &result{Correct: len(rs.problems) == 0}
	for _, r := range rs.all() {
		res.Attempted++
		if !r.ok() {
			res.Failed++
		}
	}
	defs, values := endToEndMetrics, rs.e2e
	if o.trace {
		defs, values = perLayerMetrics, rs.layer
	}
	if res.Metrics, err = pick(defs, values); err != nil {
		return nil, nil, err
	}
	for _, p := range rs.problems {
		fmt.Fprintf(os.Stderr, "perfbench: CHECK FAILED: %s\n", p)
	}
	return res, rs.meta, nil
}

// all returns every timed request record.
func (rs *runState) all() []record {
	out := append([]record(nil), rs.recs...)
	for _, d := range rs.deltas {
		out = append(out, d...)
	}
	return out
}

func (rs *runState) launch() (*server, error) {
	return launch(rs.o.bin, rs.procs, filepath.Join(rs.dir, "sapserved.log"), rs.flags...)
}

// prefill runs repeat-store's untimed first step: a server over an empty
// store answers every pool instance once, then drains, so the store holds
// every non-degraded pool answer. A copy is kept for the traced replay.
func (rs *runState) prefill() error {
	srv, err := rs.launch()
	if err != nil {
		return err
	}
	recs := make([]record, len(rs.st.prefill))
	var wg sync.WaitGroup
	next := make(chan int)
	// Two senders keep solves in flight; the pre-fill is untimed, so its
	// pacing does not matter.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				inst := rs.st.prefill[i]
				status, cache, body, err := post(rs.ctx, rs.client, srv.base+"/v1/solve", rs.st.bodies[inst])
				recs[i] = record{inst: inst, status: status, cache: cache, body: body, err: err}
			}
		}()
	}
	for i := range rs.st.prefill {
		next <- i
	}
	close(next)
	wg.Wait()
	if err := srv.stop(); err != nil {
		return fmt.Errorf("stop pre-fill server: %w", err)
	}
	degraded := []int{}
	for _, r := range recs {
		if !r.ok() {
			return fmt.Errorf("pre-fill request for instance %d: status %d: %v", r.inst, r.status, r.err)
		}
		doc, err := checkSolve(rs.st.insts[r.inst], r.body)
		if err != nil {
			rs.problem("pre-fill instance %d: %v", r.inst, err)
		} else if doc.Degraded {
			degraded = append(degraded, r.inst)
		}
		rs.prefilled[r.inst] = true
	}
	rs.meta["pool_degraded"] = degraded
	rs.storeAt = filepath.Join(rs.dir, "store-prefilled")
	return copyDir(filepath.Join(rs.dir, "store"), rs.storeAt)
}

// serve times set-up over setupRepeats launches, then drives the timed
// window against the last one, scraping /metricsz on both sides of it.
func (rs *runState) serve() error {
	var srv *server
	for k := 0; k < setupRepeats; k++ {
		t0 := time.Now()
		s, err := rs.launch()
		if err != nil {
			return err
		}
		if len(rs.st.sessions) > 0 {
			creates := createSessions(rs.ctx, rs.client, s.base, rs.st)
			for _, c := range creates {
				if !c.ok() {
					s.kill()
					return fmt.Errorf("create session: status %d: %v", c.status, c.err)
				}
			}
			rs.creates = creates
		}
		rs.setups = append(rs.setups, time.Since(t0).Seconds())
		if k == setupRepeats-1 {
			srv = s
			break
		}
		if err := s.stop(); err != nil {
			return fmt.Errorf("stop set-up server: %w", err)
		}
	}
	ok := false
	defer func() {
		if !ok {
			srv.kill()
		}
	}()
	var err error
	if rs.before, err = srv.scrape(rs.ctx, rs.client); err != nil {
		return err
	}
	if len(rs.st.sessions) > 0 {
		ids := make([]string, len(rs.creates))
		prevs := make([]map[int]int64, len(rs.creates))
		for c, r := range rs.creates {
			ids[c] = r.sess.ID
			prevs[c] = map[int]int64{}
			for id, h := range r.sess.Set {
				prevs[c][id] = h
			}
		}
		rs.deltas, rs.window = driveSessions(rs.ctx, rs.client, srv.base, rs.st, ids, prevs)
	} else if rs.st.batch > 0 {
		rs.recs, rs.window = driveBatch(rs.ctx, rs.client, srv.base, rs.st)
	} else {
		rs.recs, rs.window = driveOpen(rs.ctx, rs.client, srv.base, rs.st)
	}
	if rs.after, err = srv.scrape(rs.ctx, rs.client); err != nil {
		return err
	}
	if rs.rss, err = srv.peakRSSMB(); err != nil {
		return err
	}
	ok = true
	if err := srv.stop(); err != nil {
		return fmt.Errorf("stop server: %w", err)
	}
	return nil
}

// check verifies every response of the window and reconciles the client's
// cache tallies with the server's counters. Failures become problems,
// which make the run incorrect.
func (rs *runState) check() {
	tally := map[string]int64{}
	for i := range rs.recs {
		r := &rs.recs[i]
		if !r.ok() {
			continue
		}
		tally[r.cache]++
		doc, err := checkSolve(rs.st.insts[r.inst], r.body)
		if err != nil {
			rs.problem("request %d (instance %d): %v", i, r.inst, err)
		}
		r.doc = doc
	}
	if len(rs.st.sessions) > 0 {
		var err error
		if rs.sessWeights, rs.sessFinals, err = checkSessions(rs.st, rs.creates, rs.deltas); err != nil {
			rs.problem("%v", err)
		}
		for _, d := range rs.deltas {
			for _, r := range d {
				if r.ok() {
					tally[r.cache]++
				}
			}
		}
	}
	d := func(name string) int64 { return counterDelta(rs.before, rs.after, name) }
	for _, c := range []struct {
		what         string
		client, serv int64
	}{
		{"hit+store vs serve_cache_hits", tally["hit"] + tally["store"], d("serve_cache_hits")},
		{"store vs serve_store_hits", tally["store"], d("serve_store_hits")},
		{"miss vs serve_cache_misses", tally["miss"], d("serve_cache_misses")},
		{"dedup vs serve_cache_dedup", tally["dedup"], d("serve_cache_dedup")},
		{"session vs session_deltas", tally["session"], d("session_deltas")},
	} {
		if c.client != c.serv {
			rs.problem("cache tallies do not reconcile: client %s %d, server %d", c.what, c.client, c.serv)
		}
	}
	rs.meta["cache_tally"] = tally
}

// endToEnd computes the untraced metrics of the window.
func (rs *runState) endToEnd() {
	all := rs.all()
	var lat []float64
	good := 0
	for _, r := range all {
		if !r.ok() {
			continue
		}
		lat = append(lat, float64(r.latency)/float64(time.Millisecond))
		if r.latency <= rs.st.limit {
			good++
		}
	}
	s := sorted(lat)
	_, tailP := tail(s)
	win := rs.window.Seconds()
	rs.e2e["latency_p50_ms"] = hdQuantile(s, 0.5)
	rs.e2e["latency_tail_ms"] = hdQuantile(s, tailP/100)
	rs.e2e["throughput_rps"] = ratio(float64(len(lat)), win)
	rs.e2e["goodput_rps"] = ratio(float64(good), win)
	rs.e2e["setup_s"] = median(rs.setups)
	rs.e2e["server_rss_mb"] = rs.rss
	wlp, err := rs.weightVsLP()
	if err != nil {
		rs.problem("weight_vs_lp: %v", err)
	}
	rs.e2e["weight_vs_lp"] = wlp
	rs.meta["latency_samples"] = len(s)
	rs.meta["latency_tail_percentile"] = tailP
	rs.meta["latency_tail_beyond"] = min(len(s), tailBeyond)
	rs.meta["setup_samples"] = rs.setups
	rs.meta["window_s"] = win
	rs.meta["latency_limit_ms"] = rs.st.limit.Milliseconds()
	rs.meta["end_to_end"] = rs.e2e
}

// weightVsLP is Σ returned weight / Σ LP bound over the distinct instances
// answered (the final task set of each session on session-churn).
func (rs *runState) weightVsLP() (float64, error) {
	var w, lp float64
	for c, in := range rs.sessFinals {
		if in == nil {
			continue
		}
		b, err := lpBound(in)
		if err != nil {
			return 0, err
		}
		w, lp = w+float64(rs.sessWeights[c]), lp+b
	}
	seen := map[int]bool{}
	for _, r := range rs.recs {
		if r.doc == nil || seen[r.inst] {
			continue
		}
		seen[r.inst] = true
		b, err := lpBound(rs.st.insts[r.inst])
		if err != nil {
			return 0, err
		}
		w, lp = w+float64(r.doc.Weight), lp+b
	}
	return ratio(w, lp), nil
}

// loadLayers derives the per-layer metrics the timed window itself gives:
// client tallies and /metricsz deltas.
func (rs *runState) loadLayers() {
	L := rs.layer
	d := func(name string) float64 { return float64(counterDelta(rs.before, rs.after, name)) }
	all := rs.all()
	var failed, ok, degraded, hits, repeats, repeatMiss float64
	var lags []float64
	seen := map[int]bool{}
	for k, v := range rs.prefilled {
		seen[k] = v
	}
	for _, r := range all {
		lags = append(lags, float64(r.lag)/float64(time.Millisecond))
		if !r.ok() {
			failed++
			continue
		}
		ok++
		if r.sess != nil {
			continue
		}
		if r.doc != nil && r.doc.Degraded {
			degraded++
		}
		if r.cache == "hit" || r.cache == "store" {
			hits++
		}
		if seen[r.inst] {
			repeats++
			if r.cache == "miss" {
				repeatMiss++
			}
		}
		seen[r.inst] = true
	}
	L["error_rate"] = ratio(failed, float64(len(all)))
	L["degraded_share"] = ratio(degraded, ok)
	L["sapcache.hit_ratio"] = ratio(hits, float64(len(rs.recs)))
	L["sapcache.repeat_miss_ratio"] = ratio(repeatMiss, repeats)
	L["loadgen.lag_ms_p99"] = quantile(sorted(lags), 0.99)
	n, sum, _ := histDelta(rs.before, rs.after, "serve_queue_wait_ns")
	L["serve.queue_wait_ms_mean"] = ratio(float64(sum), float64(n)) / 1e6
	_, _, flushes := histDelta(rs.before, rs.after, "store_flush_ns")
	L["store.flush_ms_p50"] = bucketMedian(flushes) / 1e6
	puts := d("store_puts")
	L["store.bytes_per_put"] = ratio(float64(rs.after.Gauges["store_bytes"]-rs.before.Gauges["store_bytes"]), puts)
	for name, series := range map[string]string{
		"serve.rejected":             "serve_rejected",
		"serve.cache_hits":           "serve_cache_hits",
		"serve.cache_misses":         "serve_cache_misses",
		"serve.cache_dedup":          "serve_cache_dedup",
		"serve.store_hits":           "serve_store_hits",
		"store.puts":                 "store_puts",
		"core.solves_degraded":       "solves_degraded",
		"mediumsap.exact_fallbacks":  "medium_exact_fallbacks",
		"session.deltas":             "session_deltas",
		"session.incremental_solves": "session_incremental_solves",
		"session.full_solves":        "session_full_solves",
	} {
		L[name] = d(series)
	}
}

// metadata records what a reader needs to interpret the numbers.
func (rs *runState) metadata() {
	m := rs.meta
	m["workload"] = rs.o.workload
	m["seed"] = rs.o.seed
	m["seconds"] = rs.o.seconds
	m["trace"] = rs.o.trace
	m["nproc"] = runtime.NumCPU()
	m["gomaxprocs_bench"] = runtime.GOMAXPROCS(0)
	m["gomaxprocs_server"] = rs.procs
	m["go_version"] = runtime.Version()
	m["attempted"] = len(rs.all())
	switch {
	case rs.st.rate > 0:
		m["loop"], m["rate_rps"], m["connections"] = "open", rs.st.rate, openConnections
	case rs.st.batch > 0:
		m["loop"], m["batch"], m["connections"] = "batch", len(rs.st.sched), 1
	default:
		m["loop"], m["connections"] = "closed", sessionsPerRun
	}
	if len(rs.problems) > 0 {
		m["problems"] = rs.problems
	}
	if rs.o.trace {
		m["per_layer"] = rs.layer
	}
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		if e.Type().IsRegular() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	for _, name := range names {
		if err := copyFile(filepath.Join(src, name), filepath.Join(dst, name)); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
