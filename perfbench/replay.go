package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"time"

	"sapalloc/internal/core"
	"sapalloc/internal/exact"
	"sapalloc/internal/largesap"
	"sapalloc/internal/mediumsap"
	"sapalloc/internal/model"
	"sapalloc/internal/obs"
	"sapalloc/internal/sapcache"
	"sapalloc/internal/saperr"
	"sapalloc/internal/scratch"
	"sapalloc/internal/serve"
	"sapalloc/internal/session"
	"sapalloc/internal/shard"
	"sapalloc/internal/smallsap"
	"sapalloc/internal/store"
)

// The replay runs the solver with sapserved's defaults: ε = ½, the default
// 30 s request deadline, and (from core's defaults) δ = 1/16 and half the
// deadline for each exact class search. Workers = 1 keeps the replay
// sequential so spans never overlap; every solver's output is the same for
// every worker count.
const (
	replayEps      = 0.5
	replayDeadline = 30 * time.Second
	replayDeltaDen = 16
	// replayDeltaCap bounds the session deltas replayed per session; the
	// closed loop sends thousands, and a prefix of the same stream gives
	// stable per-layer medians.
	replayDeltaCap = 400
	// overheadRequests is how many solve requests also run through the
	// untraced twin to measure the tracing overhead; on cold-solve every
	// one is a full solve, and the whole stream would double the replay.
	overheadRequests = 40
	// serverCacheEntries is sapserved's default -cache-entries.
	serverCacheEntries = 4096
	serverCacheTasks   = 1 << 20
)

// serverPathSpans are the replay spans that time work sapserved's handler
// also does; serve.own is the handler's time minus these.
var serverPathSpans = map[string]bool{
	"model.decode": true, "model.canonicalize": true, "sapcache.key": true,
	"sapcache.get": true, "core.solve": true, "sapcache.add": true,
	"session.decode": true, "session.apply": true,
}

func replayParams() core.Params { return core.Params{Eps: replayEps, Workers: 1} }

// armsOut is one composed solve: the three arms' weights (summed over
// shards), the best solution, and whether any arm degraded.
type armsOut struct {
	sol      *model.Solution
	arms     [3]int64
	degraded bool
}

// replayer runs requests through the layers' public functions in the order
// sapserved's handler calls them.
type replayer struct {
	tr      *tracer
	backed  *sapcache.Backed
	winners [3]int
	medium  struct{ calls, degraded int }
}

// timedStore wraps the replay's store.File so Backed's store calls become
// child spans of the cache call that makes them.
type timedStore struct {
	*store.File
	tr *tracer
}

func (s timedStore) Get(k store.Key) ([]byte, bool, error) {
	sp := s.tr.begin("store.get")
	defer s.tr.end(sp)
	return s.File.Get(k)
}

func (s timedStore) Put(k store.Key, v []byte) error {
	sp := s.tr.begin("store.put")
	defer s.tr.end(sp)
	return s.File.Put(k, v)
}

// cachedBody is the replay's cache value; its durable form is sapserved's
// (a 4-byte big-endian task count, then the response body), so the replay
// reads the pre-filled store the server wrote.
type cachedBody struct {
	body  []byte
	tasks int
}

func encodeCached(v any) ([]byte, bool) {
	c := v.(*cachedBody)
	out := make([]byte, 4, 4+len(c.body))
	binary.BigEndian.PutUint32(out, uint32(c.tasks))
	return append(out, c.body...), true
}

func decodeCached(b []byte) (any, int64, error) {
	if len(b) < 4 {
		return nil, 0, fmt.Errorf("stored value too short: %d bytes", len(b))
	}
	tasks := int(binary.BigEndian.Uint32(b))
	return &cachedBody{body: append([]byte(nil), b[4:]...), tasks: tasks}, int64(tasks), nil
}

// request replays one /v1/solve request: decode, canonicalize, key, cache
// lookup and, on a miss, the solve and the cache fill.
func (r *replayer) request(body []byte) (canon *model.Instance, out *armsOut, err error) {
	tr := r.tr
	root := tr.begin("request")
	defer tr.end(root)
	sp := tr.begin("model.decode")
	in, err := model.ReadInstanceJSON(bytes.NewReader(body))
	tr.end(sp)
	if err != nil {
		return nil, nil, err
	}
	sp = tr.begin("model.canonicalize")
	canon = in.Canonicalize()
	tr.end(sp)
	sp = tr.begin("sapcache.key")
	key := sapcache.KeyOf(canon)
	tr.end(sp)
	sp = tr.begin("sapcache.get")
	_, src := r.backed.Get(key)
	tr.end(sp)
	if src != sapcache.SourceMiss {
		return canon, nil, nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), replayDeadline)
	defer cancel()
	sp = tr.begin("core.solve")
	out, err = r.solve(ctx, canon)
	tr.end(sp)
	if err != nil {
		return nil, nil, err
	}
	if !out.degraded {
		doc, err := json.Marshal(solveDoc{Kind: "path", Weight: out.sol.Weight(), Tasks: len(canon.Tasks), Scheduled: out.sol.Len()})
		if err != nil {
			return nil, nil, err
		}
		sp = tr.begin("sapcache.add")
		r.backed.Add(key, &cachedBody{body: doc, tasks: len(canon.Tasks)}, int64(len(canon.Tasks)))
		tr.end(sp)
	}
	return canon, out, nil
}

// solve is core.SolveCtx composed from its layers: the zero-load-cut scan,
// then either the shard scatter (each shard solved by the three arms) or
// the three arms on the whole instance.
func (r *replayer) solve(ctx context.Context, in *model.Instance) (*armsOut, error) {
	tr := r.tr
	sp := tr.begin("shard.compute")
	plan := shard.Compute(ctx, in)
	tr.end(sp)
	if !plan.Decomposes() {
		return r.arms(ctx, in)
	}
	locals := make([]*model.Solution, plan.Len())
	agg := &armsOut{}
	sp = tr.begin("shard.scatter")
	sol, rep, err := plan.Scatter(ctx, 1, shard.Options{}, func(ctx context.Context, i int, sub *model.Instance) (*model.Solution, error) {
		o, err := r.arms(ctx, sub)
		if err != nil {
			return nil, err
		}
		locals[i] = o.sol
		for a := range agg.arms {
			agg.arms[a] += o.arms[a]
		}
		agg.degraded = agg.degraded || o.degraded
		return o.sol, nil
	})
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	agg.degraded = agg.degraded || rep.Degraded()
	// Scatter lifts and stitches internally; lifting the same local
	// solutions again times that step on its own.
	sp = tr.begin("shard.lift")
	for i, l := range locals {
		plan.Span(i).Lift(l)
	}
	tr.end(sp)
	agg.sol = sol
	return agg, nil
}

// arms is core's monolithic pipeline: Partition, then the small, medium and
// large arms on in.Restrict of their task families, best of three in arm
// order.
func (r *replayer) arms(ctx context.Context, in *model.Instance) (*armsOut, error) {
	tr := r.tr
	sp := tr.begin("core.partition")
	small, medium, large := core.Partition(in, replayDeltaDen)
	tr.end(sp)
	out := &armsOut{}
	var sols [3]*model.Solution
	for arm, run := range [3]func(ctx context.Context) (*model.Solution, bool, error){
		func(ctx context.Context) (*model.Solution, bool, error) {
			res, err := smallsap.SolveCtx(ctx, in.Restrict(small), smallsap.Params{Workers: 1})
			if err != nil {
				return nil, false, err
			}
			return res.Solution, res.Degraded, nil
		},
		func(ctx context.Context) (*model.Solution, bool, error) {
			res, err := mediumsap.SolveCtx(ctx, in.Restrict(medium), mediumsap.Params{
				Eps: replayEps, BetaNum: 1, BetaDen: 4, Exact: exact.Options{Deadline: replayDeadline / 2}, Workers: 1,
			})
			if err != nil {
				return nil, false, err
			}
			r.medium.calls++
			if res.Degraded {
				r.medium.degraded++
			}
			return res.Solution, res.Degraded, nil
		},
		func(ctx context.Context) (*model.Solution, bool, error) {
			sol, err := largesap.SolveCtx(ctx, in.Restrict(large), largesap.Options{})
			if err != nil {
				if sol != nil && (errors.Is(err, largesap.ErrBudget) || saperr.IsCancelled(err)) {
					return sol, true, nil
				}
				return nil, false, err
			}
			return sol, false, nil
		},
	} {
		sp := tr.begin(armSpans[arm])
		a := scratch.Get()
		sol, degraded, err := run(scratch.With(ctx, a))
		scratch.Put(a)
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", armSpans[arm], err)
		}
		sols[arm] = sol
		out.arms[arm] = sol.Weight()
		out.degraded = out.degraded || degraded
	}
	best := 0
	for arm := 1; arm < 3; arm++ {
		if out.arms[arm] > out.arms[best] {
			best = arm
		}
	}
	r.winners[best]++
	out.sol = sols[best]
	return out, nil
}

var armSpans = [3]string{"smallsap.solve", "mediumsap.solve", "largesap.solve"}

// openStore opens a copy of the pre-filled store and returns how long
// OpenFile (replay and verification of the log) took.
func openStore(src, dst string) (*store.File, time.Duration, error) {
	if err := copyDir(src, dst); err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	f, err := store.OpenFile(dst, store.FileConfig{})
	return f, time.Since(t0), err
}

// replay is the traced run's second half: the same request stream, in
// order and in-process, with spans (and partly again without, for the
// tracing overhead), plus sapserved's own handler on an httptest recorder
// for the handler's own time.
func (rs *runState) replay() error {
	obs.EnableMetrics() // sapserved runs with -metrics on
	traced := newTracer(true)
	var tracedNs, plainNs time.Duration
	var err error
	if len(rs.st.sessions) > 0 {
		tracedNs, plainNs, err = rs.replaySessions(traced)
	} else {
		tracedNs, plainNs, err = rs.replaySolves(traced)
	}
	if err != nil {
		return err
	}
	rs.layer["trace.overhead_pct"] = 100 * ratio(float64(tracedNs-plainNs), float64(plainNs))
	rs.meta["trace_spans"] = len(traced.spans)
	path := filepath.Join(rs.o.work, "traces", fmt.Sprintf("%s-seed%d.jsonl", rs.o.workload, rs.o.seed))
	rs.meta["trace_file"] = path
	return traced.write(path)
}

// newCache builds the replay's read-through cache the way sapserved does.
func (rs *runState) newCache(st store.Store) *sapcache.Backed {
	entries := rs.st.cacheEntries
	if entries == 0 {
		entries = serverCacheEntries
	}
	return sapcache.NewBacked(sapcache.New(entries, serverCacheTasks), st, encodeCached, decodeCached)
}

// newServer builds an in-process serve.Server configured like the child.
func (rs *runState) newServer(st store.Store) *serve.Server {
	return serve.New(serve.Config{Params: replayParams(), CacheEntries: rs.st.cacheEntries, Store: st})
}

func (rs *runState) replaySolves(tr *tracer) (tracedNs, plainNs time.Duration, err error) {
	var stores []*store.File
	defer func() {
		for _, f := range stores {
			f.Close()
		}
	}()
	// Each consumer gets its own copy of the pre-filled store (none on
	// workloads without one); a nil *store.File must not become a non-nil
	// store.Store.
	var replays []float64
	open := func(name string) (store.Store, error) {
		if rs.storeAt == "" {
			return nil, nil
		}
		f, took, err := openStore(rs.storeAt, filepath.Join(rs.dir, name))
		if err != nil {
			return nil, err
		}
		stores = append(stores, f)
		replays = append(replays, float64(took)/float64(time.Millisecond))
		if name == "store-traced" {
			return timedStore{File: f, tr: tr}, nil
		}
		return f, nil
	}
	httpStore, err := open("store-http")
	if err != nil {
		return 0, 0, err
	}
	srv := rs.newServer(httpStore).Handler()
	tracedStore, err := open("store-traced")
	if err != nil {
		return 0, 0, err
	}
	rep := &replayer{tr: tr, backed: rs.newCache(tracedStore)}
	// The untraced twin: the same layers with the tracer off, over fresh
	// copies of the cache and store, fed each of the first
	// overheadRequests requests right after the traced replayer so both
	// run under the same conditions.
	plainStore, err := open("store-plain")
	if err != nil {
		return 0, 0, err
	}
	plain := &replayer{tr: newTracer(false), backed: rs.newCache(plainStore)}
	served := map[int]int64{} // instance → weight the child answered
	for _, r := range rs.recs {
		if r.doc != nil {
			served[r.inst] = r.doc.Weight
		}
	}
	checked := map[int]bool{}
	for i, a := range rs.st.sched {
		tr.req = i
		body := rs.st.bodies[a.inst]
		sp := tr.begin("serve.http")
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body)))
		tr.end(sp)
		if rec.Code != http.StatusOK {
			return 0, 0, fmt.Errorf("in-process handler answered %d for instance %d", rec.Code, a.inst)
		}
		root := len(tr.spans)
		canon, out, err := rep.request(body)
		if err != nil {
			return 0, 0, fmt.Errorf("replay instance %d: %w", a.inst, err)
		}
		if i < overheadRequests {
			tracedNs += tr.spans[root].dur()
			t0 := time.Now()
			if _, _, err := plain.request(body); err != nil {
				return 0, 0, err
			}
			plainNs += time.Since(t0)
		}
		if out != nil && !checked[a.inst] {
			checked[a.inst] = true
			rs.crossCheck(a.inst, canon, out, served)
		}
	}
	rs.solveLayers(tr, rep, replays)
	return tracedNs, plainNs, nil
}

// crossCheck proves the composed replay does the server's work: its
// per-arm weights must equal core.SolveCtx's Result fields for the same
// instance, and its answer the weight sapserved returned.
func (rs *runState) crossCheck(inst int, canon *model.Instance, out *armsOut, served map[int]int64) {
	ctx, cancel := context.WithTimeout(context.Background(), replayDeadline)
	defer cancel()
	// Any worker count gives the same result; the parallel solve is quicker.
	p := replayParams()
	p.Workers = 0
	p.Deadline = replayDeadline
	res, err := core.SolveCtx(ctx, canon, p)
	if err != nil {
		rs.problem("cross-check instance %d: core.SolveCtx: %v", inst, err)
		return
	}
	want := [3]int64{res.SmallWeight, res.MediumWeight, res.LargeWeight}
	if out.arms != want || out.sol.Weight() != res.Solution.Weight() || out.degraded != res.Report.Degraded {
		rs.problem("cross-check instance %d: replay arms %v weight %d degraded %v, core.SolveCtx arms %v weight %d degraded %v",
			inst, out.arms, out.sol.Weight(), out.degraded, want, res.Solution.Weight(), res.Report.Degraded)
	}
	if w, ok := served[inst]; ok && w != out.sol.Weight() {
		rs.problem("cross-check instance %d: replay weight %d, sapserved answered %d", inst, out.sol.Weight(), w)
	}
	rs.crossChecked++
}

// solveLayers turns the traced solve replay into per-layer metrics.
func (rs *runState) solveLayers(tr *tracer, rep *replayer, replays []float64) {
	L := rs.layer
	us, ms := tr.byName(time.Microsecond), tr.byName(time.Millisecond)
	p50 := func(xs []float64) float64 { return quantile(sorted(xs), 0.5) }
	p99 := func(xs []float64) float64 { return quantile(sorted(xs), 0.99) }
	L["model.decode_us_p50"] = p50(us["model.decode"])
	L["model.canonicalize_us_p50"] = p50(us["model.canonicalize"])
	L["sapcache.key_us_p50"] = p50(us["sapcache.key"])
	L["sapcache.get_us_p50"] = p50(us["sapcache.get"])
	L["store.get_us_p50"] = p50(us["store.get"])
	L["store.put_us_p50"] = p50(us["store.put"])
	L["store.replay_ms"] = median(replays)
	L["shard.compute_us_p50"] = p50(us["shard.compute"])
	L["shard.lift_us_p50"] = p50(us["shard.lift"])
	L["shard.scatter_ms_p50"] = p50(ms["shard.scatter"])
	L["core.partition_us_p50"] = p50(us["core.partition"])
	L["core.solve_ms_p50"] = p50(ms["core.solve"])
	L["core.solve_ms_p99"] = p99(ms["core.solve"])
	L["smallsap.solve_ms_p50"] = p50(ms["smallsap.solve"])
	L["mediumsap.solve_ms_p50"] = p50(ms["mediumsap.solve"])
	L["mediumsap.solve_ms_p99"] = p99(ms["mediumsap.solve"])
	L["largesap.solve_ms_p50"] = p50(ms["largesap.solve"])
	var solveMs, medMs float64
	for _, v := range ms["core.solve"] {
		solveMs += v
	}
	for _, v := range ms["mediumsap.solve"] {
		medMs += v
	}
	L["mediumsap.solve_share"] = ratio(medMs, solveMs)
	L["mediumsap.degraded_share"] = ratio(float64(rep.medium.degraded), float64(rep.medium.calls))
	wins := float64(rep.winners[0] + rep.winners[1] + rep.winners[2])
	L["core.winner_share.small"] = ratio(float64(rep.winners[0]), wins)
	L["core.winner_share.medium"] = ratio(float64(rep.winners[1]), wins)
	L["core.winner_share.large"] = ratio(float64(rep.winners[2]), wins)
	// Every shard solved (or monolithic solve) partitions once.
	L["shard.shards_per_solve"] = ratio(float64(len(ms["core.partition"])), float64(len(ms["core.solve"])))
	L["serve.own_us_p50"] = p50(serveOwn(tr))
	rs.sessionLayers(nil)
	rs.meta["cross_checked_instances"] = rs.crossChecked
	rs.meta["self_ms_by_layer"] = selfByName(tr)
}

// serveOwn is, per request, the handler's time minus the replay spans of
// the same request that time work the handler also does.
func serveOwn(tr *tracer) []float64 {
	type acc struct {
		http, layers time.Duration
		hasHTTP      bool
	}
	byReq := map[int]*acc{}
	get := func(req int) *acc {
		a := byReq[req]
		if a == nil {
			a = &acc{}
			byReq[req] = a
		}
		return a
	}
	for _, s := range tr.spans {
		switch {
		case s.Name == "serve.http":
			a := get(s.Req)
			a.http, a.hasHTTP = a.http+s.dur(), true
		case serverPathSpans[s.Name] && s.Parent >= 0 && tr.spans[s.Parent].Name == "request":
			get(s.Req).layers += s.dur()
		}
	}
	var out []float64
	for _, a := range byReq {
		if a.hasHTTP {
			out = append(out, float64(a.http-a.layers)/float64(time.Microsecond))
		}
	}
	sort.Float64s(out)
	return out
}

// selfByName sums self time per span name, in milliseconds.
func selfByName(tr *tracer) map[string]float64 {
	out := map[string]float64{}
	for i, d := range tr.selfTimes() {
		out[tr.spans[i].Name] += float64(d) / float64(time.Millisecond)
	}
	return out
}

// replaySessions replays each client's session: creation, then the first
// replayDeltaCap deltas it sent, through the handler (for its own time)
// and through session.Apply directly.
func (rs *runState) replaySessions(tr *tracer) (tracedNs, plainNs time.Duration, err error) {
	srv := rs.newServer(nil).Handler()
	ctx := context.Background()
	var applied []*session.Result
	req := 0
	for c, g0 := range rs.st.sessions {
		g := g0.restart()
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/session", bytes.NewReader(g.initial)))
		var created sessionDoc
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &created) != nil {
			return 0, 0, fmt.Errorf("in-process session create answered %d", rec.Code)
		}
		traced, err := newReplaySession(ctx, g.initial)
		if err != nil {
			return 0, 0, err
		}
		plain, err := newReplaySession(ctx, g.initial)
		if err != nil {
			return 0, 0, err
		}
		for k, sent := range rs.deltas[c] {
			if k >= replayDeltaCap || !sent.ok() {
				break
			}
			body := g.next()
			tr.req = req
			req++
			sp := tr.begin("serve.http")
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/session/"+created.SessionID+"/delta", bytes.NewReader(body)))
			tr.end(sp)
			if rec.Code != http.StatusOK {
				return 0, 0, fmt.Errorf("in-process session delta answered %d", rec.Code)
			}
			root := tr.begin("request")
			res, err := applyDelta(ctx, tr, traced, body)
			tr.end(root)
			if err != nil {
				return 0, 0, err
			}
			tracedNs += tr.spans[root].dur()
			applied = append(applied, res)
			if res.Weight != sent.sess.Weight {
				rs.problem("session %d delta %d: replay weight %d, sapserved answered %d", c, k, res.Weight, sent.sess.Weight)
			}
			liftProbe(ctx, tr, traced, res, body)
			t0 := time.Now()
			if _, err := applyDelta(ctx, newTracer(false), plain, body); err != nil {
				return 0, 0, err
			}
			plainNs += time.Since(t0)
		}
	}
	rs.sessionLayers(applied)
	L := rs.layer
	us, ms := tr.byName(time.Microsecond), tr.byName(time.Millisecond)
	L["session.apply_ms_p50"] = quantile(sorted(ms["session.apply"]), 0.5)
	L["session.apply_ms_p99"] = quantile(sorted(ms["session.apply"]), 0.99)
	L["shard.compute_us_p50"] = quantile(sorted(us["shard.compute"]), 0.5)
	L["shard.lift_us_p50"] = quantile(sorted(us["shard.lift"]), 0.5)
	L["serve.own_us_p50"] = quantile(serveOwn(tr), 0.5)
	for _, name := range []string{
		"model.decode_us_p50", "model.canonicalize_us_p50", "sapcache.key_us_p50", "sapcache.get_us_p50",
		"store.get_us_p50", "store.put_us_p50", "store.replay_ms", "shard.scatter_ms_p50", "shard.shards_per_solve",
		"core.partition_us_p50", "core.solve_ms_p50", "core.solve_ms_p99", "smallsap.solve_ms_p50",
		"mediumsap.solve_ms_p50", "mediumsap.solve_ms_p99", "largesap.solve_ms_p50", "mediumsap.solve_share",
		"mediumsap.degraded_share", "core.winner_share.small", "core.winner_share.medium", "core.winner_share.large",
	} {
		L[name] = 0 // the session path reaches these only inside session.Apply
	}
	rs.meta["self_ms_by_layer"] = selfByName(tr)
	return tracedNs, plainNs, nil
}

// newReplaySession creates a session from a create body the way the
// handler does: the instance's capacity, then its tasks as the first delta.
func newReplaySession(ctx context.Context, body []byte) (*session.Session, error) {
	in, err := model.ReadInstanceJSON(bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	s, err := session.New(in.Capacity, session.Options{Params: replayParams()})
	if err != nil {
		return nil, err
	}
	if _, err := s.Apply(ctx, session.Delta{Add: in.Tasks}); err != nil {
		return nil, err
	}
	return s, nil
}

// applyDelta decodes a delta body and applies it.
func applyDelta(ctx context.Context, tr *tracer, s *session.Session, body []byte) (*session.Result, error) {
	sp := tr.begin("session.decode")
	var doc deltaDoc
	err := json.Unmarshal(body, &doc)
	d := session.Delta{Remove: doc.Remove}
	for _, t := range doc.Add {
		d.Add = append(d.Add, model.Task{ID: t.ID, Start: t.Start, End: t.End, Demand: t.Demand, Weight: t.Weight})
	}
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("session.apply")
	res, err := s.Apply(ctx, d)
	tr.end(sp)
	return res, err
}

// liftProbe times the two shard steps session.Apply performs internally:
// the zero-load-cut scan of the new task set, and lifting each re-solved
// shard's local solution back onto the path. It re-runs them on the same
// data outside the request's span tree.
func liftProbe(ctx context.Context, tr *tracer, s *session.Session, res *session.Result, body []byte) {
	in := &model.Instance{Capacity: s.Capacity(), Tasks: s.Tasks()}
	sp := tr.begin("shard.compute")
	plan := shard.Compute(ctx, in)
	tr.end(sp)
	var doc deltaDoc
	if json.Unmarshal(body, &doc) != nil || !plan.Decomposes() {
		return
	}
	var locals []*model.Solution
	var spans []shard.Span
	for i := 0; i < plan.Len(); i++ {
		sh := plan.Span(i)
		dirty := false
		for _, t := range doc.Add {
			dirty = dirty || sh.Overlaps(t.Start, t.End)
		}
		if !dirty {
			continue
		}
		local := &model.Solution{}
		for _, p := range res.Solution.Items {
			if sh.Overlaps(p.Task.Start, p.Task.End) {
				p.Task.Start -= sh.Lo
				p.Task.End -= sh.Lo
				local.Items = append(local.Items, p)
			}
		}
		locals, spans = append(locals, local), append(spans, sh)
	}
	sp = tr.begin("shard.lift")
	for i, l := range locals {
		spans[i].Lift(l)
	}
	tr.end(sp)
}

// sessionLayers fills the session metrics from applied delta results (nil
// on the solve workloads, which have none).
func (rs *runState) sessionLayers(applied []*session.Result) {
	L := rs.layer
	var shards, reused, dirty float64
	for _, r := range applied {
		shards += float64(r.Shards)
		reused += float64(r.Reused)
		dirty += float64(r.DirtyEdges)
	}
	L["session.reuse_ratio"] = ratio(reused, shards)
	L["session.dirty_edges_mean"] = ratio(dirty, float64(len(applied)))
	if applied == nil {
		for _, name := range []string{"session.apply_ms_p50", "session.apply_ms_p99"} {
			L[name] = 0
		}
	}
}
