package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// openConnections bounds the open loop's connections (and sender
// goroutines). An open loop models independent users: with only as many
// connections as the closed loop's two clients, one slow miss holds a
// connection and the cache hits queued behind it in the generator measure
// the generator, not the server.
const openConnections = 32

// requestTimeout bounds one request; a timed-out request counts as failed.
const requestTimeout = 30 * time.Second

func newClient() *http.Client {
	return &http.Client{
		Timeout: requestTimeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     openConnections,
			MaxIdleConnsPerHost: openConnections,
			DisableCompression:  true,
		},
	}
}

// record is one request as the generator saw it. Times are offsets from the
// start of the timed window.
type record struct {
	inst int // solve requests: instance id
	// delta numbers a session request within its client (−1 = create).
	delta int
	// due is when an open-loop request was due; lag is how late the
	// dispatcher handed it to a connection.
	due, lag time.Duration
	// latency runs from due (open loop) or send (closed loop) to the last
	// body byte.
	latency time.Duration
	done    time.Duration
	status  int
	cache   string
	err     error
	body    []byte       // solve responses, checked after the window
	doc     *solveDoc    // ...and their decoded form once checked
	sess    *sessionResp // session responses, compacted as they arrive
}

func (r *record) ok() bool { return r.err == nil && r.status == http.StatusOK }

// post sends one request and reads the whole response.
func post(ctx context.Context, client *http.Client, url string, body []byte) (status int, cache string, resp []byte, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, "", nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	r, err := client.Do(req)
	if err != nil {
		return 0, "", nil, err
	}
	defer r.Body.Close()
	resp, err = io.ReadAll(r.Body)
	return r.StatusCode, r.Header.Get("X-Sapalloc-Cache"), resp, err
}

// driveOpen runs the open-loop schedule: a dispatcher releases each request
// at its due time to whichever sender is free, so a stalled server delays
// later requests and their latency, measured from the due time, shows it. It returns one record per scheduled request and the
// window length (start to last completion).
func driveOpen(ctx context.Context, client *http.Client, base string, st *stream) ([]record, time.Duration) {
	recs := make([]record, len(st.sched))
	// Sized to the schedule so the dispatcher never blocks on a busy pool:
	// a request waiting for a connection is the open loop's queue.
	work := make(chan int, len(st.sched))
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < openConnections; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				rec := &recs[i]
				status, cache, body, err := post(ctx, client, base+"/v1/solve", st.bodies[rec.inst])
				now := time.Since(start)
				rec.done, rec.latency = now, now-rec.due
				rec.status, rec.cache, rec.body, rec.err = status, cache, body, err
			}
		}()
	}
	for i, a := range st.sched {
		if d := time.Until(start.Add(a.due)); d > 0 {
			time.Sleep(d)
		}
		recs[i] = record{inst: a.inst, due: a.due, lag: time.Since(start) - a.due}
		work <- i
	}
	close(work)
	wg.Wait()
	return recs, window(recs)
}

// driveBatch sends the batch back to back from one client, so every
// request is timed alone: latency is the server's time for that instance.
// It stops early if the window closes first, and otherwise waits out the
// window. The returned duration is the batch's makespan.
func driveBatch(ctx context.Context, client *http.Client, base string, st *stream) ([]record, time.Duration) {
	limit := time.Duration(st.seconds) * time.Second
	start := time.Now()
	var recs []record
	for _, a := range st.sched {
		if time.Since(start) >= limit {
			break
		}
		t0 := time.Since(start)
		status, cache, body, err := post(ctx, client, base+"/v1/solve", st.bodies[a.inst])
		now := time.Since(start)
		recs = append(recs, record{inst: a.inst, latency: now - t0, done: now, status: status, cache: cache, body: body, err: err})
	}
	makespan := window(recs)
	if d := limit - time.Since(start); d > 0 {
		time.Sleep(d)
	}
	return recs, makespan
}

// window is the length of the timed window: from its start to the last
// completion.
func window(recs []record) time.Duration {
	var w time.Duration
	for _, r := range recs {
		w = max(w, r.done)
	}
	return w
}

// sessionResp is a session response compacted as it arrives: its totals
// plus the placements that changed since the client's previous response,
// so every response can be re-checked after the window without holding
// every full allocation.
type sessionResp struct {
	ID      string
	Weight  int64
	Tasks   int
	Set     map[int]int64 // task → height, new or moved
	Dropped []int         // tasks no longer placed
}

// sessionDoc is the part of a session response the benchmark reads.
type sessionDoc struct {
	SessionID string `json:"session_id"`
	Kind      string `json:"kind"`
	Weight    int64  `json:"weight"`
	Scheduled int    `json:"scheduled"`
	Tasks     int    `json:"tasks"`
	Items     []item `json:"items"`
}

type item struct {
	TaskID int   `json:"task_id"`
	Height int64 `json:"height"`
}

// compact parses a session response and diffs its placements against prev
// (task → height of the previous response, updated in place).
func compact(body []byte, prev map[int]int64) (*sessionResp, error) {
	var doc sessionDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		return nil, fmt.Errorf("decode session response: %w", err)
	}
	if doc.Kind != "session" || doc.Scheduled != len(doc.Items) {
		return nil, fmt.Errorf("session response kind %q with %d items for %d scheduled", doc.Kind, len(doc.Items), doc.Scheduled)
	}
	out := &sessionResp{ID: doc.SessionID, Weight: doc.Weight, Tasks: doc.Tasks, Set: map[int]int64{}}
	seen := make(map[int]bool, len(doc.Items))
	for _, it := range doc.Items {
		seen[it.TaskID] = true
		if h, ok := prev[it.TaskID]; !ok || h != it.Height {
			out.Set[it.TaskID] = it.Height
			prev[it.TaskID] = it.Height
		}
	}
	for id := range prev {
		if !seen[id] {
			out.Dropped = append(out.Dropped, id)
			delete(prev, id)
		}
	}
	return out, nil
}

// createSessions opens one session per client concurrently and returns the
// create records, checked later like deltas.
func createSessions(ctx context.Context, client *http.Client, base string, st *stream) []record {
	recs := make([]record, len(st.sessions))
	var wg sync.WaitGroup
	for c, g := range st.sessions {
		wg.Add(1)
		go func(c int, body []byte) {
			defer wg.Done()
			t0 := time.Now()
			status, cache, resp, err := post(ctx, client, base+"/v1/session", body)
			rec := record{delta: -1, latency: time.Since(t0), status: status, cache: cache, err: err}
			if rec.ok() {
				rec.sess, rec.err = compact(resp, map[int]int64{})
			}
			recs[c] = rec
		}(c, g.initial)
	}
	wg.Wait()
	return recs
}

// driveSessions runs the closed loop: each client sends its session's
// deltas back to back until the window closes.
func driveSessions(ctx context.Context, client *http.Client, base string, st *stream, ids []string, prevs []map[int]int64) ([][]record, time.Duration) {
	out := make([][]record, len(st.sessions))
	limit := time.Duration(st.seconds) * time.Second
	start := time.Now()
	var wg sync.WaitGroup
	for c := range st.sessions {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			g := st.sessions[c].restart()
			url := base + "/v1/session/" + ids[c] + "/delta"
			for k := 0; time.Since(start) < limit; k++ {
				body := g.next()
				t0 := time.Since(start)
				status, cache, resp, err := post(ctx, client, url, body)
				now := time.Since(start)
				rec := record{delta: k, latency: now - t0, done: now, status: status, cache: cache, err: err}
				if rec.ok() {
					rec.sess, rec.err = compact(resp, prevs[c])
				}
				out[c] = append(out[c], rec)
				if !rec.ok() {
					return // the client's view of the session is lost
				}
			}
		}(c)
	}
	wg.Wait()
	var all []record
	for _, rs := range out {
		all = append(all, rs...)
	}
	return out, window(all)
}
