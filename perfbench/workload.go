package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"sapalloc/internal/gen"
	"sapalloc/internal/model"
)

// Workload names, as BENCHMARK.json lists them.
const (
	coldSolve    = "cold-solve"
	repeatStore  = "repeat-store"
	sessionChurn = "session-churn"
)

// spec is the fixed shape of one workload.
type spec struct {
	// rate is the open-loop arrival rate in requests per second.
	rate float64
	// batch is the size of a batch workload per second of window: batch ×
	// seconds distinct instances, sent back to back by one client.
	// Workloads with neither run sessionsPerRun closed-loop clients.
	batch float64
	// limit is the latency limit goodput counts against.
	limit time.Duration
	// cacheEntries is the server's -cache-entries (0 = server default).
	cacheEntries int
	// workers is the server's -workers, the goroutines of one solve (0 =
	// server default, GOMAXPROCS).
	workers int
	// store runs the server with -store-dir, pre-filled before timing.
	store bool
}

var specs = map[string]spec{
	// Solver-bound: every request is a distinct dense instance, so the
	// cache never hits and the medium arm holds most of the time.
	coldSolve: {batch: 5, limit: 2 * time.Second},
	// Front-end-bound: the median request is a cache or store hit.
	// Its misses solve on one core each, so an open loop's overlapping
	// solves do not slow each other down.
	repeatStore: {rate: 50, limit: 100 * time.Millisecond, cacheEntries: 24, workers: 1, store: true},
	// Incremental sessions: bypasses the cache and the store.
	sessionChurn: {limit: 250 * time.Millisecond},
}

// Generator shapes. Dense instances are gen.Random Mixed paths with
// capacities in [128, 513).
const (
	capLo, capHi = 128, 513
	// poolDense is the number of dense instances in the repeat-store pool.
	poolDense = 96
	// freshShare is the share of repeat-store requests that name an
	// instance outside the pool: misses that append to the store.
	freshShare = 0.10
	// zipfS is the Zipf exponent of the repeat-store pool popularity.
	zipfS = 1.1
	// Archipelagos: 100 islands × 18 tasks ≈ 1,800 tasks (~200 KB bodies).
	islands, islandTasks, islandEdges, islandGap = 100, 18, 10, 2
	// sessionsPerRun is the session-churn client (and session) count.
	sessionsPerRun = 2
)

// archipelagoRanks are the pool ranks (0 = most popular) that hold the
// large archipelago instances; the rest of the pool is dense.
var archipelagoRanks = []int{2, 7, 19, 45}

// populationSeed fixes the instance populations: every seed sends the same
// instances (and session-churn the same archipelagos and spare tasks), and
// the run seed draws the arrival schedule, the send order and the session
// swaps. Solve times span three orders of magnitude, and a population drawn
// from the run seed moved the medians by 25–40% between seeds.
const populationSeed = 20130623

// arrival is one request of a schedule: which instance it sends and, in an
// open loop, when it is due relative to the start of the timed window (a
// batch sends its arrivals in order, back to back).
type arrival struct {
	due  time.Duration
	inst int
}

// stream is one workload's generated input: everything the server receives
// is derived from it, and the same (workload, seed, seconds) gives the same
// bytes.
type stream struct {
	spec
	seed    int64
	seconds int
	// insts/bodies: the solve instances and their request bodies, indexed
	// by instance id.
	insts  []*model.Instance
	bodies [][]byte
	// sched is the open-loop schedule, sorted by due time, or the batch.
	sched []arrival
	// prefill lists the instances sent once before the timed window
	// (repeat-store's pool), and poolSize how many of insts are pool.
	prefill  []int
	poolSize int
	// sessions are the session-churn generators, one per client.
	sessions []*sessionGen
}

func buildStream(name string, seed int64, seconds int) (*stream, error) {
	sp, ok := specs[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want %s, %s or %s)", name, coldSolve, repeatStore, sessionChurn)
	}
	st := &stream{spec: sp, seed: seed, seconds: seconds}
	r := rand.New(rand.NewSource(seed))
	switch name {
	case coldSolve:
		n := arrivals(sp.batch, seconds)
		pop := rand.New(rand.NewSource(populationSeed))
		for i := 0; i < n; i++ {
			st.add(denseInstance(pop, 20, 60))
		}
		for _, inst := range r.Perm(n) {
			st.sched = append(st.sched, arrival{inst: inst})
		}
	case repeatStore:
		pop := rand.New(rand.NewSource(populationSeed + 1))
		arch := 0
		for rank := 0; rank < poolDense+len(archipelagoRanks); rank++ {
			if arch < len(archipelagoRanks) && rank == archipelagoRanks[arch] {
				st.add(gen.Archipelago(gen.ArchipelagoConfig{
					Seed: pop.Int63(), Islands: islands, IslandEdges: islandEdges, GapEdges: islandGap,
					TasksPerIsland: islandTasks, CapLo: capLo, CapHi: capHi, Class: gen.Mixed,
				}))
				arch++
				continue
			}
			st.add(denseInstance(pop, 16, 32))
		}
		st.poolSize = len(st.insts)
		for i := 0; i < st.poolSize; i++ {
			st.prefill = append(st.prefill, i)
		}
		n := arrivals(sp.rate, seconds)
		fresh := int(math.Round(freshShare * float64(n)))
		for i := 0; i < fresh; i++ {
			st.add(denseInstance(pop, 16, 32))
		}
		// The request multiset is fixed: exactly `fresh` fresh instances,
		// and each pool rank exactly its Zipf share of the rest. The seed
		// draws the order and the arrival times, so no seed happens to
		// draw more of the slow (degraded) pool instances than another.
		var insts []int
		for rank, c := range zipfCounts(n-fresh, st.poolSize) {
			for ; c > 0; c-- {
				insts = append(insts, rank)
			}
		}
		for i := 0; i < fresh; i++ {
			insts = append(insts, st.poolSize+i)
		}
		r.Shuffle(len(insts), func(i, j int) { insts[i], insts[j] = insts[j], insts[i] })
		for i, due := range poissonSchedule(r, n, seconds) {
			st.sched = append(st.sched, arrival{due: due, inst: insts[i]})
		}
	case sessionChurn:
		for c := 0; c < sessionsPerRun; c++ {
			st.sessions = append(st.sessions, newSessionGen(populationSeed+2+int64(c), r.Int63()))
		}
	}
	return st, nil
}

func (st *stream) add(in *model.Instance) {
	var buf bytes.Buffer
	if err := in.WriteJSON(&buf); err != nil {
		panic(err) // bytes.Buffer writes cannot fail
	}
	st.insts = append(st.insts, in)
	st.bodies = append(st.bodies, buf.Bytes())
}

// zipfCounts splits n requests over `ranks` pool ranks in proportion to the
// Zipf weights (1+k)^−zipfS, by largest remainder, so the counts sum to n.
func zipfCounts(n, ranks int) []int {
	w := make([]float64, ranks)
	total := 0.0
	for k := range w {
		w[k] = math.Pow(float64(1+k), -zipfS)
		total += w[k]
	}
	counts := make([]int, ranks)
	rem := make([]int, ranks)
	left := n
	for k := range w {
		counts[k] = int(float64(n) * w[k] / total)
		left -= counts[k]
		rem[k] = k
	}
	frac := func(k int) float64 { return float64(n)*w[k]/total - float64(counts[k]) }
	sort.SliceStable(rem, func(i, j int) bool { return frac(rem[i]) > frac(rem[j]) })
	for _, k := range rem[:left] {
		counts[k]++
	}
	return counts
}

// arrivals is the request count of an open loop or a batch: rate ×
// seconds, exactly.
func arrivals(rate float64, seconds int) int {
	return int(math.Round(rate * float64(seconds)))
}

// poissonSchedule draws n arrival offsets in [0, seconds): a Poisson process
// conditioned on its count, i.e. sorted uniform draws. Fixing the count
// keeps the offered rate identical across seeds while the gaps stay
// exponential.
func poissonSchedule(r *rand.Rand, n, seconds int) []time.Duration {
	out := make([]time.Duration, n)
	span := float64(time.Duration(seconds) * time.Second)
	for i := range out {
		out[i] = time.Duration(r.Float64() * span)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// denseInstance draws one gen.Random Mixed path instance with 10–16 edges
// and lo–hi tasks.
func denseInstance(r *rand.Rand, lo, hi int) *model.Instance {
	return gen.Random(gen.Config{
		Seed: r.Int63(), Edges: 10 + r.Intn(7), Tasks: lo + r.Intn(hi-lo+1),
		CapLo: capLo, CapHi: capHi, Class: gen.Mixed,
	})
}

// sessionGen is one session-churn client's input: an archipelago to create
// the session from, then an endless deterministic sequence of deltas. Each
// delta swaps one or two small or large tasks (as core.Partition splits
// them) in the next one or two islands of a shuffled visiting cycle for
// spare tasks of the same class from that island's fixed spare pool. It
// tracks the task set the server's session should hold after each delta.
//
// The archipelago and the spare pools come from the population seed and
// only the order of visits and the swaps from the run seed. Medium tasks
// never move, so re-solving an island costs the medium arm the same every
// time (from microseconds to hundreds of milliseconds, island by island),
// and the cycle touches every island equally often: the share of time spent
// on hard islands is a property of the workload, not of the seed. A swap
// that could also pick medium tasks spread the throughput by ~30% between
// seeds.
type sessionGen struct {
	popSeed, seed int64
	rng           *rand.Rand
	capacity      []int64
	live          [][]int    // live small and large task IDs per island
	spare         [][3][]int // spare task IDs per island and class
	tasks         map[int]model.Task
	all           map[int]model.Task // live and spare tasks by ID
	class         map[int]int        // class of every task
	initial       []byte             // the create body
	// cycle is the seed-shuffled order in which deltas visit the islands:
	// each island is touched once per cycle, so how often the islands the
	// medium arm finds hard are touched does not depend on the seed.
	cycle []int
}

// sparesPerClass is the size of each island's spare pool per size class.
const sparesPerClass = 2

func newSessionGen(popSeed, seed int64) *sessionGen {
	in := gen.Archipelago(gen.ArchipelagoConfig{
		Seed: popSeed, Islands: islands, IslandEdges: islandEdges, GapEdges: islandGap,
		TasksPerIsland: islandTasks, CapLo: capLo, CapHi: capHi, Class: gen.Mixed,
	})
	g := &sessionGen{
		popSeed: popSeed, seed: seed, rng: rand.New(rand.NewSource(seed)),
		capacity: in.Capacity, live: make([][]int, islands), spare: make([][3][]int, islands),
		tasks: make(map[int]model.Task), all: make(map[int]model.Task), class: make(map[int]int),
	}
	for _, t := range in.Tasks {
		k := t.Start / (islandEdges + islandGap)
		g.tasks[t.ID], g.all[t.ID] = t, t
		g.class[t.ID] = sizeClass(t.Demand, in.Bottleneck(t))
		if g.class[t.ID] != medium {
			g.live[k] = append(g.live[k], t.ID)
		}
	}
	pool := rand.New(rand.NewSource(popSeed + 1))
	id := len(in.Tasks)
	for k := range g.spare {
		off := k * (islandEdges + islandGap)
		for _, c := range []int{small, large} {
			for j := 0; j < sparesPerClass; j++ {
				s := off + pool.Intn(islandEdges)
				e := min(s+1+pool.Intn(islandEdges), off+islandEdges)
				t := model.Task{ID: id, Start: s, End: e, Weight: 1 + pool.Int63n(100)}
				t.Demand = classDemand(pool, in.Bottleneck(t), c)
				g.spare[k][c] = append(g.spare[k][c], id)
				g.all[id], g.class[id] = t, c
				id++
			}
		}
	}
	var buf bytes.Buffer
	if err := in.WriteJSON(&buf); err != nil {
		panic(err)
	}
	g.initial = buf.Bytes()
	return g
}

// restart returns a fresh generator at the start of the same sequence.
func (g *sessionGen) restart() *sessionGen { return newSessionGen(g.popSeed, g.seed) }

// deltaDoc is the session delta wire format of POST /v1/session/{id}/delta.
type deltaDoc struct {
	Add    []deltaTask `json:"add"`
	Remove []int       `json:"remove"`
}

type deltaTask struct {
	ID     int   `json:"id"`
	Start  int   `json:"start"`
	End    int   `json:"end"`
	Demand int64 `json:"demand"`
	Weight int64 `json:"weight"`
}

// nextIsland returns the next island of the visiting cycle.
func (g *sessionGen) nextIsland() int {
	if len(g.cycle) == 0 {
		g.cycle = g.rng.Perm(islands)
	}
	k := g.cycle[0]
	g.cycle = g.cycle[1:]
	return k
}

// next advances the generator by one delta and returns its body.
func (g *sessionGen) next() []byte {
	var d deltaDoc
	touched := []int{g.nextIsland()}
	if g.rng.Intn(2) == 1 {
		if second := g.nextIsland(); second != touched[0] {
			touched = append(touched, second)
		}
	}
	for _, k := range touched {
		for _, out := range takeRandom(g.rng, &g.live[k], min(1+g.rng.Intn(2), len(g.live[k]))) {
			c := g.class[out]
			in := takeRandom(g.rng, &g.spare[k][c], 1)[0]
			g.spare[k][c] = append(g.spare[k][c], out)
			g.live[k] = append(g.live[k], in)
			delete(g.tasks, out)
			t := g.all[in]
			g.tasks[in] = t
			d.Remove = append(d.Remove, out)
			d.Add = append(d.Add, deltaTask{ID: t.ID, Start: t.Start, End: t.End, Demand: t.Demand, Weight: t.Weight})
		}
	}
	body, err := json.Marshal(d)
	if err != nil {
		panic(err) // plain structs always marshal
	}
	return body
}

// takeRandom removes n random elements from *ids and returns them.
func takeRandom(r *rand.Rand, ids *[]int, n int) []int {
	var out []int
	for j := 0; j < n; j++ {
		at := r.Intn(len(*ids))
		out = append(out, (*ids)[at])
		*ids = append((*ids)[:at], (*ids)[at+1:]...)
	}
	return out
}

// Size classes, as core.Partition splits tasks at δ = 1/16.
const (
	small  = iota // d ≤ b/16
	medium        // b/16 < d ≤ b/2
	large         // d > b/2
)

// sizeClass is the class of demand d against the bottleneck b.
func sizeClass(d, b int64) int {
	switch {
	case d <= b/16:
		return small
	case 2*d <= b:
		return medium
	default:
		return large
	}
}

// classDemand draws a demand of the given size class under bottleneck b.
func classDemand(r *rand.Rand, b int64, class int) int64 {
	lo, hi := int64(1), b/16
	switch class {
	case medium:
		lo, hi = b/16+1, b/2
	case large:
		lo, hi = b/2+1, b
	}
	return lo + r.Int63n(hi-lo+1)
}

// instance is the session's current task set, in ID order.
func (g *sessionGen) instance() *model.Instance {
	in := &model.Instance{Capacity: g.capacity, Tasks: make([]model.Task, 0, len(g.tasks))}
	for _, t := range g.tasks {
		in.Tasks = append(in.Tasks, t)
	}
	sort.Slice(in.Tasks, func(i, j int) bool { return in.Tasks[i].ID < in.Tasks[j].ID })
	return in
}
