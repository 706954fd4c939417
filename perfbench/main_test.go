package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"testing"
	"time"
)

// digest hashes the request stream the server would receive: the schedule,
// every body it names, and the first `deltas` deltas of each session.
func (st *stream) digest(deltas int) [32]byte {
	h := sha256.New()
	for _, i := range st.prefill {
		h.Write(st.bodies[i])
	}
	for _, a := range st.sched {
		fmt.Fprintf(h, "%d:", a.due)
		h.Write(st.bodies[a.inst])
	}
	for _, g := range st.sessions {
		g = g.restart()
		h.Write(g.initial)
		for k := 0; k < deltas; k++ {
			h.Write(g.next())
		}
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func TestStreamDeterministic(t *testing.T) {
	for name := range specs {
		a, err := buildStream(name, 7, 4)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := buildStream(name, 7, 4)
		c, _ := buildStream(name, 8, 4)
		if a.digest(50) != b.digest(50) {
			t.Errorf("%s: the same seed gave different request streams", name)
		}
		if a.digest(50) == c.digest(50) {
			t.Errorf("%s: seeds 7 and 8 gave the same request stream", name)
		}
	}
}

func TestPoissonScheduleRate(t *testing.T) {
	for name, sp := range specs {
		if sp.rate == 0 {
			continue
		}
		st, err := buildStream(name, 3, 20)
		if err != nil {
			t.Fatal(err)
		}
		if want := int(math.Round(sp.rate * 20)); len(st.sched) != want {
			t.Errorf("%s: %d arrivals in 20 s, want %d at %g/s", name, len(st.sched), want, sp.rate)
		}
		for i, a := range st.sched {
			if a.due < 0 || a.due >= 20*time.Second || (i > 0 && a.due < st.sched[i-1].due) {
				t.Fatalf("%s: arrival %d due at %v: outside [0, 20s) or out of order", name, i, a.due)
			}
		}
	}
	// Gaps of a Poisson process are exponential: mean 1/rate, and the
	// standard deviation equals the mean.
	const rate, seconds = 50.0, 400
	dues := poissonSchedule(rand.New(rand.NewSource(1)), arrivals(rate, seconds), seconds)
	gaps := make([]float64, len(dues)-1)
	for i := range gaps {
		gaps[i] = (dues[i+1] - dues[i]).Seconds()
	}
	m := mean(gaps)
	var ss float64
	for _, g := range gaps {
		ss += (g - m) * (g - m)
	}
	sd := math.Sqrt(ss / float64(len(gaps)-1))
	if math.Abs(m*rate-1) > 0.02 {
		t.Errorf("mean gap %.5f s, want %.5f s", m, 1/rate)
	}
	if math.Abs(sd/m-1) > 0.05 {
		t.Errorf("gap coefficient of variation %.3f, want 1 for exponential gaps", sd/m)
	}
}

func TestTailRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64 // percentile
	}{{5, 0}, {20, 50}, {39, 50}, {40, 75}, {60, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		s := make([]float64, c.n)
		for i := range s {
			s[i] = float64(i)
		}
		v, p := tail(s)
		if p != c.want {
			t.Errorf("n=%d: percentile %g, want %g", c.n, p, c.want)
			continue
		}
		if p == 0 {
			if v != 0 {
				t.Errorf("n=%d: fallback value %g, want the minimum", c.n, v)
			}
			continue
		}
		beyond := 0
		for _, x := range s {
			if x > v {
				beyond++
			}
		}
		if beyond < tailBeyond {
			t.Errorf("n=%d: p%g leaves %d samples beyond it, want at least %d", c.n, p, beyond, tailBeyond)
		}
		if v != quantile(s, p/100) {
			t.Errorf("n=%d: tail value %g is not the nearest-rank p%g %g", c.n, v, p, quantile(s, p/100))
		}
		// The next rung up must leave fewer than tailBeyond samples.
		for k, q := range tailLadder {
			if q == p && k > 0 {
				up := tailLadder[k-1]
				if rank := nearestRank(up/100, c.n); c.n-rank >= tailBeyond {
					t.Errorf("n=%d: p%g still has %d samples beyond it; the rule should pick it", c.n, up, c.n-rank)
				}
			}
		}
	}
}

// benchmarkJSON is the part of BENCHMARK.json the benchmark must agree with.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for name := range specs {
		ours = append(ours, name)
	}
	sort.Strings(names)
	sort.Strings(ours)
	if len(names) != len(ours) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark has %v", names, ours)
	}
	for i := range names {
		if names[i] != ours[i] {
			t.Fatalf("BENCHMARK.json workloads %v, benchmark has %v", names, ours)
		}
	}
	compare := func(kind string, want []struct{ Name, Unit, Better string }, got []metricDef) {
		if len(want) != len(got) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(want), len(got))
		}
		for i, w := range want {
			if g := got[i]; w.Name != g.name || w.Unit != g.unit || w.Better != g.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the benchmark prints %+v", kind, i, w, g)
			}
		}
	}
	compare("end_to_end", bj.EndToEnd, endToEndMetrics)
	compare("per_layer", bj.PerLayer, perLayerMetrics)
}

func TestPickPrintsExactlyTheDeclaredMetrics(t *testing.T) {
	values := map[string]float64{"not_declared": 1}
	for i, d := range endToEndMetrics {
		values[d.name] = float64(i + 1)
	}
	got, err := pick(endToEndMetrics, values)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(endToEndMetrics) {
		t.Fatalf("printed %d metrics, want %d", len(got), len(endToEndMetrics))
	}
	for _, d := range endToEndMetrics {
		if got[d.name].Unit != d.unit {
			t.Errorf("%s printed with unit %q, want %q", d.name, got[d.name].Unit, d.unit)
		}
	}
	delete(values, "setup_s")
	if _, err := pick(endToEndMetrics, values); err == nil {
		t.Error("a declared metric went unmeasured and pick did not fail")
	}
}

// The session generator must only ever send deltas the server accepts: the
// task set stays valid, and every island keeps its task count and its mix
// of small, medium and large tasks (and its medium tasks: the test checks
// the mix, the generator never lists them).
func TestSessionDeltasStayValid(t *testing.T) {
	g := newSessionGen(11, 12)
	mix := func() [][3]int {
		out := make([][3]int, islands)
		in := g.instance()
		for _, t := range in.Tasks {
			out[t.Start/(islandEdges+islandGap)][sizeClass(t.Demand, in.Bottleneck(t))]++
		}
		return out
	}
	before := mix()
	for k := 0; k < 500; k++ {
		var d deltaDoc
		if err := json.Unmarshal(g.next(), &d); err != nil {
			t.Fatal(err)
		}
		if len(d.Add) != len(d.Remove) || len(d.Add) == 0 {
			t.Fatalf("delta %d adds %d and removes %d tasks", k, len(d.Add), len(d.Remove))
		}
	}
	in := g.instance()
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(in.Tasks) != islands*islandTasks {
		t.Fatalf("%d tasks after churn, want %d", len(in.Tasks), islands*islandTasks)
	}
	for id, c := range g.class {
		if _, live := g.tasks[id]; c == medium && !live {
			t.Fatalf("medium task %d left its island", id)
		}
	}
	after := mix()
	for k := range g.live {
		if before[k] != after[k] {
			t.Fatalf("island %d class mix went from %v to %v", k, before[k], after[k])
		}
		if n := before[k][0] + before[k][1] + before[k][2]; n != islandTasks {
			t.Fatalf("island %d holds %d tasks, want %d", k, n, islandTasks)
		}
	}
}

func TestHarrellDavis(t *testing.T) {
	// I_x(a, b) against closed forms: I_x(1, 1) = x, I_x(2, 1) = x².
	for _, x := range []float64{0.1, 0.5, 0.9} {
		if got := betaInc(1, 1, x); math.Abs(got-x) > 1e-12 {
			t.Errorf("I_%g(1,1) = %g, want %g", x, got, x)
		}
		if got := betaInc(2, 1, x); math.Abs(got-x*x) > 1e-12 {
			t.Errorf("I_%g(2,1) = %g, want %g", x, got, x*x)
		}
	}
	// A constant sample has that constant as every quantile, and a
	// symmetric sample has its centre as the median.
	if got := hdQuantile([]float64{3, 3, 3, 3}, 0.9); math.Abs(got-3) > 1e-9 {
		t.Errorf("constant sample: %g", got)
	}
	s := make([]float64, 101)
	for i := range s {
		s[i] = float64(i)
	}
	if got := hdQuantile(s, 0.5); math.Abs(got-50) > 1e-6 {
		t.Errorf("median of 0..100: %g, want 50", got)
	}
	if got := hdQuantile(s, 0.9); math.Abs(got-90) > 1 {
		t.Errorf("p90 of 0..100: %g, want about 90", got)
	}
}

func TestZipfCounts(t *testing.T) {
	counts := zipfCounts(1125, 100)
	sum := 0
	for k, c := range counts {
		sum += c
		if k > 0 && c > counts[k-1] {
			t.Errorf("rank %d gets %d requests, more than rank %d's %d", k, c, k-1, counts[k-1])
		}
	}
	if sum != 1125 {
		t.Errorf("counts sum to %d, want 1125", sum)
	}
	// (1+k)^−s: rank 0 is drawn 100^1.1 ≈ 158 times as often as rank 99.
	if counts[0] < 100*max(counts[99], 1) {
		t.Errorf("rank 0 gets %d requests and rank 99 %d: not Zipf", counts[0], counts[99])
	}
}
