package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// metricDef declares one printed metric. The tables below are the
// benchmark's contract with BENCHMARK.json; main_test.go keeps them equal.
type metricDef struct {
	name, unit, better string
}

// endToEndMetrics are printed by every untraced run (--trace 0).
var endToEndMetrics = []metricDef{
	{"latency_p50_ms", "ms", "lower"},
	{"latency_tail_ms", "ms", "lower"},
	{"throughput_rps", "1/s", "higher"},
	{"goodput_rps", "1/s", "higher"},
	{"weight_vs_lp", "ratio", "higher"},
	{"setup_s", "s", "lower"},
	{"server_rss_mb", "MiB", "lower"},
}

// perLayerMetrics are printed by every traced run (--trace 1). A layer a
// workload does not exercise reads 0.
var perLayerMetrics = []metricDef{
	{"model.decode_us_p50", "us", "lower"},
	{"model.canonicalize_us_p50", "us", "lower"},
	{"sapcache.key_us_p50", "us", "lower"},
	{"sapcache.get_us_p50", "us", "lower"},
	{"sapcache.hit_ratio", "ratio", "higher"},
	{"sapcache.repeat_miss_ratio", "ratio", "lower"},
	{"store.replay_ms", "ms", "lower"},
	{"store.get_us_p50", "us", "lower"},
	{"store.put_us_p50", "us", "lower"},
	{"store.flush_ms_p50", "ms", "lower"},
	{"store.bytes_per_put", "B", "lower"},
	{"serve.own_us_p50", "us", "lower"},
	{"serve.queue_wait_ms_mean", "ms", "lower"},
	{"serve.rejected", "count", "lower"},
	{"serve.cache_hits", "count", "higher"},
	{"serve.cache_misses", "count", "lower"},
	{"serve.cache_dedup", "count", "higher"},
	{"serve.store_hits", "count", "higher"},
	{"store.puts", "count", "higher"},
	{"shard.compute_us_p50", "us", "lower"},
	{"shard.lift_us_p50", "us", "lower"},
	{"shard.scatter_ms_p50", "ms", "lower"},
	{"shard.shards_per_solve", "count", "higher"},
	{"core.partition_us_p50", "us", "lower"},
	{"core.solve_ms_p50", "ms", "lower"},
	{"core.solve_ms_p99", "ms", "lower"},
	{"core.solves_degraded", "count", "lower"},
	{"core.winner_share.small", "ratio", "higher"},
	{"core.winner_share.medium", "ratio", "higher"},
	{"core.winner_share.large", "ratio", "higher"},
	{"smallsap.solve_ms_p50", "ms", "lower"},
	{"mediumsap.solve_ms_p50", "ms", "lower"},
	{"mediumsap.solve_ms_p99", "ms", "lower"},
	{"mediumsap.solve_share", "ratio", "lower"},
	{"mediumsap.degraded_share", "ratio", "lower"},
	{"mediumsap.exact_fallbacks", "count", "lower"},
	{"largesap.solve_ms_p50", "ms", "lower"},
	{"session.apply_ms_p50", "ms", "lower"},
	{"session.apply_ms_p99", "ms", "lower"},
	{"session.reuse_ratio", "ratio", "higher"},
	{"session.dirty_edges_mean", "count", "lower"},
	{"session.deltas", "count", "higher"},
	{"session.incremental_solves", "count", "higher"},
	{"session.full_solves", "count", "lower"},
	{"error_rate", "ratio", "lower"},
	{"degraded_share", "ratio", "lower"},
	{"loadgen.lag_ms_p99", "ms", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// pick renders exactly the declared metrics from the measured values; a
// declared metric the run did not measure is an error, so the printed names
// can never drift from the tables.
func pick(defs []metricDef, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	var missing []string
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			missing = append(missing, d.name)
			continue
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, fmt.Errorf("metrics not measured: %v", missing)
	}
	return out, nil
}

func writeLine(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
