package main

import (
	"context"
	"encoding/json"
	"fmt"

	"sapalloc/internal/model"
	"sapalloc/internal/oracle"
	"sapalloc/internal/shard"
)

// solveDoc is the POST /v1/solve response.
type solveDoc struct {
	Kind      string `json:"kind"`
	Weight    int64  `json:"weight"`
	Winner    string `json:"winner"`
	Scheduled int    `json:"scheduled"`
	Tasks     int    `json:"tasks"`
	Degraded  bool   `json:"degraded"`
	Shards    int    `json:"shards"`
	Items     []item `json:"items"`
}

// checkSolve verifies one solve response against the exact instance that
// was sent: every placement names a task of it, the allocation is SAP
// feasible (oracle.CheckSAP) and the reported weight is the placed weight
// (oracle.CheckWeight).
func checkSolve(in *model.Instance, body []byte) (*solveDoc, error) {
	var doc solveDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		return nil, fmt.Errorf("decode solve response: %w", err)
	}
	if doc.Kind != "path" || doc.Tasks != len(in.Tasks) || doc.Scheduled != len(doc.Items) {
		return nil, fmt.Errorf("solve response kind %q tasks %d scheduled %d items %d, sent %d tasks",
			doc.Kind, doc.Tasks, doc.Scheduled, len(doc.Items), len(in.Tasks))
	}
	heights := make(map[int]int64, len(doc.Items))
	for _, it := range doc.Items {
		heights[it.TaskID] = it.Height
	}
	if err := checkAllocation(in, heights, doc.Weight); err != nil {
		return nil, err
	}
	return &doc, nil
}

// checkAllocation checks task → height placements against the instance.
func checkAllocation(in *model.Instance, heights map[int]int64, weight int64) error {
	byID := make(map[int]model.Task, len(in.Tasks))
	for _, t := range in.Tasks {
		byID[t.ID] = t
	}
	sol := &model.Solution{Items: make([]model.Placement, 0, len(heights))}
	for id, h := range heights {
		t, ok := byID[id]
		if !ok {
			return fmt.Errorf("response places task %d, which was not sent", id)
		}
		sol.Items = append(sol.Items, model.Placement{Task: t, Height: h})
	}
	if err := oracle.CheckSAP(in, sol); err != nil {
		return fmt.Errorf("infeasible response: %w", err)
	}
	if err := oracle.CheckWeight(sol, weight); err != nil {
		return fmt.Errorf("mis-weighted response: %w", err)
	}
	return nil
}

// checkSessions replays each client's delta sequence and checks every
// session response against the task set the session held at that point.
// It returns the final weight and task set of each session.
func checkSessions(st *stream, creates []record, deltas [][]record) ([]int64, []*model.Instance, error) {
	weights := make([]int64, len(st.sessions))
	finals := make([]*model.Instance, len(st.sessions))
	for c := range st.sessions {
		g := st.sessions[c].restart()
		placed := map[int]int64{}
		recs := append([]record{creates[c]}, deltas[c]...)
		for i, rec := range recs {
			if i > 0 {
				g.next()
			}
			if !rec.ok() {
				break // the client stopped here; nothing later was sent
			}
			s := rec.sess
			for id, h := range s.Set {
				placed[id] = h
			}
			for _, id := range s.Dropped {
				delete(placed, id)
			}
			in := g.instance()
			if s.Tasks != len(in.Tasks) {
				return nil, nil, fmt.Errorf("session %d delta %d: response has %d tasks, session holds %d", c, rec.delta, s.Tasks, len(in.Tasks))
			}
			if err := checkAllocation(in, placed, s.Weight); err != nil {
				return nil, nil, fmt.Errorf("session %d delta %d: %w", c, rec.delta, err)
			}
			weights[c], finals[c] = s.Weight, in
		}
	}
	return weights, finals, nil
}

// lpBound is oracle.LPBound summed over the instance's zero-load-cut
// shards: the UFPP LP separates across cut edges, so the sum is the LP
// optimum of the whole instance at a fraction of the cost.
func lpBound(in *model.Instance) (float64, error) {
	plan := shard.Compute(context.Background(), in)
	if !plan.Decomposes() {
		b, err := oracle.LPBound(in)
		return b.Value, err
	}
	total := 0.0
	for i := 0; i < plan.Len(); i++ {
		b, err := oracle.LPBound(plan.SubInstance(i))
		if err != nil {
			return 0, err
		}
		total += b.Value
	}
	return total, nil
}
