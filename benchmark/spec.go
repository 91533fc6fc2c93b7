package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// benchSpec is BENCHMARK.json, the benchmark's contract with whoever runs
// it: the workloads, the end-to-end metrics with their regression bounds,
// and the per-layer metrics the traced run must print.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Bound float64 `json:"bound"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	spec := new(benchSpec)
	if err := json.Unmarshal(data, spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return spec, nil
}

// missing lists how the metrics a run produced differ from the ones the
// contract promises for that kind of run.
func (s *benchSpec) missing(got map[string]metric, traced bool) []string {
	want := s.EndToEnd
	if traced {
		want = s.PerLayer
	}
	var out []string
	for _, m := range want {
		if g, ok := got[m.Name]; !ok {
			out = append(out, fmt.Sprintf("metric %s is in BENCHMARK.json but was not measured", m.Name))
		} else if g.Unit != m.Unit {
			out = append(out, fmt.Sprintf("metric %s has unit %s, BENCHMARK.json says %s", m.Name, g.Unit, m.Unit))
		}
	}
	if len(got) > len(want) && len(out) == 0 {
		out = append(out, fmt.Sprintf("%d metrics measured, BENCHMARK.json lists %d", len(got), len(want)))
	}
	return out
}
