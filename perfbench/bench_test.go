package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the tests check against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestTinyRuns runs every workload at tiny scale, timed and traced, and
// checks the printed result: every metric BENCHMARK.json names appears
// exactly once with its unit, the output checks pass, every layer probe
// made calls, and the profile attributes at least 90% of its samples to
// a named layer or the runtime.
func TestTinyRuns(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.Name+"/trace"+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				args := []string{"--workload", w.Name, "--seed", "3", "--seconds", "0.2", "--trace", trace, "--scale", "tiny"}
				if code := run(args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d: %s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res struct {
					Correct   bool              `json:"correct"`
					Attempted int               `json:"attempted"`
					Failed    int               `json:"failed"`
					Metrics   map[string]metric `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result object: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d: %s", res.Correct, res.Attempted, res.Failed, stderr.String())
				}
				want := spec.EndToEnd
				if trace == "1" {
					want = spec.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("printed %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
					}
					n := 0
					for _, l := range lines {
						if f := strings.Fields(l); len(f) == 3 && f[0] == m.Name && f[2] == m.Unit {
							n++
						}
					}
					if n != 1 {
						t.Errorf("metric %s printed on %d lines, want 1", m.Name, n)
					}
				}
				if trace != "1" {
					return
				}
				var rec struct {
					LayerCalls map[string]int `json:"layer_calls"`
					Attributed float64        `json:"profile_attributed"`
				}
				if err := json.Unmarshal([]byte(strings.TrimPrefix(lines[len(lines)-2], "record ")), &rec); err != nil {
					t.Fatalf("record line: %v", err)
				}
				if len(rec.LayerCalls) == 0 {
					t.Error("no layer probe ran")
				}
				for name, n := range rec.LayerCalls {
					if n <= 0 {
						t.Errorf("layer probe %s made no calls", name)
					}
				}
				if rec.Attributed < 0.9 {
					t.Errorf("profile attributes %.2f of samples to named layers or the runtime, want >= 0.90", rec.Attributed)
				}
			})
		}
	}
}
