package exp

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"padc/internal/core"
	"padc/internal/dram/refresh"
	"padc/internal/sim"
	"padc/internal/stats"
	"padc/internal/workload"
)

func TestTableRendering(t *testing.T) {
	tab := &Table{Title: "T", Header: []string{"a", "bb"}}
	tab.Add("x", "1")
	tab.Addf("y", 2.5)
	out := tab.String()
	for _, want := range []string{"== T ==", "a", "bb", "x", "2.500"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("unexpected line count %d:\n%s", len(lines), out)
	}
}

func TestVariantsSetDistinctConfigs(t *testing.T) {
	for _, v := range StandardVariants() {
		cfg := baseConfig(4, Quick())
		v.Apply(&cfg)
		if v.Name == "no-pref" && cfg.Prefetcher != 0 {
			t.Errorf("no-pref left the prefetcher on")
		}
		if v.Name == "aps-apd (PADC)" && !cfg.PADC.EnableAPD {
			t.Errorf("PADC variant lost APD")
		}
		if v.Name == "aps-only" && cfg.PADC.EnableAPD {
			t.Errorf("aps-only kept APD")
		}
	}
}

func TestMixesStableAcrossCalls(t *testing.T) {
	a, b := Mixes(4, 3), Mixes(4, 3)
	for i := range a {
		for j := range a[i] {
			if a[i][j].Name != b[i][j].Name {
				t.Fatal("experiment mixes must be deterministic")
			}
		}
	}
}

func TestFig6QuickShape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	tab := Fig6(tinyScale(), false)
	t.Logf("\n%s", tab)
	g := tab.Rows[len(tab.Rows)-1] // gmean row
	if !strings.HasPrefix(g[0], "gmean") {
		t.Fatalf("last row should be the gmean: %v", g)
	}
	// Column order: no-pref, demand-first(=1.0), equal, aps, padc.
	parse := func(s string) float64 {
		var v float64
		if _, err := fmt.Sscan(s, &v); err != nil {
			t.Fatal(err)
		}
		return v
	}
	df, aps, padc := parse(g[2]), parse(g[4]), parse(g[5])
	if df < 0.99 || df > 1.01 {
		t.Fatalf("demand-first normalization broken: %v", df)
	}
	// The paper's headline: the adaptive policies beat demand-first on
	// average; allow slack at the tiny scale.
	if aps < 0.95*df || padc < 0.95*df {
		t.Errorf("adaptive policies collapsed: aps=%v padc=%v", aps, padc)
	}
}

// TestGridAloneBaselinesFollowPoint checks the grid's alone phase on a
// two-machine grid (refresh off vs per-bank): each point's IPC_alone must
// be the demand-first single-benchmark run on that point's machine, and
// the phase must run each distinct benchmark exactly once per point.
func TestGridAloneBaselinesFollowPoint(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	sc := Scale{Insts: 20_000, Mixes4: 1}
	mixes := Mixes(4, 1)
	modes := []refresh.Mode{refresh.Off, refresh.PerBank}
	var points []point
	for _, m := range modes {
		points = append(points, point{m.String(), func(c *sim.Config) { c.DRAM.Refresh.Mode = m }})
	}
	distinct := map[string]workload.Profile{}
	for _, p := range mixes[0] {
		distinct[p.Name] = p
	}

	var aloneRuns, cellRuns atomic.Int64
	orig := runOne
	runOne = func(cfg sim.Config) stats.Results {
		if len(cfg.Workload) == 1 {
			aloneRuns.Add(1)
		} else {
			cellRuns.Add(1)
		}
		return orig(cfg)
	}
	defer func() { runOne = orig }()
	runs := grid(mixes, 4, sc, []Variant{PADC()}, points)
	if got, want := aloneRuns.Load(), int64(len(points)*len(distinct)); got != want {
		t.Errorf("alone phase ran %d jobs, want points x distinct benchmarks = %d", got, want)
	}
	if got := cellRuns.Load(); got != int64(len(points)) {
		t.Errorf("grid phase ran %d jobs, want %d", got, len(points))
	}
	if len(runs) != 2 || len(runs[0]) != 1 || len(runs[0][0]) != 1 {
		t.Fatalf("grid shape %dx%dx%d, want 2x1x1", len(runs), len(runs[0]), len(runs[0][0]))
	}

	alone := aloneIPC(mixes, 4, sc, points)
	moved := false
	for pi, m := range modes {
		if len(alone[pi]) != len(distinct) {
			t.Fatalf("%s: %d alone baselines, want %d", m, len(alone[pi]), len(distinct))
		}
		for name, prof := range distinct {
			cfg := sim.Baseline(4)
			cfg.TargetInsts = sc.Insts
			cfg.PADC = core.DefaultConfig()
			DemandFirst().Apply(&cfg)
			cfg.DRAM.Refresh.Mode = m
			cfg.Workload = []workload.Profile{prof}
			res, err := sim.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if want := res.PerCore[0].IPC(); alone[pi][name] != want {
				t.Errorf("%s/%s: alone IPC %v, direct run %v", m, name, alone[pi][name], want)
			}
			if pi > 0 && alone[pi][name] != alone[0][name] {
				moved = true
			}
		}
	}
	if !moved {
		t.Error("per-bank refresh left every alone IPC unchanged; the test cannot tell the points apart")
	}
}
