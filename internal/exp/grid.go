package exp

import (
	"sort"

	"padc/internal/memctrl"
	"padc/internal/runner"
	"padc/internal/sim"
	"padc/internal/stats"
	"padc/internal/workload"
)

// point is one machine of an experiment grid: a column label and the
// mutation (row size, L2 size, channels, refresh, topology, ...) applied
// to every run on that machine, its alone baselines included. A nil
// mutate is the baseline machine.
type point struct {
	label  string
	mutate func(*sim.Config)
}

// onePoint is the one-machine grid of the figures that vary only the
// policy; its label heads their single WS column.
func onePoint(mutate func(*sim.Config)) []point { return []point{{"WS", mutate}} }

// mixRun is one multiprogrammed run scored against the demand-first
// IPC_alone baselines of its machine.
type mixRun struct {
	WS, HS, UF float64
	IS         []float64 // per-core individual speedups
	stats.Results
}

// grid runs every (point, variant, mix) cell of an ncores experiment on
// the shared worker pool and returns the runs indexed [point][variant][mix].
// It first runs the alone phase (aloneIPC), then every cell, point-major,
// then variant, then mix. A cell's config is the baseline with the
// point's mutation applied first and the variant's on top.
func grid(mixes [][]workload.Profile, ncores int, sc Scale, variants []Variant, points []point) [][][]mixRun {
	alone := aloneIPC(mixes, ncores, sc, points)
	out := make([][][]mixRun, len(points))
	for pi := range out {
		out[pi] = make([][]mixRun, len(variants))
		for vi := range out[pi] {
			out[pi][vi] = make([]mixRun, len(mixes))
		}
	}
	nv, nm := len(variants), len(mixes)
	runner.Parallel(len(points)*nv*nm, func(i int) {
		pi, vi, mi := i/(nv*nm), i/nm%nv, i%nm
		cfg := baseConfig(ncores, sc)
		if m := points[pi].mutate; m != nil {
			m(&cfg)
		}
		variants[vi].Apply(&cfg)
		cfg.Workload = append([]workload.Profile(nil), mixes[mi]...)
		res := runOne(cfg)
		ipcAlone := make([]float64, len(mixes[mi]))
		for k, p := range mixes[mi] {
			ipcAlone[k] = alone[pi][p.Name]
		}
		out[pi][vi][mi] = mixRun{
			WS:      stats.WS(res.PerCore, ipcAlone),
			HS:      stats.HS(res.PerCore, ipcAlone),
			UF:      stats.UF(res.PerCore, ipcAlone),
			IS:      stats.IndividualSpeedups(res.PerCore, ipcAlone),
			Results: res,
		}
	})
	return out
}

// aloneIPC is the grid's alone phase: each distinct benchmark of mixes runs
// once per point, by itself on the ncores-provisioned demand-first machine
// (the paper's IPC_alone, §5.2), in sorted name order within each point.
// The point's mutation applies to these runs and no variant's does. It
// returns IPC_alone by benchmark name, per point.
func aloneIPC(mixes [][]workload.Profile, ncores int, sc Scale, points []point) []map[string]float64 {
	uniq := map[string]workload.Profile{}
	for _, m := range mixes {
		for _, p := range m {
			uniq[p.Name] = p
		}
	}
	names := make([]string, 0, len(uniq))
	for n := range uniq {
		names = append(names, n)
	}
	sort.Strings(names)
	ipc := make([]float64, len(points)*len(names))
	runner.Parallel(len(ipc), func(i int) {
		pi, name := i/len(names), names[i%len(names)]
		cfg := baseConfig(ncores, sc)
		cfg.Policy = memctrl.DemandFirst
		cfg.PADC.EnableAPD = false
		if m := points[pi].mutate; m != nil {
			m(&cfg)
		}
		cfg.Workload = []workload.Profile{uniq[name]}
		ipc[i] = runOne(cfg).PerCore[0].IPC()
	})
	out := make([]map[string]float64, len(points))
	for pi := range out {
		out[pi] = make(map[string]float64, len(names))
		for k, n := range names {
			out[pi][n] = ipc[pi*len(names)+k]
		}
	}
	return out
}

// mean averages f over runs, summing in mix order.
func mean(runs []mixRun, f func(mixRun) float64) float64 {
	var s float64
	for _, r := range runs {
		s += f(r)
	}
	return s / float64(len(runs))
}

// Metric extractors for mean.
func wsOf(r mixRun) float64  { return r.WS }
func busOf(r mixRun) float64 { return float64(r.Bus.Total()) }
