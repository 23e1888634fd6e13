package exp

import (
	"fmt"
	"sort"

	"padc/internal/memctrl"
	"padc/internal/runner"
	"padc/internal/stats"
	"padc/internal/workload"
)

// Fig1Benchmarks are the ten applications of Figure 1: five where
// demand-first wins, five where demand-prefetch-equal wins.
func Fig1Benchmarks() []string {
	return []string{
		"galgel", "ammp", "xalancbmk", "art", "milc", // prefetch-unfriendly
		"swim", "libquantum", "bwaves", "leslie3d", "lbm", // prefetch-friendly
	}
}

// Fig6Benchmarks are the fifteen applications Figure 6 plots individually.
func Fig6Benchmarks() []string {
	return []string{
		"swim", "galgel", "art", "ammp", "gcc", "mcf", "libquantum",
		"omnetpp", "xalancbmk", "bwaves", "milc", "cactusADM", "leslie3d",
		"soplex", "lbm",
	}
}

// SingleRun is one benchmark under one variant on the 1-core baseline.
type SingleRun struct {
	Bench   string
	Variant string
	Core    stats.CoreResult
	Res     stats.Results
}

// SingleCoreSweep runs each named benchmark under each variant on the
// single-core baseline, in parallel.
func SingleCoreSweep(names []string, variants []Variant, sc Scale) map[string]map[string]SingleRun {
	type job struct{ b, v int }
	var jobs []job
	for b := range names {
		for v := range variants {
			jobs = append(jobs, job{b, v})
		}
	}
	out := make([]SingleRun, len(jobs))
	runner.Parallel(len(jobs), func(i int) {
		j := jobs[i]
		prof := workload.MustByName(names[j.b])
		cfg := baseConfig(1, sc)
		variants[j.v].Apply(&cfg)
		cfg.Workload = []workload.Profile{prof}
		res := runOne(cfg)
		out[i] = SingleRun{Bench: names[j.b], Variant: variants[j.v].Name, Core: res.PerCore[0], Res: res}
	})
	m := make(map[string]map[string]SingleRun, len(names))
	for _, r := range out {
		if m[r.Bench] == nil {
			m[r.Bench] = make(map[string]SingleRun)
		}
		m[r.Bench][r.Variant] = r
	}
	return m
}

// Fig1 reproduces Figure 1: IPC of the stream prefetcher under
// demand-first and demand-prefetch-equal, normalized to no prefetching,
// for ten benchmarks.
func Fig1(sc Scale) *Table {
	variants := []Variant{NoPref(), DemandFirst(), DemandPrefEqual()}
	sweep := SingleCoreSweep(Fig1Benchmarks(), variants, sc)
	t := &Table{
		Title:  "Figure 1: normalized IPC of stream prefetching under rigid policies",
		Header: []string{"benchmark", "demand-first", "demand-pref-equal"},
	}
	for _, b := range Fig1Benchmarks() {
		base := sweep[b]["no-pref"].Core.IPC()
		t.Addf(b, sweep[b]["demand-first"].Core.IPC()/base, sweep[b]["demand-pref-equal"].Core.IPC()/base)
	}
	return t
}

// Fig4 reproduces Figure 4 for milc: (a) the service-time histogram of
// useful versus useless prefetches under demand-first and (b) the
// prefetch-accuracy phase trace.
func Fig4(sc Scale) (hist *Table, trace *Table) {
	cfg := baseConfig(1, sc)
	cfg.Policy = memctrl.DemandFirst
	cfg.TrackServiceHist = true
	cfg.TrackAccuracyTrace = true
	cfg.Workload = []workload.Profile{workload.MustByName("milc")}
	res := runOne(cfg)

	hist = &Table{
		Title:  "Figure 4(a): milc prefetch service time (demand-first)",
		Header: []string{"cycles", "useful", "useless"},
	}
	for i := range res.ServiceHistUseful {
		label := fmt.Sprintf("%d-%d", i*200, i*200+200)
		if i == len(res.ServiceHistUseful)-1 {
			label = fmt.Sprintf("%d+", i*200)
		}
		hist.Add(label,
			fmt.Sprintf("%d", res.ServiceHistUseful[i]),
			fmt.Sprintf("%d", res.ServiceHistUseless[i]))
	}

	trace = &Table{
		Title:  "Figure 4(b): milc prefetch accuracy per 100K-cycle interval",
		Header: []string{"interval", "accuracy(%)"},
	}
	for i, a := range res.AccuracyTrace {
		trace.Add(fmt.Sprintf("%d", i), fmt.Sprintf("%.1f", a*100))
	}
	return hist, trace
}

// Fig6 reproduces Figure 6: single-core IPC of the five policies
// normalized to demand-first, for 15 benchmarks plus the geometric mean
// over the whole extended suite when full is true.
func Fig6(sc Scale, full bool) *Table {
	names := Fig6Benchmarks()
	if full {
		names = workload.Names()
	}
	sweep := SingleCoreSweep(names, StandardVariants(), sc)
	t := &Table{
		Title:  "Figure 6: single-core normalized IPC",
		Header: []string{"benchmark", "no-pref", "demand-first", "demand-pref-equal", "aps-only", "aps-apd (PADC)"},
	}
	vnames := []string{"no-pref", "demand-first", "demand-pref-equal", "aps-only", "aps-apd (PADC)"}
	norm := make(map[string][]float64, len(vnames))
	show := Fig6Benchmarks()
	for _, b := range names {
		base := sweep[b]["demand-first"].Core.IPC()
		var row []float64
		for _, v := range vnames {
			row = append(row, sweep[b][v].Core.IPC()/base)
		}
		norm[b] = row
	}
	for _, b := range show {
		if r, ok := norm[b]; ok {
			t.Addf(b, r...)
		}
	}
	// Geometric mean over everything that ran.
	gm := make([]float64, len(vnames))
	for vi := range vnames {
		var xs []float64
		for _, b := range names {
			xs = append(xs, norm[b][vi])
		}
		gm[vi] = stats.GeoMean(xs)
	}
	t.Addf(fmt.Sprintf("gmean%d", len(names)), gm...)
	return t
}

// Fig7 reproduces Figure 7: stall time per load (SPL) on the single-core
// system for the five policies.
func Fig7(sc Scale) *Table {
	sweep := SingleCoreSweep(Fig6Benchmarks(), StandardVariants(), sc)
	t := &Table{
		Title:  "Figure 7: stall cycles per load (single core)",
		Header: []string{"benchmark", "no-pref", "demand-first", "demand-pref-equal", "aps-only", "aps-apd (PADC)"},
	}
	vnames := []string{"no-pref", "demand-first", "demand-pref-equal", "aps-only", "aps-apd (PADC)"}
	means := make([]float64, len(vnames))
	for _, b := range Fig6Benchmarks() {
		var row []float64
		for vi, v := range vnames {
			spl := sweep[b][v].Core.SPL()
			row = append(row, spl)
			means[vi] += spl
		}
		t.Addf(b, row...)
	}
	for vi := range means {
		means[vi] /= float64(len(Fig6Benchmarks()))
	}
	t.Addf("mean", means...)
	return t
}

// Fig8 reproduces Figure 8: single-core bus traffic broken into demand,
// useful-prefetch and useless-prefetch lines.
func Fig8(sc Scale) *Table {
	sweep := SingleCoreSweep(Fig6Benchmarks(), StandardVariants(), sc)
	t := &Table{
		Title:  "Figure 8: bus traffic (K cache lines): demand/useful/useless",
		Header: []string{"benchmark", "policy", "demand", "useful-pref", "useless-pref", "total"},
	}
	for _, b := range Fig6Benchmarks() {
		for _, v := range []string{"no-pref", "demand-first", "demand-pref-equal", "aps-only", "aps-apd (PADC)"} {
			bus := sweep[b][v].Res.Bus
			t.Add(b, v,
				fmt.Sprintf("%.1f", float64(bus.Demand)/1000),
				fmt.Sprintf("%.1f", float64(bus.UsefulPref)/1000),
				fmt.Sprintf("%.1f", float64(bus.UselessPref)/1000),
				fmt.Sprintf("%.1f", float64(bus.Total())/1000))
		}
	}
	return t
}

// Table5 reproduces Table 5: benchmark characteristics without prefetching
// and with the stream prefetcher under demand-first.
func Table5(sc Scale, full bool) *Table {
	names := Fig6Benchmarks()
	if full {
		names = workload.Names()
	}
	sort.Strings(names)
	sweep := SingleCoreSweep(names, []Variant{NoPref(), DemandFirst()}, sc)
	t := &Table{
		Title:  "Table 5: benchmark characteristics (no-pref | demand-first)",
		Header: []string{"benchmark", "class", "IPC0", "MPKI0", "IPC", "MPKI", "RBH(%)", "ACC(%)", "COV(%)"},
	}
	for _, b := range names {
		prof := workload.MustByName(b)
		np := sweep[b]["no-pref"]
		df := sweep[b]["demand-first"]
		t.Add(b, prof.Class.String(),
			fmt.Sprintf("%.2f", np.Core.IPC()),
			fmt.Sprintf("%.2f", np.Core.MPKI()),
			fmt.Sprintf("%.2f", df.Core.IPC()),
			fmt.Sprintf("%.2f", df.Core.MPKI()),
			fmt.Sprintf("%.1f", df.Res.RBH()*100),
			fmt.Sprintf("%.1f", df.Core.ACC()*100),
			fmt.Sprintf("%.1f", df.Core.COV()*100))
	}
	return t
}

// Table7 reproduces Table 7: the row-buffer hit rate over useful requests
// (RBHU) for each policy.
func Table7(sc Scale) *Table {
	names := []string{"swim", "galgel", "art", "ammp", "mcf", "libquantum",
		"omnetpp", "xalancbmk", "bwaves", "milc", "leslie3d", "soplex", "lbm"}
	sweep := SingleCoreSweep(names, StandardVariants(), sc)
	t := &Table{
		Title:  "Table 7: RBHU (row-buffer hit rate for useful requests)",
		Header: []string{"benchmark", "no-pref", "demand-first", "demand-pref-equal", "aps-only", "aps-apd (PADC)"},
	}
	vnames := []string{"no-pref", "demand-first", "demand-pref-equal", "aps-only", "aps-apd (PADC)"}
	sums := make([]float64, len(vnames))
	for _, b := range names {
		var row []float64
		for vi, v := range vnames {
			r := sweep[b][v].Res.RBHU()
			row = append(row, r)
			sums[vi] += r
		}
		t.Addf(b, row...)
	}
	for vi := range sums {
		sums[vi] /= float64(len(names))
	}
	t.Addf("mean", sums...)
	return t
}

// Fig2 reproduces the conceptual example of Figure 2 at the DRAM
// controller level: three requests to one bank (prefetch X row A, demand Y
// row B, prefetch Z row A) with row A open. It returns the cycle in which
// each request completes under both rigid policies.
func Fig2() *Table {
	t := &Table{
		Title:  "Figure 2: conceptual 3-request example (completion cycles)",
		Header: []string{"policy", "X(pref,rowA)", "Y(dem,rowB)", "Z(pref,rowA)"},
	}
	for _, pol := range []memctrl.Policy{memctrl.DemandFirst, memctrl.DemandPrefEqual} {
		x, y, z := fig2Run(pol)
		t.Add(pol.String(), fmt.Sprintf("%d", x), fmt.Sprintf("%d", y), fmt.Sprintf("%d", z))
	}
	return t
}
