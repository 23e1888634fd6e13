package exp

import (
	"fmt"

	"padc/internal/core"
	"padc/internal/dram"
	"padc/internal/memctrl"
	"padc/internal/sim"
	"padc/internal/workload"
)

// wsSweep tabulates mean WS over mixes on the 4-core system, one row per
// variant and one column per point — the shape of the §6.7–6.14
// sensitivity figures and the ablations.
func wsSweep(title string, mixes [][]workload.Profile, sc Scale, variants []Variant, points []point) *Table {
	runs := grid(mixes, 4, sc, variants, points)
	t := &Table{Title: title, Header: []string{"policy"}}
	for _, p := range points {
		t.Header = append(t.Header, p.label)
	}
	for vi, v := range variants {
		row := []string{v.Name}
		for pi := range points {
			row = append(row, fmt.Sprintf("%.3f", mean(runs[pi][vi], wsOf)))
		}
		t.Add(row...)
	}
	return t
}

// Fig23 reproduces Figure 23: WS across DRAM row-buffer sizes 2KB–128KB.
func Fig23(sc Scale) *Table {
	var points []point
	for _, kb := range []uint64{2, 4, 8, 16, 32, 64, 128} {
		points = append(points, point{fmt.Sprintf("%dKB", kb), func(c *sim.Config) { c.DRAM.RowBytes = kb << 10 }})
	}
	return wsSweep("Figure 23: WS vs DRAM row-buffer size (4-core)", Mixes(4, sc.Mixes4), sc, StandardVariants(), points)
}

// Fig24 reproduces Figure 24: the closed-row policy.
func Fig24(sc Scale) *Table {
	closed := func(name string, v Variant) Variant {
		return Variant{name, func(c *sim.Config) {
			v.Apply(c)
			c.DRAM.Page = dram.ClosedPage
		}}
	}
	variants := []Variant{
		DemandFirst(),
		closed("demand-first-closed", DemandFirst()),
		closed("demand-pref-equal-closed", DemandPrefEqual()),
		closed("aps-closed", APSOnly()),
		closed("PADC-closed", PADC()),
		PADC(),
	}
	return wsSweep("Figure 24: closed-row policy (4-core)", Mixes(4, sc.Mixes4), sc, variants, onePoint(nil))
}

// Fig25 reproduces Figure 25: WS across per-core L2 sizes 512KB–8MB. One
// member of each mix is replaced by a cache-sensitive profile (a 1.5MB
// shuffled loop) so reuse in the 512KB–8MB band is expressible at
// simulation-friendly run lengths; the paper's 200M-instruction SPEC runs
// carry that reuse naturally.
func Fig25(sc Scale) *Table {
	var points []point
	for _, kb := range []uint64{512, 1024, 2048, 4096, 8192} {
		label := fmt.Sprintf("%dKB", kb)
		if kb >= 1024 {
			label = fmt.Sprintf("%dMB", kb/1024)
		}
		points = append(points, point{label, func(c *sim.Config) { c.L2.Bytes = kb << 10 }})
	}
	mixes := Mixes(4, sc.Mixes4)
	for i := range mixes {
		mixes[i][0] = workload.CacheSensitive(fmt.Sprintf("cacheset-%d", i), 24576)
	}
	return wsSweep("Figure 25: WS vs per-core L2 size (4-core)", mixes, sc, StandardVariants(), points)
}

// Fig26 reproduces Figures 26 (4-core) and 27 (8-core): a shared last-
// level cache sized as the sum of the private ones, with associativity
// scaled by core count.
func Fig26(ncores int, sc Scale) *Table {
	count := sc.Mixes4
	if ncores == 8 {
		count = sc.Mixes8
	}
	shared := func(c *sim.Config) {
		c.SharedL2 = true
		c.L2.Bytes = uint64(ncores) * (512 << 10)
		c.L2.Ways = 4 * ncores
		c.MSHR = c.BufferSlots
	}
	t := AverageMixes(Mixes(ncores, count), ncores, sc, StandardVariants(), shared)
	t.Title = fmt.Sprintf("Figures 26/27: shared L2, %d cores", ncores)
	return t
}

// Fig28 reproduces Figure 28: PADC under the stride, C/DC and Markov
// prefetchers.
func Fig28(sc Scale) *Table {
	var points []point
	for _, pk := range []sim.PrefetcherKind{sim.PFStride, sim.PFCDC, sim.PFMarkov} {
		points = append(points, point{pk.String(), func(c *sim.Config) { c.Prefetcher = pk }})
	}
	runs := grid(Mixes(4, sc.Mixes4), 4, sc, []Variant{NoPref(), DemandFirst(), DemandPrefEqual(), PADC()}, points)
	t := &Table{
		Title:  "Figure 28: PADC with other prefetchers (4-core WS / bus Klines)",
		Header: []string{"prefetcher", "no-pref", "demand-first", "demand-pref-equal", "PADC", "bus-df(K)", "bus-padc(K)"},
	}
	for pi, p := range points {
		r := runs[pi]
		t.Add(p.label,
			fmt.Sprintf("%.3f", mean(r[0], wsOf)), fmt.Sprintf("%.3f", mean(r[1], wsOf)),
			fmt.Sprintf("%.3f", mean(r[2], wsOf)), fmt.Sprintf("%.3f", mean(r[3], wsOf)),
			fmt.Sprintf("%.1f", mean(r[1], busOf)/1000), fmt.Sprintf("%.1f", mean(r[3], busOf)/1000))
	}
	return t
}

// Fig29 reproduces Figures 29 and 30: DDPF and FDP under demand-first and
// combined with APS, against APD.
func Fig29(sc Scale) *Table {
	withFilter := func(name string, pol Variant, f sim.FilterKind) Variant {
		return Variant{name, func(c *sim.Config) {
			pol.Apply(c)
			c.Filter = f
		}}
	}
	variants := []Variant{
		DemandFirst(),
		withFilter("demand-first-ddpf", DemandFirst(), sim.FilterDDPF),
		withFilter("demand-first-fdp", DemandFirst(), sim.FilterFDP),
		{"demand-first-apd", func(c *sim.Config) {
			// APD without APS: adaptive dropping on top of rigid
			// demand-first scheduling.
			c.Policy = memctrl.DemandFirst
			c.PADC.EnableAPD = true
		}},
		withFilter("demand-pref-equal-ddpf", DemandPrefEqual(), sim.FilterDDPF),
		withFilter("demand-pref-equal-fdp", DemandPrefEqual(), sim.FilterFDP),
		withFilter("aps-ddpf", APSOnly(), sim.FilterDDPF),
		withFilter("aps-fdp", APSOnly(), sim.FilterFDP),
		PADC(),
	}
	runs := grid(Mixes(4, sc.Mixes4), 4, sc, variants, onePoint(nil))[0]
	t := &Table{
		Title:  "Figures 29-30: prefetch filtering (DDPF/FDP) vs APD (4-core)",
		Header: []string{"policy", "WS", "bus(K)"},
	}
	for vi, v := range variants {
		t.Add(v.Name, fmt.Sprintf("%.3f", mean(runs[vi], wsOf)), fmt.Sprintf("%.1f", mean(runs[vi], busOf)/1000))
	}
	return t
}

// Fig31 reproduces Figure 31: permutation-based page interleaving.
func Fig31(sc Scale) *Table {
	perm := func(name string, v Variant) Variant {
		return Variant{name, func(c *sim.Config) {
			v.Apply(c)
			c.DRAM.Permutation = true
		}}
	}
	variants := []Variant{
		NoPref(), perm("no-pref-perm", NoPref()),
		DemandFirst(), perm("demand-first-perm", DemandFirst()),
		APSOnly(), perm("aps-only-perm", APSOnly()),
		PADC(), perm("PADC-perm", PADC()),
	}
	return wsSweep("Figure 31: permutation-based interleaving (4-core)", Mixes(4, sc.Mixes4), sc, variants, onePoint(nil))
}

// Fig32 reproduces Figure 32: PADC on a runahead-execution CMP.
func Fig32(sc Scale) *Table {
	ra := func(name string, v Variant) Variant {
		return Variant{name, func(c *sim.Config) {
			v.Apply(c)
			c.Core.Runahead = true
		}}
	}
	variants := []Variant{
		NoPref(), ra("no-pref-ra", NoPref()),
		DemandFirst(), ra("demand-first-ra", DemandFirst()),
		APSOnly(), ra("aps-only-ra", APSOnly()),
		PADC(), ra("PADC-ra", PADC()),
	}
	return wsSweep("Figure 32: runahead execution (4-core)", Mixes(4, sc.Mixes4), sc, variants, onePoint(nil))
}

// Table1 reproduces Tables 1 and 2: the PADC hardware cost on the 4-core
// baseline.
func Table1() *Table {
	cfg := sim.Baseline(4)
	cost := core.HardwareCost{
		Cores:        4,
		CacheLines:   cfg.L2.Lines(),
		BufferSlots:  cfg.BufferSlots,
		L2CacheBytes: cfg.L2.Bytes,
	}
	t := &Table{
		Title:  "Tables 1-2: PADC hardware cost (4-core baseline)",
		Header: []string{"group", "field", "bits"},
	}
	for _, it := range cost.Items() {
		t.Add(it.Group, it.Field, fmt.Sprintf("%d", it.Bits))
	}
	t.Add("total", "", fmt.Sprintf("%d (%.2fKB, %.2f%% of L2)",
		cost.TotalBits(), float64(cost.TotalBits())/8192, cost.FractionOfL2()*100))
	t.Add("total w/o P", "", fmt.Sprintf("%d bits", cost.TotalBitsWithoutP()))
	return t
}
