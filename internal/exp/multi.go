package exp

import (
	"fmt"

	"padc/internal/memctrl"
	"padc/internal/sim"
	"padc/internal/workload"
)

// mixSeed keeps the randomly-drawn multiprogrammed workloads reproducible.
const mixSeed = 0x9a7c

// Mixes returns the deterministic workload draw for an n-core experiment.
func Mixes(ncores, count int) [][]workload.Profile {
	return workload.Mixes(count, ncores, mixSeed+uint64(ncores))
}

// AverageMixes runs every mix under every variant and returns per-variant
// averaged WS/HS/UF/traffic — the shape of Figures 9, 16, 17, 19–22.
// mutate, when non-nil, changes the machine of every run, alone baselines
// included.
func AverageMixes(mixes [][]workload.Profile, ncores int, sc Scale, variants []Variant, mutate func(*sim.Config)) *Table {
	runs := grid(mixes, ncores, sc, variants, onePoint(mutate))[0]
	t := &Table{
		Title:  fmt.Sprintf("%d-core average over %d workloads", ncores, len(mixes)),
		Header: []string{"policy", "WS", "HS", "UF", "bus(Klines)"},
	}
	for vi, v := range variants {
		r := runs[vi]
		t.Addf(v.Name, mean(r, wsOf), mean(r, func(r mixRun) float64 { return r.HS }),
			mean(r, func(r mixRun) float64 { return r.UF }), mean(r, busOf)/1000)
	}
	return t
}

// oneMix runs a single mix under each variant on the 4-core baseline.
func oneMix(mix []workload.Profile, sc Scale, variants []Variant) []mixRun {
	runs := grid([][]workload.Profile{mix}, 4, sc, variants, onePoint(nil))[0]
	out := make([]mixRun, len(variants))
	for vi := range runs {
		out[vi] = runs[vi][0]
	}
	return out
}

// byName resolves benchmark names to profiles.
func byName(names []string) []workload.Profile {
	mix := make([]workload.Profile, len(names))
	for i, n := range names {
		mix[i] = workload.MustByName(n)
	}
	return mix
}

// Fig9 reproduces Figure 9: average 2-core performance and traffic.
func Fig9(sc Scale) *Table {
	t := AverageMixes(Mixes(2, sc.Mixes2), 2, sc, StandardVariants(), nil)
	t.Title = "Figure 9: " + t.Title
	return t
}

// Fig16 reproduces Figure 16: average 4-core performance and traffic.
func Fig16(sc Scale) *Table {
	t := AverageMixes(Mixes(4, sc.Mixes4), 4, sc, StandardVariants(), nil)
	t.Title = "Figure 16: " + t.Title
	return t
}

// Fig17 reproduces Figure 17: average 8-core performance and traffic.
func Fig17(sc Scale) *Table {
	t := AverageMixes(Mixes(8, sc.Mixes8), 8, sc, StandardVariants(), nil)
	t.Title = "Figure 17: " + t.Title
	return t
}

// caseStudy runs one named 4-core mix under the standard variants and
// reports per-application speedups plus system metrics (Figures 10–15).
func caseStudy(title string, names []string, sc Scale) *Table {
	t := &Table{Title: title}
	t.Header = append(append([]string{"policy"}, names...), "WS", "HS", "UF", "bus(K)", "dropped")
	variants := StandardVariants()
	for i, r := range oneMix(byName(names), sc, variants) {
		cells := []string{variants[i].Name}
		for _, is := range r.IS {
			cells = append(cells, fmt.Sprintf("%.3f", is))
		}
		cells = append(cells,
			fmt.Sprintf("%.3f", r.WS), fmt.Sprintf("%.3f", r.HS), fmt.Sprintf("%.2f", r.UF),
			fmt.Sprintf("%.1f", float64(r.Bus.Total())/1000), fmt.Sprintf("%d", r.Dropped))
		t.Add(cells...)
	}
	return t
}

// Fig10 reproduces Case Study I (Figures 10–11): four prefetch-friendly
// applications.
func Fig10(sc Scale) *Table {
	return caseStudy("Figures 10-11, case study I: all prefetch-friendly",
		[]string{"swim", "bwaves", "leslie3d", "soplex"}, sc)
}

// Fig12 reproduces Case Study II (Figures 12–13): four prefetch-unfriendly
// applications.
func Fig12(sc Scale) *Table {
	return caseStudy("Figures 12-13, case study II: all prefetch-unfriendly",
		[]string{"art", "galgel", "ammp", "milc"}, sc)
}

// Fig14 reproduces Case Study III (Figures 14–15): two friendly and two
// unfriendly applications.
func Fig14(sc Scale) *Table {
	return caseStudy("Figures 14-15, case study III: mixed",
		[]string{"omnetpp", "libquantum", "galgel", "GemsFDTD"}, sc)
}

// Table8 reproduces Table 8: the effect of the urgency rule on the mixed
// case study.
func Table8(sc Scale) *Table {
	names := []string{"omnetpp", "libquantum", "galgel", "GemsFDTD"}
	noU := func(on bool, apd bool, label string) Variant {
		return Variant{label, func(c *sim.Config) {
			c.Policy = memctrl.APS
			c.PADC.EnableUrgency = on
			c.PADC.EnableAPD = apd
		}}
	}
	variants := []Variant{
		DemandFirst(),
		noU(false, false, "aps-no-urgent"),
		noU(true, false, "aps"),
		noU(false, true, "aps-apd-no-urgent"),
		noU(true, true, "aps-apd (PADC)"),
	}
	t := &Table{Title: "Table 8: effect of prioritizing urgent requests"}
	t.Header = append(append([]string{"policy"}, names...), "UF", "WS", "HS")
	for i, r := range oneMix(byName(names), sc, variants) {
		cells := []string{variants[i].Name}
		for _, is := range r.IS {
			cells = append(cells, fmt.Sprintf("%.3f", is))
		}
		cells = append(cells, fmt.Sprintf("%.2f", r.UF), fmt.Sprintf("%.3f", r.WS), fmt.Sprintf("%.3f", r.HS))
		t.Add(cells...)
	}
	return t
}

// Table9 reproduces Tables 9 and 10: four identical instances of one
// application (libquantum for Table 9, milc for Table 10) on the 4-core
// system.
func Table9(bench string, sc Scale) *Table {
	variants := StandardVariants()
	t := &Table{Title: fmt.Sprintf("Tables 9/10: four identical %s instances", bench)}
	t.Header = []string{"policy", "IS0", "IS1", "IS2", "IS3", "WS", "HS", "UF"}
	for i, r := range oneMix(byName([]string{bench, bench, bench, bench}), sc, variants) {
		t.Addf(variants[i].Name, r.IS[0], r.IS[1], r.IS[2], r.IS[3], r.WS, r.HS, r.UF)
	}
	return t
}

// Fig19 reproduces Figures 19 (ncores=4) and 20 (ncores=8): PADC augmented
// with the shortest-job ranking scheme.
func Fig19(ncores int, sc Scale) *Table {
	count := sc.Mixes4
	if ncores == 8 {
		count = sc.Mixes8
	}
	variants := []Variant{NoPref(), DemandFirst(), PADC(), PADCRank()}
	t := AverageMixes(Mixes(ncores, count), ncores, sc, variants, nil)
	t.Title = fmt.Sprintf("Figures 19/20: ranking on the %d-core system", ncores)
	return t
}

// Fig21 reproduces Figures 21 (ncores=4) and 22 (ncores=8): two memory
// controllers.
func Fig21(ncores int, sc Scale) *Table {
	count := sc.Mixes4
	if ncores == 8 {
		count = sc.Mixes8
	}
	dual := func(c *sim.Config) { c.DRAM.Channels = 2 }
	t := AverageMixes(Mixes(ncores, count), ncores, sc, StandardVariants(), dual)
	t.Title = fmt.Sprintf("Figures 21/22: dual memory controllers, %d cores", ncores)
	return t
}
