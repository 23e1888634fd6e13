package exp

import (
	"fmt"

	"padc/internal/core"
	"padc/internal/dram"
	"padc/internal/dram/refresh"
	"padc/internal/memctrl"
	"padc/internal/runner"
	"padc/internal/sim"
	"padc/internal/stats"
	"padc/internal/topology"
	"padc/internal/workload"
)

// AblationDropThreshold compares APD's dynamic 4-level drop-threshold
// ladder (Table 6) against fixed thresholds. The paper argues (§4.3) that
// a single static threshold either drops useful prefetches of accurate
// phases (too low) or retains useless ones too long (too high); the
// dynamic ladder should match or beat every static point on both WS and
// traffic.
func AblationDropThreshold(sc Scale) *Table {
	mk := func(name string, ladder []core.DropLevel) Variant {
		return Variant{name, func(c *sim.Config) {
			PADC().Apply(c)
			if ladder != nil {
				c.PADC.DropLadder = ladder
			}
		}}
	}
	fixed := func(cycles uint64) []core.DropLevel {
		return []core.DropLevel{{AccuracyBelow: 1.01, Cycles: cycles}}
	}
	variants := []Variant{
		DemandFirst(),
		APSOnly(),
		mk("apd-fixed-100", fixed(100)),
		mk("apd-fixed-1500", fixed(1_500)),
		mk("apd-fixed-50K", fixed(50_000)),
		mk("apd-fixed-100K", fixed(100_000)),
		mk("apd-dynamic (PADC)", nil),
	}
	runs := grid(Mixes(4, sc.Mixes4), 4, sc, variants, onePoint(nil))[0]
	t := &Table{
		Title:  "Ablation: APD drop-threshold ladder vs fixed thresholds (4-core)",
		Header: []string{"policy", "WS", "bus(K)", "dropped"},
	}
	for vi, v := range variants {
		var drop uint64
		for _, r := range runs[vi] {
			drop += r.Dropped
		}
		t.Add(v.Name, fmt.Sprintf("%.3f", mean(runs[vi], wsOf)), fmt.Sprintf("%.1f", mean(runs[vi], busOf)/1000),
			fmt.Sprintf("%d", drop/uint64(len(runs[vi]))))
	}
	return t
}

// AblationPromotionThreshold sweeps APS's promotion threshold around the
// paper's 85%: too low promotes junk to demand priority, too high never
// promotes and degenerates to demand-first.
func AblationPromotionThreshold(sc Scale) *Table {
	var variants []Variant
	variants = append(variants, DemandFirst(), DemandPrefEqual())
	for _, th := range []float64{0.25, 0.50, 0.75, 0.85, 0.95} {
		variants = append(variants, Variant{
			Name: fmt.Sprintf("aps@%.0f%%", th*100),
			Apply: func(c *sim.Config) {
				APSOnly().Apply(c)
				c.PADC.PromotionThreshold = th
			},
		})
	}
	return wsSweep("Ablation: APS promotion threshold sweep (4-core)", Mixes(4, sc.Mixes4), sc, variants, onePoint(nil))
}

// AblationRuleOrder ablates the scheduler's priority-rule ordering itself
// (the paper's actual contribution, §5–6): the same rule vocabulary is
// recomposed into different stacks through the sched kernel — APS with
// rules reordered or removed, the §6.5 ranking appended, and plain
// FR-FCFS as the floor. The APS order (criticality above row locality,
// urgency below it) should dominate its permutations.
func AblationRuleOrder(sc Scale) *Table {
	variants := []Variant{
		RuleStack("rules:rowhit,fcfs"),                      // FR-FCFS floor
		RuleStack("rules:critical,rowhit,urgent,fcfs"),      // APS (§5.1 order)
		RuleStack("rules:rowhit,critical,urgent,fcfs"),      // locality above criticality
		RuleStack("rules:critical,urgent,rowhit,fcfs"),      // urgency above locality
		RuleStack("rules:critical,rowhit,fcfs"),             // APS minus urgency
		RuleStack("rules:critical,rowhit,urgent,rank,fcfs"), // APS + §6.5 ranking
	}
	return wsSweep("Ablation: scheduler priority-rule order (4-core WS)", Mixes(4, sc.Mixes4), sc, variants, onePoint(nil))
}

// AblationRefresh charges the simulator with DRAM maintenance (a cost the
// paper's evaluation idealizes away) and measures what each refresh mode
// does to the scheduling policies: per-bank REFpb steals one bank at a
// time for tRFCpb, all-bank REF drains the rank and blocks every bank for
// tRFC, and the JEDEC postpone/pull-in window decides when the obligation
// is paid. The page-policy variants show whether the adaptive per-bank
// predictor claws back any of the locality the refresh-induced precharges
// destroy. WS and the maintenance counters are averaged over the mixes.
func AblationRefresh(sc Scale) *Table {
	withPage := func(name string, v Variant, p dram.PagePolicy) Variant {
		return Variant{name, func(c *sim.Config) {
			v.Apply(c)
			c.DRAM.Page = p
		}}
	}
	variants := []Variant{
		DemandFirst(),
		PADC(),
		withPage("PADC-closed-page", PADC(), dram.ClosedPage),
		withPage("PADC-adaptive-page", PADC(), dram.AdaptivePage),
	}
	var points []point
	for _, mode := range []refresh.Mode{refresh.Off, refresh.PerBank, refresh.AllBank} {
		points = append(points, point{mode.String(), func(c *sim.Config) { c.DRAM.Refresh.Mode = mode }})
	}
	runs := grid(Mixes(4, sc.Mixes4), 4, sc, variants, points)

	t := &Table{
		Title:  "Ablation: DRAM refresh mode x page policy (4-core)",
		Header: []string{"policy", "refresh", "WS", "refreshes", "postponed", "pulled-in", "forced", "blocked(K)"},
	}
	for vi, v := range variants {
		for pi, p := range points {
			var rf stats.RefreshStats
			for _, r := range runs[pi][vi] {
				rf.Issued += r.Refresh.Issued
				rf.Postponed += r.Refresh.Postponed
				rf.PulledIn += r.Refresh.PulledIn
				rf.Forced += r.Refresh.Forced
				rf.BlockedCycles += r.Refresh.BlockedCycles
			}
			n := uint64(len(runs[pi][vi]))
			t.Add(v.Name, p.label,
				fmt.Sprintf("%.3f", mean(runs[pi][vi], wsOf)),
				fmt.Sprintf("%d", rf.Issued/n),
				fmt.Sprintf("%d", rf.Postponed/n),
				fmt.Sprintf("%d", rf.PulledIn/n),
				fmt.Sprintf("%d", rf.Forced/n),
				fmt.Sprintf("%.1f", float64(rf.BlockedCycles)/float64(n)/1000))
		}
	}
	return t
}

// AblationTopology compares the flat single-domain layout against the
// far-tier preset (a one-channel pooled tier behind a long link) under
// each scheduling policy. The far tier stretches every request it absorbs
// by the link latency without consuming extra bank or bus time, so the
// interesting question is whether PADC's tier-local accuracy estimates
// keep prefetching profitable on the slow tier or APD learns to shed it.
// WS is averaged over the mixes; the far-tier columns report the slow
// tier's share of serviced requests and its measured prefetch accuracy
// ("-" on the flat rows, which have no domain breakdown).
func AblationTopology(sc Scale) *Table {
	variants := []Variant{
		DemandFirst(),
		APSOnly(),
		PADC(),
	}
	points := []point{{"flat", nil}, {"far-tier", func(c *sim.Config) {
		t, err := topology.Preset("far-tier", c.DRAM.Channels)
		if err != nil {
			panic(err) // the preset name is static
		}
		c.Topology = &t
	}}}
	runs := grid(Mixes(4, sc.Mixes4), 4, sc, variants, points)

	t := &Table{
		Title:  "Ablation: memory topology, flat vs far-tier (4-core)",
		Header: []string{"policy", "topology", "WS", "bus(K)", "far-share", "far-acc"},
	}
	for vi, v := range variants {
		for pi, p := range points {
			var serviced, farServiced, farSent, farUsed float64
			for _, r := range runs[pi][vi] {
				serviced += float64(r.Serviced)
				for _, d := range r.Domains {
					if d.LinkCycles > 0 {
						farServiced += float64(d.Serviced)
						farSent += float64(d.PrefSent)
						farUsed += float64(d.PrefUsed)
					}
				}
			}
			farShare, farAcc := "-", "-"
			if farServiced > 0 && serviced > 0 {
				farShare = fmt.Sprintf("%.1f%%", farServiced/serviced*100)
			}
			if farSent > 0 {
				farAcc = fmt.Sprintf("%.1f%%", farUsed/farSent*100)
			}
			t.Add(v.Name, p.label,
				fmt.Sprintf("%.3f", mean(runs[pi][vi], wsOf)),
				fmt.Sprintf("%.1f", mean(runs[pi][vi], busOf)/1000),
				farShare, farAcc)
		}
	}
	return t
}

// AblationMemSide exercises the memory-side prefetch subsystem along its
// two control loops. First the DSPatch bias selector: on an idle bus
// (4 channels) bandwidth headroom stays high and the coverage-biased
// pattern (CovP) should dominate trigger selections, while a saturated
// single channel pushes headroom under the flip point and the
// accuracy-biased pattern (AccP) takes over. Second the PADC gate: on
// low-accuracy mixes the memory-side path's measured accuracy pins in
// the drop ladder's bottom band and APD's generation gate should
// suppress candidates that an APD-less configuration would have issued.
// Throughput is the plain IPC sum (no alone baselines: the channel axis
// changes the machine, not just the policy).
func AblationMemSide(sc Scale) *Table {
	// DSPatch trains its signature table on page-buffer turnover, which
	// needs more region traffic than the quick scale generates.
	if sc.Insts < 400_000 {
		sc.Insts = 400_000
	}
	mixes := []struct {
		name  string
		names []string
	}{
		// Long streams: dense spatial footprints, accurate prefetches.
		{"streams", []string{"swim", "libquantum", "bwaves", "leslie3d"}},
		// Pointer chases and bursts: sparse footprints, low accuracy.
		{"irregular", []string{"art", "omnetpp", "xalancbmk", "mcf"}},
	}
	chans := []int{4, 1}
	pols := []struct {
		name string
		apd  bool
	}{
		{"aps+memside", false},
		{"padc+memside", true},
	}

	type cell struct {
		thru float64
		ds   stats.DSPatchStats
		ms   stats.MemSideStats
	}
	grid := make([]cell, len(mixes)*len(chans)*len(pols))
	runner.Parallel(len(grid), func(i int) {
		mi := i / (len(chans) * len(pols))
		ci := i / len(pols) % len(chans)
		pi := i % len(pols)
		cfg := baseConfig(4, sc)
		cfg.DRAM.Channels = chans[ci]
		cfg.Policy = memctrl.APS
		cfg.PADC.EnableAPD = pols[pi].apd
		cfg.Prefetcher = sim.PFDSPatch
		cfg.MemSide = true
		for _, n := range mixes[mi].names {
			cfg.Workload = append(cfg.Workload, workload.MustByName(n))
		}
		res := runOne(cfg)
		c := cell{}
		for _, pc := range res.PerCore {
			c.thru += pc.IPC()
		}
		if res.DSPatch != nil {
			c.ds = *res.DSPatch
		}
		if res.MemSide != nil {
			c.ms = *res.MemSide
		}
		grid[i] = c
	})

	t := &Table{
		Title: "Ablation: memory-side prefetching — DSPatch bias x PADC gating (4-core)",
		Header: []string{"mix", "chans", "policy", "thruput", "headroom",
			"covp", "accp", "ms-issued", "ms-used", "ms-acc", "ms-gated"},
	}
	for i, c := range grid {
		mi := i / (len(chans) * len(pols))
		ci := i / len(pols) % len(chans)
		pi := i % len(pols)
		t.Add(mixes[mi].name, fmt.Sprintf("%d", chans[ci]), pols[pi].name,
			fmt.Sprintf("%.3f", c.thru),
			fmt.Sprintf("%.2f", c.ds.Headroom),
			fmt.Sprintf("%d", c.ds.CovPSelected),
			fmt.Sprintf("%d", c.ds.AccPSelected),
			fmt.Sprintf("%d", c.ms.Issued),
			fmt.Sprintf("%d", c.ms.Used),
			fmt.Sprintf("%.1f%%", c.ms.ACC()*100),
			fmt.Sprintf("%d", c.ms.GateClosed))
	}
	return t
}

// AblationAddressMapping compares the default row-interleaved bank mapping
// against permutation-based mapping and a single-bank strawman, isolating
// how much of each policy's behavior depends on bank-level parallelism.
func AblationAddressMapping(sc Scale) *Table {
	points := []point{
		{"8-banks", nil},
		{"8-banks-perm", func(c *sim.Config) { c.DRAM.Permutation = true }},
		{"4-banks", func(c *sim.Config) { c.DRAM.Banks = 4 }},
		{"16-banks", func(c *sim.Config) { c.DRAM.Banks = 16 }},
	}
	variants := []Variant{DemandFirst(), DemandPrefEqual(), APSOnly(), PADC()}
	return wsSweep("Ablation: bank count and mapping (4-core WS)", Mixes(4, sc.Mixes4), sc, variants, points)
}
