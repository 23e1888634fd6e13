package main

import (
	"time"

	"padc/internal/runner"
	"padc/internal/sim"
	"padc/internal/workload"
)

// observeEpoch is the sampling period a padcsim -metrics -heatmap user
// gets by default.
const observeEpoch = 10_000

// paperMix is the paper's 4-core example mix (swim, art, libquantum,
// milc); it is fixed, so the reproduction metrics on the mix workloads
// do not depend on the seed.
var paperMix = []string{"swim", "art", "libquantum", "milc"}

// mixShape describes one mix workload's job list.
type mixShape struct {
	cores  int
	insts  uint64
	seeded int // seed-drawn mixes
	refMix []string
	// seededPolicies are the policies each seeded mix runs under; the
	// reference mix always runs under demand-first and padc.
	seededPolicies             []string
	topology, refresh, memside string
	observe                    bool
	tailPct                    float64
}

// mixWorkload runs sim.New + System.Run for every job of a fixed list,
// one after another on one goroutine.
type mixWorkload struct {
	o     options
	shape mixShape
	jobs  []simJob // the reference pair first, the alone runs last
}

func newMix8(o options) *mixWorkload {
	ref := append(append([]string(nil), paperMix...), paperMix...)
	s := mixShape{
		// One seeded mix per benchmark of the extended suite: the deal
		// then gives every benchmark exactly eight slots, and the seed
		// changes only which benchmarks share a mix.
		cores: 8, insts: 6_000, seeded: len(workload.Extended()), refMix: ref,
		seededPolicies: []string{"padc"},
		topology:       "far-tier", refresh: "per-bank", memside: "on",
		observe: true, tailPct: 0.75,
	}
	if o.tiny {
		s.insts, s.seeded = 3_000, 1
	}
	return &mixWorkload{o: o, shape: s}
}

// drawMixes deals n seeded mixes of cores benchmarks from
// workload.Mixes's draw. The deal is stratified, which keeps a run's
// totals steady from seed to seed:
//   - each benchmark of the extended suite fills the same number of
//     slots, give or take one;
//   - each drawn benchmark joins the open mix holding the fewest of its
//     class, so every mix gets about the same class composition.
//
// The seed changes which benchmarks share a mix, not how much of each
// one runs.
func drawMixes(n, cores int, seed uint64) [][]string {
	pool := len(workload.Extended())
	slots := n * cores
	base, extra := slots/pool, slots%pool
	count := map[string]int{}
	out := make([][]string, n)
	classes := make([]map[workload.Class]int, n)
	for i := range classes {
		classes[i] = map[workload.Class]int{}
	}
	dealt := 0
	for _, m := range workload.Mixes(1<<14, 1, seed) {
		p := m[0]
		switch c := count[p.Name]; {
		case c < base:
		case c == base && extra > 0:
			extra--
		default:
			continue
		}
		count[p.Name]++
		best := -1
		for i := range out {
			if len(out[i]) < cores && (best < 0 || classes[i][p.Class] < classes[best][p.Class]) {
				best = i
			}
		}
		out[best] = append(out[best], p.Name)
		classes[best][p.Class]++
		if dealt++; dealt == slots {
			break
		}
	}
	return out
}

// expand resolves a spec into simulator jobs through the runner's own
// expansion, so policy and machine names mean what they mean in sweeps.
func expand(spec runner.Spec) ([]simJob, error) {
	js, err := spec.Expand()
	if err != nil {
		return nil, err
	}
	out := make([]simJob, len(js))
	for i, j := range js {
		out[i] = simJob{label: j.Key, cfg: j.Config}
	}
	return out, nil
}

// build resolves the job list: the reference mix under demand-first and
// padc, the seeded mixes, and the reference mix's alone runs
// (demand-first, one active core on the same machine: the paper's
// IPC_alone).
func (w *mixWorkload) build() error {
	s := w.shape
	machine := func(policies []string, mixes [][]string) runner.Spec {
		sp := runner.Spec{Cores: s.cores, Insts: s.insts, Policies: policies, Workloads: mixes}
		if s.topology != "" {
			sp.Topologies = []string{s.topology}
		}
		if s.refresh != "" {
			sp.Refresh = []string{s.refresh}
		}
		if s.memside != "" {
			sp.MemSide = []string{s.memside}
		}
		return sp
	}
	ref, err := expand(machine([]string{"demand-first", "padc"}, [][]string{s.refMix}))
	if err != nil {
		return err
	}
	seeded, err := expand(machine(s.seededPolicies, drawMixes(s.seeded, s.cores, w.o.seed)))
	if err != nil {
		return err
	}
	var singles [][]string
	seen := map[string]bool{}
	for _, b := range s.refMix {
		if !seen[b] {
			seen[b] = true
			singles = append(singles, []string{b})
		}
	}
	alone, err := expand(machine([]string{"demand-first"}, singles))
	if err != nil {
		return err
	}
	w.jobs = append(append(ref, seeded...), alone...)
	return nil
}

// setup resolves the profiles and builds every system of the job list.
func (w *mixWorkload) setup() error {
	if err := w.build(); err != nil {
		return err
	}
	for _, j := range w.jobs {
		if _, err := sim.New(j.cfg); err != nil {
			return err
		}
	}
	return nil
}

func (w *mixWorkload) mode() runMode { return runMode{observe: w.shape.observe} }

func (w *mixWorkload) warm(c *checks) (*reference, error) {
	cpu0, t0 := processCPU(), time.Now()
	outs := runJobs(w.jobs, 1, w.mode())
	ref := &reference{poolCPU: processCPU() - cpu0, poolWall: time.Since(t0), poolSize: 1}
	verifyJobs(c, w.jobs, outs)
	ref.totals = totalsOf(w.jobs, outs)
	ref.digest = listDigest(w.jobs, outs)
	for _, o := range outs {
		ref.jobDigests = append(ref.jobDigests, resultDigest(o.res))
	}
	aloneIPC := map[string]float64{}
	for i, j := range w.jobs {
		if !multiprogrammed(j) {
			aloneIPC[j.cfg.Workload[0].Name] = outs[i].res.PerCore[0].IPC()
		}
	}
	alone := make([]float64, len(w.shape.refMix))
	for i, b := range w.shape.refMix {
		alone[i] = aloneIPC[b]
	}
	df, padc := outs[0].res, outs[1].res
	ref.wsGain = wsGain(df, padc, alone)
	ref.trafficCut = trafficCut(df, padc)
	return ref, nil
}

func (w *mixWorkload) pass(c *checks) (*passStats, error) {
	var outs []jobOut
	p := measure(func() { outs = runJobs(w.jobs, 1, w.mode()) })
	p.jobTimes = multiTimes(w.jobs, outs)
	verifyJobs(c, w.jobs, outs)
	p.digest = listDigest(w.jobs, outs)
	return p, nil
}

func (w *mixWorkload) info() workloadInfo {
	return workloadInfo{
		jobs: w.jobs, mode: w.mode(), workers: 1,
		tailPct: w.shape.tailPct, seedUsed: true,
	}
}

func (w *mixWorkload) close() {}
