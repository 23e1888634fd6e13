package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"padc/internal/cpu"
	"padc/internal/runner"
	"padc/internal/sim"
	"padc/internal/stats"
	"padc/internal/telemetry"
	"padc/internal/telemetry/flight"
	"padc/internal/telemetry/lifecycle"
	"padc/internal/workload"
)

// simJob is one simulated system the benchmark builds with sim.New and
// runs with System.Run.
type simJob struct {
	label string
	cfg   sim.Config
}

// jobOut is one job's outcome and host cost.
type jobOut struct {
	res    stats.Results
	err    error
	newDur time.Duration // sim.New
	runDur time.Duration // System.Run
	// runCPU is the process CPU (all threads, so the garbage collector's
	// too) during System.Run: the job's own only when jobs run one at a
	// time.
	runCPU   time.Duration
	finished time.Time
	skipped  uint64            // cycles the event kernel skipped
	lc       *lifecycle.Tracer // nil unless lifecycle spans were attached
}

// runMode selects what a job list run attaches to every system.
type runMode struct {
	observe bool // telemetry epochs, flight recorder and lifecycle spans, exported (mix8)
	profile bool // the traced run's Profile + Lifecycle options
	stepped bool // the cycle-stepped reference kernel
	// gcEach collects garbage before each job of a one-worker run, so a
	// job's time is its own and not the collection of the jobs before it.
	gcEach bool
}

// runJob builds and runs one system on the calling goroutine.
func runJob(j simJob, m runMode) jobOut {
	cfg := j.cfg
	var tel *telemetry.Telemetry
	var rec *flight.Recorder
	if m.observe {
		tel = telemetry.New(telemetry.Options{EpochCycles: observeEpoch})
		rec = flight.New(flight.Options{EpochCycles: observeEpoch})
		cfg.Telemetry, cfg.Flight = tel, rec
	}
	if m.observe || m.profile {
		cfg.Lifecycle = lifecycle.New(lifecycle.Options{})
	}
	if m.profile {
		cfg.Profile = true
	}
	if m.stepped {
		cfg.Kernel = sim.KernelStepped
	}
	var out jobOut
	t0 := time.Now()
	s, err := sim.New(cfg)
	t1 := time.Now()
	out.newDur = t1.Sub(t0)
	if err != nil {
		out.err = fmt.Errorf("%s: %w", j.label, err)
		out.finished = t1
		return out
	}
	cpu1 := processCPU()
	out.res, out.err = s.Run()
	out.runCPU = processCPU() - cpu1
	out.finished = time.Now()
	out.runDur = out.finished.Sub(t1)
	_, out.skipped = s.SkipStats()
	if out.err != nil {
		out.err = fmt.Errorf("%s: %w", j.label, out.err)
	}
	out.lc = cfg.Lifecycle
	if m.observe {
		// What a padcsim -metrics -heatmap -spans user pays after the run.
		_ = tel.WriteCSV(io.Discard)
		_ = rec.WriteCSV(io.Discard)
		_ = cfg.Lifecycle.WriteJSONL(io.Discard)
	}
	return out
}

// runJobs runs the job list in order on one goroutine, or on the
// runner's worker pool when workers > 1.
func runJobs(jobs []simJob, workers int, m runMode) []jobOut {
	outs := make([]jobOut, len(jobs))
	if workers <= 1 {
		for i, j := range jobs {
			if m.gcEach {
				runtime.GC()
			}
			outs[i] = runJob(j, m)
		}
		return outs
	}
	runner.SetDefaultWorkers(workers)
	runner.Parallel(len(jobs), func(i int) { outs[i] = runJob(jobs[i], m) })
	return outs
}

// verifyJobs applies runner.VerifyResults (with the job's lifecycle
// spans where attached) to every job; each job is one checked
// operation.
func verifyJobs(c *checks, jobs []simJob, outs []jobOut) {
	for i, o := range outs {
		if o.err != nil {
			c.fail("%s: %v", jobs[i].label, o.err)
			continue
		}
		errs := runner.VerifyResults(o.res, o.lc.Spans())
		if len(errs) > 0 {
			c.fail("%s: %v", jobs[i].label, errs[0])
			continue
		}
		c.ok()
	}
}

// resultDigest hashes a job's simulated outputs. Attribution is left
// out: only the traced run's Profile option fills it, and every other
// field must not depend on that option.
func resultDigest(res stats.Results) string {
	res.PerCore = append([]stats.CoreResult(nil), res.PerCore...)
	for i := range res.PerCore {
		res.PerCore[i].Attribution = nil
	}
	b, err := json.Marshal(res)
	if err != nil {
		panic(err) // Results holds only marshalable fields
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// listDigest hashes the outputs of a whole job list, in order.
func listDigest(jobs []simJob, outs []jobOut) string {
	h := sha256.New()
	for i, o := range outs {
		fmt.Fprintf(h, "%s %s %v\n", jobs[i].label, resultDigest(o.res), o.err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// steppedCheck re-runs one seed-sampled job under the cycle-stepped
// kernel; its Results must equal the event kernel's (digests[i]) exactly.
func steppedCheck(c *checks, jobs []simJob, digests []string, seed uint64, pass int) {
	i := int(splitmix(seed, uint64(pass)) % uint64(len(jobs)))
	st := runJob(jobs[i], runMode{stepped: true})
	switch {
	case st.err != nil:
		c.fail("stepped check %s: %v", jobs[i].label, st.err)
	case resultDigest(st.res) != digests[i]:
		c.fail("stepped check %s: stepped-kernel Results differ from the event kernel", jobs[i].label)
	default:
		c.ok()
	}
}

// multiprogrammed reports whether a job runs a benchmark on more than
// one core; the alone-IPC baselines do not. Job times and sim_ipc are
// taken over multiprogrammed jobs only, so the two populations never mix
// in one median.
func multiprogrammed(j simJob) bool { return len(j.cfg.Workload) > 1 }

// tracedRun runs a job list with the Profile and Lifecycle options on,
// checks each job's Results against the untraced digests, and folds the
// counters.
func tracedRun(c *checks, jobs []simJob, workers int, m runMode, want []string) *counters {
	m.profile = true
	outs := runJobs(jobs, workers, m)
	verifyJobs(c, jobs, outs)
	k := &counters{}
	for i, o := range outs {
		if resultDigest(o.res) != want[i] {
			c.fail("%s: Results changed with Profile and Lifecycle on", jobs[i].label)
		} else {
			c.ok()
		}
		k.add(o, channelsOf(jobs[i].cfg))
	}
	return k
}

// simTotals are the simulated outputs of one job list.
type simTotals struct {
	insts  uint64 // retired instructions counted at each core's freeze
	cycles uint64
	ipc    float64 // mean over multiprogrammed jobs of the aggregate (summed) IPC
}

func totalsOf(jobs []simJob, outs []jobOut) simTotals {
	var t simTotals
	n := 0
	for i, o := range outs {
		t.cycles += o.res.Cycles
		var ipc float64
		for _, c := range o.res.PerCore {
			t.insts += c.Retired
			ipc += c.IPC()
		}
		if multiprogrammed(jobs[i]) {
			t.ipc += ipc
			n++
		}
	}
	t.ipc = ratio(t.ipc, float64(n))
	return t
}

// multiTimes returns the System.Run process CPU of the multiprogrammed
// jobs of a list run one job at a time.
func multiTimes(jobs []simJob, outs []jobOut) []time.Duration {
	var out []time.Duration
	for i, o := range outs {
		if multiprogrammed(jobs[i]) {
			out = append(out, o.runCPU)
		}
	}
	return out
}

// wsGain returns the weighted-speedup gain (%) of padc over demand-first
// for one mix, from the two together-runs and the mix's alone IPCs.
func wsGain(df, padc stats.Results, alone []float64) float64 {
	return 100 * (stats.WS(padc.PerCore, alone)/stats.WS(df.PerCore, alone) - 1)
}

// trafficCut returns the bus-traffic cut (%) of padc against demand-first.
func trafficCut(df, padc stats.Results) float64 {
	return 100 * (1 - float64(padc.Bus.Total())/float64(df.Bus.Total()))
}

// counters are the simulated per-layer counters of a traced job list.
type counters struct {
	cycles, skipped, coreCycles uint64
	attrib                      [cpu.NumCycleClasses]uint64
	retired, l2Miss, demandReqs uint64
	prefSent, prefUsed, dropped uint64
	bus, serviced, rowHits      uint64
	usefulServ, usefulRowHits   uint64
	refreshBlocked, chanCycles  uint64
	farServiced                 uint64
	msUsed, msDen               uint64
	demandQ, demandN            uint64
	prefQ, prefN, inSystem      uint64
	newDur, runDur              time.Duration
	jobs                        int
}

func (k *counters) add(o jobOut, channels int) {
	r := o.res
	k.jobs++
	k.cycles += r.Cycles
	k.skipped += o.skipped
	k.newDur += o.newDur
	k.runDur += o.runDur
	for _, c := range r.PerCore {
		k.coreCycles += c.Cycles
		for i, v := range c.Attribution {
			k.attrib[i] += v
		}
		k.retired += c.Retired
		k.l2Miss += c.L2Misses
		k.demandReqs += c.DemandReqs
		k.prefSent += c.PrefSent
		k.prefUsed += c.PrefUsed
		k.dropped += c.PrefDropped
	}
	k.bus += r.Bus.Total()
	k.serviced += r.Serviced
	k.rowHits += r.RowHits
	k.usefulServ += r.UsefulServiced
	k.usefulRowHits += r.UsefulRowHits
	k.refreshBlocked += r.Refresh.BlockedCycles
	k.chanCycles += r.Cycles * uint64(channels)
	for _, d := range r.Domains[min(1, len(r.Domains)):] {
		k.farServiced += d.Serviced
	}
	if ms := r.MemSide; ms != nil {
		k.msUsed += ms.Used
		k.msDen += ms.Serviced + ms.Dropped
	}
	if o.lc != nil {
		for c := 0; c < o.lc.Cores(); c++ {
			b := o.lc.Breakdown(c)
			for cl := lifecycle.Class(0); cl < lifecycle.NumClasses; cl++ {
				t := b.Total(cl)
				k.inSystem += t.QueueCycles + t.ServiceCycles
				if cl == lifecycle.ClassDemand {
					k.demandQ += t.QueueCycles
					k.demandN += t.Count
				} else {
					k.prefQ += t.QueueCycles
					k.prefN += t.Count
				}
			}
		}
	}
}

// channelsOf returns the machine-wide channel count of a config.
func channelsOf(cfg sim.Config) int {
	if cfg.Topology != nil {
		return cfg.Topology.TotalChannels()
	}
	return cfg.DRAM.Channels
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// set writes the simulated per-layer metrics into the report.
func (k *counters) set(rep *report) {
	rep.set("cpu.stall_frac_demand_miss", ratio(float64(k.attrib[cpu.CycleStallDemand]), float64(k.coreCycles)), "ratio")
	rep.set("cpu.stall_frac_mshr_full", ratio(float64(k.attrib[cpu.CycleStallResource]), float64(k.coreCycles)), "ratio")
	rep.set("sim.skip_ratio", ratio(float64(k.skipped), float64(k.cycles)), "ratio")
	rep.set("cache.l2_mpki", ratio(1000*float64(k.l2Miss), float64(k.retired)), "MPKI")
	rep.set("prefetch.accuracy", ratio(float64(k.prefUsed), float64(k.prefSent)), "ratio")
	rep.set("prefetch.coverage", ratio(float64(k.prefUsed), float64(k.demandReqs+k.prefUsed)), "ratio")
	rep.set("core.apd_drop_frac", ratio(float64(k.dropped), float64(k.prefSent)), "ratio")
	rep.set("memctrl.occupancy_mean", ratio(float64(k.inSystem), float64(k.chanCycles)), "requests")
	rep.set("memctrl.demand_queue_cycles", ratio(float64(k.demandQ), float64(k.demandN)), "cycles")
	rep.set("memctrl.prefetch_queue_cycles", ratio(float64(k.prefQ), float64(k.prefN)), "cycles")
	rep.set("memctrl.memside_accuracy", ratio(float64(k.msUsed), float64(k.msDen)), "ratio")
	rep.set("dram.row_hit_rate", ratio(float64(k.rowHits), float64(k.serviced)), "ratio")
	rep.set("dram.rbhu", ratio(float64(k.usefulRowHits), float64(k.usefulServ)), "ratio")
	rep.set("dram.bus_klines", ratio(float64(k.bus)/1000, float64(k.jobs)), "Klines/job")
	rep.set("dram.refresh_blocked_frac", ratio(float64(k.refreshBlocked), float64(k.chanCycles)), "ratio")
	rep.set("topology.far_tier_frac", ratio(float64(k.farServiced), float64(k.serviced)), "ratio")
}

// namesOf lists a mix's benchmark names.
func namesOf(mix []workload.Profile) []string {
	out := make([]string, len(mix))
	for i, p := range mix {
		out[i] = p.Name
	}
	return out
}

// splitmix is SplitMix64's finalizer, used to draw per-pass samples from
// the seed.
func splitmix(seed, x uint64) uint64 {
	x += seed + 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}
