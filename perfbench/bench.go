package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"
)

// Run shape. The timed passes run for about --seconds and until the
// workload's job samples reach the count its tail percentile needs; the
// set-up is repeated after every pass and its median reported.
const (
	setupsPerPass = 3
	maxWorkers    = 2 // cap on every worker pool (the reference host has 2 CPUs)
)

// client is one workload's closed-loop client: a fixed job list drawn from the
// seed, where each request starts only after the previous one completed.
type client interface {
	// setup does the host work that precedes the first timed call and
	// discards it; it is repeated for setup_s.
	setup() error
	// warm runs the untimed warm-up pass plus the reference run through
	// the per-job API, and checks their outputs.
	warm(c *checks) (*reference, error)
	// pass runs the fixed job list once: the timed unit.
	pass(c *checks) (*passStats, error)
	// info describes the workload once set up.
	info() workloadInfo
	close()
}

// workloadInfo is what the run loop needs to know about a workload.
type workloadInfo struct {
	jobs     []simJob // the job list, as the per-job API runs it
	mode     runMode  // what every job attaches
	workers  int      // worker pool of the timed call and of job-list runs
	tailPct  float64  // job_s_tail percentile; fixed, so it never moves with host speed
	seedUsed bool     // the seed draws the inputs (false for fig16)
}

// reference is the outcome of the untimed reference run.
type reference struct {
	totals     simTotals
	wsGain     float64
	trafficCut float64
	digest     string        // the pass digest every timed pass must reproduce
	jobDigests []string      // per job, for the traced counters check
	poolCPU    time.Duration // process CPU of the run through the runner's pool
	poolWall   time.Duration
	poolSize   int
}

// passStats is one timed pass as the client saw it.
type passStats struct {
	wall     time.Duration
	jobTimes []time.Duration // process CPU per System.Run of the multiprogrammed jobs
	setups   []float64       // set-up times (s) taken right after the pass
	digest   string
	alloc    uint64        // bytes allocated during the pass
	cpu      time.Duration // process CPU during the pass
}

// checks counts output checks; each is one attempted operation.
type checks struct {
	attempted, failed int
	log               io.Writer
}

func (c *checks) ok() { c.attempted++ }

func (c *checks) fail(format string, args ...any) {
	c.attempted++
	c.failed++
	fmt.Fprintf(c.log, "perfbench: check failed: "+format+"\n", args...)
}

func workloadNames() []string {
	return []string{"mix8-tiered-observed", "fig16-quick"}
}

func newClient(o options) (client, error) {
	switch o.workload {
	case "mix8-tiered-observed":
		return newMix8(o), nil
	case "fig16-quick":
		return newFig16(o), nil
	default:
		return nil, fmt.Errorf("unknown workload %q (known: %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
}

// runWorkload is one benchmark run: set-up, warm-up and reference, timed
// passes, and for --trace 1 the traced passes, counters and layer probes.
func runWorkload(o options, log io.Writer) (*report, error) {
	w, err := newClient(o)
	if err != nil {
		return nil, err
	}
	defer w.close()
	c := &checks{log: log}
	rep := &report{metrics: map[string]metric{}, record: hostRecord()}
	rep.record["workload"] = o.workload
	rep.record["seed"] = o.seed
	rep.record["trace"] = o.trace

	if err := w.setup(); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	ref, err := w.warm(c)
	if err != nil {
		return nil, err
	}
	wi := w.info()
	rep.record["seed_applies"] = wi.seedUsed

	budget := o.seconds
	if o.trace {
		budget /= 2 // the traced run splits its time between timed and traced passes
	}
	timed, err := loopPasses(w, c, ref, wi, o, budget, !o.trace)
	if err != nil {
		return nil, err
	}
	if !o.trace {
		endToEnd(rep, wi, ref, timed)
	} else {
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		traced, err := loopPasses(w, c, ref, wi, o, budget, false)
		pprof.StopCPUProfile()
		if err != nil {
			return nil, err
		}
		shares, err := attributeProfile(prof.Bytes())
		if err != nil {
			return nil, err
		}
		shares.set(rep)
		rep.record["profile_samples"] = shares.samples
		rep.record["profile_attributed"] = ratio(float64(shares.total-shares.byLayer["other"]), float64(shares.total))
		k := tracedRun(c, wi.jobs, wi.workers, wi.mode, ref.jobDigests)
		k.set(rep)
		perLayer(rep, wi, ref, timed, traced, k, o, c)
	}
	rep.failed = c.failed
	rep.attempted = c.attempted
	rep.correct = c.failed == 0 && c.attempted > 0
	rep.record["digest"] = ref.digest
	rep.record["passes"] = len(timed)
	rep.record["failed_frac"] = ratio(float64(c.failed), float64(c.attempted))
	return rep, nil
}

// loopPasses runs passes, with their checks and set-ups, until the pass
// boundary nearest the budget of host time and, with tail, until the job
// samples reach what the tail percentile needs; each pass's outputs must
// reproduce the reference digest.
//
// The set-up is timed between passes, not once before them: the host
// runs slower in stretches of about a minute (up to 3x for the set-up),
// and spreading the repetitions over the run gives setup_s the same
// window as the passes. Timed once at process start, it also paid for
// the build run just before it.
func loopPasses(w client, c *checks, ref *reference, wi workloadInfo, o options, seconds float64, tail bool) ([]*passStats, error) {
	minSamples := 0
	if tail && !o.tiny {
		minSamples = int(10/(1-wi.tailPct)) + 1
	}
	var out []*passStats
	var samples int
	var last time.Duration
	start := time.Now()
	for len(out) < 2 || samples < minSamples || (time.Since(start)+last/2).Seconds() < seconds {
		t0 := time.Now()
		p, err := w.pass(c)
		if err != nil {
			return nil, err
		}
		if p.digest != ref.digest {
			c.fail("pass %d: outputs differ from the reference run", len(out))
		} else {
			c.ok()
		}
		steppedCheck(c, wi.jobs, ref.jobDigests, o.seed, len(out))
		for i := 0; i < setupsPerPass; i++ {
			runtime.GC() // no set-up pays for the previous one's garbage
			s0 := time.Now()
			if err := w.setup(); err != nil {
				return nil, fmt.Errorf("setup: %w", err)
			}
			p.setups = append(p.setups, time.Since(s0).Seconds())
		}
		out = append(out, p)
		samples += len(p.jobTimes)
		last = time.Since(t0)
		if o.tiny && len(out) >= 2 {
			break
		}
	}
	return out, nil
}

// measure runs a pass's timed call from a clean heap and returns its
// wall time, process CPU and bytes allocated.
func measure(call func()) *passStats {
	var ms0, ms1 runtime.MemStats
	runtime.GC() // every pass starts from the same clean heap
	runtime.ReadMemStats(&ms0)
	cpu0, t0 := processCPU(), time.Now()
	call()
	p := &passStats{wall: time.Since(t0), cpu: processCPU() - cpu0}
	runtime.ReadMemStats(&ms1)
	p.alloc = ms1.TotalAlloc - ms0.TotalAlloc
	return p
}

// endToEnd fills the timed run's metrics.
func endToEnd(rep *report, wi workloadInfo, ref *reference, passes []*passStats) {
	var walls, cpus, allocs, setups []float64
	var jobs []float64
	for _, p := range passes {
		setups = append(setups, p.setups...)
		walls = append(walls, p.wall.Seconds())
		cpus = append(cpus, p.cpu.Seconds())
		allocs = append(allocs, float64(p.alloc)/1e6/(float64(ref.totals.insts)/1e6))
		for _, d := range p.jobTimes {
			jobs = append(jobs, d.Seconds())
		}
	}
	tail := wi.tailPct
	cpu := median(cpus)
	rep.set("setup_s", median(setups), "s")
	rep.record["setup_s_reps"] = setups
	rep.set("cpu_s", cpu, "s")
	rep.set("job_s_p50", median(jobs), "s")
	rep.set("job_s_tail", percentile(jobs, tail), "s")
	rep.set("sim_minst_per_s", float64(ref.totals.insts)/1e6/cpu, "Minst/s")
	rep.set("sim_mcycles_per_s", float64(ref.totals.cycles)/1e6/cpu, "Mcycles/s")
	rep.set("alloc_mb_per_minst", median(allocs), "MB/Minst")
	rep.set("peak_rss_mb", peakRSSMB(), "MB")
	rep.set("sim_ipc", ref.totals.ipc, "IPC")
	rep.set("ws_gain_pct", ref.wsGain, "%")
	rep.set("traffic_cut_pct", ref.trafficCut, "%")
	rep.record["pass_wall_s"] = walls
	rep.record["pass_cpu_s"] = cpus
	rep.record["job_samples"] = len(jobs)
	rep.record["job_s_tail_percentile"] = tail * 100
	rep.record["paper_ws_gain_pct"] = 8.2
	rep.record["paper_traffic_cut_pct"] = 10.7
}

// perLayer fills the traced run's host-side per-layer metrics.
func perLayer(rep *report, wi workloadInfo, ref *reference, timed, traced []*passStats, k *counters, o options, c *checks) {
	cpuOf := func(ps []*passStats) float64 {
		var cs []float64
		for _, p := range ps {
			cs = append(cs, p.cpu.Seconds())
		}
		return median(cs)
	}
	rep.set("bench.trace_overhead_pct", 100*(cpuOf(traced)/cpuOf(timed)-1), "%")
	var cpuS, wallS, alloc float64
	for _, p := range timed {
		cpuS += p.cpu.Seconds()
		wallS += p.wall.Seconds()
		alloc += float64(p.alloc)
	}
	rep.set("exp.worker_util", ratio(cpuS, wallS*float64(wi.workers)), "ratio")
	rep.set("runner.worker_util", ratio(ref.poolCPU.Seconds(), ref.poolWall.Seconds()*float64(ref.poolSize)), "ratio")
	rep.set("sim.new_ms", ratio(k.newDur.Seconds()*1e3, float64(k.jobs)), "ms")
	rep.set("sim.run_ns_per_exec_cycle", ratio(float64(k.runDur.Nanoseconds()), float64(k.cycles-k.skipped)), "ns")
	rep.set("sim.alloc_b_per_bus_line", ratio(alloc/float64(len(timed)), float64(k.bus)), "B/line")
	rep.set("failed_frac", ratio(float64(c.failed), float64(c.attempted)), "ratio")

	d := runLayerProbes(layerInputOf(wi.jobs), o)
	d.set(rep)
	rep.record["layer_calls"] = d.calls
}

// median returns the middle value (mean of the two middle values for an
// even count); 0 for no values.
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// percentile interpolates linearly between closest ranks.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// processCPU returns the process's user plus system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
