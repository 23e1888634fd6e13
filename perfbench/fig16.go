package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"padc"
	"padc/internal/core"
	"padc/internal/exp"
	"padc/internal/runner"
	"padc/internal/sim"
	"padc/internal/stats"
	"padc/internal/workload"
)

// fig16Workload times padc.Experiment("fig16", false) on a 2-worker
// pool, and after each figure runs the figure's job list one job at a
// time for the per-job host times. The figure fixes its own mix draw, so
// the seed only picks the job each stepped-kernel check re-runs.
type fig16Workload struct {
	o        options
	mixes    [][]workload.Profile
	variants []exp.Variant
	names    []string // distinct benchmarks, sorted: the alone runs
	jobs     []simJob // alone runs, then variant-major mix runs
	// jobDigests are the reference run's per-job Results, which every
	// pass's job list must reproduce.
	jobDigests []string
}

func newFig16(o options) *fig16Workload { return &fig16Workload{o: o} }

// build mirrors the figure's job list through the public per-job
// API: the demand-first alone baselines and every variant × mix run,
// each on exp's baseline machine (sim.Baseline with the scale's
// instruction target and the default PADC thresholds).
func (w *fig16Workload) build() {
	sc := exp.Quick()
	w.mixes = exp.Mixes(4, sc.Mixes4)
	w.variants = exp.StandardVariants()
	if w.o.tiny {
		// The figure itself cannot shrink; the tiny run only shortens the
		// reference list it is checked against.
		w.mixes = w.mixes[:1]
	}
	base := func() sim.Config {
		cfg := sim.Baseline(4)
		cfg.TargetInsts = sc.Insts
		cfg.PADC = core.DefaultConfig()
		return cfg
	}
	uniq := map[string]workload.Profile{}
	for _, m := range w.mixes {
		for _, p := range m {
			uniq[p.Name] = p
		}
	}
	w.names = w.names[:0]
	for n := range uniq {
		w.names = append(w.names, n)
	}
	sort.Strings(w.names)
	w.jobs = w.jobs[:0]
	for _, n := range w.names {
		cfg := base()
		exp.DemandFirst().Apply(&cfg)
		cfg.Workload = []workload.Profile{uniq[n]}
		w.jobs = append(w.jobs, simJob{label: "alone/" + n, cfg: cfg})
	}
	for _, v := range w.variants {
		for mi, m := range w.mixes {
			cfg := base()
			v.Apply(&cfg)
			cfg.Workload = append([]workload.Profile(nil), m...)
			w.jobs = append(w.jobs, simJob{label: fmt.Sprintf("%s/mix%d", v.Name, mi), cfg: cfg})
		}
	}
}

// setup sizes the pool, resolves the figure's mixes and profiles, and
// builds every system the figure runs.
func (w *fig16Workload) setup() error {
	padc.SetJobs(maxWorkers)
	w.build()
	for _, j := range w.jobs {
		if _, err := sim.New(j.cfg); err != nil {
			return err
		}
	}
	return nil
}

func (w *fig16Workload) experiment() (string, time.Duration, error) {
	t0 := time.Now()
	out, err := padc.Experiment("fig16", false)
	return out, time.Since(t0), err
}

func textDigest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// warm runs the figure once untimed, then the reference job list one
// job at a time, and checks that the rendered table carries all five
// policy rows with exactly the values the per-job results reduce to.
func (w *fig16Workload) warm(c *checks) (*reference, error) {
	cpu0 := processCPU()
	table, wall, err := w.experiment()
	if err != nil {
		return nil, err
	}
	ref := &reference{poolCPU: processCPU() - cpu0, poolWall: wall, poolSize: maxWorkers}
	outs := runJobs(w.jobs, 1, runMode{gcEach: true})
	verifyJobs(c, w.jobs, outs)
	ref.totals = totalsOf(w.jobs, outs)
	ref.digest = textDigest(table)
	for _, o := range outs {
		ref.jobDigests = append(ref.jobDigests, resultDigest(o.res))
	}
	w.jobDigests = ref.jobDigests

	rows := parseFigure(table)
	want := w.reduce(outs)
	for _, v := range w.variants {
		got, ok := rows[v.Name]
		switch {
		case !ok:
			c.fail("fig16: no %q row in the table", v.Name)
		case w.o.tiny:
			c.ok() // the tiny reference covers one mix, the figure six
		case strings.Join(got, " ") != strings.Join(want[v.Name], " "):
			c.fail("fig16: row %q is %v, the per-job results reduce to %v", v.Name, got, want[v.Name])
		default:
			c.ok()
		}
	}
	df, padcRow := rows[exp.DemandFirst().Name], rows[exp.PADC().Name]
	if len(df) == 4 && len(padcRow) == 4 {
		wsDF, _ := strconv.ParseFloat(df[0], 64)
		wsP, _ := strconv.ParseFloat(padcRow[0], 64)
		busDF, _ := strconv.ParseFloat(df[3], 64)
		busP, _ := strconv.ParseFloat(padcRow[3], 64)
		ref.wsGain = 100 * (wsP/wsDF - 1)
		ref.trafficCut = 100 * (1 - busP/busDF)
	}
	return ref, nil
}

// reduce averages WS/HS/UF and bus traffic per variant over the mixes,
// as the figure does, formatted as the table prints them.
func (w *fig16Workload) reduce(outs []jobOut) map[string][]string {
	alone := map[string]float64{}
	for i, n := range w.names {
		alone[n] = outs[i].res.PerCore[0].IPC()
	}
	out := map[string][]string{}
	k := len(w.names)
	for _, v := range w.variants {
		var ws, hs, uf, bus float64
		for _, m := range w.mixes {
			res := outs[k].res
			k++
			ipc := make([]float64, len(m))
			for i, p := range m {
				ipc[i] = alone[p.Name]
			}
			ws += stats.WS(res.PerCore, ipc)
			hs += stats.HS(res.PerCore, ipc)
			uf += stats.UF(res.PerCore, ipc)
			bus += float64(res.Bus.Total())
		}
		n := float64(len(w.mixes))
		for _, x := range []float64{ws / n, hs / n, uf / n, bus / n / 1000} {
			out[v.Name] = append(out[v.Name], fmt.Sprintf("%.3f", x))
		}
	}
	return out
}

// parseFigure maps each table row's policy label to its four value
// cells (WS, HS, UF, bus).
func parseFigure(table string) map[string][]string {
	rows := map[string][]string{}
	for _, line := range strings.Split(table, "\n") {
		f := strings.Fields(line)
		if len(f) < 5 {
			continue
		}
		vals := f[len(f)-4:]
		if _, err := strconv.ParseFloat(vals[0], 64); err != nil {
			continue
		}
		rows[strings.Join(f[:len(f)-4], " ")] = vals
	}
	return rows
}

// pass times the figure, then runs its job list one job at a time (so
// each job's host time is its own) and checks each job against the
// reference run. Both halves span the whole run, so job_s and cpu_s
// see the same stretch of host time.
func (w *fig16Workload) pass(c *checks) (*passStats, error) {
	var table string
	var err error
	p := measure(func() { table, err = padc.Experiment("fig16", false) })
	if err != nil {
		return nil, err
	}
	p.digest = textDigest(table)
	outs := runJobs(w.jobs, 1, runMode{gcEach: true})
	verifyJobs(c, w.jobs, outs)
	for i, o := range outs {
		if resultDigest(o.res) != w.jobDigests[i] {
			c.fail("%s: Results differ from the reference run", w.jobs[i].label)
		}
	}
	p.jobTimes = multiTimes(w.jobs, outs)
	return p, nil
}

func (w *fig16Workload) info() workloadInfo {
	return workloadInfo{jobs: w.jobs, workers: maxWorkers, tailPct: 0.85}
}

func (w *fig16Workload) close() { runner.SetDefaultWorkers(0) }
