// Package exp contains one runner per figure and table of the paper's
// evaluation (§6). Each runner builds the simulated systems, executes the
// workloads, and returns a Table holding the same rows or series the paper
// plots, so the benchmark harness (bench_test.go) and the padcsim CLI can
// regenerate every experiment. The multicore runners share one grid engine
// (grid.go) and differ only in their variants, machine points and the
// reducer that turns the scored runs into rows.
package exp

import (
	"fmt"
	"sort"
	"strings"

	"padc/internal/core"
	"padc/internal/memctrl"
	"padc/internal/sim"
	"padc/internal/stats"
	"padc/internal/telemetry"
)

// Scale controls how much simulation an experiment runs: Quick keeps
// test/bench latency low, Full approaches the paper's workload counts.
type Scale struct {
	Insts  uint64 // instructions per core
	Mixes2 int    // 2-core workload count (paper: 54)
	Mixes4 int    // 4-core workload count (paper: 32)
	Mixes8 int    // 8-core workload count (paper: 21)
}

// Quick is the scale used by tests and default benches.
func Quick() Scale { return Scale{Insts: 150_000, Mixes2: 8, Mixes4: 6, Mixes8: 4} }

// Full approaches the paper's scale (use via the CLI; runs take minutes).
func Full() Scale { return Scale{Insts: 400_000, Mixes2: 54, Mixes4: 32, Mixes8: 21} }

// Table is a rendered experiment result.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// Add appends a row of stringified cells.
func (t *Table) Add(cells ...string) { t.Rows = append(t.Rows, cells) }

// Addf appends a row where numeric cells are formatted with %.3f.
func (t *Table) Addf(label string, vals ...float64) {
	row := []string{label}
	for _, v := range vals {
		row = append(row, fmt.Sprintf("%.3f", v))
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table with aligned columns.
func (t Table) String() string {
	width := make([]int, 0, len(t.Header))
	rows := append([][]string{t.Header}, t.Rows...)
	for _, r := range rows {
		for i, c := range r {
			if i >= len(width) {
				width = append(width, 0)
			}
			if len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	for ri, r := range rows {
		for i, c := range r {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], c)
		}
		b.WriteByte('\n')
		if ri == 0 {
			b.WriteString(strings.Repeat("-", sum(width)+2*(len(width)-1)))
			b.WriteByte('\n')
		}
	}
	return b.String()
}

func sum(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}

// TelemetryTable renders a run's telemetry summary in the experiment
// Table shape, so runners and the CLI can embed observability data under
// their result tables.
func TelemetryTable(tel *telemetry.Telemetry) *Table {
	t := &Table{Title: "telemetry", Header: []string{"metric", "value"}}
	if tel == nil {
		t.Add("telemetry", "disabled")
		return t
	}
	for _, name := range tel.Names() {
		v, _ := tel.Value(name)
		t.Add(name, fmt.Sprintf("%.4g", v))
	}
	counts := tel.EventCounts()
	kinds := make([]string, 0, len(counts))
	for k := range counts {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		t.Add("events/"+k, fmt.Sprintf("%d", counts[k]))
	}
	return t
}

// Variant is one system configuration under test.
type Variant struct {
	Name  string
	Apply func(*sim.Config)
}

// NoPref disables prefetching entirely.
func NoPref() Variant {
	return Variant{"no-pref", func(c *sim.Config) {
		c.Prefetcher = sim.PFNone
		c.PADC.EnableAPD = false
	}}
}

// DemandFirst is the paper's baseline rigid policy.
func DemandFirst() Variant {
	return Variant{"demand-first", func(c *sim.Config) {
		c.Policy = memctrl.DemandFirst
		c.PADC.EnableAPD = false
	}}
}

// DemandPrefEqual is plain FR-FCFS.
func DemandPrefEqual() Variant {
	return Variant{"demand-pref-equal", func(c *sim.Config) {
		c.Policy = memctrl.DemandPrefEqual
		c.PADC.EnableAPD = false
	}}
}

// PrefetchFirst is the footnote-2 strawman.
func PrefetchFirst() Variant {
	return Variant{"prefetch-first", func(c *sim.Config) {
		c.Policy = memctrl.PrefetchFirst
		c.PADC.EnableAPD = false
	}}
}

// APSOnly enables adaptive scheduling without dropping.
func APSOnly() Variant {
	return Variant{"aps-only", func(c *sim.Config) {
		c.Policy = memctrl.APS
		c.PADC.EnableAPD = false
	}}
}

// PADC is the full mechanism: APS plus APD.
func PADC() Variant {
	return Variant{"aps-apd (PADC)", func(c *sim.Config) { c.Policy = memctrl.APS }}
}

// PADCRank is PADC with the §6.5 shortest-job ranking.
func PADCRank() Variant {
	return Variant{"PADC-rank", func(c *sim.Config) { c.Policy = memctrl.APSRank }}
}

// RuleStack schedules with an explicit priority-rule stack from the
// sched kernel (e.g. "rules:critical,rowhit,urgent,fcfs"). APD is off so
// the run isolates the priority order under study.
func RuleStack(rules string) Variant {
	return Variant{rules, func(c *sim.Config) {
		c.Rules = rules
		c.PADC.EnableAPD = false
	}}
}

// StandardVariants returns the five configurations most figures compare.
func StandardVariants() []Variant {
	return []Variant{NoPref(), DemandFirst(), DemandPrefEqual(), APSOnly(), PADC()}
}

// baseConfig builds the paper baseline for ncores at the given scale. The
// default PADC config has both mechanisms on; variants adjust.
func baseConfig(ncores int, sc Scale) sim.Config {
	cfg := sim.Baseline(ncores)
	cfg.TargetInsts = sc.Insts
	cfg.PADC = core.DefaultConfig()
	return cfg
}

// runOne builds and runs a single system; errors surface as panics since
// experiment configs are statically correct by construction. It is a
// variable so tests can count the runs an experiment makes.
var runOne = func(cfg sim.Config) stats.Results {
	res, err := sim.Run(cfg)
	if err != nil {
		panic(fmt.Sprintf("exp: %v", err))
	}
	return res
}
