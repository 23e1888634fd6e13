// Package sim wires the substrates — cores, caches, prefetchers, memory
// controllers and DRAM — into the full CMP system of the paper's Tables 3
// and 4, and drives the cycle loop.
package sim

import (
	"fmt"
	"strings"

	"padc/internal/cache"
	"padc/internal/core"
	"padc/internal/cpu"
	"padc/internal/dram"
	"padc/internal/memctrl"
	"padc/internal/memctrl/sched"
	"padc/internal/telemetry"
	"padc/internal/telemetry/flight"
	"padc/internal/telemetry/lifecycle"
	"padc/internal/topology"
	"padc/internal/workload"
)

// PrefetcherKind selects the per-core prefetch engine.
type PrefetcherKind int

const (
	PFNone PrefetcherKind = iota
	PFStream
	PFStride
	PFCDC
	PFMarkov
	PFDSPatch
)

// String implements fmt.Stringer.
func (k PrefetcherKind) String() string {
	switch k {
	case PFNone:
		return "none"
	case PFStream:
		return "stream"
	case PFStride:
		return "stride"
	case PFCDC:
		return "cdc"
	case PFMarkov:
		return "markov"
	case PFDSPatch:
		return "dspatch"
	default:
		return fmt.Sprintf("PrefetcherKind(%d)", int(k))
	}
}

// Kernel selects the main-loop execution strategy. Both kernels simulate
// the same machine cycle for cycle and must produce identical results —
// the lockstep differential suite in kernel_test.go enforces it.
type Kernel int

const (
	// KernelEvents is the cycle-skipping event kernel (the default): every
	// component reports its next interesting cycle and the loop jumps to
	// the minimum, turning per-cycle stall accounting into per-interval
	// arithmetic.
	KernelEvents Kernel = iota
	// KernelStepped is the retained cycle-by-cycle reference loop the
	// event kernel is differentially tested against.
	KernelStepped
)

// String implements fmt.Stringer.
func (k Kernel) String() string {
	switch k {
	case KernelEvents:
		return "events"
	case KernelStepped:
		return "stepped"
	default:
		return fmt.Sprintf("Kernel(%d)", int(k))
	}
}

// ParseKernel maps the configuration-surface spellings onto a Kernel. The
// empty string is KernelEvents, so zero-valued configs take the fast path.
func ParseKernel(s string) (Kernel, error) {
	switch s {
	case "", "events":
		return KernelEvents, nil
	case "stepped":
		return KernelStepped, nil
	default:
		return KernelEvents, fmt.Errorf("sim: unknown kernel %q (events, stepped)", s)
	}
}

// KernelNames returns the accepted ParseKernel vocabulary.
func KernelNames() []string { return []string{"events", "stepped"} }

// ParsePrefetcher is the inverse of PrefetcherKind.String. The empty
// string is PFNone, so zero-valued configs run without prefetching.
func ParsePrefetcher(s string) (PrefetcherKind, error) { return parseKind("prefetcher", s, PFDSPatch) }

// PrefetcherNames returns the accepted ParsePrefetcher vocabulary.
func PrefetcherNames() []string { return kindNames(PFDSPatch) }

// ParseFilter is the inverse of FilterKind.String. The empty string is
// FilterNone.
func ParseFilter(s string) (FilterKind, error) { return parseKind("filter", s, FilterFDP) }

// parseKind inverts String over the kinds 0..last, whose zero is the
// "none" kind "" also names.
func parseKind[K interface {
	~int
	String() string
}](what, s string, last K) (K, error) {
	if s == "" {
		return 0, nil
	}
	for k := K(0); k <= last; k++ {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("sim: unknown %s %q (%s)", what, s, strings.Join(kindNames(last), ", "))
}

// kindNames lists the String spellings of the kinds 0..last.
func kindNames[K interface {
	~int
	String() string
}](last K) []string {
	var out []string
	for k := K(0); k <= last; k++ {
		out = append(out, k.String())
	}
	return out
}

// policies is the paper's set of controllers under comparison, by the
// name every configuration surface uses: the scheduling policy each runs
// and whether APD drops its prefetches. no-pref also removes the
// prefetcher (ApplyPolicy).
var policies = []struct {
	name   string
	policy memctrl.Policy
	apd    bool
}{
	{"no-pref", memctrl.DemandFirst, false},
	{"demand-first", memctrl.DemandFirst, false},
	{"equal", memctrl.DemandPrefEqual, false},
	{"prefetch-first", memctrl.PrefetchFirst, false},
	{"aps", memctrl.APS, false},
	{"padc", memctrl.APS, true},
	{"padc-rank", memctrl.APSRank, true},
}

// ApplyPolicy configures c as the named controller: it sets the
// scheduling policy (or rule stack) and the APD switch, and for no-pref
// clears the prefetcher, so set the prefetcher first. Besides PolicyNames
// it accepts an explicit "rules:" stack (see internal/memctrl/sched),
// which schedules with exactly that priority order and APD off, so a run
// isolates the ordering under study.
func ApplyPolicy(c *Config, name string) error {
	if strings.HasPrefix(name, sched.Prefix) {
		if _, err := sched.Parse(name); err != nil {
			return err
		}
		c.Rules, c.PADC.EnableAPD = name, false
		return nil
	}
	for _, p := range policies {
		if p.name == name {
			c.Policy, c.Rules, c.PADC.EnableAPD = p.policy, "", p.apd
			if name == "no-pref" {
				c.Prefetcher = PFNone
			}
			return nil
		}
	}
	return fmt.Errorf("sim: unknown policy %q (%s, or %s<list>)", name, strings.Join(PolicyNames(), ", "), sched.Prefix)
}

// PolicyNames returns the named controllers ApplyPolicy accepts.
func PolicyNames() []string {
	out := make([]string, len(policies))
	for i, p := range policies {
		out[i] = p.name
	}
	return out
}

// FilterKind optionally wraps the prefetcher with a §6.12 comparison
// mechanism.
type FilterKind int

const (
	FilterNone FilterKind = iota
	FilterDDPF
	FilterFDP
)

// String implements fmt.Stringer.
func (k FilterKind) String() string {
	switch k {
	case FilterNone:
		return "none"
	case FilterDDPF:
		return "ddpf"
	case FilterFDP:
		return "fdp"
	default:
		return fmt.Sprintf("FilterKind(%d)", int(k))
	}
}

// Config describes one simulated system and run.
type Config struct {
	Cores int // cores the system is provisioned for (resource sizing)
	Core  cpu.Config

	L1       cache.Config // L1.Bytes == 0 disables the L1
	L2       cache.Config // per core, or total when SharedL2
	SharedL2 bool
	MSHR     int // entries per last-level cache

	DRAM dram.Config
	// Topology, when non-nil, wires the machine as multiple memory domains
	// (per-domain channel counts, link latencies, timing overrides; see
	// internal/topology). DRAM then supplies the shared geometry — banks,
	// row/line size, tick period, refresh — while each domain's channel
	// count comes from the topology. Nil is the flat machine: one domain
	// holding DRAM.Channels channels at link distance zero, byte-identical
	// to the pre-topology simulator.
	Topology    *topology.Topology
	BufferSlots int // memory request buffer entries per controller
	Policy      memctrl.Policy
	// Rules, when non-empty, overrides Policy with an explicit scheduling
	// rule stack: a legacy alias ("aps") or a "rules:" list such as
	// "rules:critical,rowhit,urgent,fcfs" (see internal/memctrl/sched).
	// Priority-order ablations vary this string instead of adding enum
	// values.
	Rules string
	PADC  core.Config

	Prefetcher PrefetcherKind
	Filter     FilterKind

	// MemSide enables the DROPLET-style memory-side prefetch path: each
	// controller generates same-row next-line candidates from the demand
	// stream it admits and drains them into idle row-hit windows, gated
	// and aged by the tier's PADC memory-side accuracy. Off by default;
	// a disabled path leaves the machine byte-identical to the
	// pre-memside simulator.
	MemSide bool

	Workload []workload.Profile // profile per core; fewer than Cores leaves the rest idle

	TargetInsts uint64 // instructions each active core must retire
	MaxCycles   uint64 // safety bound; 0 derives one from TargetInsts

	// Kernel selects the main-loop strategy: KernelEvents (the zero value)
	// skips provably-inert cycle runs, KernelStepped executes every cycle.
	// Results are identical either way.
	Kernel Kernel

	TrackServiceHist   bool // Figure 4(a) service-time histograms
	TrackAccuracyTrace bool // Figure 4(b) per-interval PAR of core 0

	// Telemetry, when non-nil, receives the run's metric registrations,
	// epoch samples (every Telemetry.EpochCycles() cycles) and trace
	// events; see internal/telemetry. Nil — the default — disables all
	// instrumentation, leaving the hot path with only nil compares.
	Telemetry *telemetry.Telemetry

	// Flight, when non-nil, is the bank-state flight recorder: bounded
	// per-epoch × per-bank accounting of row outcomes, open/close
	// transitions, demand/prefetch issues, refresh interference and
	// rule-win attribution; see internal/telemetry/flight. The system
	// configures its geometry, attaches it to every controller, and
	// rotates epochs in the run loop. Nil — the default — costs one
	// pointer compare at each hook.
	Flight *flight.Recorder

	// Lifecycle, when non-nil, receives one span per completed or dropped
	// memory request (queue-wait vs. service decomposition, request class,
	// row outcome); see internal/telemetry/lifecycle. Nil disables span
	// tracing at one pointer compare per request retirement.
	Lifecycle *lifecycle.Tracer

	// Profile enables per-core cycle accounting: every core cycle is
	// attributed to exactly one cpu.CycleClass bucket, snapshotted into
	// stats.CoreResult.Attribution at the core's instruction target.
	Profile bool
}

// Baseline returns the paper's baseline system for ncores in {1, 2, 4, 8}
// (Tables 3 and 4): per-core 32KB L1 and 512KB 8-way L2 (1MB on a single
// core), stream prefetcher, one DDR3 channel with 8 banks and 4KB rows,
// and 64/64/128/256 request-buffer and MSHR entries.
func Baseline(ncores int) Config {
	l2Bytes := uint64(512 << 10)
	if ncores == 1 {
		l2Bytes = 1 << 20
	}
	buffer := map[int]int{1: 64, 2: 64, 4: 128, 8: 256}[ncores]
	if buffer == 0 {
		buffer = 32 * ncores
	}
	return Config{
		Cores: ncores,
		Core:  cpu.DefaultConfig(),
		L1:    cache.Config{Bytes: 32 << 10, Ways: 4, LineBytes: 64, HitCycles: 2},
		L2:    cache.Config{Bytes: l2Bytes, Ways: 8, LineBytes: 64, HitCycles: 15},
		MSHR:  buffer / ncores,

		DRAM:        dram.DefaultConfig(),
		BufferSlots: buffer,
		Policy:      memctrl.DemandFirst,
		PADC:        core.DefaultConfig(),

		Prefetcher:  PFStream,
		TargetInsts: 500_000,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Cores < 1 {
		return fmt.Errorf("sim: need at least one core, got %d", c.Cores)
	}
	if len(c.Workload) > c.Cores {
		return fmt.Errorf("sim: %d workloads for %d cores", len(c.Workload), c.Cores)
	}
	if len(c.Workload) == 0 {
		return fmt.Errorf("sim: empty workload")
	}
	if c.L1.Bytes != 0 {
		if err := c.L1.Validate(); err != nil {
			return err
		}
	}
	if err := c.L2.Validate(); err != nil {
		return err
	}
	if err := c.DRAM.Validate(); err != nil {
		return err
	}
	if c.Topology != nil {
		if err := c.Topology.Validate(); err != nil {
			return err
		}
	}
	if c.BufferSlots < 1 {
		return fmt.Errorf("sim: request buffer needs at least one slot")
	}
	if c.MSHR < 1 {
		return fmt.Errorf("sim: MSHR needs at least one entry")
	}
	if _, err := memctrl.ResolveStack(c.Policy, c.Rules); err != nil {
		return err
	}
	if c.TargetInsts == 0 {
		return fmt.Errorf("sim: TargetInsts must be positive")
	}
	if c.Kernel != KernelEvents && c.Kernel != KernelStepped {
		return fmt.Errorf("sim: unknown kernel %d", int(c.Kernel))
	}
	return nil
}

// topo returns the effective topology: the configured one, or the flat
// single-domain layout over DRAM.Channels.
func (c Config) topo() topology.Topology {
	if c.Topology != nil {
		return *c.Topology
	}
	return topology.Flat(c.DRAM.Channels)
}

// maxCycles returns the safety bound for the run.
func (c Config) maxCycles() uint64 {
	if c.MaxCycles != 0 {
		return c.MaxCycles
	}
	m := 400 * c.TargetInsts
	if m < 20_000_000 {
		m = 20_000_000
	}
	return m
}
