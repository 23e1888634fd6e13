package padc

import (
	"strings"
	"testing"

	"padc/internal/memctrl"
	"padc/internal/runner"
	"padc/internal/sim"
)

func TestBenchmarksList(t *testing.T) {
	names := Benchmarks()
	if len(names) != 55 {
		t.Fatalf("want 55 benchmarks, got %d", len(names))
	}
	found := map[string]bool{}
	for _, n := range names {
		found[n] = true
	}
	for _, want := range []string{"libquantum", "milc", "swim", "art", "eon"} {
		if !found[want] {
			t.Errorf("missing benchmark %q", want)
		}
	}
}

func TestRunFacade(t *testing.T) {
	cfg := DefaultSystem(2)
	cfg.TargetInsts = 80_000
	res, err := Run(cfg, []string{"swim", "milc"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cores) != 2 {
		t.Fatalf("want 2 core results, got %d", len(res.Cores))
	}
	for _, c := range res.Cores {
		if c.IPC <= 0 {
			t.Errorf("%s: IPC %v", c.Benchmark, c.IPC)
		}
	}
	if res.BusTotal() == 0 || res.Cycles == 0 {
		t.Fatal("empty result")
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	cfg := DefaultSystem(1)
	if _, err := Run(cfg, nil); err == nil {
		t.Error("empty benchmark list accepted")
	}
	if _, err := Run(cfg, []string{"a", "b"}); err == nil {
		t.Error("too many benchmarks accepted")
	}
	if _, err := Run(cfg, []string{"not-a-benchmark"}); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestSystemConfigVariantsRun(t *testing.T) {
	mods := []func(*SystemConfig){
		func(c *SystemConfig) { c.Policy = "demand-first" },
		func(c *SystemConfig) { c.Policy = "equal" },
		func(c *SystemConfig) { c.Policy = "prefetch-first" },
		func(c *SystemConfig) { c.Policy = "padc-rank" },
		func(c *SystemConfig) { c.Prefetcher = "stride" },
		func(c *SystemConfig) { c.Filter = "ddpf" },
		func(c *SystemConfig) { c.Filter = "fdp" },
		func(c *SystemConfig) { c.Channels = 2 },
		func(c *SystemConfig) { c.PagePolicy = "closed" },
		func(c *SystemConfig) { c.Permutation = true },
		func(c *SystemConfig) { c.Runahead = true },
		func(c *SystemConfig) { c.SharedL2 = true; c.L2KB = 1024 },
		func(c *SystemConfig) { c.RowBufferKB = 8 },
	}
	for i, mod := range mods {
		cfg := DefaultSystem(2)
		cfg.TargetInsts = 40_000
		mod(&cfg)
		if _, err := Run(cfg, []string{"swim", "eon"}); err != nil {
			t.Errorf("variant %d failed: %v", i, err)
		}
	}
}

// TestPolicyNamesSameMachineAcrossSurfaces checks that each policy name
// builds the same controller through SystemConfig and through a sweep
// spec: the same rule stack, APD switch and prefetcher.
func TestPolicyNamesSameMachineAcrossSurfaces(t *testing.T) {
	for _, name := range append(sim.PolicyNames(), "rules:critical,rowhit,fcfs") {
		cfg := DefaultSystem(4)
		cfg.Policy = name
		rc, err := cfg.Describe()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		jobs, err := runner.Spec{Policies: []string{name}, Workloads: [][]string{{"swim"}}}.Expand()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sc := jobs[0].Config
		stack, err := memctrl.ResolveStack(sc.Policy, sc.Rules)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rc.RuleStack != stack.String() || rc.APD != sc.PADC.EnableAPD || rc.Prefetcher != sc.Prefetcher.String() {
			t.Errorf("%s: SystemConfig gives stack=%q apd=%v pf=%s, spec gives stack=%q apd=%v pf=%s",
				name, rc.RuleStack, rc.APD, rc.Prefetcher, stack.String(), sc.PADC.EnableAPD, sc.Prefetcher)
		}
	}
}

func TestExperimentRegistry(t *testing.T) {
	ids := ExperimentIDs()
	if len(ids) < 25 {
		t.Fatalf("expected at least 25 experiments, got %d", len(ids))
	}
	if _, err := Experiment("not-an-experiment", false); err == nil {
		t.Error("unknown experiment accepted")
	}
	out, err := Experiment("fig2", false)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "demand-first") || !strings.Contains(out, "demand-pref-equal") {
		t.Fatalf("fig2 output malformed:\n%s", out)
	}
	out, err = Experiment("tab1", false)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "34720") {
		t.Fatalf("tab1 should report the paper's 34,720 bits:\n%s", out)
	}
}
