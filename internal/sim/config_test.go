package sim

import (
	"strings"
	"testing"

	"padc/internal/memctrl"
)

func TestApplyPolicyKnownValues(t *testing.T) {
	for _, tc := range []struct {
		name   string
		policy memctrl.Policy
		apd    bool
		pf     PrefetcherKind
	}{
		{"no-pref", memctrl.DemandFirst, false, PFNone},
		{"demand-first", memctrl.DemandFirst, false, PFStream},
		{"equal", memctrl.DemandPrefEqual, false, PFStream},
		{"prefetch-first", memctrl.PrefetchFirst, false, PFStream},
		{"aps", memctrl.APS, false, PFStream},
		{"padc", memctrl.APS, true, PFStream},
		{"padc-rank", memctrl.APSRank, true, PFStream},
	} {
		// Start from the opposite APD setting and a stale rule stack, so
		// the name has to set both.
		c := Baseline(1)
		c.PADC.EnableAPD = !tc.apd
		c.Rules = "rules:fcfs"
		if err := ApplyPolicy(&c, tc.name); err != nil {
			t.Errorf("policy %q rejected: %v", tc.name, err)
			continue
		}
		if c.Policy != tc.policy || c.Rules != "" || c.PADC.EnableAPD != tc.apd || c.Prefetcher != tc.pf {
			t.Errorf("%s: policy=%v rules=%q apd=%v pf=%v, want %v \"\" %v %v",
				tc.name, c.Policy, c.Rules, c.PADC.EnableAPD, c.Prefetcher, tc.policy, tc.apd, tc.pf)
		}
	}
	if got := len(PolicyNames()); got != 7 {
		t.Errorf("PolicyNames has %d names, want the 7 above", got)
	}

	// The padc spelling must enable dropping; the rigid ones must not.
	c := Baseline(1)
	c.PADC.EnableAPD = false
	ApplyPolicy(&c, "padc")
	if !c.PADC.EnableAPD {
		t.Error("padc policy should enable APD")
	}
	ApplyPolicy(&c, "demand-first")
	if c.PADC.EnableAPD {
		t.Error("demand-first policy should disable APD")
	}

	// A rule stack schedules with exactly that order, APD off.
	c = Baseline(1)
	if err := ApplyPolicy(&c, "rules:critical,rowhit,fcfs"); err != nil {
		t.Fatal(err)
	}
	stack, err := memctrl.ResolveStack(c.Policy, c.Rules)
	if err != nil || stack.String() != "rules:critical,rowhit,fcfs" || c.PADC.EnableAPD {
		t.Errorf("rule stack resolved to %q (apd=%v), %v", stack.String(), c.PADC.EnableAPD, err)
	}
}

func TestApplyPolicyRejectsUnknown(t *testing.T) {
	for _, bad := range []string{"frfcfs-typo", "", "PADC", "rules:bogus"} {
		c := Baseline(1)
		err := ApplyPolicy(&c, bad)
		if err == nil {
			t.Errorf("policy %q accepted", bad)
			continue
		}
		if bad == "rules:bogus" {
			if !strings.Contains(err.Error(), "bogus") {
				t.Errorf("error should name the bad rule: %v", err)
			}
			continue
		}
		if !strings.Contains(err.Error(), `"`+bad+`"`) {
			t.Errorf("error should name the bad value %q: %v", bad, err)
		}
		for _, valid := range PolicyNames() {
			if !strings.Contains(err.Error(), valid) {
				t.Errorf("error should list valid name %q: %v", valid, err)
			}
		}
	}
}

func TestParsePrefetcherKnownValues(t *testing.T) {
	names := PrefetcherNames()
	if len(names) != 6 {
		t.Fatalf("PrefetcherNames = %v, want six engines", names)
	}
	for _, s := range names {
		k, err := ParsePrefetcher(s)
		if err != nil || k.String() != s {
			t.Errorf("ParsePrefetcher(%q) = %v, %v", s, k, err)
		}
	}
	for _, k := range []FilterKind{FilterNone, FilterDDPF, FilterFDP} {
		if got, err := ParseFilter(k.String()); err != nil || got != k {
			t.Errorf("ParseFilter(%q) = %v, %v", k.String(), got, err)
		}
	}
	// "" is none, as "" is events for ParseKernel.
	if k, err := ParsePrefetcher(""); err != nil || k != PFNone {
		t.Errorf(`ParsePrefetcher("") = %v, %v`, k, err)
	}
	if k, err := ParseFilter(""); err != nil || k != FilterNone {
		t.Errorf(`ParseFilter("") = %v, %v`, k, err)
	}
}

func TestParsePrefetcherRejectsUnknown(t *testing.T) {
	_, err := ParsePrefetcher("ghb")
	if err == nil {
		t.Fatal("unknown prefetcher accepted")
	}
	if !strings.Contains(err.Error(), "ghb") {
		t.Fatalf("error should name the bad value: %v", err)
	}
	for _, valid := range PrefetcherNames() {
		if !strings.Contains(err.Error(), valid) {
			t.Fatalf("error should list valid name %q: %v", valid, err)
		}
	}
	if _, err := ParseFilter("bloom"); err == nil || !strings.Contains(err.Error(), "bloom") ||
		!strings.Contains(err.Error(), "ddpf") {
		t.Errorf("ParseFilter(bloom) error = %v", err)
	}
}
