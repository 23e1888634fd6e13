package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"padc/internal/cache"
	"padc/internal/core"
	"padc/internal/cpu"
	"padc/internal/dram"
	"padc/internal/memctrl"
	"padc/internal/prefetch"
	"padc/internal/runner"
	"padc/internal/sim"
	"padc/internal/sweepd"
	"padc/internal/topology"
	"padc/internal/trace"
)

// Layer-probe shape: each probe times batches of calls into one
// layer's public hot functions until probeBudget has passed, and
// reports the median batch's ns per call.
const (
	probeBudget = 150 * time.Millisecond
	streamOps   = 1 << 16 // memory operations drawn per core for the address stream
	hitLatency  = 15      // cpu probe's fixed L2-hit answer, cycles
	missLatency = 200     // cpu probe's fixed DRAM answer, cycles
)

// layerInput is the source of the probes' address stream: the
// generators and machine of the workload's first multi-core job.
type layerInput struct {
	gens []trace.Gen
	cfg  sim.Config
}

func layerInputOf(jobs []simJob) layerInput {
	j := jobs[0]
	for _, x := range jobs {
		if len(x.cfg.Workload) > 1 {
			j = x
			break
		}
	}
	in := layerInput{cfg: j.cfg}
	for _, p := range j.cfg.Workload {
		in.gens = append(in.gens, p.Gen)
	}
	return in
}

// addrStream is the workload's memory traffic, staged through each
// layer in turn: trace.Gen → cache → prefetch → topology → dram address.
type addrStream struct {
	lines    []uint64               // every memory op, cores interleaved, core id in the high bits
	events   []prefetch.AccessEvent // L2 accesses as the prefetcher sees them
	misses   []uint64               // demand misses
	coreMiss map[uint64]bool        // core 0's missing lines, for the cpu probe
	reqs     []memctrl.Request      // misses then prefetch candidates, mapped to one channel
}

func buildStream(in layerInput) *addrStream {
	s := &addrStream{coreMiss: map[uint64]bool{}}
	idx := make([]uint64, len(in.gens))
	for n := 0; n < streamOps*len(in.gens); n++ {
		c := n % len(in.gens)
		for {
			inst := in.gens[c].At(idx[c])
			idx[c]++
			if inst.Mem {
				s.lines = append(s.lines, inst.Line|uint64(c)<<40)
				s.events = append(s.events, prefetch.AccessEvent{LineAddr: inst.Line | uint64(c)<<40, PC: inst.PC})
				break
			}
		}
	}
	l2 := cache.New(in.cfg.L2)
	pfs := make([]*prefetch.Stream, len(in.gens))
	for i := range pfs {
		pfs[i] = prefetch.NewStream(prefetch.DefaultStreamConfig())
	}
	var pref []uint64
	for i, line := range s.lines {
		miss := !l2.Access(line).Hit
		s.events[i].Miss, s.events[i].Cycle = miss, uint64(i)
		if miss {
			l2.Fill(line, false, false)
			s.misses = append(s.misses, line)
			if line>>40 == 0 {
				s.coreMiss[line] = true
			}
		}
		pref = append(pref, pfs[line>>40].Observe(s.events[i], 4)...)
	}
	one := in.cfg.DRAM
	one.Channels = 1
	for i, line := range append(append([]uint64(nil), s.misses...), pref...) {
		a := one.Map(line)
		isPref := i >= len(s.misses)
		s.reqs = append(s.reqs, memctrl.Request{Core: int(line>>40) % max(1, in.cfg.Cores), Line: line, Addr: a, Prefetch: isPref, WasPref: isPref})
	}
	return s
}

// layerProbes holds the probes' results.
type layerProbes struct {
	ns    map[string]float64
	calls map[string]int
}

func (d *layerProbes) set(rep *report) {
	for name, v := range d.ns {
		unit := "ns"
		if name == "sweepd.submit_ms" || name == "sweepd.artifact_ms" {
			unit = "ms"
		}
		rep.set(name, v, unit)
	}
}

// timeBatches repeats batch (which returns its call count) until the
// budget has passed, and returns the median ns per call and the calls.
func timeBatches(tiny bool, batch func() int) (float64, int) {
	var per []float64
	calls := 0
	start := time.Now()
	for len(per) < 3 || time.Since(start) < probeBudget {
		t0 := time.Now()
		n := batch()
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(max(1, n)))
		calls += n
		if tiny {
			break
		}
	}
	return median(per), calls
}

var sink uint64 // keeps probe results live

func runLayerProbes(in layerInput, o options) *layerProbes {
	s := buildStream(in)
	cfg := in.cfg
	d := &layerProbes{ns: map[string]float64{}, calls: map[string]int{}}
	record := func(name string, v float64, n int) { d.ns[name], d.calls[name] = v, n }
	timed := func(name string, batch func() int) {
		v, n := timeBatches(o.tiny, batch)
		record(name, v, n)
	}
	timed("trace.gen_ns", func() int {
		n := 0
		for i := uint64(0); i < streamOps; i++ {
			for _, g := range in.gens {
				sink += g.At(i).Line
				n++
			}
		}
		return n
	})
	timed("cache.access_ns", func() int {
		c := cache.New(cfg.L2)
		for _, line := range s.lines {
			if !c.Access(line).Hit {
				c.Fill(line, false, false)
			}
		}
		return len(s.lines)
	})
	timed("cache.mshr_ns", func() int {
		m := cache.NewMSHR(cfg.MSHR)
		held := make([]uint64, 0, len(s.misses))
		for _, line := range s.misses {
			if m.Lookup(line) == nil {
				if m.Full() {
					m.Release(held[0])
					held = held[1:]
				}
				m.Allocate(line, false)
				held = append(held, line)
			}
		}
		return len(s.misses)
	})
	timed("prefetch.observe_ns", func() int {
		pfs := make([]*prefetch.Stream, len(in.gens))
		for i := range pfs {
			pfs[i] = prefetch.NewStream(prefetch.DefaultStreamConfig())
		}
		for _, ev := range s.events {
			sink += uint64(len(pfs[ev.LineAddr>>40].Observe(ev, 4)))
		}
		return len(s.events)
	})
	topo := topology.Flat(cfg.DRAM.Channels)
	if cfg.Topology != nil {
		topo = *cfg.Topology
	}
	steer, err := topo.Steering(cfg.DRAM.LinesPerRow())
	if err == nil {
		timed("topology.steer_ns", func() int {
			for _, r := range s.reqs {
				dom, local := steer.Steer(r.Line)
				sink += uint64(dom) + local
			}
			return len(s.reqs)
		})
	}
	one := cfg.DRAM
	one.Channels = 1
	timed("dram.issue_ns", func() int {
		ch := dram.NewChannel(one)
		var now uint64
		for _, r := range s.reqs {
			if b := ch.Banks[r.Addr.Bank].BusyUntil; b > now {
				now = b
			}
			fin, _ := ch.Issue(r.Addr.Bank, r.Addr.Row, now, true)
			sink += fin
			now++
		}
		return len(s.reqs)
	})
	stack, err := memctrl.ResolveStack(cfg.Policy, cfg.Rules)
	if err == nil {
		var enqNs, tickNs float64
		var enqN, tickN int
		timeBatches(o.tiny, func() int {
			ctrl := memctrl.NewStack(stack, dram.NewChannel(one), cfg.BufferSlots, core.New(cfg.Cores, cfg.PADC))
			every := one.EffectiveTickEvery()
			var now uint64
			var enq, tick time.Duration
			i := 0
			for i < len(s.reqs) || ctrl.Occupancy() > 0 {
				t0 := time.Now()
				n := 0
				for i < len(s.reqs) && !ctrl.Full() {
					r := s.reqs[i]
					r.Arrival = now
					ctrl.Enqueue(&r)
					i++
					n++
				}
				t1 := time.Now()
				now += every
				sink += uint64(len(ctrl.Tick(now, cfg.Cores)))
				tick += time.Since(t1)
				enq += t1.Sub(t0)
				enqN += n
				tickN++
			}
			enqNs += float64(enq.Nanoseconds())
			tickNs += float64(tick.Nanoseconds())
			return len(s.reqs)
		})
		record("memctrl.enqueue_ns", ratio(enqNs, float64(enqN)), enqN)
		record("memctrl.tick_ns", ratio(tickNs, float64(tickN)), tickN)
	}
	cpuProbe(d, in, s, o)
	sweepdProbe(d, in, o)
	return d
}

// fixedMemory answers every load at once: a fixed DRAM latency for the
// lines that missed the L2 in the cache stage, the L2 hit latency else.
type fixedMemory struct{ miss map[uint64]bool }

func (m fixedMemory) Load(_ int, _, line, _ uint64, _ bool, now uint64, _ bool) cpu.LoadResult {
	if m.miss[line] {
		return cpu.LoadResult{ReadyAt: now + missLatency}
	}
	return cpu.LoadResult{ReadyAt: now + hitLatency}
}

// cpuProbe times Core.Tick over consecutive cycles, and Core.NextEvent
// as the extra cost of querying it after every tick.
func cpuProbe(d *layerProbes, in layerInput, s *addrStream, o options) {
	const cycles = 20_000
	mem := fixedMemory{miss: s.coreMiss}
	loop := func(queries int) func() int {
		return func() int {
			c := cpu.New(0, in.cfg.Core, in.gens[0], mem)
			for now := uint64(1); now <= cycles; now++ {
				c.Tick(now)
				for q := 0; q < queries; q++ {
					sink += c.NextEvent(now)
				}
			}
			return cycles
		}
	}
	tick, n := timeBatches(o.tiny, loop(0))
	d.ns["cpu.tick_ns"], d.calls["cpu.tick_ns"] = tick, n
	const queries = 4
	both, n2 := timeBatches(o.tiny, loop(queries))
	d.ns["cpu.nextevent_ns"], d.calls["cpu.nextevent_ns"] = max(0, (both-tick)/queries), n2*queries
}

// sweepdProbe submits a small campaign of the workload's first mix
// through the service's HTTP handler (in process, no listener) and
// times the submit and the CSV artifact requests.
func sweepdProbe(d *layerProbes, in layerInput, o options) {
	var names []string
	for _, p := range in.cfg.Workload {
		names = append(names, p.Name)
	}
	spec := runner.Spec{Name: "layer", Cores: in.cfg.Cores, Insts: 2_000, Policies: []string{"padc"}, Workloads: [][]string{names}}
	body, err := json.Marshal(sweepd.SubmitRequest{Spec: sweepd.MarshalSpec(spec), Workers: 1})
	if err != nil {
		return
	}
	dir, err := os.MkdirTemp("", "perfbench-layer-")
	if err != nil {
		return
	}
	defer os.RemoveAll(dir)
	svc, err := sweepd.NewService(sweepd.ServiceOptions{DataDir: dir, Workers: 1})
	if err != nil {
		return
	}
	defer svc.Close()
	h := svc.Handler()
	serve := func(method, path string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
		return rec
	}
	var sub, art []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		rec := serve(http.MethodPost, "/api/v1/campaigns", body)
		sub = append(sub, time.Since(t0).Seconds()*1e3)
		var info sweepd.CampaignInfo
		if rec.Code/100 != 2 || json.Unmarshal(rec.Body.Bytes(), &info) != nil {
			return
		}
		cam, ok := svc.Campaign(info.ID)
		if !ok || cam.Wait(context.Background()) != nil {
			return
		}
		t1 := time.Now()
		if serve(http.MethodGet, "/api/v1/campaigns/"+info.ID+"/artifact.csv", nil).Code != http.StatusOK {
			return
		}
		art = append(art, time.Since(t1).Seconds()*1e3)
	}
	d.ns["sweepd.submit_ms"], d.calls["sweepd.submit_ms"] = median(sub), len(sub)
	d.ns["sweepd.artifact_ms"], d.calls["sweepd.artifact_ms"] = median(art), len(art)
}
