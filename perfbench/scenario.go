package main

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"syscall"
	"time"

	"github.com/unify-repro/escape/internal/admission"
	"github.com/unify-repro/escape/internal/api"
	"github.com/unify-repro/escape/internal/core"
	"github.com/unify-repro/escape/internal/domain"
	"github.com/unify-repro/escape/internal/nffg"
	"github.com/unify-repro/escape/internal/obs"
	"github.com/unify-repro/escape/internal/unify"
)

// scenario-100: in process, one resource orchestrator with a shard per
// domain over 100 leaf orchestrators of 10 SAPs each, behind the weighted
// admission queue, with a modeled southbound. Elephants (4-NF chains)
// arrive in bursts, mice (1-NF) evenly; each chain stays inside one domain.
const (
	scenarioDomains = 100
	scenarioSAPs    = 10
	// The modeled southbound: one barrier round trip per delta plus a small
	// per-operation term.
	scenarioBarrier = 200 * time.Microsecond
	scenarioPerOp   = 2 * time.Microsecond
)

var scenario100 = &workload{
	name: "scenario-100",
	spec: loadSpec{
		rate:      40,
		burst:     8,
		hold:      500 * time.Millisecond,
		pollEvery: 100 * time.Millisecond,
		groups:    scenarioGroups(),
		build:     chainBuilder([]string{"firewall"}, 5, []string{"firewall", "dpi", "nat", "compress"}, 40),
	},
	setup: setupScenario,
	ros:   []string{"top"},
	layers: func(m map[string]float64, ps *pass) {
		child := slowestChild(ps.spans, "leaf.install", func(string) string { return "" })
		self, fan, incl, childSum := selfTimes(topInclusive(ps.p, func(s *svc) string { return s.id }), child)
		m["core.top.self_ms"] = mean(self)
		m["core.fanout_ms"] = mean(fan)
		m["trace.unexplained_share.top"] = unexplained(ps.delta(), "top", incl, childSum)
	},
}

func scenarioGroups() [][]nffg.ID {
	out := make([][]nffg.ID, scenarioDomains)
	for d := range out {
		for s := 0; s < scenarioSAPs; s++ {
			out[d] = append(out[d], nffg.ID(fmt.Sprintf("d%03ds%d", d, s)))
		}
	}
	return out
}

// scenarioSubstrate is domain d: one BiS-BiS with its SAPs.
func scenarioSubstrate(d int) *nffg.NFFG {
	bb := nffg.ID(fmt.Sprintf("bb%03d", d))
	b := nffg.NewBuilder(fmt.Sprintf("dom%03d-sub", d)).
		BiSBiS(bb, fmt.Sprintf("dom%03d", d), scenarioSAPs+2,
			nffg.Resources{CPU: 64, Mem: 65536, Storage: 256},
			"firewall", "dpi", "nat", "compress")
	for s := 0; s < scenarioSAPs; s++ {
		sap := nffg.ID(fmt.Sprintf("d%03ds%d", d, s))
		b.SAP(sap).Link(fmt.Sprintf("u%03d-%d", d, s), sap, "1", bb, fmt.Sprint(s+1), 1000, 0.5)
	}
	return b.MustBuild()
}

// inprocStack is the scenario stack, driven through the admission queue's
// and the orchestrator's exported methods.
type inprocStack struct {
	ro  *core.ResourceOrchestrator
	q   *admission.Queue
	srv *api.Server // renders the same /metrics text an escaped process serves
}

func setupScenario(ctx context.Context, _ *env, spans *spanLog) (stack, error) {
	ro := core.NewResourceOrchestrator(core.Config{ID: "scenario-ro", Virtualizer: core.Transparent{}})
	for d := 0; d < scenarioDomains; d++ {
		var lo *core.LocalOrchestrator
		var prog core.Programmer = core.ProgrammerFunc(func(ctx context.Context, delta *nffg.Delta, _ *nffg.NFFG) error {
			if err := ctx.Err(); err != nil {
				return err
			}
			addNF, delNF, addR, delR := delta.Counts()
			cost := scenarioBarrier + time.Duration(addNF+delNF+addR+delR)*scenarioPerOp
			time.Sleep(cost)
			sb := lo.Southbound()
			sb.AddFlowMods(uint64(addR + delR))
			sb.AddBarriers(1)
			sb.ObserveWindow(uint64(addR + delR))
			sb.AddContainerOps(uint64(addNF + delNF))
			sb.ObserveDelta(cost)
			return nil
		})
		name := fmt.Sprintf("dom%03d", d)
		if spans != nil {
			prog = tracedProgrammer{inner: prog, domain: name, spans: spans}
		}
		var err error
		lo, err = core.NewLocalOrchestrator(core.LocalConfig{
			ID:           name,
			Substrate:    scenarioSubstrate(d),
			Programmer:   prog,
			Capabilities: []domain.Capability{domain.CapCompute, domain.CapForwarding},
		})
		if err != nil {
			return nil, err
		}
		var leaf domain.Domain = lo
		if spans != nil {
			leaf = &tracedLeaf{LocalOrchestrator: lo, spans: spans}
		}
		if err := ro.Attach(ctx, leaf); err != nil {
			return nil, err
		}
	}
	var layer unify.Layer = ro
	if spans != nil {
		layer = &tracedRO{ResourceOrchestrator: ro, spans: spans}
	}
	weights := map[string]int{}
	for i := 0; i < 4; i++ {
		weights[fmt.Sprintf("mouse-%d", i)] = 4
		weights[fmt.Sprintf("elephant-%d", i)] = 1
	}
	q := admission.New(layer, admission.Options{TenantWeights: weights})
	return &inprocStack{ro: ro, q: q, srv: api.NewServer(ro, nil).WithAdmission(q)}, nil
}

func (s *inprocStack) submit(ctx context.Context, _ int, sv *svc) (string, error) {
	j, err := s.q.Submit(unify.WithMeta(ctx, unify.RequestMeta{Tenant: sv.tenant}), sv.req)
	return j.ID, err
}

func (s *inprocStack) job(ctx context.Context, _ int, id string, wait bool) (admission.Job, error) {
	if !wait {
		return s.q.Job(id)
	}
	ctx, cancel := context.WithTimeout(ctx, 20*time.Second)
	defer cancel()
	return s.q.Wait(ctx, id)
}

func (s *inprocStack) remove(ctx context.Context, _ int, id string) error { return s.q.Remove(ctx, id) }

func (s *inprocStack) services(context.Context, int) ([]string, error) { return s.q.Services(), nil }

func (s *inprocStack) poll(ctx context.Context, _ int, etag string) (pollResult, error) {
	t0 := time.Now()
	v, ver, err := s.ro.VersionedView(ctx)
	if err != nil {
		return pollResult{}, err
	}
	pr := pollResult{etag: ver.ETag, fetch: time.Since(t0)}
	if ver.ETag != etag {
		pr.modified, pr.view = true, v
	}
	return pr, nil
}

func (s *inprocStack) cpu() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

func (s *inprocStack) rssMB() (float64, error) { return peakRSSMB("self") }

func (s *inprocStack) counters(context.Context) (counters, error) {
	var buf bytes.Buffer
	obs.WriteMetrics(&buf, s.srv.MetricCollectors()...)
	c := counters{}
	return c, parseMetrics(&buf, "top", c)
}

func (s *inprocStack) wireBytes() float64 { return 0 }

func (s *inprocStack) close() { s.q.Close() }

// tracedRO is the layer handed to the admission queue in a traced run. It
// embeds the orchestrator, so the optional interfaces the queue probes
// (unify.BatchInstaller, unify.Sharder) stay visible.
type tracedRO struct {
	*core.ResourceOrchestrator
	spans *spanLog
}

func (r *tracedRO) InstallBatch(ctx context.Context, reqs []*nffg.NFFG, o unify.BatchObserver) []unify.BatchOutcome {
	start := time.Now()
	out := r.ResourceOrchestrator.InstallBatch(ctx, reqs, o)
	end := time.Now()
	for _, q := range reqs {
		r.spans.add(span{Name: "core.install_batch", Start: start, End: end, Parent: r.ID(), Req: q.ID})
	}
	return out
}

// tracedLeaf times the orchestrator's calls into one leaf. Embedding keeps
// the leaf's optional interfaces (core.SouthboundStatsProvider, versioned
// views) visible to the orchestrator.
type tracedLeaf struct {
	*core.LocalOrchestrator
	spans *spanLog
}

func serviceOf(subID string) string {
	id, _, _ := strings.Cut(subID, "#")
	return id
}

func (l *tracedLeaf) Install(ctx context.Context, req *nffg.NFFG) (*unify.Receipt, error) {
	start := time.Now()
	r, err := l.LocalOrchestrator.Install(ctx, req)
	l.spans.add(span{Name: "leaf.install", Start: start, End: time.Now(), Parent: l.ID(), Req: serviceOf(req.ID)})
	return r, err
}

func (l *tracedLeaf) Remove(ctx context.Context, id string) error {
	start := time.Now()
	err := l.LocalOrchestrator.Remove(ctx, id)
	l.spans.add(span{Name: "leaf.remove", Start: start, End: time.Now(), Parent: l.ID(), Req: serviceOf(id)})
	return err
}

// tracedProgrammer times one leaf's southbound deltas.
type tracedProgrammer struct {
	inner  core.Programmer
	domain string
	spans  *spanLog
}

func (p tracedProgrammer) Commit(ctx context.Context, delta *nffg.Delta, cfg *nffg.NFFG) error {
	start := time.Now()
	err := p.inner.Commit(ctx, delta, cfg)
	p.spans.add(span{Name: "southbound.commit", Start: start, End: time.Now(), Parent: p.domain})
	return err
}
