package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"github.com/unify-repro/escape/internal/nffg"
)

// stack is a running deployment of the orchestration stack under test.
type stack interface {
	target
	// cpu is the stack's user+system CPU time so far.
	cpu() (time.Duration, error)
	// rssMB is the peak RSS of the top orchestrator.
	rssMB() (float64, error)
	// counters reads every process's /metrics, keyed by tier.
	counters(ctx context.Context) (counters, error)
	// wireBytes counts bytes moved on the load connections and proxies.
	wireBytes() float64
	close()
}

// workload is one set of inputs the benchmark runs.
type workload struct {
	name  string
	spec  loadSpec
	setup func(ctx context.Context, env *env, spans *spanLog) (stack, error)
	// ros are the tiers that run a resource orchestrator.
	ros []string
	// layers adds the workload's span-derived per-layer metrics.
	layers func(m map[string]float64, ps *pass)
}

// env is where a run may put files: the escaped binary and a private work
// directory inside the checkout.
type env struct {
	escaped string
	work    string
	n       int
}

// dir makes a fresh directory for one stack.
func (e *env) dir(name string) (string, error) {
	e.n++
	d := filepath.Join(e.work, fmt.Sprintf("%s-%d-%d", name, os.Getpid(), e.n))
	return d, os.MkdirAll(d, 0o755)
}

// pass is one measured run of a workload.
type pass struct {
	p      *plan
	res    *runResult
	e2e    map[string]float64
	before counters
	after  counters
	spans  []span
	wire   float64
}

// delta is the counter change over the run.
func (ps *pass) delta() counters { return ps.after.delta(ps.before) }

// opsAll counts the installs and removes completed over the whole run.
func (ps *pass) opsAll() float64 {
	n := 0
	for _, s := range ps.p.svcs {
		if s.acked {
			n++
			if s.removeErr == nil {
				n++
			}
		}
	}
	return float64(n)
}

var errViolation = errors.New("correctness check failed")

// measure sets the workload up (setups times, keeping the last stack),
// drives one load run, checks the outputs and computes the end-to-end
// metrics.
func measure(ctx context.Context, w *workload, e *env, seed int64, seconds time.Duration, traced bool, setups int) (*pass, error) {
	p, err := newPlan(w.spec, seed, seconds)
	if err != nil {
		return nil, err
	}
	var spans *spanLog
	if traced {
		spans = &spanLog{}
	}
	var (
		st     stack
		setupS []float64
		v0     *nffg.NFFG
	)
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		st, err = w.setup(ctx, e, spans)
		if err != nil {
			return nil, fmt.Errorf("set up %s: %w", w.name, err)
		}
		pr, err := st.poll(ctx, 0, "")
		if err != nil {
			st.close()
			return nil, fmt.Errorf("first view: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		v0 = pr.view
		if i < setups-1 {
			st.close()
		}
	}
	defer st.close()
	if ids, err := st.services(ctx, 0); err != nil || len(ids) != 0 {
		return nil, fmt.Errorf("fresh stack not empty: %v %v", ids, err)
	}
	before, err := st.counters(ctx)
	if err != nil {
		return nil, err
	}
	res := &runResult{}
	rn := &runner{p: p, t: st, res: res}
	if err := rn.run(ctx, st.cpu); err != nil {
		return nil, err
	}
	after, err := st.counters(ctx)
	if err != nil {
		return nil, err
	}
	checkEnd(ctx, st, v0, rn)
	if len(res.errs) > 0 {
		for _, msg := range res.errs {
			fmt.Fprintln(os.Stderr, "perfbench: "+msg)
		}
		return nil, errViolation
	}
	if l := lateness(res); l > 1000 {
		return nil, fmt.Errorf("generator fell behind (p99 lateness %.0fms): run invalid", l)
	}
	rss, err := st.rssMB()
	if err != nil {
		return nil, err
	}
	sm := runSamples(p, res)
	if err := writeJSON(filepath.Join(e.work, fmt.Sprintf("samples-%s-%d.json", w.name, seed)), sm); err != nil {
		return nil, err
	}
	m := e2eMetrics(sm)
	m["setup_s"] = quantile(setupS, 0.5)
	m["cpu_ms_per_op"] = ratio(ms(res.cpu), float64(res.ops))
	m["rss_mb"] = rss
	return &pass{p: p, res: res, e2e: m, before: before, after: after, spans: spans.all(), wire: st.wireBytes()}, nil
}

func writeJSON(path string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// checkEnd asserts the stack returned to where it started: no services, the
// same free capacity, and a view whose strong ETag names its bytes.
func checkEnd(ctx context.Context, st stack, v0 *nffg.NFFG, rn *runner) {
	ids, err := st.services(ctx, 1)
	if err != nil {
		rn.violation("final service list: %v", err)
		return
	}
	if len(ids) != 0 {
		rn.violation("%d services left after every remove was acknowledged (e.g. %s)", len(ids), ids[0])
	}
	a, err := st.poll(ctx, 1, "")
	if err != nil {
		rn.violation("final view: %v", err)
		return
	}
	c0, c1 := capacity(v0), capacity(a.view)
	for i := range c0 {
		if math.Abs(c0[i]-c1[i]) > 1e-6*math.Max(1, math.Abs(c0[i])) {
			rn.violation("free capacity changed over the run: %v at the start, %v at the end", c0, c1)
			break
		}
	}
	b, err := st.poll(ctx, 1, "")
	if err != nil {
		rn.violation("final view: %v", err)
		return
	}
	if a.etag == b.etag && a.body != nil && !bytes.Equal(a.body, b.body) {
		rn.violation("two reads with ETag %s returned different bodies", a.etag)
	}
	c, err := st.poll(ctx, 1, b.etag)
	if err != nil {
		rn.violation("conditional view: %v", err)
		return
	}
	if c.modified && c.etag == b.etag {
		rn.violation("If-None-Match with the current ETag %s was answered with a full body", b.etag)
	}
}

// perLayer computes the traced pass's per-layer metrics, with the tracing
// overhead against the untraced pass.
func perLayer(w *workload, base, tr *pass) (map[string]float64, error) {
	d := tr.delta()
	ops := tr.opsAll()
	m := counterLayers(d, tr.after, w.ros, ops)
	if err := codecLayers(m, tr.p, tr.res); err != nil {
		return nil, err
	}
	w.layers(m, tr)
	// These vary too much between runs of the same code to carry a bound
	// (see README.md); they are reported here, from the untraced pass.
	for _, name := range []string{"deploy_p99_ms", "deploy_mouse_p99_ms", "remove_p50_ms", "remove_p99_ms", "view_p99_ms"} {
		m["ungated."+name] = base.e2e[name]
	}
	m["gen.late_p99_ms"] = lateness(tr.res)
	m["run.fail_share"] = ratio(float64(tr.res.failed), float64(tr.res.attempted))
	m["obs.overhead_deploy_pct"] = 100 * (ratio(tr.e2e["deploy_p50_ms"], base.e2e["deploy_p50_ms"]) - 1)
	m["obs.overhead_cpu_pct"] = 100 * (ratio(tr.e2e["cpu_ms_per_op"], base.e2e["cpu_ms_per_op"]) - 1)

	// The wrappers must not change what the program does: the traced pass
	// maps and batches like the untraced one.
	bd := base.delta()
	passes := func(c counters) float64 {
		return ratio(c["top:unify_pipeline_map_attempts"], c["top:unify_pipeline_installs"])
	}
	batches := func(c counters) float64 {
		return ratio(c["top:unify_admission_batches"], c["top:unify_admission_submitted"])
	}
	m["trace.map_pass_drift"] = passes(d) - passes(bd)
	m["trace.batch_drift"] = batches(d) - batches(bd)
	if math.Abs(m["trace.map_pass_drift"]) > 0.25 || math.Abs(m["trace.batch_drift"]) > 0.25 {
		return nil, fmt.Errorf("traced pass diverged from the untraced one: map passes/install %.3f vs %.3f, batches/submit %.3f vs %.3f",
			passes(d), passes(bd), batches(d), batches(bd))
	}
	return m, nil
}

// selfTimes derives core self time and fan-out at one level: each request's
// inclusive time minus its slowest child call.
func selfTimes(incl map[[2]string]float64, child map[[2]string]span) (self, fan []float64, inclSum, childSum float64) {
	for k, in := range incl {
		c := 0.0
		if s, ok := child[k]; ok {
			c = ms(s.dur())
		}
		self = append(self, in-c)
		fan = append(fan, c)
		inclSum += in
		childSum += c
	}
	return self, fan, inclSum, childSum
}

// topInclusive is each acknowledged service's submit→deployed time at the
// top, keyed like the child spans (by key(s)).
func topInclusive(p *plan, key func(*svc) string) map[[2]string]float64 {
	out := map[[2]string]float64{}
	for _, s := range p.svcs {
		if s.acked {
			out[[2]string{key(s), ""}] = ms(s.job.Finished.Sub(s.job.Submitted))
		}
	}
	return out
}
