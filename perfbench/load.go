package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/unify-repro/escape/internal/admission"
	"github.com/unify-repro/escape/internal/nffg"
)

// target is the stack under load as the two load lanes see it: the top
// layer's northbound operations. lane selects the lane's own connection.
type target interface {
	submit(ctx context.Context, lane int, s *svc) (jobID string, err error)
	job(ctx context.Context, lane int, id string, wait bool) (admission.Job, error)
	remove(ctx context.Context, lane int, id string) error
	services(ctx context.Context, lane int) ([]string, error)
	poll(ctx context.Context, lane int, etag string) (pollResult, error)
}

// errBadView marks a full view body that does not decode.
var errBadView = errors.New("view body does not decode")

// pollResult is one view read. A not-modified answer carries no view.
type pollResult struct {
	modified bool
	etag     string
	view     *nffg.NFFG
	body     []byte // the encoded view, when it crossed a wire
	fetch    time.Duration
}

// The load's fixed shape: half the installs come from mice tenants, each
// service's job is read back halfway through its hold, its SAPs are drawn
// again only a guard time after its remove, the write lane checks the
// service list every checkEvery, and the first warm of a run is not measured.
const (
	mouseShare = 0.5
	guard      = 300 * time.Millisecond
	checkEvery = 250 * time.Millisecond
	warm       = 2 * time.Second
)

// loadSpec is what differs between workloads' offered loads.
type loadSpec struct {
	rate      float64       // installs offered per second
	burst     int           // elephants arrive in bursts of this size (0: evenly spaced)
	hold      time.Duration // install due → remove due
	pollEvery time.Duration
	// groups are the SAP slots; a service's two SAPs come from one group.
	groups [][]nffg.ID
	build  func(id string, mouse bool, a, b nffg.ID) *nffg.NFFG
}

// svc is one scheduled service: its inputs, fixed by the seed, and what
// happened to it.
type svc struct {
	id       string
	tenant   string
	mouse    bool
	at       time.Duration // install due, from the start of the run
	prev     [2]*svc       // previous holders of the slots
	req      *nffg.NFFG
	body     []byte
	measured bool

	// What happened, written by the write lane only. released is set once
	// the service's SAPs are free again.
	jobID     string
	submitDur time.Duration
	submitErr error
	acked     bool
	job       admission.Job
	removeDur time.Duration
	removeErr error
	released  bool
}

// plan is a workload's whole input: the services and the fixed-rate reads.
type plan struct {
	spec    loadSpec
	svcs    []*svc
	lastDue time.Duration
}

// newPlan draws a run's inputs from the seed. Each service's SAP pair comes
// from slots that no live service holds, counting a guard after the
// scheduled remove, so two services never compete for one ingress port.
func newPlan(spec loadSpec, seed int64, seconds time.Duration) (*plan, error) {
	r := rand.New(rand.NewSource(seed))
	length := warm + seconds
	type arrival struct {
		at    time.Duration
		mouse bool
	}
	// Arrivals keep a fixed rate on a jittered grid: each lands within ±40%
	// of its slot. The jitter keeps the install stream from locking onto the
	// phase of the fixed-rate view polls, and the grid keeps a seed from
	// clustering arrivals by chance, which would move the tails with the
	// seed rather than with the program.
	arrivals := func(rate float64, add func(time.Duration)) {
		for k := 0; float64(k) < rate*length.Seconds(); k++ {
			t := (float64(k) + 0.1 + 0.8*r.Float64()) / rate
			add(time.Duration(t * float64(time.Second)))
		}
	}
	var arr []arrival
	if spec.burst == 0 {
		arrivals(spec.rate, func(t time.Duration) {
			arr = append(arr, arrival{at: t, mouse: r.Float64() < mouseShare})
		})
	} else {
		arrivals(spec.rate*mouseShare, func(t time.Duration) { arr = append(arr, arrival{at: t, mouse: true}) })
		arrivals(spec.rate*(1-mouseShare)/float64(spec.burst), func(t time.Duration) {
			for k := 0; k < spec.burst; k++ {
				arr = append(arr, arrival{at: t})
			}
		})
		sort.SliceStable(arr, func(i, j int) bool { return arr[i].at < arr[j].at })
	}

	type slot struct {
		freeAt time.Duration
		holder *svc
	}
	slots := make([][]slot, len(spec.groups))
	for g := range spec.groups {
		slots[g] = make([]slot, len(spec.groups[g]))
	}
	p := &plan{spec: spec}
	var free []int
	for i, a := range arr {
		// Pick a group with two free slots, then two of its free slots.
		var cands []int
		for g := range slots {
			n := 0
			for _, s := range slots[g] {
				if s.freeAt <= a.at {
					n++
				}
			}
			if n >= 2 {
				cands = append(cands, g)
			}
		}
		if len(cands) == 0 {
			return nil, fmt.Errorf("plan: no free SAP pair at %v; the workload's slot pool is too small for its rate", a.at)
		}
		g := cands[r.Intn(len(cands))]
		free = free[:0]
		for k, s := range slots[g] {
			if s.freeAt <= a.at {
				free = append(free, k)
			}
		}
		r.Shuffle(len(free), func(x, y int) { free[x], free[y] = free[y], free[x] })
		class := "elephant"
		if a.mouse {
			class = "mouse"
		}
		s := &svc{
			id:       fmt.Sprintf("svc%05d", i),
			tenant:   fmt.Sprintf("%s-%d", class, r.Intn(4)),
			mouse:    a.mouse,
			at:       a.at,
			measured: a.at >= warm,
		}
		for k := 0; k < 2; k++ {
			sl := &slots[g][free[k]]
			s.prev[k] = sl.holder
			sl.holder, sl.freeAt = s, a.at+spec.hold+guard
		}
		s.req = spec.build(s.id, a.mouse, spec.groups[g][free[0]], spec.groups[g][free[1]])
		var buf bytes.Buffer
		if err := s.req.EncodeJSON(&buf); err != nil {
			return nil, fmt.Errorf("plan: encode %s: %w", s.id, err)
		}
		s.body = buf.Bytes()
		p.svcs = append(p.svcs, s)
		if d := a.at + spec.hold; d > p.lastDue {
			p.lastDue = d
		}
	}
	return p, nil
}

// --- lanes -------------------------------------------------------------------

// The write lane installs, reads jobs back, removes and checks the service
// list; the read lane polls the view. Each lane is one goroutine with one
// connection, so a slow write never delays a read or the other way round.
const (
	writeLane = 0
	readLane  = 1
)

type taskKind int

const (
	taskInstall taskKind = iota
	taskAck
	taskRemove
	taskPoll
	taskCheck
)

type task struct {
	due  time.Duration
	kind taskKind
	s    *svc
}

// pollRecord is one view read as the poll lane saw it.
type pollRecord struct {
	due       time.Duration
	latency   time.Duration
	modified  bool
	bytes     int
	fetch     time.Duration
	measured  bool
	completed time.Time
}

// runResult is what a load run observed, before it is turned into metrics.
type runResult struct {
	start     time.Time
	polls     []pollRecord
	firstSeen map[string]time.Time // service → completion of the first poll showing it
	late      [2][]float64         // per lane, ms behind schedule
	attempted int
	failed    int
	failures  map[string]int // reason → count
	errs      []string       // correctness violations
	lastBody  []byte         // the last full view body read
	cpu       time.Duration  // stack CPU over the measured window
	ops       int            // operations completed in the measured window
}

// runner executes a plan against a target with two lanes, each its own
// goroutine and connection. Every operation is timed from when it was due.
type runner struct {
	p   *plan
	t   target
	res *runResult
	mu  sync.Mutex // guards res counters, shared by both lanes
}

func (rn *runner) fail(reason string) {
	rn.mu.Lock()
	rn.res.failed++
	rn.res.failures[reason]++
	rn.mu.Unlock()
}

func (rn *runner) attempt() {
	rn.mu.Lock()
	rn.res.attempted++
	rn.mu.Unlock()
}

func (rn *runner) violation(format string, args ...any) {
	rn.mu.Lock()
	if len(rn.res.errs) < 20 {
		rn.res.errs = append(rn.res.errs, fmt.Sprintf(format, args...))
	}
	rn.mu.Unlock()
}

// failReason folds an error into a short, stable reason for the tally.
func failReason(op string, err error) string {
	msg := err.Error()
	for _, k := range []string{"gave up after", "flowrule conflict", "layer busy", "request rejected", "queue full", "domain unavailable", "connection refused", "EOF", "timeout"} {
		if strings.Contains(msg, k) {
			return op + ": " + k
		}
	}
	if len(msg) > 60 {
		msg = msg[:60]
	}
	return op + ": " + msg
}

// run drives the plan to completion. cpu reads the stack's CPU time; it is
// sampled at the end of the warm-up and after the last task.
func (rn *runner) run(ctx context.Context, cpu func() (time.Duration, error)) error {
	sp := rn.p.spec
	var tasks [2][]task
	push := func(lane int, t task) { tasks[lane] = append(tasks[lane], t) }
	for _, s := range rn.p.svcs {
		push(writeLane, task{due: s.at, kind: taskInstall, s: s})
		push(writeLane, task{due: s.at + sp.hold/2, kind: taskAck, s: s})
		push(writeLane, task{due: s.at + sp.hold, kind: taskRemove, s: s})
	}
	for t := time.Duration(0); t < rn.p.lastDue; t += sp.pollEvery {
		push(readLane, task{due: t, kind: taskPoll})
	}
	for t := checkEvery; t < rn.p.lastDue; t += checkEvery {
		push(writeLane, task{due: t, kind: taskCheck})
	}
	for l := range tasks {
		sort.SliceStable(tasks[l], func(i, j int) bool { return tasks[l][i].due < tasks[l][j].due })
	}

	res := rn.res
	res.failures = map[string]int{}
	start := time.Now().Add(20 * time.Millisecond)
	res.start = start

	var cpu0 time.Duration
	var cpuErr error
	cpuDone := make(chan struct{})
	go func() {
		defer close(cpuDone)
		select {
		case <-time.After(time.Until(start.Add(warm))):
		case <-ctx.Done():
			return
		}
		cpu0, cpuErr = cpu()
	}()

	var wg sync.WaitGroup
	lanes := [2]*laneState{{rn: rn, id: 0}, {rn: rn, id: 1}}
	for l := 0; l < 2; l++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ls := lanes[l]
			for _, t := range tasks[l] {
				due := start.Add(t.due)
				if d := time.Until(due); d > 0 {
					select {
					case <-time.After(d):
					case <-ctx.Done():
						return
					}
				}
				res.late[l] = append(res.late[l], ms(time.Since(due)))
				ls.exec(ctx, t, due)
			}
		}()
	}
	wg.Wait()
	<-cpuDone
	if err := ctx.Err(); err != nil {
		return err
	}
	if cpuErr != nil {
		return cpuErr
	}
	cpu1, err := cpu()
	if err != nil {
		return err
	}
	res.cpu = cpu1 - cpu0
	res.polls = lanes[readLane].polls
	res.firstSeen = lanes[readLane].firstSeen
	res.lastBody = lanes[readLane].lastBody
	for _, s := range rn.p.svcs {
		if s.measured && s.acked {
			res.ops++
			if s.removeErr == nil {
				res.ops++
			}
		}
	}
	for _, pr := range res.polls {
		if pr.measured {
			res.ops++
		}
	}
	return nil
}

// laneState is one lane's private state.
type laneState struct {
	rn        *runner
	id        int
	etag      string
	view      *nffg.NFFG
	polls     []pollRecord
	firstSeen map[string]time.Time
	lastBody  []byte
	// live holds acknowledged services whose remove has not been sent; the
	// list check asserts each is served.
	live map[string]bool
}

func (ls *laneState) exec(ctx context.Context, t task, due time.Time) {
	rn := ls.rn
	switch t.kind {
	case taskInstall:
		ls.install(ctx, t.s)
	case taskAck:
		ls.ack(ctx, t.s)
	case taskRemove:
		ls.removeSvc(ctx, t.s, due)
	case taskPoll:
		ls.poll(ctx, t.due, due)
	case taskCheck:
		if len(ls.live) == 0 {
			return
		}
		rn.attempt()
		ids, err := rn.t.services(ctx, ls.id)
		if err != nil {
			rn.fail(failReason("list", err))
			return
		}
		served := make(map[string]bool, len(ids))
		for _, id := range ids {
			served[id] = true
		}
		for id := range ls.live {
			if !served[id] {
				rn.violation("acknowledged service %s missing from the top's service list", id)
			}
		}
	}
}

func (ls *laneState) install(ctx context.Context, s *svc) {
	rn := ls.rn
	// The plan frees a slot a guard time after its holder's remove is due,
	// and the write lane runs its tasks in due order, so the holder is gone.
	for _, prev := range s.prev {
		if prev != nil && !prev.released {
			rn.violation("%s drew a SAP that %s still holds", s.id, prev.id)
		}
	}
	rn.attempt()
	sent := time.Now()
	s.jobID, s.submitErr = rn.t.submit(ctx, ls.id, s)
	s.submitDur = time.Since(sent)
	if s.submitErr != nil {
		rn.fail(failReason("install", s.submitErr))
	}
}

func (ls *laneState) ack(ctx context.Context, s *svc) {
	rn := ls.rn
	if s.submitErr != nil {
		s.released = true
		return
	}
	j, err := rn.t.job(ctx, ls.id, s.jobID, false)
	if err == nil && !j.State.Terminal() {
		j, err = rn.t.job(ctx, ls.id, s.jobID, true)
	}
	switch {
	case err != nil:
		rn.fail(failReason("job", err))
		s.released = true
	case j.State != admission.StateDeployed:
		rn.fail(failReason("install", fmt.Errorf("%s", j.Error)))
		s.released = true
	default:
		s.job, s.acked = j, true
		if ls.live == nil {
			ls.live = map[string]bool{}
		}
		ls.live[s.id] = true
	}
}

func (ls *laneState) removeSvc(ctx context.Context, s *svc, due time.Time) {
	rn := ls.rn
	if !s.acked {
		return
	}
	delete(ls.live, s.id)
	rn.attempt()
	s.removeErr = rn.t.remove(ctx, ls.id, s.id)
	s.removeDur = time.Since(due)
	if s.removeErr != nil {
		rn.fail(failReason("remove", s.removeErr))
	}
	s.released = true
}

func (ls *laneState) poll(ctx context.Context, at time.Duration, due time.Time) {
	rn := ls.rn
	rn.attempt()
	pr, err := rn.t.poll(ctx, ls.id, ls.etag)
	if errors.Is(err, errBadView) {
		rn.violation("%v", err)
		return
	}
	if err != nil {
		rn.fail(failReason("view", err))
		return
	}
	rec := pollRecord{due: at, modified: pr.modified, bytes: len(pr.body), fetch: pr.fetch,
		measured: at >= warm}
	if pr.modified {
		ls.etag, ls.view = pr.etag, pr.view
		if pr.body != nil {
			ls.lastBody = pr.body
		}
	}
	rec.completed = time.Now()
	rec.latency = rec.completed.Sub(due)
	if pr.modified {
		if ls.firstSeen == nil {
			ls.firstSeen = map[string]time.Time{}
		}
		for id := range ls.view.NFs {
			if svcID, _, ok := strings.Cut(string(id), "-nf"); ok {
				if _, seen := ls.firstSeen[svcID]; !seen {
					ls.firstSeen[svcID] = rec.completed
				}
			}
		}
	}
	ls.polls = append(ls.polls, rec)
}

// --- end-to-end metrics --------------------------------------------------------

// samples are a run's measured latencies (ms) in arrival order, by kind.
type samples struct {
	Deploy []float64 `json:"deploy"`
	Mouse  []float64 `json:"deploy_mouse"`
	Remove []float64 `json:"remove"`
	View   []float64 `json:"view"`
	Fresh  []float64 `json:"view_fresh"`
}

func runSamples(p *plan, res *runResult) samples {
	var sm samples
	for _, s := range p.svcs {
		if !s.measured || !s.acked {
			continue
		}
		d := ms(s.job.Finished.Sub(res.start.Add(s.at)))
		sm.Deploy = append(sm.Deploy, d)
		if s.mouse {
			sm.Mouse = append(sm.Mouse, d)
		}
		if s.removeErr == nil {
			sm.Remove = append(sm.Remove, ms(s.removeDur))
		}
		if seen, ok := res.firstSeen[s.id]; ok {
			sm.Fresh = append(sm.Fresh, max(0, ms(seen.Sub(s.job.Finished))))
		}
	}
	for _, pr := range res.polls {
		if pr.measured {
			sm.View = append(sm.View, ms(pr.latency))
		}
	}
	return sm
}

// e2eMetrics turns a run's samples into the latency metrics (setup_s, cpu
// and rss are added by the caller).
func e2eMetrics(sm samples) map[string]float64 {
	return map[string]float64{
		"deploy_p50_ms":       quantile(sm.Deploy, 0.5),
		"deploy_p99_ms":       tail(sm.Deploy),
		"deploy_mouse_p99_ms": tail(sm.Mouse),
		"remove_p50_ms":       quantile(sm.Remove, 0.5),
		"remove_p99_ms":       tail(sm.Remove),
		"view_p50_ms":         quantile(sm.View, 0.5),
		"view_p99_ms":         tail(sm.View),
		"view_fresh_p50_ms":   quantile(sm.Fresh, 0.5),
		"view_fresh_p99_ms":   tail(sm.Fresh),
	}
}

// tail is the reported p99: the median of the p99s of up to ten
// consecutive blocks of the run, each of at least 50 samples (see
// blockedQuantile).
func tail(samples []float64) float64 {
	return blockedQuantile(samples, 0.99, min(10, max(1, len(samples)/50)))
}

// capacity sums what a view offers: node compute and link bandwidth.
func capacity(v *nffg.NFFG) [4]float64 {
	var c [4]float64
	for _, in := range v.Infras {
		c[0] += in.Capacity.CPU
		c[1] += in.Capacity.Mem
		c[2] += in.Capacity.Storage
	}
	for _, l := range v.Links {
		c[3] += l.Bandwidth
	}
	return c
}
