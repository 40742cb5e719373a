package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/unify-repro/escape/internal/nffg"
)

// hier-churn: seven escaped processes, a top MdO over two mid MdOs over
// four leaves. The leaves' border SAPs stitch them in a ring, so a chain
// between two random user SAPs crosses the mid boundary half the time.
const (
	hierLeaves      = 4
	hierSAPsPerLeaf = 32
)

var hierChurn = &workload{
	name: "hier-churn",
	spec: loadSpec{
		rate:      25,
		hold:      200 * time.Millisecond,
		pollEvery: 50 * time.Millisecond,
		groups:    [][]nffg.ID{hierSAPs()},
		build:     chainBuilder([]string{"firewall"}, 5, []string{"firewall", "nat"}, 10),
	},
	setup: setupHier,
	ros:   []string{"top", "mid"},
	layers: func(m map[string]float64, ps *pass) {
		httpLayers(m, ps)
		midOf := func(leaf string) string {
			i, _ := strconv.Atoi(strings.TrimPrefix(leaf, "leaf"))
			return fmt.Sprintf("mid%d", i/(hierLeaves/2))
		}
		d := ps.delta()
		topChild := slowestChild(ps.spans, "api.mid.install", func(string) string { return "" })
		self, fan, incl, child := selfTimes(topInclusive(ps.p, func(s *svc) string { return s.job.TraceID }), topChild)
		m["core.top.self_ms"] = mean(self)
		m["core.fanout_ms"] = mean(fan)
		m["trace.unexplained_share.top"] = unexplained(d, "top", incl, child)

		midIncl := map[[2]string]float64{}
		for _, s := range ps.spans {
			if s.Name == "api.mid.install" {
				midIncl[[2]string{s.Req, s.Parent}] = ms(s.dur())
			}
		}
		self, _, incl, child = selfTimes(midIncl, slowestChild(ps.spans, "api.leaf.install", midOf))
		m["core.mid.self_ms"] = mean(self)
		m["trace.unexplained_share.mid"] = unexplained(d, "mid", incl, child)
	},
}

func hierSAPs() []nffg.ID {
	var out []nffg.ID
	for i := 0; i < hierLeaves; i++ {
		for k := 0; k < hierSAPsPerLeaf; k++ {
			out = append(out, nffg.ID(fmt.Sprintf("u%ds%d", i, k)))
		}
	}
	return out
}

// hierSubstrate is leaf i: two BiS-BiS nodes, its user SAPs split between
// them, and the border SAPs shared with its ring neighbours.
func hierSubstrate(i int) *nffg.NFFG {
	id := fmt.Sprintf("leaf%d", i)
	n := [2]nffg.ID{nffg.ID(id + "-n1"), nffg.ID(id + "-n2")}
	ports := hierSAPsPerLeaf/2 + 2
	b := nffg.NewBuilder(id + "-sub")
	for _, node := range n {
		b.BiSBiS(node, id, ports, nffg.Resources{CPU: 256, Mem: 262144, Storage: 2048}, "firewall", "nat", "dpi", "compress")
	}
	b.Link(id+"-core", n[0], "1", n[1], "1", 10000, 0.1)
	next := nffg.ID(fmt.Sprintf("x%d", i))
	prev := nffg.ID(fmt.Sprintf("x%d", (i+hierLeaves-1)%hierLeaves))
	b.SAP(next).SAP(prev).
		Link(id+"-next", next, "1", n[1], "2", 10000, 0.5).
		Link(id+"-prev", prev, "1", n[0], "2", 10000, 0.5)
	for k := 0; k < hierSAPsPerLeaf; k++ {
		sap := nffg.ID(fmt.Sprintf("u%ds%d", i, k))
		b.SAP(sap).Link(fmt.Sprintf("%s-u%d", id, k), sap, "1", n[k%2], strconv.Itoa(3+k/2), 1000, 0.5)
	}
	return b.MustBuild()
}

// chainBuilder makes the request of one service: a chain SAP → NFs → SAP,
// with the mouse or elephant shape.
func chainBuilder(mouseNFs []string, mouseBW float64, elephNFs []string, elephBW float64) func(string, bool, nffg.ID, nffg.ID) *nffg.NFFG {
	return func(id string, mouse bool, a, z nffg.ID) *nffg.NFFG {
		types, bw := elephNFs, elephBW
		if mouse {
			types, bw = mouseNFs, mouseBW
		}
		b := nffg.NewBuilder(id).SAP(a).SAP(z)
		nodes := []nffg.ID{a}
		for k, t := range types {
			nf := nffg.ID(fmt.Sprintf("%s-nf%d", id, k))
			b.NF(nf, t, 2, nffg.Resources{CPU: 2, Mem: 1024, Storage: 4})
			nodes = append(nodes, nf)
		}
		b.Chain(id, bw, 0, append(nodes, z)...)
		return b.MustBuild()
	}
}

// procStack is a stack of escaped processes driven over HTTP.
type procStack struct {
	*httpTarget
	procs   []*proc
	top     *proc
	tiers   map[*proc]string
	proxies []*proxy
	dir     string
}

func (s *procStack) cpu() (time.Duration, error) { return cpuTimeOf(s.procs) }

func (s *procStack) rssMB() (float64, error) {
	return peakRSSMB(strconv.Itoa(s.top.cmd.Process.Pid))
}

func (s *procStack) counters(ctx context.Context) (counters, error) {
	c := counters{}
	for _, p := range s.procs {
		if !p.alive() {
			return nil, fmt.Errorf("%s exited: %s", p.name, p.logTail())
		}
		if err := scrape(ctx, p.addr, s.tiers[p], c); err != nil {
			return nil, err
		}
	}
	return c, nil
}

func (s *procStack) wireBytes() float64 {
	n := s.bytes.Load()
	for _, p := range s.proxies {
		n += p.wire.Load()
	}
	return float64(n)
}

func (s *procStack) close() {
	if s.httpTarget != nil {
		s.closeIdle()
	}
	stopAll(s.procs)
	for _, p := range s.proxies {
		p.close()
	}
	if s.dir != "" {
		_ = os.RemoveAll(s.dir)
	}
}

// spawnAll starts several processes of one tier at once.
func (s *procStack) spawnAll(ctx context.Context, e *env, spans *spanLog, tier string, names []string, args [][]string) ([]string, error) {
	procs := make([]*proc, len(names))
	errs := make([]error, len(names))
	var wg sync.WaitGroup
	for i := range names {
		wg.Add(1)
		go func() {
			defer wg.Done()
			procs[i], errs[i] = startProc(ctx, e.escaped, names[i], append([]string{"-id", names[i], "-listen", "127.0.0.1:0"}, args[i]...)...)
		}()
	}
	wg.Wait()
	for _, p := range procs {
		if p != nil {
			s.procs = append(s.procs, p)
			s.tiers[p] = tier
		}
	}
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	urls := make([]string, len(names))
	for i, p := range procs {
		urls[i] = p.addr
		if spans != nil {
			px, err := startProxy(tier, names[i], p.addr, spans)
			if err != nil {
				return nil, err
			}
			s.proxies = append(s.proxies, px)
			urls[i] = px.url
		}
	}
	return urls, nil
}

func writeSubstrate(dir, name string, g *nffg.NFFG) (string, error) {
	path := filepath.Join(dir, name+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := g.EncodeJSON(f); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

func setupHier(ctx context.Context, e *env, spans *spanLog) (st stack, err error) {
	dir, err := e.dir("hier")
	if err != nil {
		return nil, err
	}
	s := &procStack{tiers: map[*proc]string{}, dir: dir}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	var names []string
	var args [][]string
	for i := 0; i < hierLeaves; i++ {
		name := fmt.Sprintf("leaf%d", i)
		path, err := writeSubstrate(dir, name, hierSubstrate(i))
		if err != nil {
			return nil, err
		}
		names = append(names, name)
		args = append(args, []string{"-role", "leaf", "-substrate", path})
	}
	leafURLs, err := s.spawnAll(ctx, e, spans, "leaf", names, args)
	if err != nil {
		return nil, err
	}
	names, args = nil, nil
	for m := 0; m < 2; m++ {
		name := fmt.Sprintf("mid%d", m)
		a := []string{"-role", "orchestrator", "-data-dir", filepath.Join(dir, name)}
		for k := 0; k < hierLeaves/2; k++ {
			li := m*hierLeaves/2 + k
			a = append(a, "-child", fmt.Sprintf("leaf%d=%s", li, leafURLs[li]))
		}
		names = append(names, name)
		args = append(args, a)
	}
	midURLs, err := s.spawnAll(ctx, e, spans, "mid", names, args)
	if err != nil {
		return nil, err
	}
	// The top is reached directly: its caller is the load generator.
	top, err := s.spawnAll(ctx, e, nil, "top", []string{"top"}, [][]string{{"-role", "orchestrator", "-view", "transparent",
		"-data-dir", filepath.Join(dir, "top"),
		"-child", "mid0=" + midURLs[0], "-child", "mid1=" + midURLs[1]}})
	if err != nil {
		return nil, err
	}
	s.top = s.procs[len(s.procs)-1]
	s.httpTarget = newHTTPTarget(top[0])
	return s, nil
}

// httpLayers adds the API-layer metrics of a multi-process workload.
func httpLayers(m map[string]float64, ps *pass) {
	names := byName(ps.spans)
	for _, tier := range []string{"mid", "leaf"} {
		for _, op := range []string{"install", "remove"} {
			p50mean(m, "api."+tier+"."+op+"_ms", names["api."+tier+"."+op])
		}
	}
	var submit []float64
	for _, s := range ps.p.svcs {
		if s.submitErr == nil && s.jobID != "" {
			submit = append(submit, ms(s.submitDur))
		}
	}
	p50mean(m, "api.top.submit_ms", submit)
	readLayers(m, ps.res)
	m["api.bytes_per_op"] = ratio(ps.wire, ps.opsAll()+float64(len(ps.res.polls)))
}
