package escape

// E15: the distributed read plane. The api_redesign tentpole's headline
// question: what does the generation-keyed conditional View buy a remote
// reader polling an unchanged topology?
//
//	full        — the pre-ETag client: every poll transfers and decodes the
//	              whole view. bytes/view is the wire cost of one poll.
//	conditional — the ETag client: revalidation is If-None-Match -> 304 with
//	              an empty body, served from the sealed client cache.
//	speedup     — both paths back to back against one writer. Gated, exact:
//	              conditional polling is >=10x faster (speedup) and moves
//	              >=100x fewer bytes (bytes-ratio) for unchanged views.
//
// Bytes are counted by a fronting proxy (status line + headers + body), so
// the 304's remaining header cost is charged against the conditional path —
// the ratio is wire-honest, not body-only flattery.

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"sync/atomic"
	"testing"
	"time"

	"github.com/unify-repro/escape/internal/api"
	"github.com/unify-repro/escape/internal/core"
	"github.com/unify-repro/escape/internal/nffg"
)

// e15CountingWriter tallies response bytes: an approximate status line, the
// headers as serialized, and the body.
type e15CountingWriter struct {
	http.ResponseWriter
	n *atomic.Int64
}

func (w *e15CountingWriter) WriteHeader(status int) {
	bytes := int64(len("HTTP/1.1 200 OK\r\n\r\n"))
	for k, vs := range w.Header() {
		for _, v := range vs {
			bytes += int64(len(k) + len(v) + len(": \r\n"))
		}
	}
	w.n.Add(bytes)
	w.ResponseWriter.WriteHeader(status)
}

func (w *e15CountingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n.Add(int64(n))
	return n, err
}

const e15Domains = 8

// benchE15RO builds the writer: like benchE9RO, but with a Transparent
// northbound virtualizer, so the exported view carries every substrate node
// and the wire cost of a full fetch scales with topology size.
func benchE15RO(b *testing.B, domains, nodesPer int) *core.ResourceOrchestrator {
	b.Helper()
	ro := core.NewResourceOrchestrator(core.Config{ID: "ro", Virtualizer: core.Transparent{}})
	for i := 0; i < domains; i++ {
		name := fmt.Sprintf("d%d", i)
		bl := nffg.NewBuilder(name)
		var prev nffg.ID
		for j := 0; j < nodesPer; j++ {
			id := nffg.ID(fmt.Sprintf("%s-n%d", name, j))
			bl.BiSBiS(id, name, 4, nffg.Resources{CPU: 1 << 10, Mem: 1 << 20, Storage: 1 << 10},
				"firewall", "dpi", "nat")
			if j > 0 {
				bl.Link(fmt.Sprintf("l%d", j), prev, "2", id, "1", 1e6, 1)
			}
			prev = id
		}
		in := nffg.ID(fmt.Sprintf("u%d-in", i))
		out := nffg.ID(fmt.Sprintf("u%d-out", i))
		bl.SAP(in).SAP(out).
			Link("i", in, "1", nffg.ID(name+"-n0"), "3", 1e6, 1).
			Link("o", prev, "4", out, "1", 1e6, 1)
		lo, err := core.NewLocalOrchestrator(core.LocalConfig{
			ID: name, Substrate: bl.MustBuild(), Virtualizer: core.Transparent{},
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := ro.Attach(context.Background(), lo); err != nil {
			b.Fatal(err)
		}
	}
	return ro
}

// benchE15Front serves a nodes-sized orchestrator over HTTP behind a
// byte-counting front and dials a client against it.
func benchE15Front(b *testing.B, nodes int) (*api.Client, string, *atomic.Int64) {
	b.Helper()
	ro := benchE15RO(b, e15Domains, nodes/e15Domains)
	srv := api.NewServer(ro, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(srv.Close)
	target, err := url.Parse("http://" + addr)
	if err != nil {
		b.Fatal(err)
	}
	proxy := httputil.NewSingleHostReverseProxy(target)
	served := &atomic.Int64{}
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		proxy.ServeHTTP(&e15CountingWriter{ResponseWriter: w, n: served}, r)
	}))
	b.Cleanup(front.Close)
	cli, err := api.Dial("ro", front.URL)
	if err != nil {
		b.Fatal(err)
	}
	return cli, front.URL, served
}

// e15FullFetch is one pre-ETag poll: transfer the whole view and decode it.
func e15FullFetch(b *testing.B, base string) *nffg.NFFG {
	b.Helper()
	resp, err := http.Get(base + "/v1/unify/view")
	if err != nil {
		b.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("view: %d", resp.StatusCode)
	}
	v, err := nffg.DecodeJSON(resp.Body)
	if err != nil {
		b.Fatal(err)
	}
	return v
}

// BenchmarkE15RemoteView measures the conditional-view tentpole: remote View
// cost and wire bytes for unchanged topologies, full fetch versus
// ETag-revalidated cache hit, plus their gated ratio.
func BenchmarkE15RemoteView(b *testing.B) {
	ctx := context.Background()
	const nodes = 2048

	b.Run(fmt.Sprintf("full/nodes=%d", nodes), func(b *testing.B) {
		_, base, served := benchE15Front(b, nodes)
		e15FullFetch(b, base) // warm the server-side view cache
		start := served.Load()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e15FullFetch(b, base)
		}
		b.StopTimer()
		b.ReportMetric(float64(served.Load()-start)/float64(b.N), "bytes/view")
	})

	b.Run(fmt.Sprintf("conditional/nodes=%d", nodes), func(b *testing.B) {
		cli, _, served := benchE15Front(b, nodes)
		if _, err := cli.View(ctx); err != nil { // prime the ETag cache
			b.Fatal(err)
		}
		start := served.Load()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := cli.View(ctx); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(served.Load()-start)/float64(b.N), "bytes/view")
		st := cli.ViewCacheStats()
		b.ReportMetric(float64(st.Hits)/float64(st.Hits+st.Misses)*100, "hit_%")
	})

	b.Run(fmt.Sprintf("speedup/nodes=%d", nodes), func(b *testing.B) {
		cli, base, served := benchE15Front(b, nodes)
		const polls = 32
		e15FullFetch(b, base)
		if _, err := cli.View(ctx); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			mark := served.Load()
			start := time.Now()
			for p := 0; p < polls; p++ {
				e15FullFetch(b, base)
			}
			full := time.Since(start)
			fullBytes := served.Load() - mark

			mark = served.Load()
			start = time.Now()
			for p := 0; p < polls; p++ {
				if _, err := cli.View(ctx); err != nil {
					b.Fatal(err)
				}
			}
			cond := time.Since(start)
			condBytes := served.Load() - mark

			b.ReportMetric(full.Seconds()/cond.Seconds(), "speedup")
			b.ReportMetric(float64(fullBytes)/float64(condBytes), "bytes-ratio")
		}
	})
}
