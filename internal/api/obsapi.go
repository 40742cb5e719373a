// Observability plane of the HTTP API: Prometheus metrics exposition,
// per-job span-tree retrieval, the readiness probe, and the X-Unify-Trace
// propagation contract (see ARCHITECTURE.md, "Observability").
package api

import (
	"context"
	"io"
	"net/http"
	"net/url"
	"runtime/debug"
	"time"

	"github.com/unify-repro/escape/internal/core"
	"github.com/unify-repro/escape/internal/fleet"
	"github.com/unify-repro/escape/internal/journal"
	"github.com/unify-repro/escape/internal/obs"
)

// TraceHeader carries a request's trace ID across process boundaries: a
// recursive escaped-over-escaped deployment mints the ID once at the top
// layer and every layer below adopts it, so the per-layer span buffers of one
// request share one trace ID and join into one logical tree.
const TraceHeader = "X-Unify-Trace"

// stageHistogramsProvider is any layer exposing per-stage latency
// distributions (core.ResourceOrchestrator and admission.Queue do).
type stageHistogramsProvider interface {
	StageHistograms() map[string]obs.HistogramSnapshot
}

// Health is the payload of GET /v1/unify/healthz: enough to decide readiness
// (shards and domains attached) and identify the build.
type Health struct {
	Status string `json:"status"`
	Layer  string `json:"layer"`
	// APIVersion advertises the northbound surface version: the one mount
	// every Unify route of this server answers under (/v1/unify/...).
	APIVersion    string  `json:"api_version,omitempty"`
	GoVersion     string  `json:"go_version,omitempty"`
	Module        string  `json:"module,omitempty"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	Shards        int     `json:"shards"`
	Domains       int     `json:"domains"`
	QueueDepth    int     `json:"queue_depth"`
	// Recovery summarizes what this process replayed from its journal at
	// startup (absent when the process runs without a data dir, or came up
	// from an empty one).
	Recovery *journal.Info `json:"recovery,omitempty"`
	// Fleet summarizes the domain lifecycle controller's state gauges and
	// failover counters (absent when the process runs without one).
	Fleet *fleet.Stats `json:"fleet,omitempty"`
	// Replica summarizes a read replica's sync state (absent on writers).
	Replica *ReplicaStats `json:"replica,omitempty"`
}

// serverInfo backs the unify_server collector.
type serverInfo struct {
	Uptime time.Duration `json:"uptime"`
	// EncodeFailures counts response bodies whose JSON encoding failed.
	EncodeFailures uint64 `json:"encode_failures"`
}

// MetricCollectors assembles every stats source the server exports at
// /metrics. Exported so the completeness test can assert that each collected
// struct field actually appears in the rendered exposition.
func (s *Server) MetricCollectors() []obs.Collector {
	cs := []obs.Collector{{Name: "unify_server", Value: serverInfo{
		Uptime:         time.Since(s.started),
		EncodeFailures: s.encodeFailures.Load(),
	}}}
	labels := map[string]string{"layer": s.layer.ID()}
	if p, ok := s.layer.(pipelineStatsProvider); ok {
		cs = append(cs, obs.Collector{Name: "unify_pipeline", Labels: labels, Value: p.PipelineStats()})
	}
	if sp, ok := s.layer.(shardStatsProvider); ok {
		shards := map[string]core.ShardStats{}
		for _, st := range sp.ShardStats() {
			shards[st.Shard] = st
		}
		if len(shards) > 0 {
			cs = append(cs, obs.Collector{Name: "unify_shard", Labels: labels, Value: shards})
		}
	}
	stages := map[string]obs.HistogramSnapshot{}
	if s.adm != nil {
		cs = append(cs, obs.Collector{Name: "unify_admission", Labels: labels, Value: s.adm.Stats()})
		for k, v := range s.adm.StageHistograms() {
			stages[k] = v
		}
	}
	if sh, ok := s.layer.(stageHistogramsProvider); ok {
		for k, v := range sh.StageHistograms() {
			stages[k] = v
		}
	}
	if s.journal != nil {
		cs = append(cs, obs.Collector{Name: "unify_journal", Labels: labels, Value: s.journal.Stats()})
		for k, v := range s.journal.StageHistograms() {
			stages[k] = v
		}
	}
	if s.fleet != nil {
		cs = append(cs, obs.Collector{Name: "unify_fleet", Labels: labels, Value: s.fleet.Stats()})
	}
	if s.replica != nil {
		cs = append(cs, obs.Collector{Name: "unify_replica", Labels: labels, Value: s.replica.Stats()})
	}
	if len(stages) > 0 {
		cs = append(cs, obs.Collector{Name: "unify_stage", Labels: labels, Value: stages})
	}
	return cs
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	obs.WriteMetrics(w, s.MetricCollectors()...)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	h := Health{Status: "ok", Layer: s.layer.ID(), APIVersion: APIVersion, UptimeSeconds: time.Since(s.started).Seconds()}
	if bi, ok := debug.ReadBuildInfo(); ok {
		h.GoVersion = bi.GoVersion
		h.Module = bi.Main.Path
	}
	if sp, ok := s.layer.(shardStatsProvider); ok {
		h.Shards = len(sp.ShardStats())
	}
	if ch, ok := s.layer.(interface{ Children() []string }); ok {
		h.Domains = len(ch.Children())
	}
	if s.adm != nil {
		h.QueueDepth = s.adm.Stats().Depth
	}
	h.Recovery = s.recover
	if s.fleet != nil {
		fs := s.fleet.Stats()
		h.Fleet = &fs
	}
	if s.replica != nil {
		rs := s.replica.Stats()
		h.Replica = &rs
	}
	s.writeJSON(w, http.StatusOK, h)
}

// handleTrace serves a recorded span tree. {id} may be a job ID (resolved to
// the job's trace through the admission queue) or a raw trace ID.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	tr := s.adm.Tracer()
	if tr == nil {
		s.writeError(w, http.StatusNotImplemented, CodeNotImplemented, "api: tracing not enabled", "")
		return
	}
	lookup := id
	if job, err := s.adm.Job(id); err == nil && job.TraceID != "" {
		lookup = job.TraceID
	}
	t := tr.Lookup(lookup)
	if t == nil {
		s.writeError(w, http.StatusNotFound, CodeUnknownTrace, "api: unknown trace "+id, "")
		return
	}
	s.writeJSON(w, http.StatusOK, t.Snapshot())
}

// adoptTrace joins an incoming X-Unify-Trace header onto the request context:
// the admission queue then records this layer's spans under the caller's
// trace ID instead of minting a fresh one.
func (s *Server) adoptTrace(ctx context.Context, r *http.Request) context.Context {
	tid := r.Header.Get(TraceHeader)
	if tid == "" || s.adm == nil {
		return ctx
	}
	return obs.WithTrace(ctx, s.adm.Tracer().Trace(tid))
}

// Metrics fetches the remote /metrics exposition as raw Prometheus text.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	req, err := c.newRequest(ctx, http.MethodGet, "/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.unary.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", remoteError(resp)
	}
	body, err := io.ReadAll(resp.Body)
	return string(body), err
}

// Trace fetches the span tree of a job ID (or raw trace ID).
func (c *Client) Trace(ctx context.Context, id string) (obs.TraceData, error) {
	var td obs.TraceData
	err := c.getJSON(ctx, unifyRoot+"/trace/"+url.PathEscape(id), &td)
	return td, err
}

// Health fetches the remote readiness/identity probe.
func (c *Client) Health(ctx context.Context) (Health, error) {
	var h Health
	err := c.getJSON(ctx, unifyRoot+"/healthz", &h)
	return h, err
}
