package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"sync"
	"time"

	"github.com/unify-repro/escape/internal/nffg"
)

// span is one timed call at a layer boundary, recorded by the benchmark's
// proxies and wrappers. Req joins the spans of one request: the top job's
// trace ID for installs, the service ID otherwise. Parent names the layer
// instance that was called (the child behind a proxy, the leaf domain).
type span struct {
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
	Parent string    `json:"parent,omitempty"`
	Req    string    `json:"req"`
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// spanLog keeps spans in memory until the run ends. A nil log records
// nothing, so untraced runs pay only a nil check.
type spanLog struct {
	mu    sync.Mutex
	spans []span
}

func (l *spanLog) add(s span) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

func (l *spanLog) all() []span {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]span(nil), l.spans...)
}

// write stores the spans as JSON lines.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.all() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// byName groups span durations (ms) by span name.
func byName(spans []span) map[string][]float64 {
	out := map[string][]float64{}
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], ms(s.dur()))
	}
	return out
}

// p50mean adds name.p50 and name.mean for a sample.
func p50mean(m map[string]float64, name string, samples []float64) {
	m[name+".p50"] = quantile(samples, 0.5)
	m[name+".mean"] = mean(samples)
}

// slowestChild indexes the longest span per (request, parent group) for
// spans named name; group maps a span's Parent onto the caller it belongs
// to ("" when every span of the request counts together).
func slowestChild(spans []span, name string, group func(parent string) string) map[[2]string]span {
	out := map[[2]string]span{}
	for _, s := range spans {
		if s.Name != name {
			continue
		}
		k := [2]string{s.Req, group(s.Parent)}
		if cur, ok := out[k]; !ok || s.dur() > cur.dur() {
			out[k] = s
		}
	}
	return out
}

// counters are /metrics sums keyed "tier:name{stage}".
type counters map[string]float64

func (c counters) delta(before counters) counters {
	out := counters{}
	for k, v := range c {
		out[k] = v - before[k]
	}
	return out
}

// stageMean is the mean of a stage histogram over tiers, in ms.
func (c counters) stageMean(stage string, tiers ...string) float64 {
	var sum, n float64
	for _, t := range tiers {
		sum += c[t+":unify_stage_sum{"+stage+"}"]
		n += c[t+":unify_stage_count{"+stage+"}"]
	}
	return ratio(sum, n) * 1000
}

// stageSumMS is the summed time of a stage over tiers, in ms.
func (c counters) stageSumMS(stage string, tiers ...string) float64 {
	var sum float64
	for _, t := range tiers {
		sum += c[t+":unify_stage_sum{"+stage+"}"]
	}
	return sum * 1000
}

func (c counters) sum(name string, tiers ...string) float64 {
	var s float64
	for _, t := range tiers {
		s += c[t+":"+name]
	}
	return s
}

// counterLayers derives the per-layer metrics every workload reads from
// /metrics deltas. ros are the tiers that run a resource orchestrator; ops
// is the number of installs and removes completed.
func counterLayers(d, after counters, ros []string, ops float64) map[string]float64 {
	m := map[string]float64{}
	for _, t := range []string{"top", "mid", "leaf"} {
		m["admission."+t+".wait_ms"] = d.stageMean("admission_wait", t)
	}
	m["admission.batch_size"] = ratio(d["top:unify_admission_coalesced"], d["top:unify_admission_batches"])
	m["admission.max_depth"] = after["top:unify_admission_max_depth"]
	m["core.map_ms"] = d.stageMean("map", ros...)
	m["core.commit_ms"] = d.stageMean("commit", ros...)
	inst := d["top:unify_pipeline_installs"]
	m["core.map_passes_per_install"] = ratio(d["top:unify_pipeline_map_attempts"], inst)
	m["core.conflicts_per_install"] = ratio(d["top:unify_pipeline_gen_conflicts"], inst)
	m["core.busy_per_install"] = ratio(d["top:unify_pipeline_busy"], inst)
	m["core.multi_shard_share"] = ratio(d["top:unify_pipeline_multi_shard_commits"], inst)
	hit := func(kind string) float64 {
		h := d["top:unify_pipeline_"+kind+"_cache_hits"]
		return ratio(h, h+d["top:unify_pipeline_"+kind+"_cache_misses"])
	}
	m["core.cut_cache_hit"] = hit("cut")
	m["core.view_cache_hit"] = hit("view")
	m["journal.append_ms"] = d.stageMean("journal_append", ros...)
	m["journal.fsync_ms"] = d.stageMean("journal_fsync", ros...)
	m["journal.appends_per_op"] = ratio(d.sum("unify_journal_appends", ros...), ops)
	m["journal.bytes_per_op"] = ratio(d.sum("unify_journal_bytes_written", ros...), ops)
	m["southbound.delta_ms"] = ratio(d["top:unify_pipeline_southbound_delta_latency_sum"], d["top:unify_pipeline_southbound_delta_latency_count"]) * 1000
	m["southbound.deltas_per_op"] = ratio(d["top:unify_pipeline_southbound_deltas"], ops)
	m["southbound.flowmods_per_barrier"] = ratio(d["top:unify_pipeline_southbound_flow_mods"], d["top:unify_pipeline_southbound_barriers"])
	return m
}

// unexplained is the share of a level's inclusive time that its admission
// wait, map, commit and slowest child call do not cover. Map and commit run
// once per batch for every request in it, so their sums are charged times
// the level's mean batch size.
func unexplained(d counters, tier string, inclusiveMS, childMS float64) float64 {
	batch := ratio(d[tier+":unify_admission_coalesced"], d[tier+":unify_admission_batches"])
	covered := d.stageSumMS("admission_wait", tier) +
		(d.stageSumMS("map", tier)+d.stageSumMS("commit", tier))*batch + childMS
	return ratio(inclusiveMS-covered, inclusiveMS)
}

// codecLayers times the nffg codec on the run's own payloads: the last view
// body the poll lane read and the request bodies the run sent.
func codecLayers(m map[string]float64, p *plan, res *runResult) error {
	if res.lastBody != nil {
		var enc, dec []float64
		for i := 0; i < 5; i++ {
			t0 := time.Now()
			v, err := nffg.DecodeJSON(bytes.NewReader(res.lastBody))
			if err != nil {
				return err
			}
			dec = append(dec, ms(time.Since(t0)))
			t1 := time.Now()
			if err := v.EncodeJSON(&bytes.Buffer{}); err != nil {
				return err
			}
			enc = append(enc, ms(time.Since(t1)))
		}
		m["nffg.view_decode_ms"] = quantile(dec, 0.5)
		m["nffg.view_encode_ms"] = quantile(enc, 0.5)
	}
	var total time.Duration
	n := min(len(p.svcs), 500)
	for _, s := range p.svcs[:n] {
		t0 := time.Now()
		if _, err := nffg.DecodeJSON(bytes.NewReader(s.body)); err != nil {
			return err
		}
		total += time.Since(t0)
	}
	m["nffg.req_decode_us"] = ratio(float64(total.Microseconds()), float64(n))
	return nil
}

// readLayers summarizes the poll lane: full and not-modified reads.
func readLayers(m map[string]float64, res *runResult) {
	var full, nm []float64
	var bytesRead float64
	for _, pr := range res.polls {
		if pr.modified {
			full = append(full, ms(pr.fetch))
		} else {
			nm = append(nm, ms(pr.fetch))
		}
		bytesRead += float64(pr.bytes)
	}
	m["api.view_full_ms"] = mean(full)
	m["api.view_304_ms"] = mean(nm)
	m["api.view_304_share"] = ratio(float64(len(nm)), float64(len(res.polls)))
	m["api.view_bytes_per_poll"] = ratio(bytesRead, float64(len(res.polls)))
}

// lateness is the p99 of how far behind schedule the lanes started tasks.
func lateness(res *runResult) float64 {
	all := append(append([]float64(nil), res.late[0]...), res.late[1]...)
	return quantile(all, 0.99)
}
