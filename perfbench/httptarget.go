package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httputil"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"github.com/unify-repro/escape/internal/admission"
	"github.com/unify-repro/escape/internal/api"
	"github.com/unify-repro/escape/internal/nffg"
)

// httpTarget drives the top escaped process over its HTTP API. Each lane has
// its own client holding at most one connection.
type httpTarget struct {
	base    string
	clients [2]*http.Client
	bytes   atomic.Int64 // request and response bodies on the load connections
}

func newHTTPTarget(base string) *httpTarget {
	t := &httpTarget{base: base}
	for i := range t.clients {
		t.clients[i] = &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}, Timeout: 60 * time.Second}
	}
	return t
}

func (t *httpTarget) closeIdle() {
	for _, c := range t.clients {
		c.CloseIdleConnections()
	}
}

// do sends one request and returns the status and the whole body.
func (t *httpTarget) do(ctx context.Context, lane int, method, path string, body []byte, hdr map[string]string) (int, http.Header, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, t.base+path, rd)
	if err != nil {
		return 0, nil, nil, err
	}
	req.Header.Set(api.VersionHeader, api.APIVersion)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := t.clients[lane].Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	t.bytes.Add(int64(len(body) + len(out)))
	return resp.StatusCode, resp.Header, out, err
}

func remoteErr(status int, body []byte) error {
	var env struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if json.Unmarshal(body, &env) == nil && env.Error.Message != "" {
		return fmt.Errorf("%d %s: %s", status, env.Error.Code, env.Error.Message)
	}
	return fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
}

func (t *httpTarget) submit(ctx context.Context, lane int, s *svc) (string, error) {
	st, _, body, err := t.do(ctx, lane, http.MethodPost, "/v1/unify/services?mode=async", s.body,
		map[string]string{"Content-Type": "application/json", api.TenantHeader: s.tenant})
	if err != nil {
		return "", err
	}
	if st != http.StatusAccepted {
		return "", remoteErr(st, body)
	}
	var j admission.Job
	if err := json.Unmarshal(body, &j); err != nil {
		return "", fmt.Errorf("decode job: %w", err)
	}
	return j.ID, nil
}

func (t *httpTarget) job(ctx context.Context, lane int, id string, wait bool) (admission.Job, error) {
	path := "/v1/unify/jobs/" + url.PathEscape(id)
	if wait {
		path += "/wait?timeout=20s"
	}
	st, _, body, err := t.do(ctx, lane, http.MethodGet, path, nil, nil)
	if err != nil {
		return admission.Job{}, err
	}
	if st != http.StatusOK && st != http.StatusAccepted {
		return admission.Job{}, remoteErr(st, body)
	}
	var j admission.Job
	if err := json.Unmarshal(body, &j); err != nil {
		return admission.Job{}, fmt.Errorf("decode job: %w", err)
	}
	return j, nil
}

func (t *httpTarget) remove(ctx context.Context, lane int, id string) error {
	st, _, body, err := t.do(ctx, lane, http.MethodDelete, "/v1/unify/services/"+url.PathEscape(id), nil, nil)
	if err != nil {
		return err
	}
	if st != http.StatusNoContent {
		return remoteErr(st, body)
	}
	return nil
}

func (t *httpTarget) services(ctx context.Context, lane int) ([]string, error) {
	st, _, body, err := t.do(ctx, lane, http.MethodGet, "/v1/unify/services", nil, nil)
	if err != nil {
		return nil, err
	}
	if st != http.StatusOK {
		return nil, remoteErr(st, body)
	}
	var ids []string
	err = json.Unmarshal(body, &ids)
	return ids, err
}

// poll is a conditional view read; a 200 body is decoded, as a client
// would before using it.
func (t *httpTarget) poll(ctx context.Context, lane int, etag string) (pollResult, error) {
	var hdr map[string]string
	if etag != "" {
		hdr = map[string]string{"If-None-Match": `"` + etag + `"`}
	}
	t0 := time.Now()
	st, h, body, err := t.do(ctx, lane, http.MethodGet, "/v1/unify/view", nil, hdr)
	if err != nil {
		return pollResult{}, err
	}
	pr := pollResult{fetch: time.Since(t0), etag: strings.Trim(h.Get("ETag"), `"`)}
	switch st {
	case http.StatusNotModified:
		return pr, nil
	case http.StatusOK:
	default:
		return pollResult{}, remoteErr(st, body)
	}
	v, err := nffg.DecodeJSON(bytes.NewReader(body))
	if err != nil {
		return pollResult{}, fmt.Errorf("%w: %v", errBadView, err)
	}
	pr.modified, pr.view, pr.body = true, v, body
	return pr, nil
}

// scrape reads a process's /metrics into sums keyed by tier, metric name and
// stage label (other labels are summed over; histogram buckets skipped).
func scrape(ctx context.Context, base, tier string, into map[string]float64) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return fmt.Errorf("scrape %s: %w", base, err)
	}
	defer resp.Body.Close()
	return parseMetrics(resp.Body, tier, into)
}

func parseMetrics(r io.Reader, tier string, into map[string]float64) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name, labels, _ := strings.Cut(line[:sp], "{")
		if strings.HasSuffix(name, "_bucket") {
			continue
		}
		key := tier + ":" + name
		if i := strings.Index(labels, `stage="`); i >= 0 {
			stage, _, _ := strings.Cut(labels[i+7:], `"`)
			key += "{" + stage + "}"
		}
		into[key] += v
	}
	return sc.Err()
}

// proxy is a timing reverse proxy in front of one child process: every call
// the parent makes to the child becomes a span.
type proxy struct {
	url  string
	srv  *http.Server
	wire atomic.Int64
}

func startProxy(tier, child, backend string, spans *spanLog) (*proxy, error) {
	u, err := url.Parse(backend)
	if err != nil {
		return nil, err
	}
	rp := httputil.NewSingleHostReverseProxy(u)
	rp.Transport = &http.Transport{MaxIdleConnsPerHost: 64, DisableCompression: true}
	rp.FlushInterval = -1
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &proxy{url: "http://" + ln.Addr().String()}
	p.srv = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		kind := ""
		switch {
		case r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/unify/services"):
			kind = "install"
		case r.Method == http.MethodDelete:
			kind = "remove"
		}
		cw := &countingWriter{ResponseWriter: w}
		start := time.Now()
		rp.ServeHTTP(cw, r)
		end := time.Now()
		p.wire.Add(cw.n + max(r.ContentLength, 0))
		if kind == "" {
			return
		}
		req := r.Header.Get(api.TraceHeader)
		if kind == "remove" {
			id, _ := url.PathUnescape(r.URL.Path[strings.LastIndexByte(r.URL.Path, '/')+1:])
			req, _, _ = strings.Cut(id, "#")
		}
		spans.add(span{Name: "api." + tier + "." + kind, Start: start, End: end, Parent: child, Req: req})
	})}
	go func() { _ = p.srv.Serve(ln) }()
	return p, nil
}

func (p *proxy) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_ = p.srv.Shutdown(ctx)
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(b []byte) (int, error) {
	n, err := c.ResponseWriter.Write(b)
	c.n += int64(n)
	return n, err
}

func (c *countingWriter) Flush() {
	if f, ok := c.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}
