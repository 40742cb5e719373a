// The typed error envelope of the northbound API. Every error response
// carries one JSON document:
//
//	{"error": {"code": "busy", "message": "...", "domain": "d1"}}
//
// The code is the wire form of the unify/admission sentinel taxonomy, so
// clients map errors by NAME instead of reverse-engineering HTTP statuses or
// string-matching messages; the optional domain field names the child domain
// an infrastructure condition is about. The only error body without an
// envelope is the mux's own plain-text 404 for a route the server does not
// mount, which the client reads as unify.ErrUnknownService.
package api

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"github.com/unify-repro/escape/internal/admission"
	"github.com/unify-repro/escape/internal/core"
	"github.com/unify-repro/escape/internal/domain"
	"github.com/unify-repro/escape/internal/unify"
)

// ErrReadOnly marks a write refused by a read replica. The HTTP response is a
// 503 with code "read_only" and a Location header naming the writer, so a
// client that insists on writing through a replica knows where to go.
var ErrReadOnly = errors.New("api: read-only replica")

// ErrorBody is the typed payload inside the error envelope.
type ErrorBody struct {
	// Code is the stable machine-readable error name (see the table in
	// errorStatus); clients map it onto sentinel errors.
	Code string `json:"code"`
	// Message is the human-readable error text.
	Message string `json:"message"`
	// Domain optionally names the child domain an infrastructure condition
	// (domain_unavailable, unknown_domain) refers to.
	Domain string `json:"domain,omitempty"`
}

// ErrorEnvelope is the one error document every handler writes.
type ErrorEnvelope struct {
	Error ErrorBody `json:"error"`
}

// Wire error codes. The taxonomy mirrors the sentinel errors of unify and
// admission one-to-one; codes are append-only — a new condition gets a new
// code, never a reused one.
const (
	CodeBadRequest        = "bad_request"
	CodeBusy              = "busy"
	CodeCanceled          = "canceled"
	CodeDomainUnavailable = "domain_unavailable"
	CodeEmptyView         = "empty_view"
	CodeInternal          = "internal"
	CodeNotCancelable     = "not_cancelable"
	CodeNotImplemented    = "not_implemented"
	CodeQueueFull         = "queue_full"
	CodeReadOnly          = "read_only"
	CodeRejected          = "rejected"
	CodeUnknownDomain     = "unknown_domain"
	CodeUnknownJob        = "unknown_job"
	CodeUnknownService    = "unknown_service"
	CodeUnknownTrace      = "unknown_trace"
)

// errorStatus classifies an error into its (HTTP status, wire code) pair —
// the single source of truth for the server-side mapping.
func errorStatus(err error) (int, string) {
	switch {
	// Checked before ErrRejected: an install that failed because a target
	// domain is detached/evicting names an infrastructure condition, and the
	// caller's remedy (retry after the fleet heals) differs from a rejected
	// request's (fix the request).
	case errors.Is(err, unify.ErrDomainUnavailable):
		return http.StatusLocked, CodeDomainUnavailable
	case errors.Is(err, domain.ErrUnknown):
		return http.StatusNotFound, CodeUnknownDomain
	case errors.Is(err, unify.ErrRejected):
		return http.StatusConflict, CodeRejected
	case errors.Is(err, unify.ErrUnknownService):
		return http.StatusNotFound, CodeUnknownService
	case errors.Is(err, admission.ErrUnknownJob):
		return http.StatusNotFound, CodeUnknownJob
	case errors.Is(err, ErrReadOnly):
		return http.StatusServiceUnavailable, CodeReadOnly
	case errors.Is(err, unify.ErrBusy):
		return http.StatusServiceUnavailable, CodeBusy
	case errors.Is(err, admission.ErrQueueFull):
		return http.StatusTooManyRequests, CodeQueueFull
	case errors.Is(err, admission.ErrNotCancelable):
		return http.StatusConflict, CodeNotCancelable
	case errors.Is(err, admission.ErrCanceled):
		// A sync install whose queued job was canceled (DELETE on the job,
		// or queue shutdown) is a conflict, not a server fault.
		return http.StatusConflict, CodeCanceled
	case errors.Is(err, core.ErrEmptyView):
		// No domain has attached yet: the view legitimately does not exist.
		return http.StatusNotFound, CodeEmptyView
	default:
		return http.StatusInternalServerError, CodeInternal
	}
}

// codeSentinels maps every wire code that names a sentinel back onto it, so
// errors.Is works identically for local and remote layers. unknown_trace
// reads as ErrUnknownService: the ID names nothing the server recorded.
var codeSentinels = map[string]error{
	CodeBusy:              unify.ErrBusy,
	CodeCanceled:          admission.ErrCanceled,
	CodeDomainUnavailable: unify.ErrDomainUnavailable,
	CodeEmptyView:         core.ErrEmptyView,
	CodeNotCancelable:     admission.ErrNotCancelable,
	CodeQueueFull:         admission.ErrQueueFull,
	CodeReadOnly:          ErrReadOnly,
	CodeRejected:          unify.ErrRejected,
	CodeUnknownDomain:     domain.ErrUnknown,
	CodeUnknownJob:        admission.ErrUnknownJob,
	CodeUnknownService:    unify.ErrUnknownService,
	CodeUnknownTrace:      unify.ErrUnknownService,
}

// codeError maps a wire code back onto its sentinel. The codes without one
// (bad_request, not_implemented, internal) become a plain error carrying the
// code and message.
func codeError(code, msg string) error {
	if sentinel, ok := codeSentinels[code]; ok {
		return fmt.Errorf("%w: %s", sentinel, msg)
	}
	return fmt.Errorf("api: %s: %s", code, msg)
}

// writeError emits the typed envelope. domain may be empty.
func (s *Server) writeError(w http.ResponseWriter, status int, code, msg, domainName string) {
	s.writeJSON(w, status, ErrorEnvelope{Error: ErrorBody{Code: code, Message: msg, Domain: domainName}})
}

// httpError classifies err and writes its envelope. A replica refusing a
// write additionally points at the writer via the Location header.
func (s *Server) httpError(w http.ResponseWriter, err error) {
	status, code := errorStatus(err)
	if code == CodeReadOnly && s.replica != nil {
		w.Header().Set("Location", s.replica.WriterURL())
	}
	s.writeError(w, status, code, err.Error(), "")
}

// remoteError maps an HTTP error response back onto the sentinel errors by
// its envelope's code. A body without an envelope is not the API's: a 404
// is the mux's answer for a route the server does not mount (no fleet, no
// admission queue) and reads as ErrUnknownService; anything else is a plain
// error naming the status.
func remoteError(resp *http.Response) error {
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	var env ErrorEnvelope
	if json.Unmarshal(raw, &env) == nil && env.Error.Code != "" {
		return codeError(env.Error.Code, env.Error.Message)
	}
	if resp.StatusCode == http.StatusNotFound {
		return fmt.Errorf("%w: %s", unify.ErrUnknownService, resp.Status)
	}
	return fmt.Errorf("api: remote error: %s", resp.Status)
}
