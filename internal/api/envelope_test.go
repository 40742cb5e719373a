package api

import (
	"context"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"github.com/unify-repro/escape/internal/admission"
	"github.com/unify-repro/escape/internal/core"
	"github.com/unify-repro/escape/internal/domain"
	"github.com/unify-repro/escape/internal/unify"
)

// wireCodes returns every Code* constant declared in envelope.go, so a code
// added there without a case below fails the round-trip test.
func wireCodes(t *testing.T) map[string]string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "envelope.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	codes := map[string]string{}
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, spec := range gd.Specs {
			vs := spec.(*ast.ValueSpec)
			for i, name := range vs.Names {
				lit, ok := vs.Values[i].(*ast.BasicLit)
				if !strings.HasPrefix(name.Name, "Code") || !ok {
					continue
				}
				v, err := strconv.Unquote(lit.Value)
				if err != nil {
					t.Fatal(err)
				}
				codes[name.Name] = v
			}
		}
	}
	return codes
}

// TestErrorCodeRoundTrip: every wire code a server writes comes back from
// remoteError as its sentinel (errors.Is), or — for the codes without one —
// as a plain error naming the code. Codes the server derives from a sentinel
// (errorStatus) must map back onto that same sentinel. The one body without
// an envelope, the mux's plain-text 404 for a route the server does not
// mount, reads as ErrUnknownService: a server without a fleet answers
// FleetStatus so.
func TestErrorCodeRoundTrip(t *testing.T) {
	cases := map[string]struct {
		code     string
		sentinel error // nil: a plain error carrying the code
	}{
		"CodeBadRequest":        {CodeBadRequest, nil},
		"CodeBusy":              {CodeBusy, unify.ErrBusy},
		"CodeCanceled":          {CodeCanceled, admission.ErrCanceled},
		"CodeDomainUnavailable": {CodeDomainUnavailable, unify.ErrDomainUnavailable},
		"CodeEmptyView":         {CodeEmptyView, core.ErrEmptyView},
		"CodeInternal":          {CodeInternal, nil},
		"CodeNotCancelable":     {CodeNotCancelable, admission.ErrNotCancelable},
		"CodeNotImplemented":    {CodeNotImplemented, nil},
		"CodeQueueFull":         {CodeQueueFull, admission.ErrQueueFull},
		"CodeReadOnly":          {CodeReadOnly, ErrReadOnly},
		"CodeRejected":          {CodeRejected, unify.ErrRejected},
		"CodeUnknownDomain":     {CodeUnknownDomain, domain.ErrUnknown},
		"CodeUnknownJob":        {CodeUnknownJob, admission.ErrUnknownJob},
		"CodeUnknownService":    {CodeUnknownService, unify.ErrUnknownService},
		"CodeUnknownTrace":      {CodeUnknownTrace, unify.ErrUnknownService},
	}
	declared := wireCodes(t)
	if len(declared) == 0 {
		t.Fatal("no Code* constants found in envelope.go")
	}
	for name, value := range declared {
		c, ok := cases[name]
		if !ok {
			t.Errorf("%s (%q) has no round-trip case", name, value)
			continue
		}
		if c.code != value {
			t.Errorf("%s: case code %q, declared %q", name, c.code, value)
		}
	}

	srv := NewServer(leaf(t, "codes"), nil)
	for name, c := range cases {
		rec := httptest.NewRecorder()
		srv.writeError(rec, http.StatusTeapot, c.code, "boom", "")
		err := remoteError(rec.Result())
		if err == nil {
			t.Fatalf("%s: no error", name)
		}
		if !strings.Contains(err.Error(), "boom") {
			t.Errorf("%s: message lost: %v", name, err)
		}
		if c.sentinel == nil {
			for _, other := range cases {
				if other.sentinel != nil && errors.Is(err, other.sentinel) {
					t.Errorf("%s: plain code mapped onto %v", name, other.sentinel)
				}
			}
			if !strings.Contains(err.Error(), c.code) {
				t.Errorf("%s: plain error must name the code: %v", name, err)
			}
			continue
		}
		if !errors.Is(err, c.sentinel) {
			t.Errorf("%s: %v is not %v", name, err, c.sentinel)
		}
		// The server side: a wrapped sentinel classifies onto a code that
		// maps back onto the same sentinel.
		if _, code := errorStatus(fmt.Errorf("wrapped: %w", c.sentinel)); !errors.Is(codeError(code, "x"), c.sentinel) {
			t.Errorf("%s: errorStatus gives %q, which does not map back", name, code)
		}
	}

	_, cli := startPair(t)
	if _, err := cli.FleetStatus(context.Background()); !errors.Is(err, unify.ErrUnknownService) {
		t.Fatalf("fleet status without a fleet: %v", err)
	}
}
