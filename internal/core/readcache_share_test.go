package core

// Tests of the copy-free view rebuild: the merged cut is an nffg.Union that
// shares the sealed shard snapshots' elements, and the Transparent view is a
// renamed alias of that cut. What must hold: the view encodes exactly like
// the deep-copying pairwise merge it replaced, equal ETags still imply equal
// bytes, shared graphs refuse mutation (seal-check builds), and Copy() is a
// full escape hatch — mutating a copy reaches no shard snapshot or cached cut.

import (
	"context"
	"fmt"
	"testing"

	"github.com/unify-repro/escape/internal/nffg"
)

// shareRO is a 4-shard mesh under the Transparent virtualizer with services
// spanning several shards (NFs, flowrules and bookkeeping hops in the cut).
// Link-ID collisions cannot arise here — Attach qualifies every link ID with
// its child — so the rename path is covered in internal/nffg.
func shareRO(t *testing.T, cfg Config) *ResourceOrchestrator {
	t.Helper()
	cfg.Virtualizer = Transparent{}
	ro, _ := meshROCfg(t, 4, 2, cfg)
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		req := chainReq(t, fmt.Sprintf("span%d", i), nffg.ID(fmt.Sprintf("d%d-u0in", i)), nffg.ID(fmt.Sprintf("d%d-u1out", i+1)), "fw")
		if _, err := ro.Install(ctx, req); err != nil {
			t.Fatal(err)
		}
	}
	return ro
}

// pairwiseView derives the view the deep-copying read path computed over the
// current cut: a pairwise Merge of the shard snapshots, then a renamed Copy.
func pairwiseView(t *testing.T, ro *ResourceOrchestrator) string {
	t.Helper()
	graphs, _ := ro.currentCut()
	m := nffg.New(ro.id + "-dov")
	for _, g := range graphs {
		if g == nil {
			continue
		}
		if err := m.Merge(g); err != nil {
			t.Fatal(err)
		}
	}
	v := m.Copy()
	v.ID = m.ID + "/view"
	return mustJSON(t, v)
}

// sealChecked reports whether this build panics on mutating a sealed graph.
func sealChecked() (on bool) {
	defer func() { on = recover() != nil }()
	nffg.New("probe").Seal().NextVersion()
	return false
}

// TestSharedViewMatchesPairwiseMerge: the copy-free view encodes byte for
// byte like the pairwise-merged, deep-copied view, with and without the read
// caches.
func TestSharedViewMatchesPairwiseMerge(t *testing.T) {
	for _, noCache := range []bool{false, true} {
		t.Run(fmt.Sprintf("NoReadCache=%v", noCache), func(t *testing.T) {
			ro := shareRO(t, Config{ID: "ro", NoReadCache: noCache})
			v, err := ro.View(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if got, want := mustJSON(t, v), pairwiseView(t, ro); got != want {
				t.Fatalf("view differs from the pairwise merge:\n%s\n---\n%s", got, want)
			}
		})
	}
}

// TestSharedViewETagContract: equal ETags imply identical bytes — across
// cached reads, uncached rebuilds, and a commit/remove cycle that returns to
// the same content under a new ETag.
func TestSharedViewETagContract(t *testing.T) {
	ctx := context.Background()
	for _, noCache := range []bool{false, true} {
		t.Run(fmt.Sprintf("NoReadCache=%v", noCache), func(t *testing.T) {
			ro := shareRO(t, Config{ID: "ro", NoReadCache: noCache})
			byTag := map[string]string{}
			read := func() string {
				v, ver, err := ro.VersionedView(ctx)
				if err != nil {
					t.Fatal(err)
				}
				b := mustJSON(t, v)
				if prev, ok := byTag[ver.ETag]; ok && prev != b {
					t.Fatalf("ETag %s names two different views", ver.ETag)
				}
				byTag[ver.ETag] = b
				return ver.ETag
			}
			e1 := read()
			if e2 := read(); e2 != e1 {
				t.Fatalf("ETag moved without a commit: %s -> %s", e1, e2)
			}
			if _, err := ro.Install(ctx, chainReq(t, "extra", "d3-u0in", "d3-u0out", "fw")); err != nil {
				t.Fatal(err)
			}
			e3 := read()
			if err := ro.Remove(ctx, "extra"); err != nil {
				t.Fatal(err)
			}
			e4 := read()
			if e3 == e1 || e4 == e3 || e4 == e1 {
				t.Fatalf("commits must move the ETag: %s %s %s", e1, e3, e4)
			}
			read()
		})
	}
}

// TestSharedViewCopyIsolation: mutating every element of a Copy() of the
// view leaves every shard snapshot, the cached cut and the cached view
// unchanged; in seal-check builds the shared graphs refuse mutation.
func TestSharedViewCopyIsolation(t *testing.T) {
	ro := shareRO(t, Config{ID: "ro"})
	ctx := context.Background()
	v, err := ro.View(ctx)
	if err != nil {
		t.Fatal(err)
	}
	dov := mustDoV(t, ro)
	graphs, _ := ro.currentCut()
	before := map[*nffg.NFFG]string{v: mustJSON(t, v), dov: mustJSON(t, dov)}
	for _, g := range graphs {
		before[g] = mustJSON(t, g)
	}

	c := v.Copy()
	for _, i := range c.Infras {
		i.Capacity.CPU = -1
		i.Ports[0].ID = "x"
		i.Flowrules = nil
	}
	for _, n := range c.NFs {
		n.Host = "nowhere"
	}
	for _, s := range c.SAPs {
		s.Port.ID = "x"
	}
	for _, l := range c.Links {
		l.Bandwidth = -1
	}
	for _, h := range c.Hops {
		h.Bandwidth = -1
	}
	if err := c.AddSAP(&nffg.SAP{ID: "new-sap"}); err != nil {
		t.Fatal(err)
	}
	for g, b := range before {
		if mustJSON(t, g) != b {
			t.Fatalf("mutating a Copy of the view changed shared graph %s", g.ID)
		}
	}
	if again, err := ro.View(ctx); err != nil || again != v {
		t.Fatalf("the cached view must survive: %v", err)
	}

	if !sealChecked() {
		t.Skip("seal checks compiled out (enable with -race or -tags nffg_sealcheck)")
	}
	for name, g := range map[string]*nffg.NFFG{"view": v, "cut": dov} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("mutating the shared %s did not panic", name)
				}
			}()
			_ = g.AddSAP(&nffg.SAP{ID: "sneaky"})
		}()
	}
}
