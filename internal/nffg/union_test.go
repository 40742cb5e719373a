package nffg

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// pairwiseMerge is the merge the DoV read path ran before Union, kept here
// unchanged as the equivalence oracle: node collisions checked in sorted ID
// order, every element deep-copied, and a LinkByID scan over the links merged
// so far for each incoming link.
func pairwiseMerge(g, other *NFFG) error {
	for _, id := range other.InfraIDs() {
		if g.hasNode(id) {
			return fmt.Errorf("%w: infra %s present in both graphs", ErrDuplicateID, id)
		}
	}
	for _, id := range other.NFIDs() {
		if g.hasNode(id) {
			return fmt.Errorf("%w: NF %s present in both graphs", ErrDuplicateID, id)
		}
	}
	for _, id := range other.InfraIDs() {
		g.Infras[id] = copyInfra(other.Infras[id])
	}
	for _, id := range other.NFIDs() {
		g.NFs[id] = copyNF(other.NFs[id])
	}
	for _, id := range other.SAPIDs() {
		if _, ok := g.SAPs[id]; ok {
			continue
		}
		p := *other.SAPs[id].Port
		g.SAPs[id] = &SAP{ID: id, Name: other.SAPs[id].Name, Port: &p}
	}
	for _, l := range other.Links {
		cl := *l
		if g.LinkByID(l.ID) != nil {
			cl.ID = fmt.Sprintf("%s@%s", l.ID, other.ID)
		}
		g.Links = append(g.Links, &cl)
	}
	for _, h := range other.Hops {
		ch := *h
		g.Hops = append(g.Hops, &ch)
	}
	for _, r := range other.Reqs {
		cr := *r
		cr.HopIDs = append([]string(nil), r.HopIDs...)
		g.Reqs = append(g.Reqs, &cr)
	}
	return nil
}

// randomShard builds shard i of a randomized cut. Link IDs are drawn from a
// small shared pool (collisions across and within shards, including IDs that
// look like earlier renames), border SAPs are shared with differing names
// (first one wins), and with small probability an infra or NF reuses another
// shard's ID (the duplicate errors). The graph is normalized through Copy and
// sealed, exactly as the orchestrator stores shard snapshots.
func randomShard(rng *rand.Rand, i int) *NFFG {
	g := New(fmt.Sprintf("g%d", i))
	var infras []ID
	for j := 0; j < 1+rng.Intn(3); j++ {
		id := ID(fmt.Sprintf("g%d-bb%d", i, j))
		switch {
		case i > 0 && rng.Intn(25) == 0:
			id = "g0-bb0" // duplicate infra
		case i > 0 && rng.Intn(40) == 0:
			id = "border0" // infra colliding with a stitched SAP
		}
		inf := &Infra{ID: id, Domain: g.ID, Type: "bisbis",
			Ports:     []*Port{{ID: "1"}, {ID: "2"}, {ID: "3"}},
			Capacity:  Resources{CPU: float64(4 + rng.Intn(8)), Mem: 4096, Storage: 32},
			Supported: []string{"fw"},
		}
		for r := 0; r < rng.Intn(3); r++ {
			inf.Flowrules = append(inf.Flowrules, &Flowrule{ID: fmt.Sprintf("f%d", r), Priority: r,
				Match: Match{InPort: InfraPort("1"), Tag: fmt.Sprint(r)}, Action: Action{Output: InfraPort("2")}})
		}
		g.Infras[id] = inf
		infras = append(infras, id)
	}
	for j := 0; j < rng.Intn(3); j++ {
		id := ID(fmt.Sprintf("g%d-nf%d", i, j))
		if i > 0 && rng.Intn(25) == 0 {
			id = "g0-nf0" // duplicate NF
		}
		nf := &NF{ID: id, FunctionalType: "fw", Host: infras[rng.Intn(len(infras))],
			Demand: Resources{CPU: 1}, Status: StatusMapped}
		for p := 0; p < rng.Intn(3); p++ { // sometimes port-less
			nf.Ports = append(nf.Ports, &Port{ID: fmt.Sprint(p + 1)})
		}
		g.NFs[id] = nf
	}
	own := ID(fmt.Sprintf("g%d-sap", i))
	g.SAPs[own] = &SAP{ID: own, Port: &Port{ID: "1"}}
	for b := 0; b < 3; b++ {
		if rng.Intn(2) == 0 {
			id := ID(fmt.Sprintf("border%d", b))
			g.SAPs[id] = &SAP{ID: id, Name: "via " + g.ID, Port: &Port{ID: fmt.Sprint(1 + rng.Intn(2))}}
		}
	}
	pool := []string{"l0", "l1", "up", "l0@g1", "l0@g2", "l1@g1@g2"}
	for j := 0; j < 1+rng.Intn(5); j++ {
		id := fmt.Sprintf("g%d-l%d", i, j)
		if rng.Intn(2) == 0 {
			id = pool[rng.Intn(len(pool))]
		}
		g.Links = append(g.Links, &Link{ID: id, SrcNode: own, SrcPort: "1",
			DstNode: infras[rng.Intn(len(infras))], DstPort: "1", Bandwidth: float64(rng.Intn(1000)), Delay: 0.5})
	}
	var hops []string
	for j := 0; j < rng.Intn(3); j++ {
		id := fmt.Sprintf("g%d-h%d", i, j)
		hops = append(hops, id)
		g.Hops = append(g.Hops, &SGHop{ID: id, SrcNode: own, SrcPort: "1", DstNode: infras[0], DstPort: "2", Bandwidth: 5})
	}
	if len(hops) > 0 && rng.Intn(2) == 0 {
		g.Reqs = append(g.Reqs, &Requirement{ID: g.ID + "-r", SrcNode: own, DstNode: own, HopIDs: hops, Delay: 9})
	}
	return g.Copy().Seal()
}

func encodeJSON(t testing.TB, g *NFFG) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := g.EncodeJSON(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// uniqueLinkIDs counts the distinct link IDs across graphs.
func uniqueLinkIDs(graphs ...*NFFG) int {
	ids := map[string]bool{}
	for _, g := range graphs {
		for _, l := range g.Links {
			ids[l.ID] = true
		}
	}
	return len(ids)
}

func errString(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// TestUnionMatchesPairwiseMerge: for randomized shard sets, Union — and the
// indexed Merge folded pairwise — produce the bytes and the first error of
// the pairwise merge they replace, and Union leaves its inputs untouched.
func TestUnionMatchesPairwiseMerge(t *testing.T) {
	collisions, renames, failures := 0, 0, 0
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		shards := make([]*NFFG, 2+rng.Intn(6))
		before := make([][]byte, len(shards))
		for i := range shards {
			shards[i] = randomShard(rng, i)
			before[i] = encodeJSON(t, shards[i])
		}

		want := New("dov")
		var wantErr error
		for _, s := range shards {
			if wantErr = pairwiseMerge(want, s); wantErr != nil {
				break
			}
		}
		got, gotErr := Union("dov", shards...)
		folded := New("dov")
		var foldErr error
		for _, s := range shards {
			if foldErr = folded.Merge(s); foldErr != nil {
				break
			}
		}

		if errString(gotErr) != errString(wantErr) || errString(foldErr) != errString(wantErr) {
			t.Fatalf("seed %d: errors: Union %v, Merge %v, pairwise %v", seed, gotErr, foldErr, wantErr)
		}
		for i, s := range shards {
			if !bytes.Equal(encodeJSON(t, s), before[i]) {
				t.Fatalf("seed %d: Union modified input shard %s", seed, s.ID)
			}
		}
		if wantErr != nil {
			failures++
			continue
		}
		wantBytes := encodeJSON(t, want)
		if gb := encodeJSON(t, got); !bytes.Equal(gb, wantBytes) {
			t.Fatalf("seed %d: Union differs from pairwise merge:\n%s\n---\n%s", seed, gb, wantBytes)
		}
		if fb := encodeJSON(t, folded); !bytes.Equal(fb, wantBytes) {
			t.Fatalf("seed %d: Merge differs from pairwise merge:\n%s\n---\n%s", seed, fb, wantBytes)
		}
		if !got.Sealed() {
			t.Fatalf("seed %d: Union output must be sealed", seed)
		}
		links, saps := 0, 0
		for _, s := range shards {
			links += len(s.Links)
			saps += len(s.SAPs)
		}
		if saps > len(got.SAPs) {
			collisions++ // border SAPs stitched
		}
		if uniqueLinkIDs(got) > uniqueLinkIDs(shards...) || links > uniqueLinkIDs(shards...) {
			renames++
		}
	}
	// The generator must actually exercise what the test is about.
	if collisions == 0 || renames == 0 || failures == 0 {
		t.Fatalf("generator coverage: %d stitched cuts, %d with renames, %d failing merges", collisions, renames, failures)
	}
	t.Logf("%d stitched cuts, %d with renamed links, %d duplicate-ID failures", collisions, renames, failures)
}

// TestUnionSharesSealedElements pins the aliasing contract: Union shares the
// sealed inputs' elements (only a renamed link is copied), the result is
// sealed, and a Copy of it is fully independent of every input.
func TestUnionSharesSealedElements(t *testing.T) {
	a := New("a")
	a.Infras["x"] = &Infra{ID: "x", Type: "bisbis", Ports: []*Port{{ID: "1"}}, Capacity: Resources{CPU: 4}}
	a.SAPs["s"] = &SAP{ID: "s", Name: "from a", Port: &Port{ID: "1"}}
	a.Links = []*Link{{ID: "l", SrcNode: "s", SrcPort: "1", DstNode: "x", DstPort: "1", Bandwidth: 10}}
	a.Hops = []*SGHop{{ID: "h", SrcNode: "s", SrcPort: "1", DstNode: "x", DstPort: "1"}}
	b := New("b")
	b.Infras["y"] = &Infra{ID: "y", Type: "bisbis", Ports: []*Port{{ID: "1"}}, Capacity: Resources{CPU: 4}}
	b.SAPs["s"] = &SAP{ID: "s", Name: "from b", Port: &Port{ID: "1"}}
	b.Links = []*Link{{ID: "l", SrcNode: "s", SrcPort: "1", DstNode: "y", DstPort: "1", Bandwidth: 20}}
	a.Seal()
	b.Seal()
	aBytes, bBytes := encodeJSON(t, a), encodeJSON(t, b)

	u, err := Union("dov", a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !u.Sealed() || u.ID != "dov" {
		t.Fatalf("union: sealed=%v id=%q", u.Sealed(), u.ID)
	}
	if u.Infras["x"] != a.Infras["x"] || u.Infras["y"] != b.Infras["y"] || u.Hops[0] != a.Hops[0] {
		t.Fatal("union must share the sealed inputs' nodes and hops")
	}
	if u.SAPs["s"] != a.SAPs["s"] {
		t.Fatal("a stitched SAP must be the first input's element")
	}
	if u.Links[0] != a.Links[0] {
		t.Fatal("a non-colliding link must be shared")
	}
	if u.Links[1] == b.Links[0] || u.Links[1].ID != "l@b" || b.Links[0].ID != "l" {
		t.Fatalf("a colliding link must be a renamed copy: got %q, input %q", u.Links[1].ID, b.Links[0].ID)
	}

	c := u.Copy()
	c.Infras["x"].Capacity.CPU = 0
	c.SAPs["s"].Port.ID = "9"
	c.Links[0].Bandwidth = 0
	c.Hops[0].Bandwidth = 99
	if !bytes.Equal(encodeJSON(t, a), aBytes) || !bytes.Equal(encodeJSON(t, b), bBytes) {
		t.Fatal("mutating a Copy of the union changed an input")
	}

	al := u.Alias("dov/view")
	if !al.Sealed() || al.ID != "dov/view" || u.ID != "dov" || al.Infras["x"] != u.Infras["x"] {
		t.Fatalf("alias: sealed=%v id=%q source id=%q", al.Sealed(), al.ID, u.ID)
	}
}

// TestUnionSealDiscipline: in seal-check builds the union and its aliases
// refuse mutation, and sharing requires sealed inputs.
func TestUnionSealDiscipline(t *testing.T) {
	if !sealCheckEnabled {
		t.Skip("seal checks compiled out (enable with -race or -tags nffg_sealcheck)")
	}
	a := New("a")
	a.Infras["x"] = &Infra{ID: "x", Type: "bisbis", Ports: []*Port{{ID: "1"}}}
	b := New("b")
	b.Infras["y"] = &Infra{ID: "y", Type: "bisbis", Ports: []*Port{{ID: "1"}}}
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("Union of unsealed inputs", func() { _, _ = Union("dov", a, b) })
	mustPanic("Alias of an unsealed graph", func() { _ = a.Alias("v") })

	u, err := Union("dov", a.Seal(), b.Seal())
	if err != nil {
		t.Fatal(err)
	}
	v := u.Alias("dov/view")
	for name, g := range map[string]*NFFG{"union": u, "alias": v} {
		mustPanic(name+" AddInfra", func() { _ = g.AddInfra(&Infra{ID: "z"}) })
		mustPanic(name+" Merge", func() { _ = g.Merge(New("other")) })
		mustPanic(name+" NextVersion", func() { _ = g.NextVersion() })
	}
}
