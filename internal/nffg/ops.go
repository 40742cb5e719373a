package nffg

import (
	"fmt"
	"slices"
	"sort"

	"github.com/unify-repro/escape/internal/topo"
)

// Copy returns a deep copy of the graph. The copy is never sealed (it is the
// escape hatch for mutating a shared snapshot), and its maps and edge slices
// are pre-sized from the source — Copy sits on every cache miss of the
// orchestration read path, so its allocation count matters.
func (g *NFFG) Copy() *NFFG {
	c := NewSized(g.ID, len(g.Infras), len(g.NFs), len(g.SAPs))
	c.Name = g.Name
	c.Version = g.Version
	for id, i := range g.Infras {
		c.Infras[id] = copyInfra(i)
	}
	for id, n := range g.NFs {
		c.NFs[id] = copyNF(n)
	}
	for id, s := range g.SAPs {
		p := *s.Port
		c.SAPs[id] = &SAP{ID: s.ID, Name: s.Name, Port: &p}
	}
	if len(g.Links) > 0 {
		c.Links = make([]*Link, 0, len(g.Links))
	}
	for _, l := range g.Links {
		cl := *l
		c.Links = append(c.Links, &cl)
	}
	if len(g.Hops) > 0 {
		c.Hops = make([]*SGHop, 0, len(g.Hops))
	}
	for _, h := range g.Hops {
		ch := *h
		c.Hops = append(c.Hops, &ch)
	}
	if len(g.Reqs) > 0 {
		c.Reqs = make([]*Requirement, 0, len(g.Reqs))
	}
	for _, r := range g.Reqs {
		cr := *r
		cr.HopIDs = append([]string(nil), r.HopIDs...)
		c.Reqs = append(c.Reqs, &cr)
	}
	return c
}

func copyInfra(i *Infra) *Infra {
	c := *i
	c.Ports = copyPorts(i.Ports)
	c.Supported = append([]string(nil), i.Supported...)
	c.Flowrules = nil
	if len(i.Flowrules) > 0 {
		c.Flowrules = make([]*Flowrule, 0, len(i.Flowrules))
	}
	for _, f := range i.Flowrules {
		cf := *f
		c.Flowrules = append(c.Flowrules, &cf)
	}
	return &c
}

func copyNF(n *NF) *NF {
	c := *n
	c.Ports = copyPorts(n.Ports)
	return &c
}

func copyPorts(ps []*Port) []*Port {
	out := make([]*Port, 0, len(ps))
	for _, p := range ps {
		cp := *p
		out = append(out, &cp)
	}
	return out
}

// Validate checks structural invariants: endpoint existence for every link,
// hop and flowrule; NF hosts exist and support the NF's functional type; no
// infra node is oversubscribed; requirements reference existing hops.
func (g *NFFG) Validate() error {
	for _, l := range g.Links {
		if err := g.checkEndpoint(l.SrcNode, l.SrcPort); err != nil {
			return fmt.Errorf("link %s: %w", l.ID, err)
		}
		if err := g.checkEndpoint(l.DstNode, l.DstPort); err != nil {
			return fmt.Errorf("link %s: %w", l.ID, err)
		}
	}
	for _, h := range g.Hops {
		if err := g.checkEndpoint(h.SrcNode, h.SrcPort); err != nil {
			return fmt.Errorf("hop %s: %w", h.ID, err)
		}
		if err := g.checkEndpoint(h.DstNode, h.DstPort); err != nil {
			return fmt.Errorf("hop %s: %w", h.ID, err)
		}
	}
	for _, id := range g.NFIDs() {
		nf := g.NFs[id]
		if nf.Host == "" {
			continue
		}
		host, ok := g.Infras[nf.Host]
		if !ok {
			// In a pure service graph (no infrastructure), Host is an
			// external placement pin resolved by a lower layer against its
			// own view; only graphs that carry infrastructure must resolve
			// hosts internally.
			if len(g.Infras) == 0 {
				continue
			}
			return fmt.Errorf("%w: NF %s host %s missing", ErrInvalid, id, nf.Host)
		}
		if len(host.Supported) > 0 && !host.SupportsNF(nf.FunctionalType) {
			return fmt.Errorf("%w: NF %s type %q unsupported on %s", ErrInvalid, id, nf.FunctionalType, nf.Host)
		}
	}
	for _, id := range g.InfraIDs() {
		if _, err := g.AvailableResources(id); err != nil {
			return err
		}
		for _, f := range g.Infras[id].Flowrules {
			if err := g.checkRulePort(g.Infras[id], f.Match.InPort); err != nil {
				return fmt.Errorf("infra %s flowrule %s: %w", id, f.ID, err)
			}
			if err := g.checkRulePort(g.Infras[id], f.Action.Output); err != nil {
				return fmt.Errorf("infra %s flowrule %s: %w", id, f.ID, err)
			}
		}
	}
	for _, r := range g.Reqs {
		for _, hid := range r.HopIDs {
			if g.HopByID(hid) == nil {
				return fmt.Errorf("%w: requirement %s hop %s missing", ErrInvalid, r.ID, hid)
			}
		}
	}
	return nil
}

// InfraTopo projects the static-link topology (infra + SAP nodes) into a
// topo.Graph for path computation. Link IDs are preserved.
func (g *NFFG) InfraTopo() *topo.Graph {
	t := topo.New()
	for _, id := range g.InfraIDs() {
		t.EnsureNode(topo.NodeID(id))
	}
	for _, id := range g.SAPIDs() {
		t.EnsureNode(topo.NodeID(id))
	}
	for _, l := range g.Links {
		_ = t.AddLink(topo.Link{
			ID:        topo.LinkID(l.ID),
			Src:       topo.NodeID(l.SrcNode),
			Dst:       topo.NodeID(l.DstNode),
			Bandwidth: l.Bandwidth,
			Delay:     l.Delay,
			Cost:      1,
		})
	}
	return t
}

// Merge folds other into g: disjoint node sets are required except for SAPs,
// which stitch (same SAP ID appearing in two domains is the inter-domain
// attachment point). Links and hops are appended; a link whose ID g already
// holds is renamed to "<id>@<other.ID>". Every merged element is deep-copied,
// so g stays independently mutable — the contract of Attach and journal
// recovery, which keep editing the result. Read paths that only publish the
// merged graph use Union instead, which shares the sealed inputs' elements.
func (g *NFFG) Merge(other *NFFG) error {
	g.mustMutable("Merge")
	u := unionOnto(g, len(other.Links))
	return u.add(other, true)
}

// Union merges sealed graphs, in order, into one new sealed graph with the
// given ID — the same result, byte for byte, as folding them one by one into
// New(id) with Merge, including the first collision error. It runs in one
// pass over its inputs: the output is pre-sized and a single link-ID set
// detects renames for all of them, so the cost is linear in the total size.
//
// The output aliases the inputs' nodes, links, hops and requirements instead
// of copying them; only a renamed link is copied. That is sound because
// sealed graphs are immutable down to their elements (see Seal), so every
// input must be sealed (checked in seal-check builds).
func Union(id string, graphs ...*NFFG) (*NFFG, error) {
	var nInfras, nNFs, nSAPs, nLinks, nHops, nReqs int
	for _, g := range graphs {
		g.mustSealed("Union")
		nInfras += len(g.Infras)
		nNFs += len(g.NFs)
		nSAPs += len(g.SAPs)
		nLinks += len(g.Links)
		nHops += len(g.Hops)
		nReqs += len(g.Reqs)
	}
	out := NewSized(id, nInfras, nNFs, nSAPs)
	out.Links = make([]*Link, 0, nLinks)
	out.Hops = make([]*SGHop, 0, nHops)
	out.Reqs = make([]*Requirement, 0, nReqs)
	u := unionOnto(out, nLinks)
	for _, g := range graphs {
		if err := u.add(g, false); err != nil {
			return nil, err
		}
	}
	return out.Seal(), nil
}

// union is the indexed insert loop shared by Merge and Union: the target
// graph plus the set of every link ID it holds, so a colliding link is found
// by one map probe instead of a scan over the links merged so far.
type union struct {
	g     *NFFG
	links map[string]struct{}
}

// unionOnto indexes g's current links, leaving room for extra more.
func unionOnto(g *NFFG, extra int) *union {
	u := &union{g: g, links: make(map[string]struct{}, len(g.Links)+extra)}
	for _, l := range g.Links {
		u.links[l.ID] = struct{}{}
	}
	return u
}

// add folds other into the target. With deep set every element is copied
// (Merge); otherwise elements are shared and only renamed links are copied
// (Union). Nothing is inserted when the node sets collide.
func (u *union) add(other *NFFG, deep bool) error {
	g := u.g
	if id, ok := firstCollision(g, other.Infras); ok {
		return fmt.Errorf("%w: infra %s present in both graphs", ErrDuplicateID, id)
	}
	if id, ok := firstCollision(g, other.NFs); ok {
		return fmt.Errorf("%w: NF %s present in both graphs", ErrDuplicateID, id)
	}
	g.Links = slices.Grow(g.Links, len(other.Links))
	g.Hops = slices.Grow(g.Hops, len(other.Hops))
	g.Reqs = slices.Grow(g.Reqs, len(other.Reqs))
	for id, i := range other.Infras {
		if deep {
			i = copyInfra(i)
		}
		g.Infras[id] = i
	}
	for id, n := range other.NFs {
		if deep {
			n = copyNF(n)
		}
		g.NFs[id] = n
	}
	for id, s := range other.SAPs {
		if _, ok := g.SAPs[id]; ok {
			continue // shared SAP: stitching point
		}
		if deep {
			p := *s.Port
			s = &SAP{ID: id, Name: s.Name, Port: &p}
		}
		g.SAPs[id] = s
	}
	for _, l := range other.Links {
		_, dup := u.links[l.ID]
		if deep || dup {
			cl := *l
			if dup {
				cl.ID = l.ID + "@" + other.ID
			}
			l = &cl
		}
		u.links[l.ID] = struct{}{}
		g.Links = append(g.Links, l)
	}
	for _, h := range other.Hops {
		if deep {
			ch := *h
			h = &ch
		}
		g.Hops = append(g.Hops, h)
	}
	for _, r := range other.Reqs {
		if deep {
			cr := *r
			cr.HopIDs = append([]string(nil), r.HopIDs...)
			r = &cr
		}
		g.Reqs = append(g.Reqs, r)
	}
	return nil
}

// firstCollision returns the smallest ID of nodes that g already holds — the
// one a merge in sorted ID order reports first.
func firstCollision[V any](g *NFFG, nodes map[ID]V) (ID, bool) {
	var first ID
	found := false
	for id := range nodes {
		if g.hasNode(id) && (!found || id < first) {
			first, found = id, true
		}
	}
	return first, found
}

// Delta is the difference between two NFFGs sharing a node universe: what an
// orchestrator must instantiate and tear down to move a domain from the old
// configuration to the new one. It is the payload equivalent of a NETCONF
// edit-config on the virtualizer model.
type Delta struct {
	// AddNFs are NFs (with Host set) to instantiate.
	AddNFs []*NF
	// DelNFs are NF IDs to terminate.
	DelNFs []ID
	// AddRules maps infra ID to flowrules to install.
	AddRules map[ID][]*Flowrule
	// DelRules maps infra ID to flowrules to remove (matched by Match key).
	DelRules map[ID][]*Flowrule
}

// Empty reports whether the delta carries no change.
func (d *Delta) Empty() bool {
	return len(d.AddNFs) == 0 && len(d.DelNFs) == 0 && len(d.AddRules) == 0 && len(d.DelRules) == 0
}

// Counts returns (NF additions, NF deletions, rule additions, rule deletions).
func (d *Delta) Counts() (int, int, int, int) {
	ar, dr := 0, 0
	for _, rs := range d.AddRules {
		ar += len(rs)
	}
	for _, rs := range d.DelRules {
		dr += len(rs)
	}
	return len(d.AddNFs), len(d.DelNFs), ar, dr
}

// Diff computes the delta that transforms old into new. Both graphs must
// describe the same infrastructure (same infra IDs); only NF placements and
// flowtables are compared — topology changes are a domain event, not a
// configuration.
func Diff(oldG, newG *NFFG) (*Delta, error) {
	d := &Delta{AddRules: map[ID][]*Flowrule{}, DelRules: map[ID][]*Flowrule{}}
	for _, id := range newG.InfraIDs() {
		if _, ok := oldG.Infras[id]; !ok {
			return nil, fmt.Errorf("%w: infra %s only in new graph", ErrInvalid, id)
		}
	}
	for _, id := range oldG.InfraIDs() {
		if _, ok := newG.Infras[id]; !ok {
			return nil, fmt.Errorf("%w: infra %s only in old graph", ErrInvalid, id)
		}
	}
	// NF placements.
	for _, id := range newG.NFIDs() {
		nf := newG.NFs[id]
		if nf.Host == "" {
			continue
		}
		old, ok := oldG.NFs[id]
		switch {
		case !ok || old.Host == "":
			d.AddNFs = append(d.AddNFs, copyNF(nf))
		case old.Host != nf.Host:
			// Migration = delete + add.
			d.DelNFs = append(d.DelNFs, id)
			d.AddNFs = append(d.AddNFs, copyNF(nf))
		}
	}
	for _, id := range oldG.NFIDs() {
		old := oldG.NFs[id]
		if old.Host == "" {
			continue
		}
		nf, ok := newG.NFs[id]
		if !ok || nf.Host == "" {
			d.DelNFs = append(d.DelNFs, id)
		}
	}
	sort.Slice(d.DelNFs, func(i, j int) bool { return d.DelNFs[i] < d.DelNFs[j] })
	// Flowtables, per infra, keyed by Match.
	for _, id := range newG.InfraIDs() {
		oldRules := indexRules(oldG.Infras[id].Flowrules)
		newRules := indexRules(newG.Infras[id].Flowrules)
		for k, nf := range newRules {
			if of, ok := oldRules[k]; !ok || !of.Equal(nf) {
				cf := *nf
				d.AddRules[id] = append(d.AddRules[id], &cf)
				if ok {
					cof := *of
					d.DelRules[id] = append(d.DelRules[id], &cof)
				}
			}
		}
		for k, of := range oldRules {
			if _, ok := newRules[k]; !ok {
				cof := *of
				d.DelRules[id] = append(d.DelRules[id], &cof)
			}
		}
		sortRules(d.AddRules[id])
		sortRules(d.DelRules[id])
		if len(d.AddRules[id]) == 0 {
			delete(d.AddRules, id)
		}
		if len(d.DelRules[id]) == 0 {
			delete(d.DelRules, id)
		}
	}
	return d, nil
}

// Apply mutates g by the delta: removes deleted NFs and rules, installs added
// ones. Apply(Diff(a, b), a) makes a equivalent to b for placements and
// flowtables.
func (g *NFFG) Apply(d *Delta) error {
	g.mustMutable("Apply")
	for _, id := range d.DelNFs {
		if nf, ok := g.NFs[id]; ok {
			nf.Host = ""
			nf.Status = StatusStopped
		}
	}
	for infra, rules := range d.DelRules {
		i, ok := g.Infras[infra]
		if !ok {
			return fmt.Errorf("%w: infra %s", ErrNotFound, infra)
		}
		drop := map[Match]bool{}
		for _, f := range rules {
			drop[f.Match] = true
		}
		kept := i.Flowrules[:0]
		for _, f := range i.Flowrules {
			if !drop[f.Match] {
				kept = append(kept, f)
			}
		}
		i.Flowrules = kept
	}
	for _, nf := range d.AddNFs {
		if existing, ok := g.NFs[nf.ID]; ok {
			existing.Host = nf.Host
			existing.Status = StatusMapped
			existing.Demand = nf.Demand
		} else {
			c := copyNF(nf)
			c.Status = StatusMapped
			g.NFs[nf.ID] = c
		}
	}
	for infra, rules := range d.AddRules {
		i, ok := g.Infras[infra]
		if !ok {
			return fmt.Errorf("%w: infra %s", ErrNotFound, infra)
		}
		for _, f := range rules {
			cf := *f
			// Rule identity for diffing is the Match; IDs are advisory. An
			// ID collision with an unrelated existing rule is resolved by
			// renaming (Equal ignores IDs, so convergence is unaffected).
			for n := 2; ruleIDExists(i, cf.ID); n++ {
				cf.ID = fmt.Sprintf("%s~%d", f.ID, n)
			}
			if err := g.AddFlowrule(infra, &cf); err != nil {
				return err
			}
		}
	}
	g.NextVersion()
	return nil
}

func ruleIDExists(i *Infra, id string) bool {
	if id == "" {
		return false
	}
	for _, f := range i.Flowrules {
		if f.ID == id {
			return true
		}
	}
	return false
}

func indexRules(rules []*Flowrule) map[Match]*Flowrule {
	m := make(map[Match]*Flowrule, len(rules))
	for _, f := range rules {
		m[f.Match] = f
	}
	return m
}

func sortRules(rs []*Flowrule) {
	sort.Slice(rs, func(i, j int) bool {
		a, b := rs[i], rs[j]
		if a.Match.InPort != b.Match.InPort {
			return a.Match.InPort.String() < b.Match.InPort.String()
		}
		return a.Match.Tag < b.Match.Tag
	})
}
