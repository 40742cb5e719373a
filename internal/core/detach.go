// Runtime detach of a child domain: the inverse of Attach. Detach unwinds
// everything attach-time registration built — the shard directory entry, the
// infra ownership map, the reverse shard index contribution — and displaces
// the services whose embeddings depended on the departing child so the fleet
// controller can re-embed them onto survivors. The generation-keyed read
// caches need no explicit invalidation: removing a shard key changes every
// subsequent generation vector, so cached cuts and views miss naturally and
// readers holding the old directory snapshot still see a consistent
// (pre-detach) cut, never a torn one.
package core

import (
	"context"
	"errors"
	"fmt"
	"log"
	"slices"
	"sort"
	"strings"
	"sync"

	"github.com/unify-repro/escape/internal/domain"
	"github.com/unify-repro/escape/internal/embed"
	"github.com/unify-repro/escape/internal/nffg"
	"github.com/unify-repro/escape/internal/unify"
)

// DisplacedService describes one service Detach evicted: its original
// request graph (the re-embedding input) and the sub-services it had
// installed per child (already torn down on survivors, unreachable on the
// departed child).
type DisplacedService struct {
	ServiceID string
	Request   *nffg.NFFG
	Children  map[string][]string
}

// DetachReport summarizes a completed Detach.
type DetachReport struct {
	Child     string
	Shard     string
	Displaced []DisplacedService
}

// Detach removes a child domain from the live orchestrator: it drops the
// child's shard from the directory, retires its infra ownership and reverse
// index contribution (tombstoning nodes that no other child serves, see
// checkDomainsLocked), releases the DoV resources of every service whose
// embedding touched the child, and tears the affected services down on the
// surviving children. The displaced services are returned for re-embedding —
// Detach itself does not re-install them.
//
// Detach requires the child to be its shard's only tenant (true under the
// default ShardPerDomain sharding): the graph layer has no per-infra removal,
// so a shared shard cannot shed one child's nodes. SingleShard configurations
// therefore cannot hot-detach.
//
// Concurrency: in-flight installs that touched the shard lose their commit
// race (the final generation bump below) and re-plan against the post-detach
// directory; installs already committed but not yet deployed have their
// DoV reservation released here, together with the directory swap, and fail
// their deployment. Readers keep serving consistent pre-detach cuts until
// their next directory fetch, and never see a survivor holding a slice of a
// service whose other slice left with the shard.
//
// Crash note: the detach journal record is appended after the displaced
// services' release records so replay frees survivors' resources before
// dropping the service table entries. A crash before the record simply
// resurrects the pre-detach fleet — the controller re-probes and re-evicts.
func (ro *ResourceOrchestrator) Detach(ctx context.Context, child string) (*DetachReport, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Lock order: shard mutexes (key order) before ro.mu. Detach holds EVERY
	// shard of the directory across the directory swap, the survivors'
	// releases and the final generation bump, so all of it is one atomic
	// step for readers and committers: a commit touching the departing shard
	// either finished before we got its lock (its service is in the table
	// and released below) or validates its generation after our bump, loses,
	// and re-plans against the post-detach directory; and no cut ever shows a
	// survivor still holding resources of a service whose other slice left
	// with the shard.
	var dir *shardDirectory
	var locked []*shard
	for attempt := 1; ; attempt++ {
		dir, _ = ro.snapshotDir()
		locked = dir.ordered(dir.keys)
		lockAll(locked)
		ro.mu.Lock()
		if ro.dir == dir {
			break
		}
		ro.mu.Unlock()
		unlockAll(locked)
		if attempt == MaxMapAttempts {
			return nil, fmt.Errorf("%w: fleet membership changed during detach of %s", unify.ErrBusy, child)
		}
	}
	unlock := func() {
		ro.mu.Unlock()
		unlockAll(locked)
	}
	key, ok := dir.childShard[child]
	if !ok {
		unlock()
		return nil, fmt.Errorf("core: detach %s: %w", child, domain.ErrUnknown)
	}
	sh := dir.shards[key]
	if others := exclude(dir.domains[key], child); len(others) > 0 {
		unlock()
		return nil, fmt.Errorf("core: detach %s: shard %s also hosts %v — runtime detach requires per-domain sharding", child, key, others)
	}

	// Displace every deployed service whose embedding touched the shard (or
	// that installed sub-services on the child); marking them stateRemoving
	// excludes concurrent Remove/Detach. Release the surviving-shard slices
	// of every committed service the departure breaks — displaced ones, but
	// also installs still deploying and removals still tearing down, whose
	// own release would otherwise land after the shard is gone (or on a
	// re-attached shard of the same key). Their owners see rec.released and
	// skip it; an install still deploying fails (see runGroup).
	type displaced struct {
		id  string
		rec *serviceRecord
	}
	var evicted []displaced
	var releasedIDs []string
	bySurvivor := map[string][]displaced{}
	for id, rec := range ro.services {
		touches := rec.mapping != nil && slices.Contains(rec.shards, key)
		if rec.state == stateReady && (touches || len(rec.children[child]) > 0) {
			rec.state = stateRemoving
			evicted = append(evicted, displaced{id: id, rec: rec})
			touches = rec.mapping != nil
		}
		if !touches || rec.released {
			continue
		}
		rec.released = true
		releasedIDs = append(releasedIDs, id)
		for _, k := range rec.shards {
			if k != key {
				bySurvivor[k] = append(bySurvivor[k], displaced{id: id, rec: rec})
			}
		}
	}
	slices.SortFunc(evicted, func(a, b displaced) int {
		return strings.Compare(a.id, b.id)
	})
	sort.Strings(releasedIDs)
	if len(bySurvivor) > 0 {
		epoch := ro.bumpEpoch()
		for _, s := range locked {
			svcs := bySurvivor[s.key]
			if len(svcs) == 0 {
				continue
			}
			slices.SortFunc(svcs, func(a, b displaced) int {
				return strings.Compare(a.id, b.id)
			})
			ids := make([]string, len(svcs))
			for i, d := range svcs {
				ids[i] = d.id
			}
			if s.dov != nil {
				next := s.dov.Copy()
				for _, d := range svcs {
					if err := embed.Release(next, d.rec.mapping); err != nil {
						log.Printf("core %s: detach %s: release %s on %s: %v", ro.id, child, d.id, s.key, err)
					}
				}
				s.dov = next.Seal()
			}
			s.gen++
			s.commits++
			if ro.journal != nil {
				if err := ro.journal.LogRelease(s.key, s.gen, epoch, ids); err != nil {
					ro.stats.journalErrs.Add(1)
					log.Printf("core %s: journal release %v on %s: %v", ro.id, ids, s.key, err)
				} else {
					s.journalRecs++
				}
			}
		}
	}

	next := dir.clone()
	delete(next.childShard, child)
	delete(next.shards, key)
	delete(next.domains, key)
	next.keys = exclude(next.keys, key)
	owner := make(map[nffg.ID]string, len(ro.owner))
	for k, v := range ro.owner {
		if v != child {
			owner[k] = v
		}
	}
	contrib := make(map[string]shardContrib, len(ro.contrib))
	for k, v := range ro.contrib {
		if k != key {
			contrib[k] = v
		}
	}
	departedNodes := ro.contrib[key].nodes
	// Final generation bump: in-flight optimistic commits against the old
	// cut now fail validation and re-snapshot. No journal record yet — the
	// detach record must order after the displaced services' teardown.
	sh.gen++
	sh.commits++
	finalGen := sh.gen
	// A future re-attach of this key resumes past the final generation (see
	// Attach): generations must keep rising across the cycle.
	ro.lastGen[key] = finalGen
	ro.dir, ro.owner, ro.contrib = next, owner, contrib
	ro.rebuildIndexLocked()
	// Tombstone the nodes nobody answers for anymore; shared border SAPs a
	// surviving child still exports stay in the index and need none.
	for node := range departedNodes {
		if len(ro.index[node]) == 0 {
			ro.departed[node] = child
		}
	}
	unlock()

	if err := ro.reg.Deregister(child); err != nil && !errors.Is(err, domain.ErrUnknown) {
		log.Printf("core %s: detach %s: deregister: %v", ro.id, child, err)
	}

	report := &DetachReport{Child: child, Shard: key}
	for _, ev := range evicted {
		ds := DisplacedService{ServiceID: ev.id, Children: map[string][]string{}}
		if ev.rec.mapping != nil && ev.rec.mapping.Request != nil {
			ds.Request = ev.rec.mapping.Request.Copy()
			// Host pins to nodes nobody answers for anymore cannot be honored
			// by a re-embedding: clear them so the mapper is free to place the
			// NF on a survivor. Pins to nodes a surviving child still exports
			// (shared border infrastructure) are kept.
			ro.mu.Lock()
			for _, nf := range ds.Request.NFs {
				if nf.Host != "" && len(ro.index[nf.Host]) == 0 {
					nf.Host = ""
				}
			}
			ro.mu.Unlock()
		}
		for c, subs := range ev.rec.children {
			ds.Children[c] = append([]string(nil), subs...)
		}
		report.Displaced = append(report.Displaced, ds)
	}

	// Tear the displaced services down on the surviving children (the
	// departed child is unreachable; whatever it still holds dies with it).
	// Best-effort: a failed teardown is logged; the survivors' DoV capacity
	// was already freed for the re-embedding above.
	var wg sync.WaitGroup
	for _, ev := range evicted {
		for childID, subIDs := range ev.rec.children {
			if childID == child {
				continue
			}
			d, err := ro.reg.Get(childID)
			if err != nil {
				log.Printf("core %s: detach %s: teardown on %s: %v", ro.id, child, childID, err)
				continue
			}
			for _, subID := range subIDs {
				wg.Add(1)
				go func(d domain.Domain, childID, subID string) {
					defer wg.Done()
					if err := d.Remove(ctx, subID); err != nil && !errors.Is(err, unify.ErrUnknownService) {
						log.Printf("core %s: detach %s: remove %s on %s: %v", ro.id, child, subID, childID, err)
					}
				}(d, childID, subID)
			}
		}
	}
	wg.Wait()

	// Drop the displaced services' reservations (their DoV resources were
	// released above; the dropped shard's share died with the shard).
	ro.mu.Lock()
	for _, ev := range evicted {
		ro.dropReservationsLocked(ev.id, ev.rec)
	}
	ro.mu.Unlock()

	// The record lists every released service, so replay drops the table
	// entries of deploying installs whose only slice left with the shard.
	epoch := ro.bumpEpoch()
	if ro.journal != nil {
		if err := ro.journal.LogDetach(key, finalGen, epoch, child, true, releasedIDs); err != nil {
			ro.stats.journalErrs.Add(1)
			log.Printf("core %s: journal detach %s: %v", ro.id, child, err)
		}
	}
	return report, nil
}

// exclude returns s without any element equal to drop (allocating a copy).
func exclude(s []string, drop string) []string {
	out := make([]string, 0, len(s))
	for _, v := range s {
		if v != drop {
			out = append(out, v)
		}
	}
	return out
}
