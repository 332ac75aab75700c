// Package cluster federates N media servers over one simulated network into
// the paper's multi-server service: a document→replica placement map decides
// which servers hold which lessons, every server sees the others' live
// admission load through a shared directory view, and the three cluster
// behaviors — load-aware admission redirects, in-protocol cross-server
// handoffs, and replica-aware failover — fall out of wiring the existing
// server.Options cluster knobs to that view. New is the product's one
// federation builder: the §6 Hermes service (internal/hermes) is a New
// federation, and so are core.Play's one-server world (through hermes), the
// cluster-scale load/chaos harness of experiment E13
// (internal/experiments/clusterbench.go) and the seeded chaos suite
// (internal/chaos).
package cluster

import (
	"fmt"
	"sort"

	"repro/internal/auth"
	"repro/internal/clock"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/server"
)

// DefaultClusterKey signs every federation's handoff tickets. Any non-empty
// shared secret works: the threat model is a client forging or replaying
// tickets, not an attacker inside the federation.
var DefaultClusterKey = []byte("hermes-federation-key")

// Config describes a federation to boot.
type Config struct {
	// Servers lists the server host names, e.g. srv1..srv3. Order matters:
	// it is the iteration order for deterministic runs.
	Servers []string
	// Placement maps each document to the servers holding it, primary
	// first. Every placed server must appear in Servers.
	Placement server.Placement
	// Docs maps document name → HML source. Every doc must have a
	// placement entry; each server's database gets exactly the documents
	// placed on it.
	Docs map[string]string
	// Descriptions maps document name → catalogue blurb, which topic
	// listings show and search matches; a missing entry stores none.
	Descriptions map[string]string
	// ServerOptions is the per-server option template. Obs, Directory and
	// ClusterKey are filled per server by New.
	ServerOptions server.Options
}

// Cluster is a running federation: N servers over one network, sharing a
// subscriber database and a live placement/load directory.
type Cluster struct {
	Servers map[string]*server.Server
	Scopes  map[string]*obs.Scope

	names     []string
	placement server.Placement
}

// view is the live Directory each server consults: replicas come from the
// placement map, peer load from the sibling server's admission state — the
// in-process stand-in for the load gossip a distributed deployment would
// run.
type view struct {
	c    *Cluster
	self string
}

func (v view) Replicas(doc string) []string { return v.c.placement[doc] }

func (v view) PeerLoad(host string) (float64, bool) {
	if host == v.self {
		return 0, false
	}
	s, ok := v.c.Servers[host]
	if !ok {
		return 0, false
	}
	return s.Admission().Utilization(), true
}

// New boots the federation: one server per name, each holding only the
// documents placed on it, wired to the shared directory view and peer list.
func New(clk clock.Clock, net netsim.Net, users *auth.DB, cfg Config) (*Cluster, error) {
	if len(cfg.Servers) == 0 {
		return nil, fmt.Errorf("cluster: no servers")
	}
	c := &Cluster{
		Servers: map[string]*server.Server{},
		Scopes:  map[string]*obs.Scope{},
		names:   append([]string(nil), cfg.Servers...),
		placement: func() server.Placement {
			p := server.Placement{}
			for d, hosts := range cfg.Placement {
				p[d] = append([]string(nil), hosts...)
			}
			return p
		}(),
	}
	held := map[string]bool{}
	for _, name := range cfg.Servers {
		if held[name] {
			return nil, fmt.Errorf("cluster: duplicate server %q", name)
		}
		held[name] = true
	}
	for doc, hosts := range c.placement {
		if _, ok := cfg.Docs[doc]; !ok {
			return nil, fmt.Errorf("cluster: placement names unknown document %q", doc)
		}
		for _, h := range hosts {
			if !held[h] {
				return nil, fmt.Errorf("cluster: document %q placed on unknown server %q", doc, h)
			}
		}
	}
	for doc := range cfg.Docs {
		if len(c.placement[doc]) == 0 {
			return nil, fmt.Errorf("cluster: document %q has no placement", doc)
		}
	}
	for _, name := range cfg.Servers {
		db := server.NewDatabase()
		docs := make([]string, 0, len(c.placement))
		for d := range c.placement {
			docs = append(docs, d)
		}
		sort.Strings(docs)
		for _, d := range docs {
			for _, h := range c.placement[d] {
				if h != name {
					continue
				}
				if err := db.Put(d, cfg.Docs[d], cfg.Descriptions[d]); err != nil {
					return nil, fmt.Errorf("cluster: %s: %w", d, err)
				}
				break
			}
		}
		opts := cfg.ServerOptions
		scope := obs.NewScope(clk)
		opts.Obs = scope
		opts.Directory = view{c: c, self: name}
		opts.ClusterKey = DefaultClusterKey
		srv, err := server.New(name, clk, net, users, db, opts)
		if err != nil {
			return nil, fmt.Errorf("cluster: boot %s: %w", name, err)
		}
		c.Servers[name] = srv
		c.Scopes[name] = scope
	}
	for _, name := range cfg.Servers {
		var others []string
		for _, p := range cfg.Servers {
			if p != name {
				others = append(others, p)
			}
		}
		c.Servers[name].SetPeers(others)
	}
	return c, nil
}

// CounterTotal sums a counter across every server scope.
func (c *Cluster) CounterTotal(name string) int64 {
	var total int64
	for _, name2 := range c.names {
		total += c.Scopes[name2].Counter(name).Value()
	}
	return total
}
