package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"pstore/internal/store"
	"pstore/internal/wire"
)

// errLatched is the failure a latched applier holds in these tests.
var errLatched = fmt.Errorf("server: applying shipped records: %w", store.ErrPartitionDown)

// roleNode is an installNode put straight into role r, its applier latched on
// errLatched when latched is set. Its arcs are closed, so standing down fences
// it without starting a rejoin.
func roleNode(t *testing.T, r role, latched bool) *installNode {
	t.Helper()
	n := newInstallNode(t, 0)
	n.srv.stopArcs()
	n.srv.repl.role.Store(int32(r))
	if latched {
		n.srv.apply.err = errLatched
	}
	t.Cleanup(func() { n.srv.apply.stop(context.Background()) })
	return n
}

// serveNode runs one request through h and returns the wire code it was
// answered with ("" for a 200) and the body.
func serveNode(h http.HandlerFunc, method, path string, body any) (string, []byte) {
	var in bytes.Buffer
	switch b := body.(type) {
	case nil:
	case []byte:
		in.Write(b)
	default:
		_ = json.NewEncoder(&in).Encode(b)
	}
	w := httptest.NewRecorder()
	h(w, httptest.NewRequest(method, path, &in))
	if w.Code == http.StatusOK {
		return "", w.Body.Bytes()
	}
	var resp wire.Response
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil || resp.Code == "" {
		return fmt.Sprintf("HTTP %d %s", w.Code, w.Body), nil
	}
	return resp.Code, nil
}

// TestRoleMoves takes a node from every role to every role. A legal move
// lands on the new role and resets exactly what the new role does not own —
// a replica owns its received cursor, a primary its drained count — and
// entering syncing discards
// the apply backlog. An illegal move returns an error and changes nothing.
func TestRoleMoves(t *testing.T) {
	legal := map[[2]role]bool{
		{rolePrimary, roleFenced}: true, {rolePrimary, roleSyncing}: true,
		{roleFenced, roleFenced}: true, {roleFenced, roleSyncing}: true,
		{roleSyncing, roleSyncing}: true, {roleSyncing, roleReplica}: true,
		{roleReplica, rolePrimary}: true, {roleReplica, roleSyncing}: true,
	}
	type owned struct {
		received wire.ShipCursor
		drained  int
		applied  wire.ShipCursor
	}
	full := owned{
		received: wire.ShipCursor{Seg: 1, Rec: 2},
		drained:  6, applied: wire.ShipCursor{Seg: 7, Rec: 8},
	}
	for from := rolePrimary; from < nRoles; from++ {
		for to := rolePrimary; to < nRoles; to++ {
			s := roleNode(t, from, false).srv
			st := &s.repl
			st.received, st.drained = full.received, full.drained
			s.apply.applied = full.applied
			st.mu.Lock()
			err := s.become(to)
			st.mu.Unlock()
			got := owned{st.received, st.drained, s.apply.position().applied}
			want := full
			if legal[[2]role{from, to}] {
				if err != nil || s.role() != to {
					t.Errorf("%s -> %s: %v, role %s; want the move made", from, to, err, s.role())
					continue
				}
				if to != roleReplica {
					want.received = wire.ShipCursor{}
				}
				if to != rolePrimary {
					want.drained = 0
				}
				if to == roleSyncing {
					want.applied = wire.ShipCursor{}
				}
			} else {
				if err == nil || s.role() != from {
					t.Errorf("%s -> %s: made (role %s); want it refused", from, to, s.role())
					continue
				}
				if to == roleFenced && !strings.Contains(err.Error(), "already a replica") {
					t.Errorf("%s -> %s refused with %q; want the node named already a replica", from, to, err)
				}
			}
			if got != want {
				t.Errorf("%s -> %s left %+v; want %+v", from, to, got, want)
			}
		}
	}
}

// TestRoleGuards sends every request to a node in every role, with its
// applier latched and not, and checks each answer — the wire code, or for
// status the role reported — and the role the node is left in. The latch
// turns a replica's ship into Resync and fails whatever drains the backlog.
func TestRoleGuards(t *testing.T) {
	const nowhere = "http://127.0.0.1:1"
	// A sync body to install, from a primary of the same layout.
	code, body := serveNode(newInstallNode(t, 0).srv.handleReplSync, http.MethodPost, wire.PathReplSync, wire.ReplSync{})
	if code != "" {
		t.Fatalf("seeding the install: %s", code)
	}
	r := bytes.NewReader(body)
	var meta wire.ReplSyncMeta
	if err := wire.DecodeFrame(r, &meta); err != nil {
		t.Fatal(err)
	}
	set := body[len(body)-r.Len():]
	ship := func(n *installNode, epochAhead uint64) string {
		var b bytes.Buffer
		if err := wire.WriteShipBatch(&b, &wire.ShipBatch{Epoch: n.rm.Epoch() + epochAhead}); err != nil {
			t.Fatal(err)
		}
		code, body := serveNode(n.srv.handleReplShip, http.MethodPost, wire.PathReplShip, b.Bytes())
		var ack wire.ShipAck
		if code == "" && json.Unmarshal(body, &ack) == nil && ack.Resync {
			return "resync"
		}
		return code
	}
	const (
		fenced  = wire.CodeFenced
		stopped = wire.CodeStopped
		notOwn  = wire.CodeNotOwned
		latch   = wire.CodePartitionDown // errLatched's code
	)
	type want struct {
		code string
		role role
	}
	// Each cell's want is by role, then by latch: unlatched, latched.
	P, F, S, R := rolePrimary, roleFenced, roleSyncing, roleReplica
	same := func(code string, r role) [2]want { return [2]want{{code, r}, {code, r}} }
	requests := []struct {
		name string
		do   func(n *installNode) string
		want [nRoles][2]want
	}{
		{"txn", func(n *installNode) string {
			code, _ := serveNode(n.srv.handleTxn, http.MethodPost, wire.PathTxn, wire.Request{Txn: "put", Key: "k-1", Args: json.RawMessage("1")})
			return code
		}, [...][2]want{same("", P), same(notOwn, F), same(notOwn, S), same(notOwn, R)}},
		{"sync", func(n *installNode) string {
			code, _ := serveNode(n.srv.handleReplSync, http.MethodPost, wire.PathReplSync, wire.ReplSync{})
			return code
		}, [...][2]want{same("", P), same(fenced, F), same(fenced, S), same(fenced, R)}},
		{"install", func(n *installNode) string {
			if err := n.srv.InstallReplicaState(meta, set); errors.Is(err, errInstallNotReplica) {
				return "non-replica"
			} else if err != nil {
				return err.Error()
			}
			return ""
		}, [...][2]want{same("non-replica", P), same("non-replica", F), same("", R), same("", R)}},
		{"ship", func(n *installNode) string { return ship(n, 0) },
			[...][2]want{same(fenced, P), same(fenced, F), same(stopped, S), {{"", R}, {"resync", R}}}},
		{"ship from a later epoch", func(n *installNode) string { return ship(n, 1) },
			[...][2]want{same(fenced, P), same(fenced, F), same(stopped, S), same(fenced, R)}},
		{"promote", func(n *installNode) string {
			code, _ := serveNode(nodeJSON(n.srv.handleReplPromote), http.MethodPost, wire.PathReplPromote, wire.ReplPromote{Epoch: n.rm.Epoch() + 1})
			return code
		}, [...][2]want{same("", P), same(fenced, F), same(stopped, S), {{"", P}, {latch, R}}}},
		{"demote", func(n *installNode) string {
			code, _ := serveNode(nodeJSON(n.srv.handleReplDemote), http.MethodPost, wire.PathReplDemote, wire.ReplDemote{PrimaryURL: nowhere})
			return code
		}, [...][2]want{same("", F), same("", F), same("", S), same("", R)}},
		{"shipper fenced", func(n *installNode) string {
			n.srv.standDown(nowhere)
			return ""
		}, [...][2]want{same("", F), same("", F), same("", S), same("", R)}},
		{"placement", func(n *installNode) string {
			for _, q := range []struct {
				h    http.HandlerFunc
				path string
				body any
			}{
				{nodeJSON(n.srv.handleNodeMachines), wire.PathNodeMachines, wire.NodeActive{Active: 1}},
				{nodeJSON(n.srv.handleNodeFlip), wire.PathNodeFlip, wire.NodeFlip{Buckets: []int{0}, Owner: 0}},
				{nodeJSON(n.srv.handleNodeMove), wire.PathNodeMove, wire.NodeMove{Buckets: []int{0}, From: 0, To: 1}},
				{n.srv.handleNodeExtract, wire.PathNodeExtract, wire.NodeMove{Buckets: []int{2}, From: 0, To: 2}},
			} {
				if code, _ := serveNode(q.h, http.MethodPost, q.path, q.body); code != "" {
					return code
				}
			}
			return ""
		}, [...][2]want{same("", P), same(fenced, F), same(fenced, S), same(fenced, R)}},
		{"crash and restore", func(n *installNode) string {
			m := wire.NodeMachine{Machine: 0}
			if code, _ := serveNode(nodeJSON(n.srv.handleNodeCrash), http.MethodPost, wire.PathNodeCrash, m); code != "" {
				return code
			}
			code, _ := serveNode(nodeJSON(n.srv.handleNodeRestore), http.MethodPost, wire.PathNodeRestore, m)
			return code
		}, [...][2]want{same("", P), same("", F), same(stopped, S), {{"", R}, {latch, R}}}},
		{"checkpoint", func(n *installNode) string {
			code, _ := serveNode(n.srv.handleNodeCheckpoint, http.MethodPost, wire.PathNodeCheckpoint, nil)
			return code
		}, [...][2]want{same("", P), same("", F), same(stopped, S), {{"", R}, {latch, R}}}},
		{"status", func(n *installNode) string {
			_, body := serveNode(n.srv.handleReplStatus, http.MethodGet, wire.PathReplStatus, nil)
			var st wire.ReplStatus
			if err := json.Unmarshal(body, &st); err != nil {
				return err.Error()
			}
			_, body = serveNode(n.srv.handleNodeStatus, http.MethodGet, wire.PathNodeStatus, nil)
			var ns wire.NodeStatus
			if err := json.Unmarshal(body, &ns); err != nil || ns.Role != st.Role {
				return fmt.Sprintf("node status role %q (%v)", ns.Role, err)
			}
			if st.Fenced {
				return st.Role + " fenced"
			}
			return st.Role
		}, [...][2]want{same("primary", P), same("primary fenced", F), same("replica", S), same("replica", R)}},
	}
	for _, q := range requests {
		for r := rolePrimary; r < nRoles; r++ {
			for l, latched := range []bool{false, true} {
				n := roleNode(t, r, latched)
				got, w := want{q.do(n), n.srv.role()}, q.want[r][l]
				if got != w {
					t.Errorf("%s to a %s (latched %v): answered %q, left %s; want %q, %s",
						q.name, r, latched, got.code, got.role, w.code, w.role)
				}
			}
		}
	}
}
