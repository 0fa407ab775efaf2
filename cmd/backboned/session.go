package main

// Live incremental serving: a session anchors one posted edge list and
// accepts batched edge updates against it. Reads re-score only the
// rows the update stream could have changed (filter.RescoreDirty over
// the session's graph.Delta overlay) instead of re-parsing, rebuilding
// and re-scoring the whole body — while staying bit-identical to what
// POST /backbone would answer for the updated edge list.
//
// Sessions ride the same front door as the stateless endpoints
// (deadline intake, admission lanes, chaos injection) and the same
// fleet policy anchor: the session ID embeds the sha256 of the
// creating body, so every peer routes session traffic to the body's
// rendezvous owner. Unlike stateless scoring, session state cannot be
// recomputed by a non-owner, so owner failure is answered 503 (retry
// when the owner returns) — never a silent degrade to a peer that does
// not hold the delta.

import (
	"context"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"sync"

	"repro"
	"repro/internal/admission"
	"repro/internal/filter"
	"repro/internal/graph"
)

// defaultMaxSessions bounds resident session state when -max-sessions
// is unset; the least recently used session is evicted past it.
const defaultMaxSessions = 256

// sessionTable is one method's score table inside a session, plus the
// nodes dirtied since it was computed. pending is what RescoreDirty
// needs to bring the table forward; it accumulates across
// materializations until the next read of this method drains it.
type sessionTable struct {
	scores  *repro.Scores
	pending []int32 // sorted unique dirty nodes since scores.G
}

// session is one live overlay: the delta accumulating updates, the
// latest materialization, and per-method score tables that advance
// incrementally. mu serializes all delta/table access (graph.Delta is
// not concurrency-safe); the session store never takes it, so eviction
// never waits on a session mid-score.
type session struct {
	id string // embeds the creating body's digest: the fleet routing anchor

	mu    sync.Mutex
	delta *graph.Delta
	g     *repro.Graph // latest materialization (== delta's last Graph())
	// lastDirty is the dirty record of the latest materialization: a
	// table exactly one generation behind rides its row diff (and, with
	// an exclusive delta, its in-place surrender).
	lastDirty graph.Dirty
	tables    map[string]*sessionTable
	applied   uint64 // total updates accepted
}

// newSessionID derives a session ID: the body digest in hex (every
// peer can recover the routing anchor from the ID alone) plus a random
// suffix so re-posting the same body opens an independent session.
func newSessionID(sum [sha256.Size]byte) (string, error) {
	var r [4]byte
	if _, err := rand.Read(r[:]); err != nil {
		return "", fmt.Errorf("session id: %v", err)
	}
	return hex.EncodeToString(sum[:]) + "." + hex.EncodeToString(r[:]), nil
}

// parseSessionID recovers the routing digest embedded in a session ID.
func parseSessionID(id string) (sum [sha256.Size]byte, ok bool) {
	if len(id) != 2*sha256.Size+9 || id[2*sha256.Size] != '.' {
		return sum, false
	}
	raw, err := hex.DecodeString(id[:2*sha256.Size])
	if err != nil {
		return sum, false
	}
	copy(sum[:], raw)
	return sum, true
}

// mergeDirtyNodes folds a materialization's dirty node set into a
// table's pending set, keeping it sorted and unique.
func mergeDirtyNodes(pending, dirty []int32) []int32 {
	if len(dirty) == 0 {
		return pending
	}
	pending = append(pending, dirty...)
	slices.Sort(pending)
	return slices.Compact(pending)
}

// computeSessionCreate is the compute step of POST /session: resolve
// the body exactly as POST /backbone would (content-addressed graph
// cache included), pin a delta overlay over the result, and answer with
// the session ID.
func (s *server) computeSessionCreate(c *call) error {
	if err := s.resolveGraph(c); err != nil {
		return err
	}
	g := c.g
	id, err := newSessionID(c.key.sum)
	if err != nil {
		return err
	}
	// Exclusive delta: sess.mu serializes every read/update cycle and
	// the session retains nothing beyond the latest materialization and
	// per-method table, so each generation's arrays are recycled in
	// place instead of copied (graph.Delta.SetExclusive).
	delta := graph.NewDelta(g, 0)
	delta.SetExclusive(true)
	sess := &session{
		id:     id,
		delta:  delta,
		g:      g,
		tables: map[string]*sessionTable{},
	}
	s.sessions.Add(id, sess, 1)
	s.sessionCreates.Add(1)

	c.w.Header().Set("Location", "/session/"+id)
	c.w.Header().Set("Content-Type", "application/json")
	c.w.WriteHeader(http.StatusCreated)
	json.NewEncoder(c.w).Encode(map[string]any{
		"session":  id,
		"nodes":    g.NumNodes(),
		"edges":    g.NumEdges(),
		"directed": g.Directed(),
	})
	return nil
}

// sessionUpdateBody is the POST /session/{id}/update wire form. Edges
// are addressed by node label (the names the creating body used);
// weight > 0 upserts, weight == 0 (or omitted) deletes.
type sessionUpdateBody struct {
	Updates []sessionUpdateEdge `json:"updates"`
}

type sessionUpdateEdge struct {
	Src    string   `json:"src"`
	Dst    string   `json:"dst"`
	Weight *float64 `json:"weight"`
}

// computeSessionUpdate is the compute step of POST
// /session/{id}/update: batched edge upserts/deletes into the session's
// delta overlay. No scoring runs here — dirtiness is recorded and the
// next read pays only for the rows it invalidated.
func (s *server) computeSessionUpdate(c *call) error {
	sess := c.sess
	var ub sessionUpdateBody
	if err := json.Unmarshal(c.body, &ub); err != nil {
		return &statusError{http.StatusBadRequest, fmt.Errorf("bad update body: %v", err)}
	}
	if len(ub.Updates) == 0 {
		return &statusError{http.StatusBadRequest, errors.New(`update body has no updates (want {"updates":[{"src":...,"dst":...,"weight":...}]})`)}
	}

	sess.mu.Lock()
	defer sess.mu.Unlock()
	base := sess.delta.Base()
	ups := make([]graph.Update, 0, len(ub.Updates))
	for i, e := range ub.Updates {
		src := base.NodeID(e.Src)
		if src < 0 {
			return &statusError{http.StatusBadRequest, fmt.Errorf("updates[%d].src: unknown node %q", i, e.Src)}
		}
		dst := base.NodeID(e.Dst)
		if dst < 0 {
			return &statusError{http.StatusBadRequest, fmt.Errorf("updates[%d].dst: unknown node %q", i, e.Dst)}
		}
		var weight float64
		if e.Weight != nil {
			weight = *e.Weight
		}
		ups = append(ups, graph.Update{Src: int32(src), Dst: int32(dst), Weight: weight})
	}
	if err := sess.delta.Apply(ups); err != nil {
		return &statusError{http.StatusBadRequest, err}
	}
	sess.applied += uint64(len(ups))
	s.sessionUpdates.Add(1)

	c.w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(c.w).Encode(map[string]any{
		"session":       c.id,
		"applied":       len(ups),
		"pending":       sess.delta.Pending(),
		"updates_total": sess.applied,
	})
	return nil
}

// advance materializes the session's delta and folds the resulting
// dirty node set into every table's pending set. Must hold sess.mu.
// Returns the number of tables invalidated (counted once per table
// per materialization that dirtied it).
func (sess *session) advance() (g *repro.Graph, invalidated int) {
	g, dirty := sess.delta.Graph()
	if g == sess.g {
		return g, 0
	}
	// Defensive: a dirty record that does not connect to our last
	// snapshot means the delta materialized somewhere we did not
	// observe, so pending accumulation cannot be trusted. Drop every
	// table then — the next read of each method pays a full (still
	// bit-identical) rescore instead of risking a stale row.
	reset := dirty.Base != sess.g
	//lint:detiter-ok every table is updated or dropped; order does not matter
	for name, t := range sess.tables {
		if t.scores != nil {
			invalidated++
		}
		if reset {
			delete(sess.tables, name)
		} else {
			t.pending = mergeDirtyNodes(t.pending, dirty.Nodes)
		}
	}
	sess.g, sess.lastDirty = g, dirty
	return g, invalidated
}

// sessionScores brings one method's table forward to the session's
// current materialization, re-scoring only dirty rows. Must hold
// sess.mu. Returns the fresh table and how many rows were re-scored
// (0 = pure reuse).
func (s *server) sessionScores(ctx context.Context, sess *session, g *repro.Graph, m *repro.Method) (*repro.Scores, int, error) {
	t := sess.tables[m.Name]
	if t == nil {
		t = &sessionTable{}
		sess.tables[m.Name] = t
	}
	if t.scores != nil && t.scores.G == g && len(t.pending) == 0 {
		return t.scores, 0, nil
	}
	if err := s.scoreGate(ctx); err != nil {
		return nil, 0, err
	}
	dirty := graph.Dirty{For: g, Nodes: t.pending}
	old := t.scores
	if old != nil {
		if ld := sess.lastDirty; ld.For == g && ld.Base == old.G {
			// Exactly one generation behind: the materialization's own
			// dirty record applies verbatim — row diff, surrender and
			// all (its Nodes are this table's pending set by
			// construction).
			dirty = ld
		} else {
			// Further behind. The delta is exclusive, so the old
			// table's graph has been cannibalized and its edge slice
			// must not be walked: leave old out and pay a full (still
			// bit-identical) rescore.
			old = nil
		}
	}
	sc, rescored, err := filter.RescoreDirty(ctx, m, old, dirty, filter.ScoreOpts{})
	if err != nil {
		return nil, 0, err
	}
	t.scores, t.pending = sc, nil
	s.sessionRescoredRows.Add(uint64(rescored))
	if rescored == g.NumEdges() {
		s.sessionFullRescores.Add(1)
	}
	return sc, rescored, nil
}

// classifySessionRead is the classify stage of session reads: fast
// when the method's table already exists in the session (the read is a
// frontier rescore plus serialization), cold on first touch.
func (s *server) classifySessionRead(c *call) (admission.Lane, string) {
	names, _ := c.methodNames()
	sess, ok := s.sessions.Get(c.id)
	if !ok {
		return admission.Fast, "session-read" // 404s should not queue behind scoring
	}
	sess.mu.Lock()
	t := sess.tables[names[0]]
	warm := t != nil && t.scores != nil
	sess.mu.Unlock()
	if warm {
		return admission.Fast, "session-read"
	}
	return admission.Cold, names[0]
}

// computeSessionRead is the compute step of GET /session/{id}/backbone
// and /score: the stateless /backbone | /score answer evaluated against
// the session's current (base + updates) edge set, incrementally.
func (s *server) computeSessionRead(c *call) error {
	sess := c.sess
	if err := c.resolveOptions(); err != nil {
		return err
	}
	s.sessionReads.Add(1)
	sess.mu.Lock()
	defer sess.mu.Unlock()
	g, invalidated := sess.advance()
	if invalidated > 0 {
		s.sessionInvalidations.Add(uint64(invalidated))
	}
	c.w.Header().Set("X-Backbone-Session", c.id)
	c.w.Header().Set("X-Backbone-Rescored", "0")
	return s.answer(c, g, func() (*repro.Scores, bool, error) {
		sc, rescored, err := s.sessionScores(c.ctx, sess, g, c.method)
		c.w.Header().Set("X-Backbone-Rescored", strconv.Itoa(rescored))
		return sc, rescored == 0, err
	})
}

// computeSessionDelete is the compute step of DELETE /session/{id}. A
// delete that lost a race with another for the same session is still
// answered 204, but counted once.
func (s *server) computeSessionDelete(c *call) error {
	if s.sessions.Remove(c.id) {
		s.sessionDeletes.Add(1)
	}
	c.w.WriteHeader(http.StatusNoContent)
	return nil
}
