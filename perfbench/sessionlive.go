package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro"
	"repro/internal/gen"
)

// session-live: one backboned holding a few sessions over sparse
// Erdős–Rényi bodies. Arrivals are single-edge updates (upserts and
// deletes) or top-10% backbone reads, each session read with one method
// only: nc sessions rescore in full after every update (nc depends on
// the global total), df sessions rescore only the frontier. Mixing
// methods on one session would send every read to the full-rescore
// fallback and leave the frontier path unmeasured.

const (
	slEdges       = 100_000
	slSmokeEdges  = 5_000
	slUpdateShare = 0.3
	slDeleteShare = 0.2 // of updates; the rest upsert
	slFrac        = 0.1
	slCheckEvery  = 200 // every slCheckEvery-th read of a session is checked against a cold rebuild
	slColdEvery   = 40  // traced runs time a cold parse and score every slColdEvery-th read
)

// slMethods is the one method each session is read with.
var slMethods = []string{"nc", "df", "nc", "df"}

type edgeKey struct{ u, v int32 }

// edgeSet is a session's current edges with O(1) uniform picks.
type edgeSet struct {
	w    map[edgeKey]float64
	keys []edgeKey
	pos  map[edgeKey]int
}

func newEdgeSet(g *repro.Graph) *edgeSet {
	s := &edgeSet{w: map[edgeKey]float64{}, pos: map[edgeKey]int{}}
	for _, e := range g.Edges() {
		s.set(edgeKey{e.Src, e.Dst}, e.Weight)
	}
	return s
}

// set upserts (w > 0) or deletes (w == 0) an edge.
func (s *edgeSet) set(k edgeKey, w float64) {
	if k.u > k.v {
		k.u, k.v = k.v, k.u
	}
	if w > 0 {
		if _, ok := s.w[k]; !ok {
			s.pos[k] = len(s.keys)
			s.keys = append(s.keys, k)
		}
		s.w[k] = w
		return
	}
	i, ok := s.pos[k]
	if !ok {
		return
	}
	last := s.keys[len(s.keys)-1]
	s.keys[i], s.pos[last] = last, i
	s.keys = s.keys[:len(s.keys)-1]
	delete(s.pos, k)
	delete(s.w, k)
}

// graph rebuilds the edge set cold: the base graph's nodes in ID order,
// then every edge, through the library's Builder.
func (s *edgeSet) graph(base *repro.Graph) (*repro.Graph, error) {
	b := repro.NewBuilder(false)
	for id := range base.NumNodes() {
		b.AddNode(base.Label(id))
	}
	for k, w := range s.w {
		if err := b.AddEdge(int(k.u), int(k.v), w); err != nil {
			return nil, err
		}
	}
	return b.Build(), nil
}

type slSession struct {
	id     string
	method string
	csv    []byte
	base   *repro.Graph
	plan   *edgeSet // edges as the generated ops intend them
	// log is every update sent, in order, with its outcome; sampled
	// reads remember their response and the log length at that point.
	log     []*slInfo
	samples []*slInfo
	reads   int
	// unknown is set when an update's outcome cannot be known (no
	// response), after which the session is no longer checkable.
	unknown bool

	// traced runs: the mirror overlay and the last score table.
	mirror *repro.Delta
	scores *repro.Scores
}

type slInfo struct {
	session  int
	update   *slUpdate // nil for a read
	body     []byte    // update body
	applied  bool
	resp     []byte
	rescored int
	logLen   int // updates logged before this read
}

type slUpdate struct {
	k edgeKey
	w float64
}

type sessionLive struct {
	o        *options
	d        *daemon
	sessions []*slSession
	flags    []string
	edges    int
	gen      *loadGen
	tracer   *tracer    // set for the traced phase of a traced run
	mu       sync.Mutex // guards session logs between workers and checks
}

// setup generates the bodies from the seed, starts the daemon, opens a
// session over each body and reads each twice, checking the reads
// against the library.
func (w *sessionLive) setup(ctx context.Context) error {
	m := slEdges
	if w.o.Smoke {
		m = slSmokeEdges
	}
	rng := rand.New(rand.NewSource(w.o.Seed))
	w.sessions = nil
	for _, meth := range slMethods {
		g0 := gen.ErdosRenyiGNM(rng, 2*m/3, m)
		var csv bytes.Buffer
		if err := repro.WriteGraph(&csv, g0, repro.WithFormat("csv")); err != nil {
			return err
		}
		base, err := repro.ReadGraph(bytes.NewReader(csv.Bytes()), repro.WithFormat("csv"))
		if err != nil {
			return err
		}
		w.edges = base.NumEdges()
		w.sessions = append(w.sessions, &slSession{method: meth, csv: csv.Bytes(), base: base, plan: newEdgeSet(base)})
	}
	addrs, err := freeAddrs(1)
	if err != nil {
		return err
	}
	w.flags = []string{"-max-sessions", "16"}
	w.d, err = startDaemon(ctx, w.o.Backboned, addrs[0], w.o.Nproc, w.flags,
		filepath.Join(w.o.Out, "runs", w.o.Workload+".log"))
	if err != nil {
		return err
	}
	for i, s := range w.sessions {
		out, err := post(ctx, w.d.url("/session"), "text/csv", s.csv)
		if err != nil {
			return fmt.Errorf("create session %d: %w", i, err)
		}
		var created struct {
			Session string `json:"session"`
		}
		if err := json.Unmarshal(out, &created); err != nil {
			return fmt.Errorf("create session %d: %w", i, err)
		}
		s.id = created.Session
		ref, err := s.reference(s.base)
		if err != nil {
			return err
		}
		// Two warm-up reads: the first scores the session in full, the
		// second is served from its table.
		for range 2 {
			got, err := get(ctx, w.d.url(s.readPath()))
			if err != nil {
				return fmt.Errorf("warm-up read of session %d: %w", i, err)
			}
			if !bytes.Equal(got, ref) {
				return fmt.Errorf("warm-up read of session %d: %w", i, errMismatch)
			}
		}
	}
	return nil
}

func (s *slSession) readPath() string {
	return "/session/" + s.id + "/backbone?method=" + s.method + "&frac=" + strconv.FormatFloat(slFrac, 'g', -1, 64)
}

// reference is the library's answer for g, scored from scratch.
func (s *slSession) reference(g *repro.Graph) ([]byte, error) {
	res, err := repro.Backbone(g, repro.WithMethod(s.method), repro.WithTopFraction(slFrac))
	if err != nil {
		return nil, err
	}
	var out bytes.Buffer
	if err := res.Backbone.WriteCSV(&out); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}

func (w *sessionLive) stop() {
	if w.d != nil {
		w.d.stop()
		w.d = nil
	}
}

// arrivals draws n ops: a uniformly chosen session, and an update with
// probability slUpdateShare, else a read. An update re-weights or
// deletes an existing edge, or inserts one between two of the body's
// labels.
func (w *sessionLive) arrivals(phase int, rate float64, n int) []*arrival {
	rng := rand.New(rand.NewSource(w.o.Seed*1_000_003 + int64(phase)))
	as := make([]*arrival, n)
	for i := range as {
		si := rng.Intn(len(w.sessions))
		s := w.sessions[si]
		inf := &slInfo{session: si}
		a := &arrival{Stream: si, Class: "read", Info: inf, Run: w.send}
		if rng.Float64() < slUpdateShare {
			a.Class = "update"
			var u slUpdate
			switch r := rng.Float64(); {
			case r < slDeleteShare:
				u.k = s.plan.keys[rng.Intn(len(s.plan.keys))]
			case r < (1+slDeleteShare)/2:
				u.k, u.w = s.plan.keys[rng.Intn(len(s.plan.keys))], 1-rng.Float64()
			default:
				nn := int32(s.base.NumNodes())
				for u.k.u == u.k.v {
					u.k = edgeKey{rng.Int31n(nn), rng.Int31n(nn)}
				}
				u.w = 1 - rng.Float64()
			}
			s.plan.set(u.k, u.w)
			inf.update = &u
			inf.body = updateBody(s.base, u)
		}
		as[i] = a
	}
	return as
}

func updateBody(g *repro.Graph, u slUpdate) []byte {
	return []byte(`{"updates":[{"src":` + strconv.Quote(g.Label(int(u.k.u))) + `,"dst":` + strconv.Quote(g.Label(int(u.k.v))) +
		`,"weight":` + strconv.FormatFloat(u.w, 'g', -1, 64) + `}]}`)
}

func (w *sessionLive) send(ctx context.Context, a *arrival) error {
	inf := a.Info.(*slInfo)
	s := w.sessions[inf.session]
	var req *http.Request
	var err error
	if inf.update != nil {
		req, err = http.NewRequestWithContext(ctx, http.MethodPost, w.d.url("/session/"+s.id+"/update"), bytes.NewReader(inf.body))
		if err == nil {
			req.Header.Set("Content-Type", "application/json")
		}
	} else {
		req, err = http.NewRequestWithContext(ctx, http.MethodGet, w.d.url(s.readPath()), nil)
	}
	if err != nil {
		return err
	}
	buf, hdr, err := exchange(w.gen.client, req)
	if buf != nil {
		defer respBufs.Put(buf)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if inf.update != nil {
		inf.applied = err == nil
		if err != nil && !isStatus(err) {
			s.unknown = true
		}
		s.log = append(s.log, inf)
		return err
	}
	if err != nil {
		return err
	}
	inf.rescored, _ = strconv.Atoi(hdr.Get("X-Backbone-Rescored"))
	inf.logLen = len(s.log)
	s.reads++
	if w.tracer != nil || s.reads%slCheckEvery == 0 {
		inf.resp = bytes.Clone(buf.Bytes())
		if w.tracer == nil {
			s.samples = append(s.samples, inf)
		}
	}
	return nil
}

// check rebuilds each session's edge set cold at every sampled read,
// and at the end of the run, and compares the daemon's bytes with the
// library's. It returns the mismatches found.
func (w *sessionLive) check(ctx context.Context) (int64, error) {
	var bad int64
	for i, s := range w.sessions {
		if s.unknown {
			return 0, fmt.Errorf("session %d: an update's outcome is unknown, so its reads cannot be checked", i)
		}
		final, err := get(ctx, w.d.url(s.readPath()))
		if err != nil {
			return 0, fmt.Errorf("final read of session %d: %w", i, err)
		}
		points := append(s.samples, &slInfo{resp: final, logLen: len(s.log)})
		es := newEdgeSet(s.base)
		done := 0
		for _, p := range points {
			for ; done < p.logLen; done++ {
				if u := s.log[done]; u.applied {
					es.set(u.update.k, u.update.w)
				}
			}
			g, err := es.graph(s.base)
			if err != nil {
				return 0, err
			}
			ref, err := s.reference(g)
			if err != nil {
				return 0, err
			}
			if !bytes.Equal(ref, p.resp) {
				bad++
			}
		}
	}
	return bad, nil
}

// replay re-runs a finished op through the library calls the daemon
// made, off the op's clock, over a mirror overlay that receives the
// same updates: digest and apply for an update; materialize, rescore
// the dirty rows, extract and write for a read. The replayed bytes must
// equal the response.
func (w *sessionLive) replay(a *arrival) error {
	if a.failed() {
		return nil
	}
	inf := a.Info.(*slInfo)
	s := w.sessions[inf.session]
	op := w.tracer.newOp()
	w.tracer.finish(op, "op", a.due, a.end)
	r := w.tracer.replayOf(op, a.due)
	if inf.update != nil {
		r.child("backboned.digest", func() (int64, error) {
			sha256.Sum256(inf.body)
			return int64(len(inf.body)), nil
		})
		up := []repro.Update{{Src: inf.update.k.u, Dst: inf.update.k.v, Weight: inf.update.w}}
		return r.child("graph.delta_apply", func() (int64, error) {
			if s.mirror == nil {
				var err error
				s.mirror, err = s.base.WithUpdates(up)
				return 1, err
			}
			return 1, s.mirror.Apply(up)
		})
	}
	g, dirty := s.base, repro.Dirty{}
	if s.mirror != nil {
		r.child("graph.materialize", func() (int64, error) {
			g, dirty = s.mirror.Graph()
			return 0, nil
		})
	}
	if s.scores == nil || s.scores.G != g {
		if err := r.child("filter.rescore."+s.method, func() (int64, error) {
			var err error
			opts := []repro.Option{repro.WithMethod(s.method)}
			if s.scores != nil && dirty.For == g && dirty.Base == s.scores.G {
				opts = append(opts, repro.WithDirtyScores(s.scores, dirty))
			}
			s.scores, err = repro.Score(g, opts...)
			return 0, err
		}); err != nil {
			return err
		}
	}
	var res *repro.Result
	if err := r.child("filter.extract", func() (int64, error) {
		var err error
		res, err = repro.Backbone(g, repro.WithMethod(s.method), repro.WithScores(s.scores), repro.WithTopFraction(slFrac))
		return 0, err
	}); err != nil {
		return err
	}
	var out bytes.Buffer
	if err := r.child("graph.write", func() (int64, error) {
		err := repro.WriteGraph(&out, res.Backbone, repro.WithFormat("csv"))
		return int64(out.Len()), err
	}); err != nil {
		return err
	}
	if !bytes.Equal(out.Bytes(), inf.resp) {
		return errMismatch
	}
	inf.resp = nil
	return nil
}

// cold times a from-scratch parse and score of a session's current
// graph, the base of ratio.incremental_vs_cold. Its spans hang off an
// op of their own, so they are not counted as a served op's work.
func (w *sessionLive) cold(s *slSession, g *repro.Graph) error {
	var csv bytes.Buffer
	if err := repro.WriteGraph(&csv, g, repro.WithFormat("csv")); err != nil {
		return err
	}
	op := w.tracer.newOp()
	start := time.Now()
	var cg *repro.Graph
	if err := w.tracer.child(op, "graph.read", func() (int64, error) {
		var err error
		cg, err = repro.ReadGraph(bytes.NewReader(csv.Bytes()), repro.WithFormat("csv"))
		return int64(csv.Len()), err
	}); err != nil {
		return err
	}
	if err := w.tracer.child(op, "filter.score."+s.method, func() (int64, error) {
		_, err := repro.Score(cg, repro.WithMethod(s.method))
		return 0, err
	}); err != nil {
		return err
	}
	w.tracer.finish(op, "cold", start, time.Now())
	return nil
}

func runSessionLive(ctx context.Context, o *options) (*report, error) {
	rep := newReport()
	w := &sessionLive{o: o}
	defer w.stop()
	if err := setUp(o, rep, func() error { return w.setup(ctx) }, w.stop); err != nil {
		return nil, err
	}
	w.gen = newLoadGen(o.Nproc)
	rep.Config["nominal_rps"] = nominalRPS
	rep.Config["daemon_flags"] = w.flags
	rep.Config["gomaxprocs_daemon"] = o.Nproc
	rep.Config["connections"] = w.gen.conns
	rep.Config["edges_per_session"] = w.edges
	rep.Config["session_methods"] = slMethods
	rep.Config["update_share"] = slUpdateShare

	if !o.Trace {
		if err := w.gen.endToEnd(ctx, w.arrivals, o.Seconds, rep); err != nil {
			return nil, err
		}
		rss, err := peakRSS([]*daemon{w.d})
		if err != nil {
			return nil, err
		}
		rep.Metrics["edges_per_s"] = rep.Metrics["capacity_rps"] * (1 - slUpdateShare) * float64(w.edges)
		rep.Metrics["peak_rss_mb"] = rss
	} else if err := w.traced(ctx, rep); err != nil {
		return nil, err
	}
	bad, err := w.check(ctx)
	if err != nil {
		return nil, err
	}
	rep.Mismatches += bad
	rep.Failed += bad
	rep.Config["cold_checks_failed"] = bad
	return rep, nil
}

func (w *sessionLive) traced(ctx context.Context, rep *report) error {
	var before *statsz
	reads := 0
	plain, traced, err := w.gen.traced(ctx, w.arrivals, w.o.Seconds, rep, func() error {
		// The mirrors start from the updates the untraced phase applied.
		for _, s := range w.sessions {
			var ups []repro.Update
			for _, u := range s.log {
				if u.applied {
					ups = append(ups, repro.Update{Src: u.update.k.u, Dst: u.update.k.v, Weight: u.update.w})
				}
			}
			if len(ups) > 0 {
				var err error
				if s.mirror, err = s.base.WithUpdates(ups); err != nil {
					return err
				}
			}
		}
		var err error
		before, err = w.d.statsz(ctx)
		w.tracer = newTracer()
		return err
	}, func(a *arrival) error {
		if err := w.replay(a); err != nil {
			return err
		}
		inf := a.Info.(*slInfo)
		if inf.update != nil || a.failed() {
			return nil
		}
		if reads++; reads%slColdEvery != 1 {
			return nil
		}
		s := w.sessions[inf.session]
		return w.cold(s, s.scores.G)
	})
	if err != nil {
		return err
	}
	after, err := w.d.statsz(ctx)
	if err != nil {
		return err
	}
	t := w.tracer
	if err := t.write(tracePath(w.o)); err != nil {
		return err
	}
	m := rep.Metrics
	for _, name := range []string{"graph.delta_apply", "graph.materialize", "filter.extract", "backboned.digest"} {
		d, _ := t.durations(name)
		m[name+"_ms"] = medianOr0(d)
	}
	write, wbytes := t.durations("graph.write")
	m["graph.write_ms"] = medianOr0(write)
	m["graph.write_bytes"] = meanInt(wbytes)
	read, rbytes := t.durations("graph.read")
	m["graph.read_ms"] = medianOr0(read)
	m["graph.read_mb_s"] = ratio(meanInt(rbytes)/1e6, m["graph.read_ms"]/1e3)
	for _, meth := range []string{"nc", "df"} {
		d, _ := t.durations("filter.rescore." + meth)
		m["filter.rescore_ms."+meth] = medianOr0(d)
		d, _ = t.durations("filter.score." + meth)
		m["filter.score_ms."+meth] = medianOr0(d)
	}
	var rescored []int64
	for _, a := range traced {
		if inf := a.Info.(*slInfo); inf.update == nil && !a.failed() {
			rescored = append(rescored, int64(inf.rescored))
		}
	}
	m["filter.rescored_rows_per_read"] = meanInt(rescored)
	m["session.full_rescore_share"] = ratio(float64(after.Sessions.FullRescores-before.Sessions.FullRescores), float64(after.Sessions.Reads-before.Sessions.Reads))
	front, _ := t.selfTimes("op")
	m["backboned.front_ms"] = medianOr0(front)
	admissionMetrics(m, []*statsz{before}, []*statsz{after})
	cacheMetrics(m, []*statsz{before}, []*statsz{after})
	m["gen.late_p99_ms"] = lateP99(traced)

	coldMs, _ := t.durations("cold")
	readP50 := medianOr0(latencies(plain, func(a *arrival) bool { return a.Class == "read" }))
	coldP50 := medianOr0(coldMs)
	m["ratio.incremental_vs_cold"] = ratio(coldP50, readP50)
	m["update_p50_ms"] = medianOr0(latencies(plain, func(a *arrival) bool { return a.Class == "update" }))
	m["p99_ms"] = p99OrMax(latencies(plain, nil))
	m["trace.overhead_frac"] = ratio(medianOr0(latencies(traced, nil)), medianOr0(latencies(plain, nil))) - 1
	rep.Config["ratio_bases"] = map[string]any{"ratio.incremental_vs_cold": map[string]float64{"read_p50_ms": readP50, "cold_parse_score_p50_ms": coldP50}}
	return nil
}
