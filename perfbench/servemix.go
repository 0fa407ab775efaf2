package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"strings"

	"repro"
	"repro/internal/fleet"
	"repro/internal/gen"
)

// serve-mix: a two-peer backboned fleet on loopback, every request a
// POST /backbone?method=nc to peer A. Most arrivals re-post one of a
// few hot Fig-4 noisy networks (score-cache hits, half of them owned by
// peer B so they cross the fleet hop); the rest are fresh bodies (a hot
// body plus a unique comment line: a new digest, the same graph), which
// parse and score in the cold lane beside the hits.

const (
	smHotPerPeer = 4
	smFreshEvery = 10  // one arrival in ten is a fresh body
	smNodes      = 200 // BA nodes: the complement-filled body has n(n-1)/2 edges
	smSmokeNodes = 60
	smBAm        = 1.5 // BA edges per new node: Fig. 4's mean degree of 3
	smEta        = 0.5
	smZipfS      = 1.1
)

// smCuts are the cuts a request draws from: nc's default delta, delta=0
// and the top 10%.
var smCuts = []struct {
	query string
	opts  []repro.Option
}{
	{"", nil},
	{"&delta=0", []repro.Option{repro.WithDelta(0)}},
	{"&frac=0.1", []repro.Option{repro.WithTopFraction(0.1)}},
}

// smFixedAddrs are the peers' addresses. They are fixed because the
// rendezvous owner of a body depends on them, and the bodies each peer
// owns are picked by owner.
var smFixedAddrs = []string{"127.0.0.1:47211", "127.0.0.1:47212"}

type smBody struct {
	csv    []byte
	g      *repro.Graph
	scores *repro.Scores
	refs   [][]byte // per cut
}

type smInfo struct {
	body     int
	fresh    []byte // the comment line that makes a fresh body; nil when hot
	cut      int
	cache    string
	servedBy string
	resp     []byte // kept for replay in traced runs
}

type serveMix struct {
	o      *options
	addrs  []string
	bodies []*smBody // zipf rank order
	peers  []*daemon
	procs  int
	flags  []string
	edges  int
	gen    *loadGen
	tracer *tracer // set for the traced phase of a traced run
}

// setup generates the bodies from the seed, computes their reference
// bytes, starts both peers and warms every (body, cut) once.
func (w *serveMix) setup(ctx context.Context) error {
	fl, err := fleet.New(fleet.Config{Self: w.addrs[0], Peers: w.addrs})
	if err != nil {
		return err
	}
	nodes := smNodes
	if w.o.Smoke {
		nodes = smSmokeNodes
	}
	rng := rand.New(rand.NewSource(w.o.Seed))
	var byPeer [2][]*smBody
	for len(byPeer[0]) < smHotPerPeer || len(byPeer[1]) < smHotPerPeer {
		nn := gen.AddNoise(rng, gen.BarabasiAlbert(rng, nodes, smBAm), smEta)
		var csv bytes.Buffer
		if err := repro.WriteGraph(&csv, nn.Noisy, repro.WithFormat("csv")); err != nil {
			return err
		}
		owner := 0
		if fl.Owner(sha256.Sum256(csv.Bytes())) == w.addrs[1] {
			owner = 1
		}
		if len(byPeer[owner]) < smHotPerPeer {
			byPeer[owner] = append(byPeer[owner], &smBody{csv: csv.Bytes()})
		}
	}
	// Alternate owners down the popularity ranks.
	w.bodies = nil
	for i := range smHotPerPeer {
		w.bodies = append(w.bodies, byPeer[0][i], byPeer[1][i])
	}
	for _, b := range w.bodies {
		if b.g, err = repro.ReadGraph(bytes.NewReader(b.csv), repro.WithFormat("csv")); err != nil {
			return err
		}
		if b.scores, err = repro.Score(b.g, repro.WithMethod("nc")); err != nil {
			return err
		}
		w.edges = b.g.NumEdges()
		b.refs = make([][]byte, len(smCuts))
		for i, c := range smCuts {
			// The one-call pipeline scores on its own: the reference does
			// not share the served path's precomputed table.
			res, err := repro.Backbone(b.g, append([]repro.Option{repro.WithMethod("nc")}, c.opts...)...)
			if err != nil {
				return err
			}
			var out bytes.Buffer
			if err := res.Backbone.WriteCSV(&out); err != nil {
				return err
			}
			b.refs[i] = out.Bytes()
		}
	}

	w.flags = []string{"-peers", strings.Join(w.addrs, ","), "-graph-cache-mb", "32", "-score-cache-mb", "16"}
	for i, addr := range w.addrs {
		args := append([]string{"-self", addr}, w.flags...)
		d, err := startDaemon(ctx, w.o.Backboned, addr, w.procs, args,
			filepath.Join(w.o.Out, "runs", fmt.Sprintf("%s-peer%d.log", w.o.Workload, i)))
		if err != nil {
			return err
		}
		w.peers = append(w.peers, d)
	}
	for bi, b := range w.bodies {
		for ci, c := range smCuts {
			got, err := post(ctx, w.peers[0].url("/backbone?method=nc"+c.query), "text/csv", b.csv)
			if err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
			if !bytes.Equal(got, b.refs[ci]) {
				return fmt.Errorf("warm-up body %d cut %d: %w", bi, ci, errMismatch)
			}
		}
	}
	return nil
}

func (w *serveMix) stop() {
	for _, d := range w.peers {
		d.stop()
	}
	w.peers = nil
}

// arrivals builds n ops on a fixed pattern: every smFreshEvery-th is a
// fresh copy of a uniformly drawn body, the rest re-post a hot body
// drawn by zipf rank, and the cuts take turns. Fixing where fresh
// bodies and cuts fall keeps a run's latency tail from hanging on how
// the seed happened to cluster them; the seed still draws the bodies.
func (w *serveMix) arrivals(phase int, rate float64, n int) []*arrival {
	rng := rand.New(rand.NewSource(w.o.Seed*1_000_003 + int64(phase)))
	zipf := rand.NewZipf(rng, smZipfS, 1, uint64(len(w.bodies)-1))
	as := make([]*arrival, n)
	for i := range as {
		inf := &smInfo{cut: i % len(smCuts)}
		class := "hot"
		if i%smFreshEvery == smFreshEvery-1 {
			class = "fresh"
			inf.body = rng.Intn(len(w.bodies))
			inf.fresh = []byte(fmt.Sprintf("# fresh %d %d %d\n", w.o.Seed, phase, i))
		} else {
			inf.body = int(zipf.Uint64())
		}
		as[i] = &arrival{Stream: -1, Class: class, Info: inf, Run: w.send}
	}
	return as
}

func (w *serveMix) send(ctx context.Context, a *arrival) error {
	inf := a.Info.(*smInfo)
	b := w.bodies[inf.body]
	body := io.Reader(bytes.NewReader(b.csv))
	size := len(b.csv) + len(inf.fresh)
	if inf.fresh != nil {
		body = io.MultiReader(body, bytes.NewReader(inf.fresh))
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.peers[0].url("/backbone?method=nc"+smCuts[inf.cut].query), body)
	if err != nil {
		return err
	}
	req.ContentLength = int64(size)
	req.Header.Set("Content-Type", "text/csv")
	buf, hdr, err := exchange(w.gen.client, req)
	if err != nil {
		return err
	}
	defer respBufs.Put(buf)
	inf.cache = hdr.Get("X-Backbone-Cache")
	inf.servedBy = hdr.Get("X-Backbone-Served-By")
	if !bytes.Equal(buf.Bytes(), b.refs[inf.cut]) {
		return errMismatch
	}
	if w.tracer != nil {
		inf.resp = bytes.Clone(buf.Bytes())
	}
	return nil
}

// replay re-runs a finished op through the library calls the daemon
// made for it, off the op's clock: digest; parse and score when the
// response says the score cache missed; extract; write. The replayed
// bytes must equal the response.
func (w *serveMix) replay(a *arrival) error {
	if a.failed() {
		return nil
	}
	inf := a.Info.(*smInfo)
	b := w.bodies[inf.body]
	op := w.tracer.newOp()
	w.tracer.finish(op, "op", a.due, a.end)
	r := w.tracer.replayOf(op, a.due)
	payload := b.csv
	if inf.fresh != nil {
		payload = append(bytes.Clone(b.csv), inf.fresh...)
	}
	r.child("backboned.digest", func() (int64, error) {
		sha256.Sum256(payload)
		return int64(len(payload)), nil
	})
	g, scores := b.g, b.scores
	if inf.cache != "hit" {
		if err := r.child("graph.read", func() (int64, error) {
			var err error
			g, err = repro.ReadGraph(bytes.NewReader(payload), repro.WithFormat("csv"))
			return int64(len(payload)), err
		}); err != nil {
			return err
		}
		if err := r.child("filter.score.nc", func() (int64, error) {
			var err error
			scores, err = repro.Score(g, repro.WithMethod("nc"))
			return 0, err
		}); err != nil {
			return err
		}
	}
	var res *repro.Result
	if err := r.child("filter.extract", func() (int64, error) {
		var err error
		opts := append([]repro.Option{repro.WithMethod("nc"), repro.WithScores(scores)}, smCuts[inf.cut].opts...)
		res, err = repro.Backbone(g, opts...)
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

// smAddrs returns the fixed peer addresses when they are free, else
// two free ones (the config records which).
func smAddrs() []string {
	for _, a := range smFixedAddrs {
		l, err := net.Listen("tcp", a)
		if err != nil {
			if addrs, err := freeAddrs(len(smFixedAddrs)); err == nil {
				return addrs
			}
			break
		}
		l.Close()
	}
	return smFixedAddrs
}

func runServeMix(ctx context.Context, o *options) (*report, error) {
	rep := newReport()
	w := &serveMix{o: o, addrs: smAddrs(), procs: max(1, o.Nproc/2)}
	defer w.stop()
	if err := setUp(o, rep, func() error { return w.setup(ctx) }, w.stop); err != nil {
		return nil, err
	}
	w.gen = newLoadGen(o.Nproc)
	rep.Config["nominal_rps"] = nominalRPS
	rep.Config["peers"] = w.addrs
	rep.Config["peer_flags"] = w.flags
	rep.Config["gomaxprocs_peers"] = w.procs
	rep.Config["connections"] = w.gen.conns
	rep.Config["edges_per_body"] = w.edges
	rep.Config["hot_bodies"] = len(w.bodies)
	rep.Config["fresh_every"] = smFreshEvery

	if !o.Trace {
		if err := w.gen.endToEnd(ctx, w.arrivals, o.Seconds, rep); err != nil {
			return nil, err
		}
		rss, err := peakRSS(w.peers)
		if err != nil {
			return nil, err
		}
		rep.Metrics["edges_per_s"] = rep.Metrics["capacity_rps"] * float64(w.edges)
		rep.Metrics["peak_rss_mb"] = rss
		return rep, nil
	}

	var before []*statsz
	plain, traced, err := w.gen.traced(ctx, w.arrivals, o.Seconds, rep, func() error {
		var err error
		before, err = w.stats(ctx)
		w.tracer = newTracer()
		return err
	}, w.replay)
	if err != nil {
		return nil, err
	}
	after, err := w.stats(ctx)
	if err != nil {
		return nil, err
	}
	t := w.tracer
	if err := t.write(tracePath(o)); err != nil {
		return nil, err
	}

	isHot := func(a *arrival) bool { return a.Class == "hot" }
	isFresh := func(a *arrival) bool { return a.Class == "fresh" }
	hitP50 := medianOr0(latencies(plain, isHot))
	coldP50 := medianOr0(latencies(plain, isFresh))
	m := rep.Metrics
	read, rbytes := t.durations("graph.read")
	m["graph.read_ms"] = medianOr0(read)
	m["graph.read_mb_s"] = ratio(meanInt(rbytes)/1e6, m["graph.read_ms"]/1e3)
	write, wbytes := t.durations("graph.write")
	m["graph.write_ms"] = medianOr0(write)
	m["graph.write_bytes"] = meanInt(wbytes)
	for metric, span := range map[string]string{
		"filter.score_ms.nc":  "filter.score.nc",
		"filter.extract_ms":   "filter.extract",
		"backboned.digest_ms": "backboned.digest",
	} {
		d, _ := t.durations(span)
		m[metric] = medianOr0(d)
	}
	front, _ := t.selfTimes("op")
	m["backboned.front_ms"] = medianOr0(front)
	admissionMetrics(m, before, after)
	cacheMetrics(m, before, after)

	served := map[string][]float64{}
	forwarded := 0
	for _, a := range traced {
		if a.failed() {
			continue
		}
		inf := a.Info.(*smInfo)
		if inf.servedBy != w.addrs[0] {
			forwarded++
		}
		if a.Class == "hot" {
			served[inf.servedBy] = append(served[inf.servedBy], a.latencyMs())
		}
	}
	m["fleet.forward_share"] = ratio(float64(forwarded), float64(len(traced)))
	m["fleet.hop_ms"] = medianOr0(served[w.addrs[1]]) - medianOr0(served[w.addrs[0]])
	var retries, fallbacks float64
	for i := range after {
		if before[i].Fleet == nil || after[i].Fleet == nil {
			continue
		}
		for j, p := range after[i].Fleet.Peers {
			retries += float64(p.Retries - before[i].Fleet.Peers[j].Retries)
			fallbacks += float64(p.Fallbacks - before[i].Fleet.Peers[j].Fallbacks)
		}
	}
	m["fleet.retries"] = retries
	m["fleet.fallbacks"] = fallbacks
	m["gen.late_p99_ms"] = lateP99(traced)
	m["ratio.hit_vs_cold"] = ratio(coldP50, hitP50)
	m["cold_p50_ms"] = coldP50
	m["p99_ms"] = p99OrMax(latencies(plain, nil))
	m["trace.overhead_frac"] = ratio(medianOr0(latencies(traced, nil)), medianOr0(latencies(plain, nil))) - 1
	rep.Config["ratio_bases"] = map[string]any{"ratio.hit_vs_cold": map[string]float64{"hot_p50_ms": hitP50, "cold_p50_ms": coldP50}}
	return rep, nil
}

func (w *serveMix) stats(ctx context.Context) ([]*statsz, error) {
	var out []*statsz
	for _, d := range w.peers {
		st, err := d.statsz(ctx)
		if err != nil {
			return nil, err
		}
		out = append(out, st)
	}
	return out, nil
}

// admissionMetrics diffs the peers' admission counters over a phase.
func admissionMetrics(m map[string]float64, before, after []*statsz) {
	var fastShed, fastAll, coldShed, coldAll, timeouts, decreases float64
	lat := map[string][2]float64{} // lane -> samples-weighted p50 sum, samples
	for i := range after {
		b, a := before[i].Admission, after[i].Admission
		fastShed += float64(a.Fast.Sheds - b.Fast.Sheds)
		coldShed += float64(a.Cold.Sheds - b.Cold.Sheds)
		fastAll += float64(a.Fast.Admitted-b.Fast.Admitted) + float64(a.Fast.Sheds-b.Fast.Sheds) + float64(a.Fast.QueueTimeouts-b.Fast.QueueTimeouts)
		coldAll += float64(a.Cold.Admitted-b.Cold.Admitted) + float64(a.Cold.Sheds-b.Cold.Sheds) + float64(a.Cold.QueueTimeouts-b.Cold.QueueTimeouts)
		timeouts += float64(a.Fast.QueueTimeouts-b.Fast.QueueTimeouts) + float64(a.Cold.QueueTimeouts-b.Cold.QueueTimeouts)
		decreases += float64(a.Decreases - b.Decreases)
		for key, kl := range a.Latency {
			lane := "cold"
			if fastKeys[key] {
				lane = "fast"
			}
			v := lat[lane]
			lat[lane] = [2]float64{v[0] + kl.P50Ms*float64(kl.Samples), v[1] + float64(kl.Samples)}
		}
	}
	m["admission.shed_frac.fast"] = ratio(fastShed, fastAll)
	m["admission.shed_frac.cold"] = ratio(coldShed, coldAll)
	m["admission.queue_timeouts"] = timeouts
	m["admission.limit_decreases"] = decreases
	m["admission.exec_p50_ms.fast"] = ratio(lat["fast"][0], lat["fast"][1])
	m["admission.exec_p50_ms.cold"] = ratio(lat["cold"][0], lat["cold"][1])
}

// fastKeys are the admission cost keys backboned runs in its fast lane;
// every other key (a method name, session-create) is cold work.
var fastKeys = map[string]bool{"cached": true, "session-read": true, "session-update": true}

// cacheMetrics diffs the peers' cache counters over a phase.
func cacheMetrics(m map[string]float64, before, after []*statsz) {
	var sh, sm, gh, gm, ev, bytes float64
	for i := range after {
		b, a := before[i], after[i]
		sh += float64(a.ScoreCache.Hits - b.ScoreCache.Hits)
		sm += float64(a.ScoreCache.Misses - b.ScoreCache.Misses)
		gh += float64(a.GraphCache.Hits - b.GraphCache.Hits)
		gm += float64(a.GraphCache.Misses - b.GraphCache.Misses)
		ev += float64(a.ScoreCache.Evictions-b.ScoreCache.Evictions) + float64(a.GraphCache.Evictions-b.GraphCache.Evictions)
		bytes += float64(a.ScoreCache.Bytes + a.GraphCache.Bytes)
	}
	m["cache.score_hit_ratio"] = ratio(sh, sh+sm)
	m["cache.graph_hit_ratio"] = ratio(gh, gh+gm)
	m["cache.evictions"] = ev
	m["cache.bytes"] = bytes
}
