package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/admission"
	"repro/internal/binfmt"
	"repro/internal/cache"
	"repro/internal/filter"
	"repro/internal/fleet"
	"repro/internal/graph"
	"repro/internal/resilient"
)

// statusClientClosedRequest is the nginx-convention status logged when
// the client went away before the pipeline finished.
const statusClientClosedRequest = 499

// graphKey content-addresses one parsed request body: the hash of the
// raw bytes plus everything else that shapes the resulting graph (the
// resolved input format or sniff/envelope mode, and directedness).
type graphKey struct {
	sum      [sha256.Size]byte
	mode     string // format name, "sniff", or "envelope"
	directed bool
}

// scoreKey addresses one method's significance table for one parsed
// graph. Method parameters are deliberately absent: they only move
// pruning thresholds, never the table, so a client re-posting the same
// network with a different delta scores nothing at all.
type scoreKey struct {
	g      graphKey
	method string
}

// serverConfig bundles the daemon's run controls.
type serverConfig struct {
	workers int           // hard concurrency cap (admission MaxConcurrent)
	timeout time.Duration // per-request wall clock budget
	maxBody int64
	// staticAdmission pins the concurrency limit at workers instead of
	// adapting it (-admission=static); lanes and deadline-aware
	// admission still apply.
	staticAdmission bool
	// admissionCfg, when non-nil, overrides the derived admission
	// config entirely (tests tune cooldowns, queues and clocks);
	// MaxConcurrent defaults to workers if left zero.
	admissionCfg *admission.Config
	// graphCacheBytes / scoreCacheBytes bound the content-addressed
	// caches; 0 disables one.
	graphCacheBytes int64
	scoreCacheBytes int64
	// graphDir, when non-empty, names a directory of pre-converted
	// <sha256>.bbg files (see backbone -convert -graphdir): a request
	// body whose digest names one is memory-mapped, not parsed.
	graphDir string
	// fleet, when non-nil, routes each scoring request body to its
	// owning peer by content digest and falls back to local execution
	// when that peer cannot answer.
	fleet *fleet.Fleet
	// fault, when non-nil, chaos-injects errors/latency/truncation
	// into the local serving path (-chaos and the fault-injection
	// tests).
	fault *resilient.Fault
	// maxSessions bounds resident incremental sessions (POST /session);
	// 0 selects defaultMaxSessions. The least-recently-used session is
	// evicted past the bound.
	maxSessions int
	logf        func(format string, args ...any)
}

// server is the backboned HTTP front end: a mux over the method
// registry plus the shared run controls every request goes through —
// the bounded worker pool, the per-request timeout, the typed-error to
// status-code mapping, and the content-addressed caches that let
// repeated identical bodies skip parsing and scoring.
type server struct {
	serverConfig
	mux *http.ServeMux
	// limiter is the adaptive, lane-aware worker-pool admission path
	// (internal/admission): AIMD concurrency limit under the -workers
	// hard cap, deadline-aware queueing, fast/cold priority lanes.
	limiter *admission.Limiter
	// Deadline accounting: expiredArrivals counts requests whose
	// propagated budget (X-Backbone-Deadline) was already spent on
	// arrival; expiredBeforeScoring counts scoring runs refused at the
	// last gate because the deadline passed while queued or parsing —
	// CPU the admission path saved. deadlineViolations counts scoring
	// runs that would have *started* past their deadline without the
	// gate noticing earlier; it is the runtime assertion the overload
	// e2e consumes and must stay zero.
	expiredArrivals      atomic.Uint64
	expiredBeforeScoring atomic.Uint64
	deadlineViolations   atomic.Uint64
	// graphs memoizes parsed request bodies; scores memoizes per-method
	// significance tables. Either may be nil (disabled) — the nil LRU
	// computes without caching.
	graphs   *cache.LRU[graphKey, *repro.Graph]
	scores   *cache.LRU[scoreKey, *repro.Scores]
	start    time.Time
	requests atomic.Uint64
	// bodyDigests counts sha256 computations over request bodies: the
	// pipeline derives each body's digest at most once (tests pin it).
	bodyDigests atomic.Uint64
	// evalRequests counts POST /evaluate calls; evalCacheSkips the
	// method-scoring runs those calls skipped thanks to the
	// content-addressed score cache (one per cached table).
	evalRequests   atomic.Uint64
	evalCacheSkips atomic.Uint64
	// mmapFiles memoizes one -graphdir load attempt per body digest —
	// mapped graphs are shared by every request for the life of the
	// process and never closed, so handing them out without refcounting
	// is safe.
	mmapMu    sync.Mutex
	mmapFiles map[[sha256.Size]byte]*mmapEntry
	// mmap fast-path counters: hits served a mapped graph, loads opened
	// a file, misses found no (or a directedness-mismatched) file,
	// errors hit an unreadable/corrupt one. sections/bytes gauge what
	// the successful loads keep mapped.
	mmapHits, mmapLoads, mmapMisses, mmapErrors atomic.Uint64
	mmapSections, mmapBytes                     atomic.Int64
	// sessions holds the incremental sessions (POST /session and
	// friends, session.go) by ID, each costing 1 against -max-sessions:
	// the least recently used is evicted past the bound.
	sessions *cache.LRU[string, *session]
	// Session counters. sessionInvalidations is the delta-invalidation
	// count the tentpole asks for: how many per-session score tables an
	// update stream dirtied (each will re-score only its dirty rows on
	// the next read). sessionRescoredRows totals those dirty rows;
	// sessionFullRescores counts reads that re-scored the whole table
	// (first touch, or a method with a global dirtiness signature).
	// sessionOwnerMiss counts 503s where the session's rendezvous owner
	// was unreachable — stateful routes never degrade to local.
	sessionCreates       atomic.Uint64
	sessionUpdates       atomic.Uint64
	sessionReads         atomic.Uint64
	sessionDeletes       atomic.Uint64
	sessionInvalidations atomic.Uint64
	sessionRescoredRows  atomic.Uint64
	sessionFullRescores  atomic.Uint64
	sessionOwnerMiss     atomic.Uint64
	// draining flips when graceful shutdown begins: /readyz turns 503
	// so load balancers and peers stop routing here, while /healthz
	// stays 200 (the process is alive, just leaving).
	draining atomic.Bool
	// onError observes every request failure after status mapping; a
	// test hook, nil outside tests.
	onError func(status int, err error)
}

func newServer(cfg serverConfig) *server {
	if cfg.workers < 1 {
		cfg.workers = 1
	}
	if cfg.logf == nil {
		cfg.logf = func(string, ...any) {}
	}
	acfg := admission.Config{MaxConcurrent: cfg.workers, Adaptive: !cfg.staticAdmission}
	if cfg.admissionCfg != nil {
		acfg = *cfg.admissionCfg
		if acfg.MaxConcurrent == 0 {
			acfg.MaxConcurrent = cfg.workers
		}
	}
	limiter, err := admission.NewLimiter(acfg)
	if err != nil {
		// Unreachable: workers is floored to 1 above and the override
		// path fills MaxConcurrent; fail loud rather than serve unbounded.
		panic(err)
	}
	if cfg.maxSessions <= 0 {
		cfg.maxSessions = defaultMaxSessions
	}
	s := &server{
		serverConfig: cfg,
		mux:          http.NewServeMux(),
		limiter:      limiter,
		graphs:       cache.New[graphKey, *repro.Graph](cfg.graphCacheBytes),
		scores:       cache.New[scoreKey, *repro.Scores](cfg.scoreCacheBytes),
		mmapFiles:    map[[sha256.Size]byte]*mmapEntry{},
		start:        time.Now(),
		sessions:     cache.New[string, *session](int64(cfg.maxSessions)),
	}
	s.mux.HandleFunc("/", s.handleIndex)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("/statsz", s.handleStatsz)
	s.mux.HandleFunc("/metricsz", s.handleMetricsz)
	s.mux.HandleFunc("/methods", s.handleMethods)
	s.mux.HandleFunc("/formats", s.handleFormats)
	run := &endpoint{s: s, post: true, classify: s.classifyBody, compute: s.computeRun}
	s.mux.Handle("/backbone", run)
	s.mux.Handle("/score", run)
	s.mux.Handle("/evaluate", &endpoint{
		s: s, post: true, multi: true, count: &s.evalRequests,
		classify: s.classifyBody, compute: s.computeEvaluate,
	})
	s.mux.Handle("POST /session", &endpoint{
		s: s, pinned: true, classify: laneOf(admission.Cold, "session-create"), compute: s.computeSessionCreate,
	})
	s.mux.Handle("POST /session/{id}/update", &endpoint{
		s: s, byID: true, pinned: true, classify: laneOf(admission.Fast, "session-update"), compute: s.computeSessionUpdate,
	})
	read := &endpoint{s: s, byID: true, pinned: true, classify: s.classifySessionRead, compute: s.computeSessionRead}
	s.mux.Handle("GET /session/{id}/backbone", read)
	s.mux.Handle("GET /session/{id}/score", read)
	s.mux.Handle("DELETE /session/{id}", &endpoint{s: s, byID: true, pinned: true, compute: s.computeSessionDelete})
	return s
}

// graphCost approximates a parsed graph's resident bytes: canonical
// edges, CSR arcs, strengths, labels and the label index.
func graphCost(g *repro.Graph) int64 {
	cost := int64(g.NumEdges())*56 + int64(g.NumNodes())*28 + 256
	for _, l := range g.Labels() {
		cost += int64(len(l)) * 2 // label storage + index key
	}
	return cost
}

// scoresCost approximates a significance table's resident bytes. The
// graph it references is accounted by the graph cache.
func scoresCost(sc *repro.Scores) int64 {
	cost := int64(len(sc.Score))*8 + 128
	for _, col := range sc.Aux {
		cost += int64(len(col)) * 8
	}
	return cost
}

func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// fail writes a JSON error body with the status implied by the error's
// type and notifies the test hook.
func (s *server) fail(w http.ResponseWriter, status int, err error) {
	if s.onError != nil {
		s.onError(status, err)
	}
	s.logf("error: %d %v", status, err)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// statusFor maps pipeline errors onto HTTP statuses: the exported
// sentinel/typed errors are caller mistakes (400), context expiry is a
// timeout (504), a vanished client is 499, anything else is a 500.
func statusFor(err error) int {
	var pe *repro.ParamError
	var se *statusError
	switch {
	case errors.As(err, &se):
		return se.status
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return statusClientClosedRequest
	case errors.Is(err, repro.ErrUnknownMethod),
		errors.Is(err, repro.ErrUnknownParam),
		errors.Is(err, repro.ErrNoScorer),
		errors.Is(err, repro.ErrUnknownFormat),
		errors.Is(err, repro.ErrLineTooLong),
		errors.Is(err, repro.ErrUnwritableLabel),
		errors.As(err, &pe):
		return http.StatusBadRequest
	default:
		return http.StatusInternalServerError
	}
}

func (s *server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, `backboned — network backboning as a service

GET  /methods            registered methods and their parameter schemas (JSON)
GET  /formats            registered edge-list formats (JSON)
GET  /healthz            liveness probe (200 until the process exits)
GET  /readyz             routability probe (503 once SIGTERM drain begins)
GET  /statsz             uptime, request, cache, admission, session and fleet counters (JSON)
GET  /metricsz           the same counters in Prometheus text exposition format
POST /backbone           extract a backbone from the edge list in the body
POST /score              per-edge significance table for the body's edge list
POST /evaluate           grade every method on the body's edge list (JSON report)
POST /session            open an incremental session over the body's edge list
POST /session/{id}/update   apply batched edge upserts/deletes to a session
GET  /session/{id}/backbone backbone of the session's current edge set (incremental)
GET  /session/{id}/score    score table of the session's current edge set (incremental)
DELETE /session/{id}        close a session

Query parameters for POST: method (default nc), any method parameter
(delta, alpha, ...), top, frac, directed, format (input),
outformat (csv|tsv|ndjson), response=json. parallel is accepted and
ignored: scoring uses every CPU on graphs above 4096 edges. The body
is an edge list in any registered format (gzip accepted, format
sniffed), or a JSON envelope
{"method":..., "params":{...}, "edges":[{"src":..,"dst":..,"weight":..}]}.

POST /evaluate compares every registered method (or ?methods=nc,df,...)
at one common backbone size (?top= / ?frac=, default the top 10% of
edges) under the paper's criteria and returns the scored ranking as
JSON; undefined criteria (NaN) encode as null.

Responses carry X-Backbone-Cache: "hit" when a content-addressed cache
match let the request skip parsing and scoring, else "miss". Re-posting
the same body with different method parameters (delta, alpha, top, ...)
is always a hit: parameters move thresholds, never the score table.
/evaluate reports "hit" when every method's table was cached — the
whole comparison ran without scoring a single edge.

Admission is adaptive (AIMD under the -workers hard cap) with two
priority lanes: requests whose score tables are already cached take the
fast lane; cold scoring queues behind a reserved-slot cold lane. A 503
response carries a Retry-After computed from current queue depth and
observed latency. Requests may carry X-Backbone-Deadline (remaining
budget, integer milliseconds); an exhausted budget is refused with 504
before any work runs, and fleet forwards re-stamp the header minus the
estimated transit cost per attempt.

Sessions make updates cheap: POST /session parses the body once and
answers with a session ID; POST /session/{id}/update applies batched
edge upserts/deletes ({"updates":[{"src":"a","dst":"b","weight":2}]},
weight 0 deletes); GET /session/{id}/backbone|/score answer for the
updated edge set by re-scoring only the rows the updates could have
changed — bit-identical to re-posting the whole modified edge list,
without re-parsing, rebuilding or re-scoring it. Responses carry
X-Backbone-Rescored (rows re-scored by this read) next to the usual
headers. Sessions are bounded by -max-sessions (LRU-evicted past it)
and closed with DELETE /session/{id}.

In fleet mode (-peers/-self) each request body is routed to its owning
peer by content digest; responses carry X-Backbone-Served-By (the peer
that computed the answer) and, when the owner was unreachable and this
peer computed the result itself, X-Backbone-Degraded with the reason
(peer-unavailable | breaker-open). Session IDs embed the creating
body's digest, so session traffic pins to the body's rendezvous owner;
because only the owner holds the session state, an unreachable owner
is a 503 (retry later), never a degraded local answer.
`)
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

// handleReadyz is the routability probe: 200 while the daemon accepts
// new work, 503 the moment SIGTERM drain begins — so a load balancer
// or fleet peer stops sending traffic to a process that is on its way
// out, while /healthz keeps answering 200 (alive, not ready).
func (s *server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.draining.Load() {
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, "draining\n")
		return
	}
	io.WriteString(w, "ready\n")
}

// beginDrain flips /readyz to 503. Called once when graceful shutdown
// starts, before in-flight requests are drained.
func (s *server) beginDrain() { s.draining.Store(true) }

// paramJSON / methodJSON are the wire form of the registry schema.
type paramJSON struct {
	Name    string  `json:"name"`
	Default float64 `json:"default"`
	Integer bool    `json:"integer,omitempty"`
	Desc    string  `json:"desc"`
}

type methodJSON struct {
	Name      string      `json:"name"`
	Title     string      `json:"title"`
	Desc      string      `json:"desc"`
	Params    []paramJSON `json:"params"`
	CanScore  bool        `json:"can_score"`
	FixedSize bool        `json:"fixed_size,omitempty"`
	Parallel  bool        `json:"parallel,omitempty"` // a range scorer: rows split across CPUs
}

func (s *server) handleMethods(w http.ResponseWriter, r *http.Request) {
	var out []methodJSON
	for _, m := range repro.Methods() {
		_, ranged := m.Scorer.(filter.RangeScorer)
		mj := methodJSON{
			Name:      m.Name,
			Title:     m.Title,
			Desc:      m.Desc,
			Params:    []paramJSON{},
			CanScore:  m.CanScore(),
			FixedSize: m.FixedSize,
			Parallel:  ranged,
		}
		for _, p := range m.Params {
			mj.Params = append(mj.Params, paramJSON{Name: p.Name, Default: p.Default, Integer: p.Integer, Desc: p.Desc})
		}
		out = append(out, mj)
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

type formatJSON struct {
	Name    string   `json:"name"`
	Exts    []string `json:"exts"`
	Desc    string   `json:"desc"`
	Sniffed bool     `json:"sniffed"`
}

func (s *server) handleFormats(w http.ResponseWriter, r *http.Request) {
	var out []formatJSON
	for _, f := range repro.Formats() {
		out = append(out, formatJSON{Name: f.Name, Exts: f.Exts, Desc: f.Desc, Sniffed: f.Sniff != nil})
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

// envelope is the JSON request body alternative to a raw edge list.
// Query parameters override envelope fields. Unknown fields, such as
// the no-op "parallel", are ignored.
type envelope struct {
	Method   string             `json:"method"`
	Params   map[string]float64 `json:"params"`
	Top      *int               `json:"top"`
	Frac     *float64           `json:"frac"`
	Directed bool               `json:"directed"`
	Edges    []envelopeEdge     `json:"edges"`
}

type envelopeEdge struct {
	Src    any      `json:"src"`
	Dst    any      `json:"dst"`
	Weight *float64 `json:"weight"`
}

// contentTypeFormat maps common edge-list content types to registered
// format names; empty means sniff.
func contentTypeFormat(ct string) string {
	switch ct {
	case "text/csv":
		return "csv"
	case "text/tab-separated-values":
		return "tsv"
	case "application/x-ndjson", "application/ndjson", "application/jsonl":
		return "ndjson"
	}
	return ""
}

// buildEnvelopeGraph constructs the graph carried inline in a JSON
// envelope.
func buildEnvelopeGraph(env *envelope, directed bool) (*repro.Graph, error) {
	b := repro.NewBuilder(directed)
	for i, e := range env.Edges {
		src, err := graph.JSONLabel(e.Src)
		if err != nil {
			return nil, fmt.Errorf("edges[%d].src: %v", i, err)
		}
		dst, err := graph.JSONLabel(e.Dst)
		if err != nil {
			return nil, fmt.Errorf("edges[%d].dst: %v", i, err)
		}
		if e.Weight == nil {
			return nil, fmt.Errorf("edges[%d]: missing weight", i)
		}
		if err := b.AddEdgeLabels(src, dst, *e.Weight); err != nil {
			return nil, fmt.Errorf("edges[%d]: %v", i, err)
		}
	}
	return b.Build(), nil
}

// mmapEntry memoizes one -graphdir load attempt for one body digest.
// The File reference keeps the mapping's owner reachable; the daemon
// never closes it (mapped graphs are shared across requests for the
// life of the process, and clean mapped pages are the kernel's to
// reclaim). A failed load records the file's stat identity at failure
// time so a later request can tell a healed file (re-converted in
// place: size or mtime moved) from the same corrupt bytes.
type mmapEntry struct {
	mu   sync.Mutex
	file *binfmt.File
	g    *repro.Graph
	// failed marks a load that errored on an existing file; failSize /
	// failTime are that file's stat identity when the load failed
	// (failSize -1 when even stat failed).
	failed   bool
	failSize int64
	failTime time.Time
}

// mmapGraph resolves a request-body digest against -graphdir: when
// <dir>/<hex-digest>.bbg exists and its directedness matches the
// request, the memory-mapped graph is returned and the body is never
// parsed. Each digest loads at most once, concurrent first requests
// included. A missing file is forgotten so a conversion that lands
// later is picked up. An unreadable or corrupt file is remembered as
// failed, but not forever: each later request re-stats the file and
// retries the load once the size or mtime moved, so re-running
// `backbone -convert` heals the entry without a daemon restart — while
// the unchanged corrupt file stays one counted error, not one per
// request. Either way the caller falls back to parsing the body it
// already holds — -graphdir is an accelerator, never a correctness
// dependency.
func (s *server) mmapGraph(sum [sha256.Size]byte, directed bool) *repro.Graph {
	if s.graphDir == "" {
		return nil
	}
	s.mmapMu.Lock()
	e, ok := s.mmapFiles[sum]
	if !ok {
		e = &mmapEntry{}
		s.mmapFiles[sum] = e
	}
	s.mmapMu.Unlock()

	e.mu.Lock()
	if e.g == nil {
		path := filepath.Join(s.graphDir, hex.EncodeToString(sum[:])+".bbg")
		attempt := true
		if e.failed {
			// Revalidate the memoized failure: only a file whose stat
			// identity changed (or vanished) is worth retrying.
			fi, err := os.Stat(path)
			attempt = err != nil || fi.Size() != e.failSize || !fi.ModTime().Equal(e.failTime)
		}
		if attempt {
			f, err := binfmt.Open(path)
			switch {
			case err == nil:
				e.file, e.g = f, f.Graph()
				e.failed = false
				s.mmapLoads.Add(1)
				s.mmapSections.Add(int64(f.Sections()))
				s.mmapBytes.Add(f.MappedBytes())
			case errors.Is(err, os.ErrNotExist):
				s.mmapMisses.Add(1)
				s.mmapMu.Lock()
				delete(s.mmapFiles, sum)
				s.mmapMu.Unlock()
				e.mu.Unlock()
				return nil
			default:
				s.mmapErrors.Add(1)
				e.failed = true
				e.failSize, e.failTime = -1, time.Time{}
				if fi, statErr := os.Stat(path); statErr == nil {
					e.failSize, e.failTime = fi.Size(), fi.ModTime()
				}
				s.logf("graphdir: %v (parsing the body instead)", err)
			}
		}
	}
	g := e.g
	e.mu.Unlock()
	if g == nil {
		return nil
	}
	if g.Directed() != directed {
		// The file header records how the graph was converted; a request
		// asking for the other orientation parses the body as usual.
		s.mmapMisses.Add(1)
		return nil
	}
	s.mmapHits.Add(1)
	return g
}

// handleStatsz reports process uptime, request count, cache counters
// and — in fleet mode — per-peer forwarding/breaker counters as JSON:
// the daemon's operational introspection endpoint.
func (s *server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	out := map[string]any{
		"uptime_seconds": int64(time.Since(s.start).Seconds()),
		"requests":       s.requests.Load(),
		"draining":       s.draining.Load(),
		"graph_cache":    s.graphs.Stats(),
		"score_cache":    s.scores.Stats(),
		"evaluate": map[string]uint64{
			"requests":    s.evalRequests.Load(),
			"cache_skips": s.evalCacheSkips.Load(),
		},
		"sessions": map[string]any{
			"active":              s.sessions.Len(),
			"creates":             s.sessionCreates.Load(),
			"updates":             s.sessionUpdates.Load(),
			"reads":               s.sessionReads.Load(),
			"deletes":             s.sessionDeletes.Load(),
			"evictions":           s.sessions.Stats().Evictions,
			"delta_invalidations": s.sessionInvalidations.Load(),
			"rescored_rows":       s.sessionRescoredRows.Load(),
			"full_rescores":       s.sessionFullRescores.Load(),
			"owner_unavailable":   s.sessionOwnerMiss.Load(),
		},
		"admission": struct {
			admission.Stats
			ExpiredArrivals      uint64 `json:"expired_arrivals"`
			ExpiredBeforeScoring uint64 `json:"expired_before_scoring"`
			DeadlineViolations   uint64 `json:"deadline_violations"`
		}{
			Stats:                s.limiter.Stats(),
			ExpiredArrivals:      s.expiredArrivals.Load(),
			ExpiredBeforeScoring: s.expiredBeforeScoring.Load(),
			DeadlineViolations:   s.deadlineViolations.Load(),
		},
	}
	if s.graphDir != "" {
		out["mmap"] = map[string]any{
			"hits":         s.mmapHits.Load(),
			"misses":       s.mmapMisses.Load(),
			"errors":       s.mmapErrors.Load(),
			"graphs":       s.mmapLoads.Load(),
			"sections":     s.mmapSections.Load(),
			"mapped_bytes": s.mmapBytes.Load(),
		}
	}
	if s.fleet != nil {
		out["fleet"] = map[string]any{
			"self":  s.fleet.Self(),
			"peers": s.fleet.Stats(),
		}
	}
	if s.fault != nil {
		out["fault_injection"] = s.fault.Stats()
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

// responseContentType maps a registered format name to its media type.
func responseContentType(format string) string {
	switch format {
	case "csv":
		return "text/csv; charset=utf-8"
	case "tsv":
		return "text/tab-separated-values; charset=utf-8"
	case "ndjson":
		return "application/x-ndjson"
	}
	return "text/plain; charset=utf-8"
}

// edgeJSON is one backbone edge or score-table row in JSON responses.
// Score is set on score rows only, where a zero score is written like
// any other.
type edgeJSON struct {
	Src    string   `json:"src"`
	Dst    string   `json:"dst"`
	Weight float64  `json:"weight"`
	Score  *float64 `json:"score,omitempty"`
}

// graphEdges flattens a graph's canonical edges into wire form.
func graphEdges(g *repro.Graph) []edgeJSON {
	out := make([]edgeJSON, 0, g.NumEdges())
	for _, e := range g.Edges() {
		out = append(out, edgeJSON{Src: g.LabelOrID(int(e.Src)), Dst: g.LabelOrID(int(e.Dst)), Weight: e.Weight})
	}
	return out
}

// writeBackbone is the write stage of a backbone answer over input
// graph g. It returns only errors raised before the first byte.
func (s *server) writeBackbone(c *call, g *repro.Graph, res *repro.Result) error {
	w := c.w
	params, _ := json.Marshal(res.Params)
	w.Header().Set("X-Backbone-Method", res.Method)
	w.Header().Set("X-Backbone-Params", string(params))
	w.Header().Set("X-Backbone-Edges", strconv.Itoa(res.Backbone.NumEdges()))
	w.Header().Set("X-Backbone-Duration-Ms", strconv.FormatInt(res.Duration.Milliseconds(), 10))
	if c.asJSON {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{
			"method":        res.Method,
			"title":         res.Title,
			"params":        res.Params,
			"input_nodes":   g.NumNodes(),
			"input_edges":   g.NumEdges(),
			"nodes":         res.Backbone.NumConnected(),
			"edges":         len(res.Backbone.Edges()),
			"node_coverage": res.NodeCoverage,
			"edge_coverage": res.EdgeCoverage,
			"duration_ms":   res.Duration.Milliseconds(),
			"backbone":      graphEdges(res.Backbone),
		})
		return nil
	}
	w.Header().Set("Content-Type", responseContentType(c.outFormat))
	if err := repro.WriteGraph(w, res.Backbone, repro.WithFormat(c.outFormat)); err != nil {
		if errors.Is(err, repro.ErrUnwritableLabel) {
			return err // rejected before the first byte
		}
		s.logf("write response: %v", err)
	}
	return nil
}

// writeScores is the write stage of a score-table answer. It returns
// only errors raised before the first byte.
func (s *server) writeScores(c *call, scores *repro.Scores) error {
	w := c.w
	g := scores.G
	edges := g.Edges()
	row := func(i int) edgeJSON {
		e := edges[i]
		return edgeJSON{Src: g.LabelOrID(int(e.Src)), Dst: g.LabelOrID(int(e.Dst)), Weight: e.Weight, Score: &scores.Score[i]}
	}
	w.Header().Set("X-Backbone-Method", scores.Method)
	w.Header().Set("X-Backbone-Edges", strconv.Itoa(len(edges)))
	if c.asJSON {
		rows := make([]edgeJSON, len(edges))
		for i := range edges {
			rows[i] = row(i)
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{"method": scores.Method, "scores": rows})
		return nil
	}
	w.Header().Set("Content-Type", responseContentType(c.outFormat))
	bw := bufio.NewWriter(w)
	defer bw.Flush()
	if c.outFormat == "ndjson" {
		enc := json.NewEncoder(bw)
		for i := range edges {
			enc.Encode(row(i))
		}
		return nil
	}
	sep := byte(',')
	if c.outFormat == "tsv" {
		sep = '\t'
	}
	if err := g.CheckLabels(sep); err != nil {
		return err // nothing buffered yet: rejected before the first byte
	}
	fmt.Fprintf(bw, "src%cdst%cweight%cscore\n", sep, sep, sep)
	for i, e := range edges {
		fmt.Fprintf(bw, "%s%c%s%c%s%c%s\n",
			g.LabelOrID(int(e.Src)), sep, g.LabelOrID(int(e.Dst)), sep,
			strconv.FormatFloat(e.Weight, 'g', -1, 64), sep,
			strconv.FormatFloat(scores.Score[i], 'g', -1, 64))
	}
	return nil
}
